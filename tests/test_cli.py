import json
import os

import numpy as np
import pytest

from sumparts.cli import main
from sumparts.instances import load_bundled_tsp, synthetic_orlib_text


@pytest.fixture(scope="module")
def eil51_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "eil51.tsp"
    from importlib import resources

    path.write_text(resources.files("sumparts.data").joinpath("eil51.tsp").read_text())
    return str(path)


def test_solve_emits_trace_csv(eil51_path, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["solve", "--alg", "ils", "--instance", eil51_path,
                 "--seed", "7", "--max-fe", "1e5", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# invocation: sumparts solve")
    assert "--seed 7" in lines[0]
    assert "fe,best_f" in lines
    data_rows = [l for l in lines if l and not l.startswith("#") and l != "fe,best_f"]
    assert all("," in r for r in data_rows)


def test_solve_deterministic_bytes(eil51_path, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["solve", "--alg", "ils_nds", "--instance", eil51_path,
                     "--seed", "3", "--max-fe", "5e4", "--a", "2", "-o", str(out)]) == 0
        outs.append(out.read_text())
    # invocation lines differ by output path; compare the rest
    strip = lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("# invocation"))
    assert strip(outs[0]) == strip(outs[1])


def test_sweep_a_rows_increasing(eil51_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-a", "--instance", eil51_path, "--a", "-12,0,10",
                 "--seed", "1", "-o", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("a,")]
    assert len(rows) == 3
    rhos = [float(r[1]) for r in rows]
    assert rhos[0] < rhos[1] < rhos[2]


def test_decompose_sidecar(eil51_path, tmp_path):
    out = tmp_path / "split.json"
    assert main(["decompose", "--instance", eil51_path, "--a", "2",
                 "--seed", "5", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "tsp"
    assert payload["seed"] == 5
    assert "invocation" in payload
    from sumparts.decomposition import split_from_json

    split = split_from_json(json.dumps(payload), load_bundled_tsp("eil51"))
    assert split.rho == payload["rho"]


def test_analyze_table(eil51_path, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["analyze", "--instance", eil51_path, "--a", "0,2",
                 "--optima", "3", "--seed", "2", "-o", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0].split(",")[:4] == ["instance", "a", "rho", "sample_size"]
    assert len(lines) == 3


def test_qubo_solve_from_sparse_file(tmp_path):
    path = tmp_path / "synth.sparse"
    path.write_text(synthetic_orlib_text(60, seed=2))
    out = tmp_path / "trace.csv"
    assert main(["solve", "--alg", "its", "--instance", str(path),
                 "--seed", "1", "--max-fe", "2e4", "-o", str(out)]) == 0
    assert "fe,best_f" in out.read_text()


def test_bench_campaign(tmp_path, eil51_path, capsys):
    campaign = {
        "instances": {"eil51": eil51_path},
        "algorithms": [{"algorithm": "ils", "max_fe": 2e4}],
        "seeds": [0, 1],
        "reference_algorithm": "ils",
    }
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign))
    assert main(["bench", "--campaign", str(spec_path),
                 "--out-dir", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out
    assert "instance,algorithm" in printed
    assert (tmp_path / "out" / "traces" / "eil51_ils_s0.csv").exists()


def test_bench_failed_cell_exit_code(tmp_path, eil51_path, capsys):
    campaign = {
        "instances": {"eil51": eil51_path},
        "algorithms": [{"algorithm": "ils", "max_fe": 2e3},
                       {"algorithm": "its", "max_fe": 2e3}],  # its needs a UBQP
        "seeds": [0],
    }
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign))
    assert main(["bench", "--campaign", str(spec_path)]) == 3
    captured = capsys.readouterr()
    assert "# failed: eil51 its: 1 of 1 cells" in captured.out
    assert "1 campaign cells failed" in captured.err


def test_verify_passes():
    assert main(["verify", "--n", "7", "--seed", "3"]) == 0


def test_usage_error_exit_code():
    assert main(["solve", "--alg", "nope", "--instance", "x"]) == 2
    assert main(["solve", "--instance", "missing-file.tsp", "--alg", "ils"]) == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
