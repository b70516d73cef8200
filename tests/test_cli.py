import json
import warnings

import pytest

from sumparts import bench, cli, decomposition, landscape, metaheuristics, search
from sumparts.cli import _merge_negative_values, build_parser, main
from sumparts.instances import QuboInstance, synthetic_orlib_text
from sumparts.search import TwoOptNeighborhood


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


def test_sweep_a_leaves_splits_sparse(eil51_path, tmp_path, monkeypatch):
    """sweep-a reads no dense f1 matrix, so it builds none."""
    real, splits = decomposition.sample_split, []

    def recording(inst, params):
        splits.append(real(inst, params))
        return splits[-1]

    monkeypatch.setattr(decomposition, "sample_split", recording)
    assert main(["sweep-a", "--instance", eil51_path, "--a", "-12,10",
                 "--seed", "1", "-o", str(tmp_path / "sweep.csv")]) == 0
    assert len(splits) == 2
    assert all("mat1" not in vars(split) for split in splits)


@pytest.fixture(scope="module")
def ubqp60_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth60.sparse"
    path.write_text(synthetic_orlib_text(60, seed=1))
    return str(path)


@pytest.mark.parametrize("instance", ["eil51_path", "ubqp60_path"],
                         ids=["eil51", "ubqp60"])
def test_analyze_table(instance, request, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["analyze", "--instance", request.getfixturevalue(instance), "--a", "0,2",
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


def test_ubqp_load_builds_one_instance_named_by_file_stem(tmp_path, monkeypatch):
    path = tmp_path / "bqp60.sparse"
    path.write_text(synthetic_orlib_text(60, seed=1))
    built = []
    post_init = QuboInstance.__post_init__

    def counting(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(QuboInstance, "__post_init__", counting)
    assert cli._load(str(path)).name == "bqp60"
    assert built == ["bqp60"]


_SQUARE = """NAME: square
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 1 0
3 1 {}
4 0 1
EOF
"""

_MATRIX = """NAME: m
DIMENSION: 4
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 2 3 4
2 0 5 6
3 5 0 {}
4 6 7 0
"""


@pytest.mark.parametrize("text, error", [
    (_SQUARE.format("nan"), "error: non-finite coordinate line 7: '3 1 nan'"),
    (_SQUARE.format("inf"), "error: non-finite coordinate line 7: '3 1 inf'"),
    (_SQUARE.format("1e400"), "error: non-finite coordinate line 7: '3 1 1e400'"),
    (_MATRIX.format("-inf"), "error: non-finite weight line 8: '3 5 0 -inf'"),
    ("2 1\n1 2 inf\n", "error: non-finite value in triple #1: ('1', '2', 'inf')"),
    ("2 1\n1 2 1e400\n", "error: non-finite value in triple #1: ('1', '2', '1e400')"),
    ("2 1\n1 2 nan\n", "error: non-finite value in triple #1: ('1', '2', 'nan')"),
], ids=["coordinate-nan", "coordinate-inf", "coordinate-overflow", "weight-inf",
        "ubqp-inf", "ubqp-overflow", "ubqp-nan"])
def test_solve_refuses_non_finite_numbers(tmp_path, capsys, text, error):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["solve", "--alg", "ils", "--instance", str(path), "--max-fe", "100"]) == 2
    assert capsys.readouterr().err.strip() == error


def test_solve_refuses_malformed_triple_under_huge_header(tmp_path, capsys):
    # the header's 10**6 variables would need a 7.3 TiB matrix: nothing is allocated
    path = tmp_path / "huge.sparse"
    path.write_text("1000000 1\n1 1 x\n")
    assert main(["solve", "--alg", "its", "--instance", str(path), "--max-fe", "100"]) == 2
    assert capsys.readouterr().err.strip() == "error: malformed triple #1: ('1', '1', 'x')"


def test_solve_refuses_coordinates_whose_costs_overflow(tmp_path, capsys):
    # a squared distance overflows at 1e200, a coordinate difference at +-1e308;
    # neither may print a numpy warning before the error
    path = tmp_path / "far.tsp"
    for text in (_SQUARE.format("1e200"), _SQUARE.replace("1 0 0", "1 -1e308 0").format("1e308")):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--alg", "ils", "--instance", str(path),
                         "--max-fe", "100"]) == 2
        assert capsys.readouterr().err.strip() == "error: cost matrix must be finite"


def test_sweep_a_on_fewer_than_two_nonzero_units_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.sparse"
    path.write_text("2 0\n")
    assert main(["sweep-a", "--instance", str(path), "--a", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: need at least 2 nonzero units to measure correlation\n")


def test_kick_that_flips_no_bit_exits_before_any_run(tmp_path, monkeypatch, capsys):
    # round(0.01 * 50) == 0: every kick would return the same bits
    path = tmp_path / "synth50.sparse"
    path.write_text(synthetic_orlib_text(50, seed=2))
    monkeypatch.setattr(metaheuristics, "neighborhood_for",
                        lambda *args: pytest.fail("a run started"))
    assert main(["solve", "--alg", "its", "--instance", str(path),
                 "--flip-fraction", "0.01"]) == 2
    assert "kicks no bit" in capsys.readouterr().err


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


def test_bench_failed_cell_exit_code(tmp_path, eil51_path, monkeypatch, capsys):
    campaign = {
        "instances": {"eil51": eil51_path},
        "algorithms": [{"algorithm": "ils", "max_fe": 2e3},
                       {"algorithm": "ils_ens", "max_fe": 2e3}],
        "seeds": [0],
    }
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign))
    real = bench.run

    def failing(config, inst):
        if config.algorithm == "ils_ens":
            raise RuntimeError("the cell failed")
        return real(config, inst)

    monkeypatch.setattr(bench, "run", failing)
    assert main(["bench", "--campaign", str(spec_path)]) == 3
    captured = capsys.readouterr()
    assert "# failed: eil51 ils_ens: 1 of 1 cells" in captured.out
    assert "1 campaign cells failed" in captured.err


@pytest.mark.parametrize("instances, entry, error", [
    # the UBQP comes first: its cells would run before the TSP's failed
    (["ubqp60", "eil51"], {"algorithm": "its"}, "error: its does not apply to TSP instances"),
    (["eil51"], {"algorithm": "ilk_e", "penalty_edges": 60}, "error: penalty_edges 60 exceeds"),
], ids=["its-on-a-tsp", "more-penalty-edges-than-tour-edges"])
def test_bench_entry_that_does_not_fit_an_instance_exits_before_any_cell(
        tmp_path, request, monkeypatch, capsys, instances, entry, error):
    campaign = {"instances": {name: request.getfixturevalue(f"{name}_path") for name in instances},
                "algorithms": [{**entry, "max_fe": 2e3}], "seeds": [0, 1]}
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign))
    monkeypatch.setattr(bench, "run", lambda *args: pytest.fail("a cell started"))
    assert main(["bench", "--campaign", str(spec_path)]) == 2
    assert capsys.readouterr().err.startswith(error)


@pytest.mark.parametrize("command", [["analyze", "--a", "0,2", "--optima", "3"],
                                     ["verify", "--n", "5"]], ids=["analyze", "verify"])
def test_negative_seed_is_named_before_any_rng(eil51_path, monkeypatch, capsys, command):
    monkeypatch.setattr(cli, "rng_stream", lambda *args: pytest.fail("an rng was seeded"))
    instance = ["--instance", eil51_path] if command[0] == "analyze" else []
    assert main(command + instance + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -1")


_VERIFY_N = "error: verify brute-forces all tours; --n must be >= 4 and <= 10"


@pytest.mark.parametrize("command, error", [
    (["analyze", "--a", "0", "--optima", "0"], "error: optima must be >= 1"),
    (["analyze", "--a", "0", "--optima", "-3"], "error: optima must be >= 1"),
    (["verify", "--n", "-1"], _VERIFY_N), (["verify", "--n", "0"], _VERIFY_N),
    (["verify", "--n", "3"], _VERIFY_N), (["verify", "--n", "11"], _VERIFY_N),
], ids=["optima-0", "optima-negative", "n-negative", "n-0", "n-3", "n-11"])
def test_out_of_range_size_is_named_before_any_work(eil51_path, monkeypatch, capsys,
                                                     command, error):
    monkeypatch.setattr(landscape, "descend", lambda *args: pytest.fail("a descent ran"))
    monkeypatch.setattr(cli, "random_tsp_instance", lambda *args: pytest.fail("a TSP was built"))
    instance = ["--instance", eil51_path] if command[0] == "analyze" else []
    assert main(command + instance) == 2
    assert capsys.readouterr().err == error + "\n"


def test_verify_passes():
    assert main(["verify", "--n", "7", "--seed", "3"]) == 0


def test_verify_fails_on_wrong_promising_flags(monkeypatch, capsys):
    real = cli.promising_flags
    monkeypatch.setattr(cli, "promising_flags", lambda x_star, view: ~real(x_star, view))
    assert main(["verify", "--n", "7", "--seed", "3"]) == 3
    assert "promising flags" in capsys.readouterr().err


def test_verify_fails_on_wrong_two_opt_deltas(monkeypatch, capsys):
    real = TwoOptNeighborhood.deltas
    monkeypatch.setattr(TwoOptNeighborhood, "deltas",
                        lambda self, tour: real(self, tour) + 0.5)
    assert main(["verify", "--n", "7", "--seed", "3"]) == 3
    assert "2-Opt deltas disagree with two_opt_delta" in capsys.readouterr().err


def test_verify_fails_on_a_tabu_kernel_with_stale_caches(monkeypatch, capsys):
    real = search._flip

    def stale_twice(row, gains, twice, bits, i, product):
        keep = twice.item(i)
        delta = real(row, gains, twice, bits, i, product)
        twice[i] = keep  # the +-2 signs miss this flip, so later gains go wrong
        return delta

    monkeypatch.setattr(search, "_flip", stale_twice)
    assert main(["verify", "--n", "7", "--seed", "3"]) == 3
    assert "tabu_search left stale caches" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["solve", "--alg", "nope", "--instance", "x"]) == 2
    assert main(["solve", "--instance", "missing-file.tsp", "--alg", "ils"]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--warmup-fraction", "2.0"), ("--flip-fraction", "0"), ("--neighbor-k", "1"),
    ("--seed", "-2"), ("--max-fe", "-5"), ("--max-wall", "-1"), ("--max-fe", "nan"),
    ("--max-wall", "nan"), ("--penalty-cost", "nan"), ("--max-fe", "inf"), ("--target", "inf"),
])
def test_out_of_range_setting_exits_before_any_run(eil51_path, monkeypatch, capsys,
                                                   flag, value):
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a run started"))
    assert main(["solve", "--alg", "ilk_e", "--instance", eil51_path, flag, value]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["ilk_e", "ilk_nde"])
def test_more_penalty_edges_than_tour_edges_exits_before_lk(eil51_path, monkeypatch, capsys,
                                                            alg):
    monkeypatch.setattr(metaheuristics, "lk_search", lambda *args, **kw: pytest.fail("LK ran"))
    assert main(["solve", "--alg", alg, "--instance", eil51_path, "--a", "2",
                 "--penalty-edges", "52", "--warmup-fraction", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: penalty_edges 52 exceeds")


def test_bench_out_of_range_setting_exits_before_any_run(tmp_path, eil51_path, monkeypatch):
    campaign = {"instances": {"eil51": eil51_path},
                "algorithms": [{"algorithm": "ilk_e", "warmup_fraction": 2.0}],
                "seeds": [0]}
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign))
    monkeypatch.setattr(cli, "run_campaign", lambda *args: pytest.fail("a run started"))
    assert main(["bench", "--campaign", str(spec_path)]) == 2


_ENTRY_SEED_OR_TARGET = "a campaign entry takes its seed and target from seeds and targets"


@pytest.mark.parametrize("change, error", [
    ({"algorithms": [{"algorithm": "ils", "max_fes": 1e7}]}, "unknown setting(s): max_fes"),
    ({"max_fes": 1e7}, "unknown campaign key(s): max_fes"),
    ({"algorithms": [{"algorithm": "ils", "seed": 3}]}, _ENTRY_SEED_OR_TARGET),
    ({"algorithms": [{"algorithm": "ils", "target": 426}]}, _ENTRY_SEED_OR_TARGET),
    ({"algorithms": [{"algorithm": "ils_nds", "a": -12}, {"algorithm": "ils_nds", "a": 10}]},
     "algorithm names must be distinct"),
    ({"algorithms": [{"algorithm": "ils", "max_fe": "1e4"}]}, "max_fe must be a number"),
    ({"seeds": 3}, "seeds must be a list"),
    ({"algorithms": [{"algorithm": "its", "flip_fraction": "0.3"}]}, "flip_fraction must be"),
    ({"algorithms": [{"algorithm": "ilk_e", "warmup_fraction": "0.1"}]}, "warmup_fraction must be"),
    ({"algorithms": [{"algorithm": "ilk_e", "penalty_rounds": "5"}]}, "penalty_rounds must be"),
    ({"algorithms": [{"algorithm": "ils", "a": 2, "q_prime": "1"}]}, "q_prime must be"),
    ({"algorithms": [{"algorithm": "ils", "a": "x"}]}, "a must be a number"),
    ({"algorithms": [{"algorithm": "ils", "a": 2, "split_seed": 1.5}]}, "split_seed must be"),
    ({"seeds": [-1, 2]}, "seeds must be a list of integers >= 0"),
    ({"algorithms": [{"algorithm": "ils", "a": 2, "split_seed": -3}]}, "split_seed must be >= 0"),
    ({"algorithms": [{"algorithm": "ils", "max_fe": -5}]}, "max_fe must be >= 0"),
    ({"seeds": []}, "seeds must list at least one seed"),
    ({"instances": {}}, "instances must name at least one instance"),
    ({"reference_algorithm": "ils_nds"}, "reference_algorithm 'ils_nds' is not one"),
    ({"targets": {"eil52": 426}}, "targets name no instance: eil52"),
    ({"max_fe": float("nan")}, "max_fe must be a number, got nan"),
    ({"algorithms": [{"algorithm": "ils", "max_wall": float("nan")}]}, "max_wall must be"),
    ({"max_fe": float("inf")}, "max_fe must be finite"),
    ({"algorithms": [{"algorithm": "ils", "a": float("-inf")}]}, "a must be finite or inf"),
    ({"targets": {"eil51": float("inf")}}, "targets['eil51'] must be a finite number"),
    ({"targets": {"eil51": "426"}}, "targets['eil51'] must be a finite number"),
    # excess is relative to the target, so a zero one would fail after every cell ran
    ({"targets": {"eil51": 0}}, "targets['eil51'] must be nonzero"),
    ({"algorithms": ["ils"]}, "algorithms must be a list of objects, got ['ils']"),
    ({"algorithms": {"algorithm": "ils"}}, "algorithms must be a list of objects"),
    ({"instances": ["eil51"]}, "instances must map names to paths, got ['eil51']"),
    ({"targets": ["eil51"]}, "targets must map names to optima"),
    ({"out_dir": 5}, "out_dir must be a path string or null, got 5"),
    # a number would be opened as a file descriptor
    ({"instances": {"eil51": 7}}, "instances['eil51'] must be a path string, got 7"),
    # a name becomes part of a trace file's path under out_dir/traces
    ({"instances": {"sub/eil51": "eil51"}}, "instances['sub/eil51']: an instance name must"),
    ({"instances": {"../escaped": "eil51"}}, "instances['../escaped']: an instance name must"),
    ({"instances": {"..": "eil51"}}, "instances['..']: an instance name must"),
    ({"instances": {".": "eil51"}}, "instances['.']: an instance name must"),
    ({"instances": {"": "eil51"}}, "instances['']: an instance name must"),
    ({"algorithms": []}, "no algorithms configured"),
    ({"algorithms": [{"a": 2}]}, "a run needs an algorithm"),
    ({"algorithms": [{"algorithm": "foo"}]}, "unknown algorithm 'foo'"),
], ids=["entry-typo", "top-level-typo", "entry-seed", "entry-target", "duplicate-algorithm",
        "entry-max-fe-string", "seeds-not-a-list", "flip-fraction-string",
        "warmup-fraction-string", "penalty-rounds-string", "q-prime-string", "a-string",
        "split-seed-fraction", "negative-seed", "negative-split-seed", "negative-max-fe",
        "no-seeds", "no-instances", "reference-not-an-entry", "target-not-an-instance",
        "nan-max-fe", "nan-max-wall", "inf-max-fe", "negative-inf-a", "inf-target",
        "target-string", "zero-target", "entry-string", "algorithms-object", "instances-list",
        "targets-list", "out-dir-number", "instance-path-number", "instance-name-subdir",
        "instance-name-escapes", "instance-name-dotdot", "instance-name-dot",
        "instance-name-empty", "no-algorithms",
        "entry-without-algorithm", "unknown-algorithm"])
def test_bad_campaign_exits_before_any_run(tmp_path, eil51_path, monkeypatch, capsys, change,
                                           error):
    campaign = {"instances": {"eil51": eil51_path}, "algorithms": [{"algorithm": "ils"}],
                "seeds": [0], "max_fe": 1e4, **change}
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(campaign))
    monkeypatch.setattr(cli, "run_campaign", lambda *args: pytest.fail("a run started"))
    assert main(["bench", "--campaign", str(spec_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.parametrize("shape, error", [
    ("list", "error: a campaign file holds one JSON object, got list"),
    ("no-seeds", "error: missing campaign key(s): seeds"),
], ids=["list", "no-seeds"])
def test_campaign_file_of_the_wrong_shape_exits_before_any_run(tmp_path, eil51_path,
                                                               monkeypatch, capsys, shape, error):
    campaign = {"instances": {"eil51": eil51_path}, "algorithms": [{"algorithm": "ils"}],
                "seeds": [0]}
    raw = [campaign] if shape == "list" else {k: v for k, v in campaign.items() if k != "seeds"}
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps(raw))
    monkeypatch.setattr(cli, "run_campaign", lambda *args: pytest.fail("a run started"))
    assert main(["bench", "--campaign", str(spec_path)]) == 2
    assert capsys.readouterr().err == error + "\n"


@pytest.mark.parametrize("key, value, rule", [
    ("split_seed", 1.5, "must be an integer"), ("split_seed", -3, "must be >= 0"),
    ("q_prime", 0, "must be positive"), ("penalty_rounds", -1, "must be >= 0"),
    ("penalty_edges", 2.5, "must be an integer"), ("penalty_edges", 0, "must be >= 1"),
    ("penalty_cost", "9", "must be a number"), ("penalty_cost", -1, "must be positive"),
    ("penalty_cost", float("nan"), "must be a number, got nan"),
    ("q_prime", float("nan"), "must be a number, got nan"),
    ("q_prime", float("inf"), "must be positive and finite, got inf"),
])
def test_bad_setting_is_reported_under_its_key(tmp_path, eil51_path, monkeypatch, capsys,
                                               key, value, rule):
    entry = {"algorithm": "ilk_e", "a": 2, key: value}
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps({"instances": {"eil51": eil51_path},
                                     "algorithms": [entry], "seeds": [0]}))
    monkeypatch.setattr(cli, "run_campaign", lambda *args: pytest.fail("a run started"))
    assert main(["bench", "--campaign", str(spec_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} {rule}")


@pytest.mark.parametrize("seed", ["0", "-1"])
def test_analyze_without_a_shape_exits_before_any_optimum(eil51_path, monkeypatch, capsys,
                                                           seed):
    monkeypatch.setattr(cli, "collect_local_optima", lambda *args: pytest.fail("optima collected"))
    assert main(["analyze", "--instance", eil51_path, "--a", ",", "--optima", "2",
                 "--seed", seed]) == 2
    assert capsys.readouterr().err == "error: a_values must be nonempty\n"


@pytest.mark.parametrize("command", [
    ["sweep-a", "--a", "-inf,0"], ["analyze", "--a", "0,-inf"],
    ["solve", "--alg", "ils_nds", "--a", "-inf"],
    ["solve", "--alg", "ils_nds", "--a", "2", "--q-prime", "inf"],
], ids=["sweep-a", "analyze", "solve-a", "solve-q_prime"])
def test_infinite_split_shape_exits_before_any_split(eil51_path, monkeypatch, capsys, command):
    monkeypatch.setattr(decomposition, "_rng_for", lambda *args: pytest.fail("a split drawn"))
    monkeypatch.setattr(cli, "collect_local_optima", lambda *args: pytest.fail("optima collected"))
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a run started"))
    assert main(command + ["--instance", eil51_path]) == 2
    name = "q_prime" if "--q-prime" in command else "a"
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ") and "finite" in err


def test_negative_split_seed_is_reported_under_its_flag(eil51_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a run started"))
    assert main(["solve", "--alg", "ils_nds", "--instance", eil51_path, "--a", "2",
                 "--split-seed", "-3"]) == 2
    assert capsys.readouterr().err.startswith("error: split_seed must be >= 0")


def test_split_setting_without_shape_exits_before_any_run(eil51_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a run started"))
    assert main(["solve", "--alg", "ils", "--instance", eil51_path, "--q-prime", "50"]) == 2
    assert "need a split shape" in capsys.readouterr().err


def test_solve_and_campaign_entry_build_equal_configs(tmp_path, eil51_path, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "run", lambda config, inst: configs.append(config)
                        or metaheuristics.RunTrace(config.algorithm, config.seed))
    monkeypatch.setattr(cli, "run_campaign", lambda spec: configs.extend(spec.algorithms) or [])
    out = str(tmp_path / "trace.csv")
    assert main(["solve", "--alg", "ilk_nde", "--instance", eil51_path, "--a", "-12",
                 "--q-prime", "50", "--split-seed", "3", "--penalty-rounds", "7",
                 "--penalty-edges", "3", "--penalty-cost", "9.5", "--flip-fraction", "0.5",
                 "--neighbor-k", "8", "--warmup-fraction", "0.2", "--max-fe", "1e4",
                 "--max-wall", "5", "-o", out]) == 0
    entry = {"algorithm": "ilk_nde", "a": -12, "q_prime": 50, "split_seed": 3,
             "penalty_rounds": 7, "penalty_edges": 3, "penalty_cost": 9.5,
             "flip_fraction": 0.5, "neighbor_k": 8, "warmup_fraction": 0.2, "max_wall": 5}
    spec_path = tmp_path / "campaign.json"
    spec_path.write_text(json.dumps({"instances": {"eil51": eil51_path}, "algorithms": [entry],
                                     "seeds": [0], "max_fe": 1e4}))
    assert main(["bench", "--campaign", str(spec_path)]) == 0
    assert main(["solve", "--alg", "ils", "--instance", eil51_path, "-o", out]) == 0
    assert configs[0] == configs[1]
    assert configs[0].split == decomposition.SplitParams(a=-12.0, q_prime=50.0, seed=3)
    assert configs[2] == metaheuristics.SolverConfig(algorithm="ils")


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


@pytest.mark.parametrize("argv, merged", [
    (["solve", "--a", "-2"], ["solve", "--a=-2"]),
    (["solve", "--a=-2"], ["solve", "--a=-2"]),
    (["solve", "--a", "2"], ["solve", "--a", "2"]),
    (["solve", "--target", "-5.5"], ["solve", "--target=-5.5"]),
    (["solve", "--penalty-cost", "-1"], ["solve", "--penalty-cost=-1"]),
    (["sweep-a", "--a", "-12,0,10"], ["sweep-a", "--a=-12,0,10"]),
    (["analyze", "--a", "-12,0,10", "--seed", "1"], ["analyze", "--a=-12,0,10", "--seed", "1"]),
    (["solve", "--seed", "1", "--a"], ["solve", "--seed", "1", "--a"]),
    (["solve", "--output", "-", "--seed", "-3"], ["solve", "--output", "-", "--seed", "-3"]),
    (["solve", "--instance", "-x.tsp"], ["solve", "--instance", "-x.tsp"]),
])
def test_merge_negative_values(argv, merged):
    assert _merge_negative_values(argv) == merged


@pytest.mark.parametrize("command, a", [("sweep-a", "-12,0,10"), ("analyze", "-12,0,10")])
def test_negative_shape_lists_parse(command, a):
    args = build_parser().parse_args(
        _merge_negative_values([command, "--instance", "x.tsp", "--a", a]))
    assert args.a == a


def test_negative_numeric_values_parse():
    args = build_parser().parse_args(_merge_negative_values(
        ["solve", "--instance", "x.tsp", "--alg", "ils", "--a", "-2", "--target", "-5.5",
         "--penalty-cost", "-1"]))
    assert (args.a, args.target, args.penalty_cost) == (-2.0, -5.5, -1.0)


def test_numeric_flag_as_last_token_is_a_usage_error(capsys):
    assert main(["solve", "--instance", "x.tsp", "--alg", "ils", "--a"]) == 2
    assert "expected one argument" in capsys.readouterr().err
