"""Neighborhood composition study around local optima.

For a sampled set of local optima, every neighbor is classified twice:
promising (its own neighborhood contains a solution strictly better than the
optimum) or not, and dominated by the optimum under (f1, f2) or not. The
aggregated cross proportions quantify how much more often promising neighbors
hide among the non-dominated ones, and feed the expected-evaluation formulas
for the filtered and unfiltered two-hop escapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .escape import dominated_mask, two_hop_blocks
from .search import Budget, descend, neighborhood_for


@dataclass
class NeighborStats:
    """Neighbor-type proportions around one or many local optima.

    The four cross cells partition the neighborhood; promising/dominated
    margins are their sums. Ratios are recomputed from (averaged) cells and
    are NaN when their denominator cell is empty.
    """

    neighborhood_size: int
    sample_size: int
    p: float
    np_: float
    d: float
    nd: float
    p_d: float
    p_nd: float
    np_d: float
    np_nd: float

    @property
    def ratio_pd_d(self) -> float:
        return self.p_d / self.d if self.d > 0 else float("nan")

    @property
    def ratio_pnd_nd(self) -> float:
        return self.p_nd / self.nd if self.nd > 0 else float("nan")

    def as_row(self) -> dict[str, float]:
        return {
            "NP": self.np_, "P": self.p, "D": self.d, "ND": self.nd,
            "NP&D": self.np_d, "NP&ND": self.np_nd,
            "P&D": self.p_d, "P&ND": self.p_nd,
            "P&D/D": self.ratio_pd_d, "P&ND/ND": self.ratio_pnd_nd,
        }


def collect_local_optima(inst, optima: int, rng: np.random.Generator) -> list:
    """optima locally optimal solutions from independent random starts (duplicates kept)."""
    if optima < 1:
        raise ValueError("optima must be >= 1")
    view = neighborhood_for(inst)
    out = []
    for _ in range(optima):
        sol = view.random_solution(rng)
        converged = descend(view, sol, Budget())
        assert converged
        out.append(sol)
    return out


def promising_flags(x_star, view) -> np.ndarray:
    """For each neighbor x' of the optimum: does Neighborhood(x') strictly beat it?

    Split-independent, so the flags can be reused across decompositions.
    Exhaustive two-hop scan, whose O(n) score takes every survivor of the
    screen in as few chunks as fit; ties with the optimum do not count.
    """
    blocks = two_hop_blocks(view, x_star, np.arange(view.size), view.deltas(x_star), Budget(),
                            first_hit=False)
    return np.concatenate([hits for _, hits in blocks])


def classify_neighbors(x_star, view, promising: np.ndarray) -> NeighborStats:
    """Cross-classify every neighbor of one local optimum from its `promising_flags`."""
    if view.split is None:
        raise ValueError("classification requires a split-aware view")
    _, d1, d2 = view.split_deltas(x_star)
    dominated = dominated_mask(view.sense, d1, d2)
    n = view.size
    p, d = int(np.count_nonzero(promising)), int(np.count_nonzero(dominated))
    p_d = int(np.count_nonzero(promising & dominated))
    p_nd, np_d = p - p_d, d - p_d
    np_nd = n - p - np_d
    return NeighborStats(
        neighborhood_size=n, sample_size=1,
        p=(p_d + p_nd) / n, np_=(np_d + np_nd) / n,
        d=(p_d + np_d) / n, nd=(p_nd + np_nd) / n,
        p_d=p_d / n, p_nd=p_nd / n, np_d=np_d / n, np_nd=np_nd / n,
    )


def aggregate_stats(stats: list[NeighborStats]) -> NeighborStats:
    """Average the per-optimum proportions; ratios follow from averaged cells."""
    if not stats:
        raise ValueError("nothing to aggregate")
    sizes = {s.neighborhood_size for s in stats}
    if len(sizes) != 1:
        raise ValueError("stats come from different neighborhood sizes")
    total = sum(s.sample_size for s in stats)
    weight = np.asarray([s.sample_size for s in stats], dtype=np.float64)
    weight /= weight.sum()

    def avg(attr):
        return float(np.dot(weight, [getattr(s, attr) for s in stats]))

    return NeighborStats(
        neighborhood_size=sizes.pop(), sample_size=total,
        p=avg("p"), np_=avg("np_"), d=avg("d"), nd=avg("nd"),
        p_d=avg("p_d"), p_nd=avg("p_nd"), np_d=avg("np_d"), np_nd=avg("np_nd"),
    )


def expected_fe_nds(stats: NeighborStats) -> float:
    """Expected evaluations until the filtered two-hop escape finds an improvement.

    (ND * N + D) / P&ND over proportions; infinite when P&ND is zero.
    """
    if stats.p_nd <= 0.0:
        return float("inf")
    return (stats.nd * stats.neighborhood_size + stats.d) / stats.p_nd


def expected_fe_plain(stats: NeighborStats) -> float:
    """Expected evaluations for the unfiltered exhaustive scan: N^2 / P."""
    n = stats.neighborhood_size
    if stats.p <= 0.0:
        return float("inf")
    return n * n / stats.p


def table_csv(rows: list[dict], invocation: str = "") -> str:
    """Render (instance, a, rho, stats) rows as the 10-column study table."""
    cols = ["instance", "a", "rho", "sample_size", "NP", "P", "D", "ND",
            "NP&D", "NP&ND", "P&D", "P&ND", "P&D/D", "P&ND/ND"]
    lines = [f"# invocation: {invocation}" if invocation else "# invocation: (direct)",
             ",".join(cols)]
    for row in rows:
        stats: NeighborStats = row["stats"]
        cells = {"instance": row["instance"], "a": repr(float(row["a"])),
                 "rho": repr(float(row["rho"])),
                 "sample_size": str(stats.sample_size)}
        cells.update({k: repr(v) for k, v in stats.as_row().items()})
        lines.append(",".join(str(cells[c]) for c in cols))
    return "\n".join(lines) + "\n"
