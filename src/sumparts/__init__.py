"""Sum-of-the-parts combinatorial optimization with objective decomposition.

Splits TSP/UBQP unit costs into two correlated sub-objectives and uses the
induced dominance structure to escape local optima inside iterated local
search, iterated tabu search and iterated Lin-Kernighan drivers.
"""

from .bench import CampaignSpec, ExcessSummary, excess, rank_sum_test, run_campaign
from .decomposition import (
    SplitCosts,
    SplitParams,
    measure_rho,
    sample_split,
    sweep_a,
)
from .escape import (
    PenaltyConfig,
    add_random_penalty,
    ens,
    further_exploit,
    nds,
)
from .instances import (
    BitVector,
    QuboInstance,
    Tour,
    TspInstance,
    build_neighbor_lists,
    flip_delta_and_update,
    load_bundled_tsp,
    make_bitvector,
    parse_orlib_bqp,
    parse_tsplib,
    random_qubo_instance,
    random_tsp_instance,
    tour_cost,
    two_opt_delta,
)
from .landscape import (
    NeighborStats,
    aggregate_stats,
    classify_neighbors,
    collect_local_optima,
    expected_fe_nds,
    expected_fe_plain,
)
from .metaheuristics import RunTrace, SolverConfig, run
from .search import (
    Budget,
    double_bridge,
    lk_search,
    random_flip_perturbation,
    tabu_search,
)

__version__ = "0.1.0"
