"""Heat kernel pagerank diffusion, sweep-cut local clustering, and a
round-synchronous message-passing simulator with exact verification
oracles."""

from . import generators
from .cluster import (
    AutoPhiOutcome,
    ClusterOutcome,
    ClusterRequest,
    diffusion_time,
    local_cluster,
    local_cluster_autophi,
    sparse_cut,
)
from .congest import NodeInfo, Protocol, RoundStats, SimConfig, SimulationError, run_protocol
from .distributed import TokenBatch, estimate_phkpr_distributed
from .graph import (
    Graph,
    GraphError,
    cheeger_ratio,
    edge_boundary,
    edge_list_text,
    load_edge_list,
    volume,
)
from .hkpr import (
    PhkprVector,
    exact_phkpr,
    serial_estimate_phkpr,
    step_cap,
    token_count,
    walk_parameters,
)
from .kmachine import CostMeasurement, kmachine_round_bound, kmachine_table
from .sweep import (
    SweepOrdering,
    SweepResult,
    build_ordering,
    chain_sweep,
    distributed_sweep,
    sweep_exact,
)

__version__ = "0.1.0"
