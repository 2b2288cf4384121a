"""Non-adaptive edge-query strategies for vertex cover and matching on
stochastic graphs, with exact small-graph oracles and a Monte-Carlo
evaluation harness."""

from .errors import (
    ApplicabilityError,
    CapacityError,
    ParameterError,
    StochCoverError,
    StructuralError,
)
from .graphs import (
    Bipartition,
    EdgePartition,
    Graph,
    Realization,
    bipartition,
    read_graph_text,
    write_graph_text,
)
from .matching import Matching
from .filling import general_vc_cover, general_vc_plan
from .partition import MatchingPolicy, PartitionConfig, PartitionOutcome, build_partition
from .strategies import (
    STRATEGY_IDS,
    QueryPlan,
    StrategyAnswer,
    StrategyParams,
    plan_strategy,
    respond_strategy,
)
from .evaluator import (
    EvalReport,
    evaluate_strategies,
    exact_expected_stats,
    validity_check,
)
from .instances import FAMILIES, InstanceDescriptor, from_family

__version__ = "0.1.0"
