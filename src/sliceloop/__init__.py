"""SLA-gated, retrieval-assisted resource-block allocation over a two-slice
RAN simulator, with exact-search and fixed-ratio baselines."""

from .core import (
    AllocationRatio,
    InfeasibleAllocationError,
    RadioConfig,
    SliceKind,
    SliceKpm,
    SliceSpec,
    ratio_to_rb_counts,
)
from .radio import (
    QueueConfig,
    SimState,
    StepProfile,
    UeChannelState,
    channel_capacity,
    generate_traffic,
    simulate_interval,
)
from .sla import RiskAssessment, assess, compliance_index, risk_factor, violation_level
from .store import ExperienceRecord, ExperienceStore
from .agents import (
    DecisionOutcome,
    HeuristicOracleBackend,
    ParseError,
    Predictor,
    RemoteBackend,
    ScriptedBackend,
    build_meta_prompt,
    count_tokens,
    heuristic_oracle_decide,
    parse_allocation_response,
)
from .loop import CycleReport, Environment, ExperimentLog, LoopState, run_cycle, run_experiment
from .baselines import brute_force_optimal, enumerate_splits
from .stats import compute_distribution_stats
from .harness import (
    HarnessConfig,
    run_scenario1,
    run_scenario2,
    run_token_comparison,
)

__version__ = "0.1.0"
