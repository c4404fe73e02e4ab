"""Two-player zero-sum stochastic shortest path games.

Exact dynamic-programming solvers, structural verification of the model
assumptions that make those games well-posed, and a deterministic,
replayable simulator for totally asynchronous minimax Q-learning with
boundedness diagnostics.
"""

from .diagnostics import (
    ContractionCertificate,
    CouplingReport,
    ImproperPolicyError,
    TrackerState,
    build_contraction_certificate,
    q_bellman_max_fixed,
    run_coupled_lower_process,
    run_trackers,
)
from .generate import FAMILIES, GeneratorConfig, generate_model
from .matgame import (
    MatrixGameSolution,
    best_response_value,
    solve_matrix_game,
)
from .model import (
    PLAYER_MAX,
    PLAYER_MIN,
    TERMINAL,
    GameModel,
    ModelFormatError,
    ModelValidationError,
    PolicyMismatchError,
    StationaryPolicy,
    ValidationReport,
    decision_rule,
    expected_stage_cost,
    load_bundled_model,
    load_model,
    policy_from_json,
    pure_policy,
    save_model,
    uniform_policy,
    validate_model,
)
from .operators import (
    bellman,
    bellman_max_fixed,
    bellman_maximin,
    bellman_min_fixed,
    bellman_pair,
    greedy_policies,
    q_bellman,
    q_from_values,
    values_from_q,
)
from .qlearn import (
    EventLog,
    QLearnConfig,
    QLearnDivergenceError,
    QLearnRun,
    noise_decomposition,
    run_qlearning,
)
from .solve import (
    CONVERGED,
    DIVERGING,
    ILL_POSED,
    ITERATION_CAP,
    PairEvaluation,
    SolveTrace,
    evaluate_pair,
    evaluate_vs_best_response,
    policy_iteration,
    q_value_iteration,
    refine_fixed_point,
    value_iteration,
)
from .structure import (
    AssumptionReport,
    InducedChain,
    PropernessReport,
    SspA,
    SspVerdict,
    build_sspa,
    check_single_player_ssp,
    check_ssp_game_assumption,
    classify_chain,
    exists_termination,
    forall_termination,
    induce_chain,
    is_essentially_proper,
    iter_pure_policies,
    reach_probability_one,
    recurrent_class_gains,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
