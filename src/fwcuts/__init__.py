"""LP-free cutting planes for 0/1 programs.

Separates fractional points from implicitly-given integer hulls with
oracle-driven projection, lifts the resulting inequalities back to the
original space, and drives root-node cutting-plane experiments on
multidimensional knapsack and assignment instances.
"""

from .errors import (
    ActiveSetConsistencyError,
    DimensionMismatchError,
    EnumerationCapacityError,
    FwcutsError,
    GapUndefinedError,
    InfeasibleFixingError,
    InfeasibleRelaxationError,
    InfeasibleOracleError,
    InvalidCutError,
    NumericalInstabilityError,
    ParseError,
    UndefinedBoundError,
)
from .instances import MkpInstance, load_gap_optima, parse_gap, parse_mknap
from .lifting import LiftedCut, lift_cut
from .lp import LpProblem, LpSolution, MembershipResult, SimplexSolver, membership_test, solve
from .oracles import (
    EnumerationOracle,
    KnapsackOracle,
    KnapsackSubproblem,
    LinearMinimizationOracle,
    enumerate_lmo,
    knapsack_dp_lmo,
    knapsack_dp_max,
    reduce_row,
)
from .separation import (
    ActiveSet,
    ConvergenceBound,
    Cut,
    FwConfig,
    Membership,
    Separated,
    SeparationOutcome,
    SeparationStats,
    Undecided,
    early_stop_check,
    fw_gap,
    iteration_bound,
    separate_lazy_afw,
    separate_vanilla,
)
from .driver import LoopConfig, RootRunReport, gap_closed, root_cut_loop

__version__ = "0.1.0"
