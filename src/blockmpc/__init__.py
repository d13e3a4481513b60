"""Move-blocked multiple-shooting NMPC with linear-complexity condensing.

The package builds real-time-iteration controllers in three flavours:
a standard uniform-grid controller, a nonuniform-grid controller, and a
move-blocked controller that keeps the fine shooting grid while sharing
one input across several intervals.  The move-blocked stage data is
condensed to a small dense QP in O(N*M) block operations and solved by a
warm-started dual (Goldfarb-Idnani) active-set method.
"""

__version__ = "0.1.0"

from .blocking import BlockStructure, InvalidBlockStructureError, build_T, from_block_lengths
from .condensing import FlopCounter, SensitivityChain, condense, expand, flop_count, naive_condense
from .integrator import IntegrationDivergedError, IntegratorConfig, integrate_interval, rk4_step
from .model import (
    OcpProblem,
    PendulumParams,
    ProblemDims,
    QuadraticCost,
    StageBounds,
    make_pendulum_problem,
    pendulum_jacobians,
    pendulum_rhs,
)
from .qp_solver import DenseQp, QpSolution, WorkingSet, solve_qp
from .rti import KktReport, RtiController, RtiState
from .shooting import StageData, Trajectory, evaluate, forward_simulate

__all__ = [
    "BlockStructure",
    "DenseQp",
    "FlopCounter",
    "IntegrationDivergedError",
    "IntegratorConfig",
    "InvalidBlockStructureError",
    "KktReport",
    "OcpProblem",
    "PendulumParams",
    "ProblemDims",
    "QpSolution",
    "QuadraticCost",
    "RtiController",
    "RtiState",
    "SensitivityChain",
    "StageBounds",
    "StageData",
    "Trajectory",
    "WorkingSet",
    "build_T",
    "condense",
    "evaluate",
    "expand",
    "flop_count",
    "forward_simulate",
    "from_block_lengths",
    "integrate_interval",
    "make_pendulum_problem",
    "naive_condense",
    "pendulum_jacobians",
    "pendulum_rhs",
    "rk4_step",
    "solve_qp",
]
