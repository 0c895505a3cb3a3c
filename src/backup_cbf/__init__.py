"""Backup-policy control barrier functions: implicit invariant sets
evaluated by forward integration, an online safety-filter QP, and a
grid-based invariant-set baseline for validation."""

from .barrier import (BarrierEvaluation, ConstraintSet, FilterDiagnostics,
                      build_constraints, eval_h, eval_h_batch, filter_control,
                      relative_degree_probe, terminal_row_coefficient)
from .errors import (ConvergenceWarning, EvaluationError, FlowDivergenceError,
                     GeometryError, NumericalError, QpSolverError,
                     ScenarioError, ValidationError)
from .flow import (FlowTrajectory, integrate_flow, integrate_flow_batch,
                   sensitivity_fd_check)
from .harness import (Scenario, SimLog, load_scenario, run_compare,
                      run_levelset, simulate, slice_grid, write_levelset)
from .hjgrid import (GridGeometry, LevelGrid, SolveRecord, compare_sets,
                     constraint_grid, dilate_set, hamiltonian, read_grid,
                     solve_invariant, sweep_backup_h, write_grid_csv,
                     write_grid_json)
from .qp import QpProblem, QpSolution, QpSolver, solve
from .systems import (BENCHMARK_DEFAULTS, BENCHMARK_NAMES, BackupPolicy,
                      SafetySpec, ScalarConstraint, SystemModel,
                      closed_loop_rhs, di_closed_form_h, make_benchmark)

__version__ = "0.1.0"
