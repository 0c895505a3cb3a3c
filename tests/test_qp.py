"""Active-set QP: worked examples, brute-force oracle, invariances."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backup_cbf.errors import ValidationError
from backup_cbf.qp import QpProblem, QpSolver, solve


def brute_force(problem, grid=801):
    """Independent oracle: enumerate candidate active subsets, solve each
    equality-constrained projection by least squares, keep the best
    feasible candidate.  Exhaustive for these small problems."""
    m = problem.dim
    mats, rhs = [], []
    for a, b in zip(problem.rows, problem.rhs):
        mats.append(np.asarray(a, dtype=float))
        rhs.append(b)
    eye = np.eye(m)
    for j in range(m):
        if np.isfinite(problem.lower[j]):
            mats.append(eye[j]); rhs.append(problem.lower[j])
        if np.isfinite(problem.upper[j]):
            mats.append(-eye[j]); rhs.append(-problem.upper[j])
    a_all = np.array(mats) if mats else np.zeros((0, m))
    b_all = np.array(rhs)
    n_con = len(b_all)

    def feasible(u):
        return n_con == 0 or np.all(a_all @ u - b_all >= -1e-9)

    best, best_val = None, np.inf
    for size in range(0, m + 1):
        for subset in itertools.combinations(range(n_con), size):
            if not subset:
                cand = problem.u0.copy()
            else:
                n_mat = a_all[list(subset)]
                rhs_eq = b_all[list(subset)] - n_mat @ problem.u0
                lam, *_ = np.linalg.lstsq(n_mat @ n_mat.T, rhs_eq, rcond=None)
                cand = problem.u0 + n_mat.T @ lam
                if not np.allclose(n_mat @ cand, b_all[list(subset)], atol=1e-7):
                    continue
            if feasible(cand):
                val = float(np.sum((cand - problem.u0) ** 2))
                if val < best_val - 1e-12:
                    best, best_val = cand, val
    return best


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_interior_nominal_returned_unchanged():
    prob = QpProblem(np.array([0.5, -0.5]),
                     np.array([[1.0, 0.0]]), np.array([-1.0]),
                     np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.u_star, [0.5, -0.5])
    assert sol.active_set == ()


def test_halfspace_projection():
    prob = QpProblem(np.array([0.0, 0.0]),
                     np.array([[1.0, 1.0]]), np.array([3.0]),
                     np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.u_star, [1.5, 1.5], atol=1e-10)
    assert sol.kkt_residual <= 1e-8


def test_infeasible_row_against_bound():
    prob = QpProblem(np.array([0.0, 0.0]),
                     np.array([[1.0, 0.0]]), np.array([10.0]),
                     np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    sol = solve(prob)
    assert sol.status == "infeasible"


def test_box_clipping():
    prob = QpProblem(np.array([10.0]), np.zeros((0, 1)), np.zeros(0),
                     np.array([-5.0]), np.array([5.0]))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.u_star, [5.0])
    assert ("upper", 0) in sol.active_set


def test_validation():
    no_rows, no_rhs = np.zeros((0, 1)), np.zeros(0)
    box = (np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        QpProblem(np.array([np.nan]), no_rows, no_rhs, *box)
    with pytest.raises(ValidationError):
        QpProblem(np.array([0.0]), no_rows, no_rhs, np.array([2.0]),
                  np.array([1.0]))
    with pytest.raises(ValidationError):     # wrong column count
        QpProblem(np.array([0.0]), np.array([[1.0, 2.0]]), np.array([0.0]),
                  *box)
    with pytest.raises(ValidationError):     # rhs length mismatch
        QpProblem(np.array([0.0]), np.array([[1.0], [2.0]]), np.array([0.0]),
                  *box)
    with pytest.raises(ValidationError):     # non-finite row entry
        QpProblem(np.array([0.0]), np.array([[1.0], [np.nan]]),
                  np.array([0.0, 0.0]), *box)
    with pytest.raises(ValidationError):     # non-finite right-hand side
        QpProblem(np.array([0.0]), np.array([[1.0]]), np.array([np.inf]),
                  *box)
    empty = QpProblem(np.array([2.0]), no_rows, no_rhs, *box)
    assert empty.rows.shape == (0, 1) and empty.rhs.shape == (0,)
    assert np.allclose(solve(empty).u_star, [1.0])


@pytest.mark.parametrize("lower, upper, named", [
    ([np.inf], [np.inf], "lower bound of input 0 is inf"),
    ([-np.inf], [-np.inf], "upper bound of input 0 is -inf"),
    ([-1.0, np.inf], [1.0, np.inf], "lower bound of input 1 is inf"),
    ([-1.0, -np.inf], [1.0, -np.inf], "upper bound of input 1 is -inf"),
], ids=["lower_plus_inf", "upper_minus_inf", "lower_input_1", "upper_input_1"])
def test_box_that_no_input_satisfies_is_refused(lower, upper, named):
    """A lower bound of +inf or an upper bound of -inf passes ``lower <=
    upper`` but admits no input; it is refused by name and input index,
    not dropped as "no bound" and solved as ``u* = u0``.  The open sides,
    ``-inf`` below and ``+inf`` above, stay allowed."""
    u0 = np.zeros(len(lower))
    with pytest.raises(ValidationError, match=named):
        QpProblem(u0, np.zeros((0, len(lower))), np.zeros(0),
                  np.array(lower), np.array(upper))
    open_box = QpProblem(u0, np.zeros((0, len(lower))), np.zeros(0),
                         np.full(len(lower), -np.inf),
                         np.full(len(lower), np.inf))
    assert solve(open_box).status == "optimal"


# ---------------------------------------------------------------------------
# randomized oracle comparison
# ---------------------------------------------------------------------------


def random_problem(rng, feasible=True):
    m = int(rng.integers(1, 5))
    lo = -rng.uniform(0.5, 4.0, m)
    hi = rng.uniform(0.5, 4.0, m)
    n_rows = int(rng.integers(0, 7))
    rows, rhs = [], []
    if feasible:
        anchor = rng.uniform(lo, hi)
        for _ in range(n_rows):
            a = rng.normal(size=m)
            slack = rng.uniform(0.0, 2.0)
            rows.append(a)
            rhs.append(float(a @ anchor - slack))
    else:
        a = rng.normal(size=m)
        a /= np.linalg.norm(a)
        corner = np.where(a > 0, hi, lo)
        rows.append(a)
        rhs.append(float(a @ corner + rng.uniform(0.1, 1.0)))
    u0 = rng.normal(scale=3.0, size=m)
    return QpProblem(u0, np.reshape(rows, (-1, m)), np.array(rhs), lo, hi)


def test_500_random_feasible_problems_match_oracle():
    rng = np.random.default_rng(7)
    solver = QpSolver()
    for _ in range(500):
        prob = random_problem(rng)
        sol = solver.solve(prob)
        assert sol.status == "optimal"
        ref = brute_force(prob)
        assert ref is not None
        assert np.max(np.abs(sol.u_star - ref)) < 1e-6
        # solution-quality invariants
        assert np.all(sol.u_star >= prob.lower - 1e-10)
        assert np.all(sol.u_star <= prob.upper + 1e-10)
        assert np.all(prob.rows @ sol.u_star - prob.rhs >= -1e-8)
        assert sol.kkt_residual <= 1e-8


def test_random_infeasible_problems_detected():
    rng = np.random.default_rng(11)
    for _ in range(100):
        prob = random_problem(rng, feasible=False)
        assert solve(prob).status == "infeasible"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.01, max_value=100.0))
def test_row_scaling_invariance(seed, scale):
    """Scaling any row (a, b) by a positive constant must not move the
    optimum."""
    rng = np.random.default_rng(seed)
    prob = random_problem(rng)
    if not len(prob.rhs):
        return
    base = solve(prob).u_star
    scaled = solve(QpProblem(prob.u0, prob.rows * scale, prob.rhs * scale,
                             prob.lower, prob.upper))
    assert np.max(np.abs(scaled.u_star - base)) < 1e-8


def test_warm_start_does_not_change_optimum():
    rng = np.random.default_rng(23)
    warm = QpSolver()
    # a drifting sequence of related problems, as the filter produces
    m = 2
    lo, hi = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    a_rows = np.array([rng.normal(size=m) for _ in range(5)])
    for k in range(50):
        shift = 0.05 * k
        rhs = a_rows @ np.array([0.5, -0.3]) - 1.0 + 0.01 * shift
        prob = QpProblem(rng.normal(size=m), a_rows, rhs, lo, hi)
        u_cold = solve(prob).u_star
        u_warm = warm.solve(prob).u_star
        assert np.max(np.abs(u_cold - u_warm)) < 1e-8


def test_warm_started_reports_the_previous_active_set():
    """False on a fresh solver; true once the previous active set names a
    row or bound of the problem; false when it names none of them."""
    prob = QpProblem(np.array([0.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0],
                                                     [1.0, 1.0]]),
                     np.array([-1.0, -1.0, 3.0]), np.array([-9.0, -9.0]),
                     np.array([9.0, 9.0]))
    solver = QpSolver()
    first = solver.solve(prob)
    assert first.active_set == (("row", 2),) and not first.warm_started
    assert solver.solve(prob).warm_started
    fewer = QpProblem(np.array([0.0, 0.0]), prob.rows[:2], prob.rhs[:2],
                      np.full(2, -np.inf), np.full(2, np.inf))
    assert not solver.solve(fewer).warm_started
    assert not solve(prob).warm_started


def test_degenerate_duplicate_rows():
    a = np.array([1.0, 1.0])
    prob = QpProblem(np.array([0.0, 0.0]),
                     np.array([a, a, 2.0 * a]), np.array([3.0, 3.0, 6.0]),
                     np.array([-9.0, -9.0]), np.array([9.0, 9.0]))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert np.allclose(sol.u_star, [1.5, 1.5], atol=1e-8)
