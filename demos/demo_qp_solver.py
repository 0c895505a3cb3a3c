#!/usr/bin/env python3
"""The projection QP behind the filter, on its own.

min ||u - u0||^2  subject to  rows @ u >= rhs  and box bounds, with the
rows given as one (R, m) array and rhs as an (R,) vector.  The solver
is an active-set method with exact active-set reporting and warm starts,
which is what makes successive filter calls cheap.

Run:  python demos/demo_qp_solver.py
"""

import time

import numpy as np

from backup_cbf import QpProblem, QpSolver, solve

print("1. Projection onto a half-space: u0 = (0,0), constraint u1+u2 >= 3")
sol = solve(QpProblem(np.array([0.0, 0.0]), np.array([[1.0, 1.0]]),
                      np.array([3.0]),
                      np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
print(f"   u* = {sol.u_star}, active = {sol.active_set}, "
      f"kkt residual = {sol.kkt_residual:.1e}")

print("2. Nothing binds: the nominal input passes through")
sol = solve(QpProblem(np.array([0.5, -0.5]), np.array([[1.0, 0.0]]),
                      np.array([-1.0]),
                      np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
print(f"   u* = {sol.u_star}, active = {sol.active_set}")

print("3. Conflicting row and bound: certified infeasible")
sol = solve(QpProblem(np.array([0.0, 0.0]), np.array([[1.0, 0.0]]),
                      np.array([10.0]),
                      np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
print(f"   status = {sol.status}")

print("4. Warm starts never move the optimum (determinism contract)")
rng = np.random.default_rng(0)
a_rows = rng.normal(size=(40, 2))
lo, hi = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
warm = QpSolver()
worst = 0.0
t0 = time.perf_counter()
for k in range(300):
    anchor = np.array([0.4 + 0.001 * k, -0.3])
    prob = QpProblem(rng.normal(size=2), a_rows, a_rows @ anchor - 0.5, lo, hi)
    u_cold = solve(prob).u_star
    u_warm = warm.solve(prob).u_star
    worst = max(worst, float(np.max(np.abs(u_cold - u_warm))))
elapsed = (time.perf_counter() - t0) * 1e3
print(f"   300 drifting problems, 40 rows each: {elapsed:.0f} ms total")
print(f"   max |u_warm - u_cold| over the sequence: {worst:.2e}")
