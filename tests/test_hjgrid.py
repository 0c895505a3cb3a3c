"""Grid baseline: closed-form Hamiltonian, value iteration, comparisons, IO."""

import dataclasses
import hashlib
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backup_cbf import harness, hjgrid
from backup_cbf.barrier import eval_h_batch
from backup_cbf.cli import _parse_grid_spec
from backup_cbf.cli import main as cli_main
from backup_cbf.errors import (ConvergenceWarning, FlowDivergenceError,
                               GeometryError, NumericalError, ValidationError)
from backup_cbf.hjgrid import (GridGeometry, LevelGrid, compare_sets,
                               constraint_grid, dilate_set, grid_from_json_dict,
                               grid_to_json_dict, hamiltonian, read_grid,
                               read_grid_csv, solve_invariant, sweep_backup_h,
                               write_grid_csv, write_grid_json)
from backup_cbf.systems import (SafetySpec, ScalarConstraint, SystemModel,
                                _benchmark, di_closed_form_h, make_benchmark)


def two_axes(name, statement):
    """The model and policy of ``statement`` on the states ``(x, y)``, with
    one input in ``[-1, 1]``."""
    model, policy, _ = _benchmark(name, statement, (), (-1.0,), (1.0,),
                                  ("x", "y"), ("u",), ("x",))
    return model, policy


def single_integrator(p, k, x, y):
    """xdot = u, ydot = 0, with an idle backup."""
    return (0.0, 0.0), ((1.0,), (0.0,)), (0.0,), (x,)


def single_integrator_2d():
    """xdot = u (u in [-1,1]), ydot = 0: a 1-D plant embedded in two axes so
    it fits the grid contract."""
    model, _ = two_axes("single_integrator", single_integrator)

    def h(x):
        return 1.0 - np.abs(np.asarray(x, dtype=float)[..., 0])

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = -np.sign(x[..., 0])
        return out

    spec = SafetySpec(constraints=(ScalarConstraint(h, grad, "band"),),
                      terminal=ScalarConstraint(h, grad, "band"),
                      alpha_gain=1.0)
    return model, spec


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def test_hamiltonian_double_integrator():
    model, _, _ = make_benchmark("double_integrator")
    x = np.array([0.0, 3.0])
    assert hamiltonian(model, x, np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert hamiltonian(model, x, np.array([1.0, 0.0])) == pytest.approx(3.0)
    assert hamiltonian(model, x, np.zeros(2)) == pytest.approx(0.0)


def test_hamiltonian_is_box_maximum():
    """Closed form must equal a dense maximization over the input box."""
    model, _, _ = make_benchmark("dubins")
    rng = np.random.default_rng(5)
    us = np.stack(np.meshgrid(np.linspace(-3, 3, 41), np.linspace(-0.5, 0.5, 41),
                              indexing="ij"), axis=-1).reshape(-1, 2)
    for _ in range(20):
        x = rng.uniform([-1.8, 0.0, -1.0], [1.8, 8.0, 1.0])
        p = rng.normal(size=3)
        vals = (model.f_eval(x) @ p) + (model.g_eval(x) @ us.T).T @ p
        assert hamiltonian(model, x, p) == pytest.approx(vals.max(), abs=1e-9)


def half_and_center(model):
    """The half-width and the centre of each input's interval."""
    return (0.5 * (model.input_upper - model.input_lower),
            0.5 * (model.input_upper + model.input_lower))


def index_order_hamiltonian(model, p, f, g):
    """The Hamiltonian on ``(..., n)`` and ``(..., n, m)`` fields, summed in
    index order from +0.0: ``p.f``, then per input channel ``j`` in turn
    ``+ |p.g_j| half_j + (p.g_j) center_j``; the bit reference."""
    half, center = half_and_center(model)
    n = p.shape[-1]
    ham = sum(p[..., i] * f[..., i] for i in range(n))
    for j in range(len(half)):
        pg = sum(p[..., i] * g[..., i, j] for i in range(n))
        ham = ham + np.abs(pg) * half[j] + pg * center[j]
    return ham


def einsum_hamiltonian(model, p, f, g):
    """The Hamiltonian by ``np.einsum`` and stacked matmuls, as the pass
    computed it before it summed in index order."""
    half, center = half_and_center(model)
    pf = np.einsum("...i,...i->...", p, f)
    pg = np.einsum("...i,...ij->...j", p, g)
    return pf + np.abs(pg) @ half + pg @ center


def hamiltonian_rounding_bound(model, p, f, g):
    """A bound on the gap between two ways of summing the Hamiltonian.

    With ``s_j = sum_i p_i g_ij``, ``H = sum_i p_i f_i + sum_j (|s_j|
    half_j + s_j center_j)``.  Each term passes through at most ``n``
    roundings in its inner sum (``n`` for ``p.f``: the products and
    additions), one multiply by ``half_j`` or ``center_j``, and ``n + 2m
    - 1`` additions in the outer sum of ``n + 2m`` values, in any order
    and bracketing (fused multiply-adds only drop roundings), and
    ``||s^| - |s|| <= |s^ - s|``.  So a computed value is within
    ``gamma_k T`` of ``H`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1), with ``k = 2 (n + m)``, ``gamma_k = k
    u / (1 - k u)`` for the unit roundoff ``u = 2**-53`` and ``T = sum_i
    |p_i f_i| + sum_j (half_j + |center_j|) sum_i |p_i g_ij|``; two
    computed values are within twice that.  Underflow is not modelled:
    the samples' products are far from it."""
    half, center = half_and_center(model)
    n, m = p.shape[-1], len(half)
    k, u = 2 * (n + m), 2.0**-53
    pa = np.abs(p)
    t = (np.sum(pa * np.abs(f), axis=-1)
         + np.sum(pa[..., None] * np.abs(g), axis=-2) @ (half + np.abs(center)))
    return 2.0 * k * u / (1.0 - k * u) * t


def signed_samples(rng, shape):
    """Magnitudes 1e-3 to 1e3 of either sign, with one entry in ten +-0.0."""
    out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    zero = rng.random(shape) < 0.1
    out[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return out


def box_model(n, m, lower, upper, f, g):
    """A model of ``n`` states and ``m`` inputs in the box ``[lower, upper]``
    whose drift and input matrix are the fixed fields ``f`` and ``g``."""
    return SystemModel(n, m, lambda x: f, lambda x: g, None, None,
                       np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))


def per_axis(a, axes=(-1,)):
    """A ``(..., n)`` field, or with ``axes=(-1, -2)`` a ``(..., n, m)``
    one, as contiguous per-axis fields, ``(n,) + shape`` or ``(m, n) +
    shape``, as the solve holds them."""
    return np.ascontiguousarray(np.moveaxis(a, axes, range(len(axes))))


def assert_near_einsum(model, p, f, g, got):
    """``got`` is within `hamiltonian_rounding_bound` of the einsum form."""
    gap = np.abs(np.asarray(got) - einsum_hamiltonian(model, p, f, g))
    assert np.all(gap <= hamiltonian_rounding_bound(model, p, f, g))


@pytest.mark.parametrize("box", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hamiltonian_matches_the_einsum_form(n, m, box):
    """The per-axis Hamiltonian has the bits (and the type) of the index
    order sums, and matches the einsum form the pass used to compute within
    the rounding bound of two summation orders, on grid-shaped and flat
    fields and at one point, in a box centred on zero and in one that is
    not, with +-0.0 among the terms."""
    rng = np.random.default_rng([n, m, box == "symmetric"])
    half = 10.0 ** rng.uniform(-1.0, 1.0, m)
    center = 0.0 if box == "symmetric" else signed_samples(rng, m)
    for shape in [(6, 5, 7), (9, 11), (300,), ()]:
        p, f = signed_samples(rng, shape + (n,)), signed_samples(rng, shape + (n,))
        g = signed_samples(rng, shape + (n, m))
        model = box_model(n, m, center - half, center + half, f, g)
        want = index_order_hamiltonian(model, p, f, g)
        got = hamiltonian(model, np.zeros(n), p)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert_near_einsum(model, p, f, g, got)
        # the solve's route: contiguous per-axis fields into a buffer
        out = hjgrid._box_hamiltonian(*hjgrid._box(model), per_axis(p),
                                      per_axis(f), per_axis(g, (-1, -2)),
                                      np.empty(shape), np.empty(shape))
        assert out.tobytes() == np.asarray(want).tobytes()


def field_of_kind(rng, kind, shape):
    """A per-axis field that is +-0.0 (mixed signs), exactly 1.0, -1.0 (a
    constant other than 0 and 1), or a signed sample at every point."""
    if kind == "zero":
        return rng.choice([0.0, -0.0], shape)
    if kind == "one":
        return np.ones(shape)
    if kind == "constant":
        return np.full(shape, -1.0)
    return signed_samples(rng, (1,) + shape)[0]


def term_kind(term):
    """What `_dot` does with a term: leave it out, add the costate,
    multiply by a float or multiply by a field."""
    if not isinstance(term, float):
        return "field"
    return {0.0: "zero", 1.0: "one"}.get(term, "constant")


@pytest.mark.parametrize("box", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hamiltonian_with_zero_and_one_fields_matches_the_einsum_form(n, m, box):
    """With whole fields of f and g that are +-0.0, 1.0 or -1.0 at every
    point, passed as the terms `solve_invariant` makes of them
    (`_constant_or_field`), the pass still has the bytes of the index
    order sums on the full fields, and matches the einsum form within the
    rounding bound; costates with +-0.0 among them, sums with no terms
    (every field zero) and sums of ones alone included."""
    rng = np.random.default_rng([n, m, box == "symmetric", 29])
    half = 10.0 ** rng.uniform(-1.0, 1.0, m)
    center = 0.0 if box == "symmetric" else signed_samples(rng, m)
    model = box_model(n, m, center - half, center + half, None, None)
    seen = set()
    for draw in range(30):
        forced = ("zero", "one", "constant", None)[draw] if draw < 4 else None
        kinds = [forced or rng.choice(["zero", "one", "constant", "general"])
                 for _ in range(n * (m + 1))]
        for shape in [(6, 5, 7), (9, 11), (300,), ()]:
            fields = [field_of_kind(rng, kind, shape) for kind in kinds]
            f = np.stack(fields[:n], axis=-1)
            g = np.stack(fields[n:], axis=-1).reshape(shape + (n, m))
            p = signed_samples(rng, shape + (n,))
            want = index_order_hamiltonian(model, p, f, g)
            terms = [hjgrid._constant_or_field(a) for a in per_axis(f)]
            g_terms = [[hjgrid._constant_or_field(a) for a in g_j]
                       for g_j in per_axis(g, (-1, -2))]
            seen.update(map(term_kind, terms + sum(g_terms, [])))
            out = hjgrid._box_hamiltonian(
                *hjgrid._box(model), per_axis(p), terms, g_terms,
                np.empty(shape), np.empty(shape))
            assert out.tobytes() == np.asarray(want).tobytes()
            assert_near_einsum(model, p, f, g, out)
    assert seen == {"zero", "one", "constant", "field"}


def test_constant_or_field_sorts_constant_fields():
    """A field that has one value at every node is that float: +-0.0 mixed
    is a zero, 1.0 is 1.0 and -1.0 (the aeroplane's ``g_dpsi``) is -1.0; a
    NaN, a subnormal, a 1 + ulp or ``[1, 0]`` keeps the field."""
    for field, value in [([0.0, -0.0, 0.0], 0.0), ([-0.0, 0.0], 0.0),
                         (np.ones((3, 2)), 1.0), ([-1.0, -1.0], -1.0)]:
        got = hjgrid._constant_or_field(np.array(field))
        assert type(got) is float and got == value
    for field in [[0.0, math.nan], [math.nan, math.nan], [0.0, 5e-324],
                  [1.0, 1.0 + 2.0**-52], [1.0, 0.0]]:
        field = np.array(field)
        assert hjgrid._constant_or_field(field) is field


def test_hamiltonian_rejects_a_costate_of_the_wrong_length():
    """A costate whose last axis is not ``state_dim`` long is refused with
    both counts named, not broadcast against the drift."""
    model, _, _ = make_benchmark("dubins")
    for p in [np.zeros(2), np.zeros((4, 4)), np.float64(1.0)]:
        with pytest.raises(ValidationError, match=(
                rf"costate of shape {re.escape(str(p.shape))} .*state_dim = 3")):
            hamiltonian(model, np.zeros(3), p)


def test_hamiltonian_rejects_a_state_of_the_wrong_length():
    """A state whose last axis is not ``state_dim`` long is refused with
    its shape and ``state_dim`` named, not read by index (a bare
    `IndexError` on Dubins' third component)."""
    model, _, _ = make_benchmark("dubins")
    for x in [np.zeros(2), np.zeros((4, 4)), np.float64(1.0)]:
        with pytest.raises(ValidationError, match=(
                rf"state of shape {re.escape(str(x.shape))} .*state_dim = 3")):
            hamiltonian(model, x, np.zeros(3))


def test_hamiltonian_broadcasts_points_and_costates():
    """One state against many costates, and many states against one, as
    the einsum form broadcast them, with the bits of the index order
    sums."""
    model, _, _ = make_benchmark("dubins")
    rng = np.random.default_rng(11)
    xs = rng.uniform([-1.8, 0.0, -1.0], [1.8, 8.0, 1.0], (7, 3))
    ps = rng.normal(size=(7, 3))
    for x, p in [(xs[0], ps), (xs, ps[0]), (xs, ps)]:
        xb, pb = np.broadcast_arrays(x, p)
        want = index_order_hamiltonian(model, pb, model.f_eval(xb), model.g_eval(xb))
        assert hamiltonian(model, x, p).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# value iteration
# ---------------------------------------------------------------------------


def test_invariant_set_single_integrator_band():
    model, spec = single_integrator_2d()
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (81, 5), (False, False))
    out = solve_invariant(constraint_grid(geom, spec), model)
    xs = geom.axis_coordinates(0)
    members = out.values[:, 2] >= 0.0
    cell = xs[1] - xs[0]
    assert abs(xs[members].min() - (-1.0)) <= cell
    assert abs(xs[members].max() - 1.0) <= cell
    # monotone nonincreasing against the initial field
    assert np.all(out.values <= constraint_grid(geom, spec).values + 1e-12)


def test_invariant_set_double_integrator_matches_closed_form():
    model, _, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (101, 101), (False, False))
    out = solve_invariant(constraint_grid(geom, spec), model, tol=1e-4,
                          max_steps=20000)
    oracle = di_closed_form_h(geom.nodes(), 10.0, 1.0).reshape(geom.counts)
    got = out.membership()
    oracle_grid = LevelGrid(geom, oracle.ravel())
    inflated = dilate_set(oracle_grid)
    deflated = ~dilate_set(LevelGrid(geom, -oracle.ravel()))
    ok = (got <= inflated) & (deflated <= got)
    # one-cell agreement away from the domain boundary
    interior = np.zeros(geom.counts, dtype=bool)
    interior[1:-1, 1:-1] = True
    assert np.all(ok[interior])


def test_refinement_volume_stability():
    model, _, spec = make_benchmark("double_integrator")
    vols = []
    for n in (51, 101):
        geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (n, n), (False, False))
        out = solve_invariant(constraint_grid(geom, spec), model, tol=1e-4,
                              max_steps=20000)
        vols.append(out.membership().mean())
    assert abs(vols[1] - vols[0]) / vols[1] < 0.05


def test_solve_record_flags_an_unconverged_field():
    """Stopping at ``max_steps`` returns the field marked unconverged, with
    a warning when a tolerance was asked for and none with ``tol = 0``."""
    model, _, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (101, 101), (False, False))
    grid0 = constraint_grid(geom, spec)
    with pytest.warns(ConvergenceWarning, match="after 20 passes"):
        out = solve_invariant(grid0, model, tol=1e-3, max_steps=20)
    record = out.solve
    assert record.converged is False
    assert record.iterations == 20
    assert record.final_update >= 1e-3
    # each node steps by 90 % of its own stability bound
    assert record.cfl_ratio == pytest.approx(0.9)
    # a fixed pass count (tol = 0) is silent and gives the same field
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed = solve_invariant(grid0, model, tol=0.0, max_steps=20)
    assert np.array_equal(fixed.values, out.values)
    assert fixed.solve == record


def test_solve_record_of_a_converged_field():
    model, spec = single_integrator_2d()
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (41, 5), (False, False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_invariant(constraint_grid(geom, spec), model, tol=1e-3)
    record = out.solve
    assert record.converged is True
    assert 1 <= record.iterations < 5000
    assert record.final_update < 1e-3
    # |dH/dp_0| <= 1 on a spacing of 0.1: rate 10 per unit time, and the
    # step is 90 % of the bound 1 / 10
    assert record.dt == pytest.approx(0.09)
    assert record.cfl_ratio == pytest.approx(0.9)
    # grids that no value iteration produced carry no record
    assert constraint_grid(geom, spec).solve is None


def test_value_floor_is_two_ranges_below_the_field_minimum():
    """Under xdot = 2 + u, u in [-1, 1], every value drains out through the
    right edge, so the clamp binds: the field settles on
    ``min - 2 max(range, 1)`` of the constraint field.  With or without
    the drift, no cell is lifted above its start and none falls below."""
    model, spec = single_integrator_2d()
    drift = dataclasses.replace(model,
                                f_eval=lambda x: model.f_eval(x) + [2.0, 0.0])
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (41, 5), (False, False))
    grid0 = constraint_grid(geom, spec)
    low, high = float(grid0.values.min()), float(grid0.values.max())
    floor = low - 2.0 * max(high - low, 1.0)
    assert floor == -5.0
    for m in (model, drift):
        out = solve_invariant(grid0, m)
        assert np.all(out.values <= grid0.values)
        assert out.values.min() >= floor
    assert out.values.min() == floor


def _side_values(v, axis, periodic):
    """Neighbor fields (previous, next) along an axis; non-periodic edges
    are linearly extrapolated so edge differences become one-sided."""
    if periodic:
        return np.roll(v, 1, axis=axis), np.roll(v, -1, axis=axis)
    w = np.moveaxis(v, axis, 0)
    prev = np.concatenate([2.0 * w[:1] - w[1:2], w[:-1]], axis=0)
    nxt = np.concatenate([w[1:], 2.0 * w[-1:] - w[-2:-1]], axis=0)
    return np.moveaxis(prev, 0, axis), np.moveaxis(nxt, 0, axis)


def reference_solve_passes(grid0, model, passes, tol=0.0):
    """The value iteration of `solve_invariant` for at most ``passes``
    passes, its differences taken from the neighbour fields of
    `_side_values` and its Hamiltonian from `index_order_hamiltonian` on
    the full fields (the plain pass, kept as the bit reference), with the
    node-local dissipation ``alpha_i = |f_i| + sum_j |g_ij| ubar_j``
    (summed in input order) and the node-local step ``dt = 0.9 / sum_i
    alpha_i / dx_i`` (summed in axis order; a node whose rate is 0 never
    moves and takes the smallest step)."""
    geom = grid0.geometry
    pts = geom.nodes()
    f_nodes, g_nodes = model.f_eval(pts), model.g_eval(pts)
    u_abs = np.maximum(np.abs(model.input_lower), np.abs(model.input_upper))
    shape = geom.counts
    f_grid = f_nodes.reshape(shape + (geom.dims,))
    g_grid = g_nodes.reshape(shape + (geom.dims, model.input_dim))
    alpha = np.abs(f_grid)
    for j in range(model.input_dim):
        alpha = alpha + np.abs(g_grid[..., j]) * u_abs[j]
    spacings = np.array([geom.spacing(i) for i in range(geom.dims)])
    rate = sum(alpha[..., i] / spacings[i] for i in range(geom.dims))
    top = float(rate.max())
    dt = 0.9 / np.where(rate > 0.0, rate, top) if top > 0.0 else np.ones(shape)
    dt_min, cfl_ratio = float(dt.min()), float(np.max(dt * rate))
    v = grid0.values.copy()
    value_floor = float(v.min()) - 2.0 * max(float(v.max() - v.min()), 1.0)
    for step in range(passes):
        grads_c = np.empty(shape + (geom.dims,))
        diss = np.zeros(shape)
        for ax in range(geom.dims):
            prev, nxt = _side_values(v, ax, geom.periodic_axes[ax])
            d_minus = (v - prev) / spacings[ax]
            d_plus = (nxt - v) / spacings[ax]
            grads_c[..., ax] = 0.5 * (d_minus + d_plus)
            diss += 0.5 * alpha[..., ax] * (d_plus - d_minus)
        ham = index_order_hamiltonian(model, grads_c, f_grid, g_grid) + diss
        v_new = np.maximum(v + dt * np.minimum(0.0, ham), value_floor)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < tol:
            break
    return v, hjgrid.SolveRecord(step + 1, delta, delta < tol, dt_min, cfl_ratio)


PASS_CASES = [
    ("double_integrator", GridGeometry((-10.0, -5.0), (12.0, 5.0), (41, 41),
                                       (False, False))),
    ("dubins", GridGeometry((-2.25, -1.0, -1.25), (2.25, 11.0, 1.25),
                            (21, 21, 21), (False, False, False))),
    ("aeroplane", GridGeometry((-6.0, -6.0, -math.pi), (6.0, 6.0, math.pi),
                               (21, 21, 21), (False, False, True))),
]


@pytest.mark.parametrize("name, geom", PASS_CASES)
def test_value_iteration_matches_the_neighbour_field_pass(name, geom):
    """Differences taken once per cell face, edges and periodic wrap
    included, give the former pass's field and record bit for bit."""
    model, _, spec = make_benchmark(name)
    grid0 = constraint_grid(geom, spec)
    out = solve_invariant(grid0, model, tol=0.0, max_steps=25)
    values, record = reference_solve_passes(grid0, model, 25)
    assert np.array_equal(out.values, values)
    assert out.values.tobytes() == values.tobytes()
    assert out.solve == record


def test_converged_dubins_solve_matches_the_former_pass():
    """A full solve to the default tolerance on Dubins 21^3 (two inputs,
    so two box terms per node, and fields that are 0.0 and 1.0 at every
    node) stops after the same pass as the reference, with the same field
    and record bit for bit."""
    model, _, spec = make_benchmark("dubins")
    geom = GridGeometry((-2.25, -1.0, -1.25), (2.25, 11.0, 1.25), (21, 21, 21),
                        (False, False, False))
    grid0 = constraint_grid(geom, spec)
    out = solve_invariant(grid0, model, tol=1e-3)
    values, record = reference_solve_passes(grid0, model, hjgrid.HJ_MAX_STEPS,
                                            tol=1e-3)
    assert out.solve.converged
    assert out.values.tobytes() == values.tobytes()
    assert out.solve == record


@pytest.mark.parametrize("geom, kinds", [
    # f = (general, zero); g = (zero, one): the double integrator's pattern
    (GridGeometry((-2.0, -1.5), (2.0, 1.5), (33, 29), (False, False)),
     [["general", "zero"], [["zero", "one"]]]),
    # f = (general, zero, zero); g = ((zero, one, zero), (zero, zero, one)),
    # Dubins' pattern, on a grid with a periodic axis
    (GridGeometry((-2.0, -1.0, -math.pi), (2.0, 3.0, math.pi), (17, 13, 16),
                  (False, False, True)),
     [["general", "zero", "zero"], [["zero", "one", "zero"],
                                    ["zero", "zero", "one"]]]),
    # every kind in every place: f = (one, general, zero);
    # g = ((general, zero, one), (one, one, zero))
    (GridGeometry((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (15, 15, 15),
                  (False, True, False)),
     [["one", "general", "zero"], [["general", "zero", "one"],
                                   ["one", "one", "zero"]]]),
    # f = (general, general, zero); g = ((general, general, constant)): the
    # aeroplane's pattern, whose g_dpsi is -1.0 at every node
    (GridGeometry((-2.0, -2.0, -math.pi), (2.0, 2.0, math.pi), (15, 13, 16),
                  (False, False, True)),
     [["general", "general", "zero"], [["general", "general", "constant"]]]),
])
def test_zero_and_one_fields_solve_as_the_neighbour_field_pass(geom, kinds):
    """On a model whose drift and input matrix are fixed fields, some of
    them +-0.0 (mixed signs), 1.0 or -1.0 at every node, 25 passes that
    leave the zero fields out and multiply by the constants as floats give
    the reference pass's field and record bit for bit."""
    rng = np.random.default_rng(geom.counts)
    f_kinds, g_kinds = kinds
    n, m, nodes = geom.dims, len(g_kinds), geom.nodes()
    shape = (len(nodes),)
    f = np.stack([field_of_kind(rng, k, shape) for k in f_kinds], axis=-1)
    g = np.stack([np.stack([field_of_kind(rng, k, shape) for k in g_j], axis=-1)
                  for g_j in g_kinds], axis=-1)
    model = box_model(n, m, [-1.0, 0.25][:m], [2.0, 0.75][:m], f, g)
    grid0 = LevelGrid(geom, 0.75 - np.abs(nodes).max(axis=1)
                      + 0.1 * np.sin(3.0 * nodes.sum(axis=1)))
    out = solve_invariant(grid0, model, tol=0.0, max_steps=25)
    values, record = reference_solve_passes(grid0, model, 25)
    assert out.values.tobytes() == values.tobytes()
    assert out.solve == record
    assert np.any(out.values != grid0.values)


@pytest.mark.parametrize("name, geom", PASS_CASES)
def test_one_pass_is_monotone_off_the_edges(name, geom):
    """``alpha_i(x)`` bounds ``|dH/dp_i|`` at ``x`` and ``dt(x) rate(x) <=
    0.9``, so a pass is monotone: from fields ``v <= w`` with the same min
    and max (so the same value floor), dense and sparse raises of the
    constraint field, it gives ``v' <= w'`` up to rounding, ``4 eps
    max|v|`` (the worst of 40 draws was 0.8 eps max|v|), at every node off
    a non-periodic edge.  A node on such an edge takes the one-sided
    difference to the extrapolated ``2 v[0] - v[1]``, which is not monotone
    in ``v[1]``, so it is left out (it breaks the order by up to 7.9 on the
    double integrator)."""
    model, _, spec = make_benchmark(name)
    v = constraint_grid(geom, spec).values
    inner = np.zeros(geom.counts, dtype=bool)
    inner[tuple(slice(None) if p else slice(1, -1)
                for p in geom.periodic_axes)] = True
    allowance = 4.0 * np.finfo(float).eps * np.abs(v).max()
    for seed in range(4):
        rng = np.random.default_rng([seed, 32])
        raise_by = rng.random(v.shape) * (v.max() - v)
        if seed % 2:
            raise_by *= rng.random(v.shape) < 0.2
        raise_by.flat[np.argmin(v)] = 0.0
        w = v + raise_by
        assert (w.min(), w.max()) == (v.min(), v.max())
        v1, w1 = (solve_invariant(LevelGrid(geom, a), model, tol=0.0,
                                  max_steps=1).values for a in (v, w))
        assert np.all(v1[inner] <= w1[inner] + allowance)
        assert np.any(v1 != v)


@pytest.mark.parametrize("count", [15, 21])
def test_coarse_conservative_dubins_hj_set_holds_the_backup_set(count):
    """The backup set is control invariant, so it lies in the maximal one.
    At the default tol on conservative Dubins grids of 15^3 and 21^3 the
    HJ set is not empty and holds the backup set within one dilated cell
    (the scheme that scaled every node by grid-wide maxima left it empty
    there)."""
    model, policy, spec = make_benchmark("dubins")
    geom = GridGeometry((-2.25, -1.0, -1.25), (2.25, 11.0, 1.25),
                        (count,) * 3, (False, False, False))
    hj = solve_invariant(constraint_grid(geom, spec), model)
    backup = sweep_backup_h(model, policy, spec, geom, 8.0, 100).membership()
    assert hj.solve.converged
    assert hj.membership().any()
    assert backup.any() and not np.any(backup & ~dilate_set(hj))


# The three grids of the benchmark's level-set workload, with each HJ
# set's member count, the sha256 prefix of np.packbits(values >= 0) and the
# pass count at the default tol.
LEVELSET_SETS = [
    ("double_integrator", {"c_limit_m": 10.0, "u_max_mps2": 1.0},
     GridGeometry((-10.0, -5.0), (12.0, 5.0), (101, 101), (False, False)),
     8203, "46e74dd7ee06", 150),
    ("aeroplane", None,
     GridGeometry((-6.0, -6.0, -math.pi), (6.0, 6.0, math.pi), (31, 31, 31),
                  (False, False, True)),
     29066, "2af4b473cdfd", 161),
    ("dubins", {"profile": "conservative"},
     GridGeometry((-2.25, -1.0, -1.25), (2.25, 11.0, 1.25), (45, 45, 45),
                  (False, False, False)),
     39153, "9944c612bc19", 136),
]


@pytest.mark.parametrize("name, params, geom, cells, mask_sha, passes",
                         LEVELSET_SETS, ids=[c[0] for c in LEVELSET_SETS])
def test_levelset_hj_sets_keep_their_cells(name, params, geom, cells,
                                           mask_sha, passes):
    """The HJ sets of the level-set benchmark's grids, solved at the
    default tol, keep their cells and their pass counts: the values may
    move in the last bits when a sum changes order, the sets may not."""
    model, _, spec = make_benchmark(name, params)
    hj = solve_invariant(constraint_grid(geom, spec), model)
    members = hj.values >= 0.0
    assert int(members.sum()) == cells
    assert hashlib.sha256(np.packbits(members)).hexdigest()[:12] == mask_sha
    assert hj.solve.converged and hj.solve.iterations == passes


PLANE_9 = GridGeometry((-6.0, -6.0, -math.pi), (6.0, 6.0, math.pi), (9, 9, 8),
                       (False, False, True))
DI_41 = GridGeometry((-10.0, -5.0), (12.0, 5.0), (41, 41), (False, False))


def box_of(name, params, lower, upper):
    """The benchmark's model and spec with the input box [lower, upper]."""
    model, _, spec = make_benchmark(name, params)
    if lower is not None:
        model = dataclasses.replace(model, input_lower=np.array([lower]),
                                    input_upper=np.array([upper]))
    return model, spec


@pytest.mark.parametrize("name, params, box, geom, named", [
    ("aeroplane", {"u_max_radps": 1e308}, (None, None), PLANE_9,
     r"half-width of input 0 \(u\) is not finite: inf"),
    ("double_integrator", {"u_max_mps2": 1e308}, (None, None), DI_41,
     r"half-width of input 0 \(u\) is not finite: inf"),
    ("double_integrator", {}, (1e308, 1.7e308), DI_41,
     r"centre of input 0 \(u\) is not finite: inf"),
    ("aeroplane", {}, (0.0, 1e308), PLANE_9,
     r"Lax-Friedrichs bound alpha on axis 0 \(dx\) is not finite: inf"),
    ("double_integrator", {}, (0.0, 1e308), DI_41,
     r"CFL rate sum\(alpha / spacing\) is not finite: inf"),
], ids=["plane_half_width", "di_half_width", "di_centre", "plane_alpha",
        "di_cfl_rate"])
def test_solve_refuses_an_overflowing_lax_friedrichs_bound(name, params, box,
                                                          geom, named):
    """An input box or a dissipation bound that overflows is refused before
    the first pass, by name and without a RuntimeWarning, not reported as a
    blow-up at step 0 with dt = 0."""
    model, spec = box_of(name, params, *box)
    grid0 = constraint_grid(geom, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=named):
            solve_invariant(grid0, model, max_steps=5)


def test_solve_refuses_a_node_step_that_is_not_finite():
    """A rate ``sum_i alpha_i / dx_i`` that is subnormal at a node (a drift
    of 5e-324 on a unit spacing) makes its step ``0.9 / rate`` infinite:
    refused before the first pass, naming the node and its rate, with no
    warning, whether or not other nodes move."""
    geom = GridGeometry((0.0, 0.0), (4.0, 4.0), (5, 5), (False, False))
    grid0 = LevelGrid(geom, np.linspace(-1.0, 1.0, 25))
    for other in (0.0, 1.0):
        f = np.zeros((25, 2))
        f[7, 0], f[20, 1] = 5e-324, other
        model = box_model(2, 1, [-1.0], [1.0], f, np.zeros((25, 2, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(
                    "node step 0.9 / rate at node (1, 2) is not finite: inf "
                    "(rate 5e-324)")):
                solve_invariant(grid0, model, max_steps=5)


@pytest.mark.parametrize("name, params, box, named", [
    ("aeroplane", {"u_max_radps": 1e308}, (None, None),
     r"half-width of input 0 \(u\) is not finite: inf"),
    ("double_integrator", {"u_max_mps2": 1e308}, (None, None),
     r"half-width of input 0 \(u\) is not finite: inf"),
    ("double_integrator", {}, (1e308, 1.7e308),
     r"centre of input 0 \(u\) is not finite: inf"),
], ids=["plane_half_width", "di_half_width", "di_centre"])
def test_hamiltonian_refuses_an_overflowing_box(name, params, box, named):
    """`hamiltonian` refuses the input boxes `solve_invariant` refuses, with
    the same `NumericalError` and no RuntimeWarning, where it returned NaN
    with two."""
    model, _ = box_of(name, params, *box)
    x = np.ones(model.state_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=named):
            hamiltonian(model, x, np.ones(model.state_dim))


@pytest.mark.parametrize("values, spacing", [
    ((-1e307, 1e307), 0.1),        # 4 (max - value_floor) / spacing overflows
    ((1.5e308, 1.5e308), 1.0),     # the edge extrapolation 2 v[0] - v[1] does
    ((0.0, 1.0), 1e-308),          # the spacing is too fine for the range
], ids=["wide_range", "large_values", "fine_spacing"])
def test_solve_refuses_a_field_whose_differences_could_overflow(values, spacing):
    """The pass stays bit-equal to the full sum only for a finite costate,
    so a ``grid0`` whose differences could overflow is refused before the
    first pass, naming the range [value_floor, max], with no warning."""
    model, spec = single_integrator_2d()
    # y (axis 1) carries no motion, so its spacing leaves the CFL rate alone
    geom = GridGeometry((0.0, 0.0), (8.0, 4 * spacing), (9, 5), (False, False))
    grid0 = LevelGrid(geom, np.resize(values, 45))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=(r"\[value_floor, max\] = \[.*, "
                                  + re.escape(repr(values[1])) + r"\]")):
            solve_invariant(grid0, model, max_steps=5)


BAD_SOLVE_LIMITS = [{"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf},
                    {"tol": "0.1"}, {"max_steps": -3}, {"max_steps": 0},
                    {"max_steps": 2.0}, {"max_steps": True}]


@pytest.mark.parametrize("limits", BAD_SOLVE_LIMITS)
def test_solve_rejects_a_bad_tolerance_or_step_cap(limits):
    """A NaN, negative or infinite tolerance would never stop the iteration
    early, and a step cap below 1 would return the constraint field
    unsolved: both are refused, while ``tol = 0`` (a fixed pass count)
    stays valid."""
    model, spec = single_integrator_2d()
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (41, 5), (False, False))
    grid0 = constraint_grid(geom, spec)
    [value] = limits.values()
    with pytest.raises(ValidationError, match=f"got .*{value!r}"):
        solve_invariant(grid0, model, **limits)
    fixed = solve_invariant(grid0, model, tol=0.0, max_steps=1)
    assert fixed.solve.iterations == 1


@pytest.mark.parametrize("flag", ["--hj-tol=nan", "--hj-tol=-1",
                                  "--hj-max-steps=-3", "--hj-max-steps=0"])
def test_cli_levelset_rejects_a_bad_tolerance_or_step_cap(tmp_path, capsys,
                                                         monkeypatch, flag):
    """Refused before the sweep, and without making the output directory."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the solve limits were checked")

    monkeypatch.setattr(harness, "sweep_backup_h", no_sweep)
    out = tmp_path / "grids"
    rc = cli_main(["levelset", "--scenario", DI_SCENARIO,
                   "--grid=-10:12:21,-5:5:21", "--hj", "--hj-max-steps=50",
                   flag, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_matches_pointwise_evaluation():
    model, policy, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (11, 9), (False, False))
    grid = sweep_backup_h(model, policy, spec, geom, 10.0, 100)
    pts = geom.nodes()
    direct = eval_h_batch(model, policy, spec, pts, 10.0, 100).h
    assert np.allclose(grid.values.ravel(), direct, atol=1e-12)


def test_sweep_zero_horizon_returns_constraint_field():
    model, policy, spec = make_benchmark("double_integrator")
    # terminal tied to the path constraint: the zero-horizon field is then
    # exactly min_k hC_k
    spec0 = SafetySpec(constraints=spec.constraints,
                       terminal=spec.constraints[0], alpha_gain=1.0)
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (11, 9), (False, False))
    grid = sweep_backup_h(model, policy, spec0, geom, 1e-12, 1)
    expect = constraint_grid(geom, spec0)
    assert np.allclose(grid.values, expect.values, atol=1e-9)


def test_sweep_respects_thread_env(monkeypatch):
    model, policy, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (11, 9), (False, False))
    base = sweep_backup_h(model, policy, spec, geom, 10.0, 50)
    monkeypatch.setenv("BCBF_THREADS", "4")
    monkeypatch.setattr(hjgrid, "_SWEEP_CHUNK", 16)
    threaded = sweep_backup_h(model, policy, spec, geom, 10.0, 50)
    assert np.array_equal(base.values, threaded.values)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _band_grid(values):
    geom = GridGeometry((-1.0, -1.0), (1.0, 1.0), (5, 5), (False, False))
    return LevelGrid(geom, np.asarray(values, dtype=float))


def test_compare_identical():
    grid = _band_grid(np.linspace(-1, 1, 25))
    metrics = compare_sets(grid, grid)
    assert metrics["jaccard"] == 1.0
    assert metrics["fraction_a_not_b"] == 0.0


def test_compare_disjoint():
    a = _band_grid(np.r_[np.ones(10), -np.ones(15)])
    b = _band_grid(np.r_[-np.ones(10), np.ones(15)])
    metrics = compare_sets(a, b)
    assert metrics["jaccard"] == 0.0
    assert metrics["fraction_a_not_b"] == 1.0


def test_compare_halfspace_against_everything():
    geom = GridGeometry((-1.0, -1.0), (1.0, 1.0), (40, 11), (False, False))
    xs = geom.nodes()[:, 0].reshape(geom.counts)
    half = LevelGrid(geom, np.where(xs >= 0, 1.0, -1.0).ravel())
    full = LevelGrid(geom, np.ones(40 * 11))
    metrics = compare_sets(half, full)
    assert metrics["fraction_b_not_a"] == pytest.approx(0.5, abs=0.05)
    assert metrics["fraction_a_not_b"] == 0.0
    assert metrics["cell_counts"]["total"] == 440


def test_compare_rejects_geometry_mismatch():
    a = _band_grid(np.ones(25))
    geom = GridGeometry((-1.0, -1.0), (1.0, 1.0), (5, 6), (False, False))
    b = LevelGrid(geom, np.ones(30))
    with pytest.raises(GeometryError):
        compare_sets(a, b)


def _disjoint_3x3(tmp_path):
    """Two 3x3 grid files, one holding +1 where the other holds -1."""
    geom = GridGeometry((-1.0, -1.0), (1.0, 1.0), (3, 3), (False, False))
    signs = np.r_[np.ones(4), -np.ones(5)]
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, values in zip(paths, (signs, -signs)):
        write_grid_json(LevelGrid(geom, values), path)
    return paths


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf,
                                       np.float64(math.nan), True, None, "0"])
def test_compare_refuses_a_threshold_that_is_not_a_finite_number(tmp_path,
                                                                 threshold):
    """At a NaN threshold no cell is a member, so two disjoint sets used to
    read ``jaccard`` 1.0; such a threshold is refused with
    `ValidationError`, and a finite one compares as before."""
    a, b = (read_grid(path) for path in _disjoint_3x3(tmp_path))
    with pytest.raises(ValidationError, match="threshold must be a finite "
                       "number"):
        compare_sets(a, b, threshold)
    assert compare_sets(a, b, 0.5)["jaccard"] == 0.0
    assert compare_sets(a, b, np.float64(-2.0))["jaccard"] == 1.0


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_cli_compare_refuses_a_non_finite_threshold(tmp_path, capsys,
                                                    threshold):
    """``bcbf compare --threshold nan`` exits 2 and writes no ``--out``
    file (it used to exit 0 with ``jaccard`` 1.0 and write a JSON ``NaN``)."""
    a, b = _disjoint_3x3(tmp_path)
    out = tmp_path / "metrics.json"
    assert cli_main(["compare", a, b, f"--threshold={threshold}",
                     "--out", str(out)]) == 2
    assert "threshold must be a finite number" in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["compare", a, b, "--threshold", "0.5",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["jaccard"] == 0.0
    capsys.readouterr()


def test_dilate_wraps_periodic_axis():
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (5, 6), (False, True))
    vals = -np.ones((5, 6))
    vals[2, 5] = 1.0
    mask = dilate_set(LevelGrid(geom, vals.ravel()))
    assert mask[2, 0]        # wrapped along the periodic axis
    assert mask[1, 5] and mask[3, 5] and mask[2, 4]
    assert not mask[0, 0]


def former_dilate_set(grid):
    """`dilate_set` as it was: the mask as a 0/1 field, grown where a
    `_side_values` neighbour exceeds 0.5."""
    mask = grid.membership()
    grown, field = mask.copy(), mask.astype(float)
    for ax, periodic in enumerate(grid.geometry.periodic_axes):
        prev, nxt = _side_values(field, ax, periodic)
        grown |= (prev > 0.5) | (nxt > 0.5)
    return grown


def test_dilate_matches_former_dilation():
    """Boolean one-cell shifts give the mask of the extrapolated 0/1 field
    on random 2- and 3-axis grids with mixed periodic flags and sparse to
    dense sets."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        dims = int(rng.integers(2, 4))
        counts = tuple(int(c) for c in rng.integers(3, 9, dims))
        periodic = tuple(bool(p) for p in rng.integers(0, 2, dims))
        geom = GridGeometry((0.0,) * dims, (1.0,) * dims, counts, periodic)
        vals = rng.uniform(-1.0, 1.0, counts) - rng.uniform(-1.0, 1.0)
        grid = LevelGrid(geom, vals.ravel())
        got = dilate_set(grid)
        assert got.dtype == bool
        assert np.array_equal(got, former_dilate_set(grid)), (counts, periodic)


# ---------------------------------------------------------------------------
# geometry & serialization
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(GeometryError):
        GridGeometry((0.0,), (1.0,), (5,), (False,))          # 1-D
    with pytest.raises(GeometryError, match="axis 0 needs at least 3 points"):
        GridGeometry((0.0, 0.0), (1.0, 1.0), (2, 5), (False, False))
    with pytest.raises(GeometryError, match="axis 1 needs .* lower < upper") as err:
        GridGeometry((0.0, 2.0), (1.0, 1.0), (5, 5), (False, False))
    assert err.value.axis == 1


DI_SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                           "scenarios", "di_full_throttle.json")

MALFORMED_AXES = {
    # JSON: one field of axis 0 replaced
    "json_periodic_string": ("json", ("periodic", "false")),
    "json_periodic_int": ("json", ("periodic", 1)),
    "json_count_float": ("json", ("count", 3.7)),
    "json_count_bool": ("json", ("count", True)),
    "json_lower_bool": ("json", ("lower", True)),
    "json_lower_string": ("json", ("lower", "0.0")),
    "json_lower_nan": ("json", ("lower", float("nan"))),
    "json_upper_inf": ("json", ("upper", float("inf"))),
    "json_lower_ge_upper": ("json", ("lower", 1.0)),
    # CSV: the header line of axis 0
    "csv_lower_nan": ("csv", "# axis 0: nan 1.0 3"),
    "csv_lower_inf": ("csv", "# axis 0: -inf 1.0 3"),
    "csv_upper_inf": ("csv", "# axis 0: 0.0 inf 3"),
    "csv_count_float": ("csv", "# axis 0: 0.0 1.0 3.7"),
    "csv_unknown_flag": ("csv", "# axis 0: 0.0 1.0 3 nonperiodic"),
    "csv_extra_field": ("csv", "# axis 0: 0.0 1.0 3 periodic 1"),
    "csv_lower_ge_upper": ("csv", "# axis 0: 1.0 1.0 3"),
    "csv_two_points": ("csv", "# axis 0: 0.0 1.0 2"),
    # CLI: the --grid spec
    "cli_lower_nan": ("cli", "nan:12:11,-5:5:11"),
    "cli_upper_inf": ("cli", "-10:inf:11,-5:5:11"),
    "cli_count_float": ("cli", "-10:12:3.7,-5:5:11"),
    "cli_unknown_flag": ("cli", "-10:12:11:yes,-5:5:11"),
    "cli_lower_ge_upper": ("cli", "12:-10:11,-5:5:11"),
}


@pytest.mark.parametrize("form, bad", MALFORMED_AXES.values(),
                         ids=MALFORMED_AXES.keys())
def test_malformed_grid_axes_rejected(tmp_path, capsys, form, bad):
    """A bound that is not a finite number, a count that is not an integer
    or a flag that is not a boolean is a `GeometryError` (exit 2) in every
    form a grid arrives in, and so are bounds out of order; nothing is
    coerced, and a CSV error names the file and the header line."""
    if form == "cli":
        out = tmp_path / "grids"
        rc = cli_main(["levelset", "--scenario", DI_SCENARIO, f"--grid={bad}",
                       "--out", str(out)])
        assert rc == 2
        assert "initial state" not in capsys.readouterr().err
        assert not out.exists()
        return
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    grid = LevelGrid(geom, np.arange(9.0))
    if form == "json":
        doc = grid_to_json_dict(grid)
        doc["axes"][0][bad[0]] = bad[1]
        with pytest.raises(GeometryError, match="axis 0"):
            grid_from_json_dict(doc)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
    else:
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([bad + "\n"] + lines[1:]))
    with pytest.raises(GeometryError) as err:
        read_grid(str(path))
    if form == "csv":
        assert str(err.value).startswith(f"{path}:1: ")
    assert cli_main(["compare", str(path), str(path)]) == 2
    capsys.readouterr()


AXIS_FIELDS = (["-2.25", "2.25", "61"],
               ["0", "6.283185307179586", "8", "periodic"],
               ["-1e-3", "1.5e2", "3"])
BAD_AXIS_FIELDS = (["0.0", "1.0"], ["0.0", "1.0", "3.7"], ["zonk", "1.0", "3"],
                   ["0.0", "1.0", "3", "nonperiodic"],
                   ["0.0", "1.0", "3", "periodic", "1"], ["nan", "1.0", "3"],
                   ["0.0", "inf", "3"], ["1.0", "0.0", "3"], ["0.0", "1.0", "2"],
                   ["0.0", "1.0", "true"])


def _header_csv(path, axes, geom):
    """A grid file of ``geom`` whose header lines are ``axes``, one per line
    (blank-separated fields), over the data rows of a zero field."""
    write_grid_csv(LevelGrid(geom, np.zeros(math.prod(geom.counts))), str(path))
    rows = path.read_text().splitlines(keepends=True)[geom.dims:]
    path.write_text("".join(f"# axis {i}: {' '.join(fields)}\n"
                            for i, fields in enumerate(axes)) + "".join(rows))


def test_cli_spec_and_csv_header_share_the_axis_syntax(tmp_path):
    """The same axis fields give the same geometry as a ``--grid`` spec
    and as a CSV header, and a malformed field is refused by both (the CSV
    naming the header line of the axis)."""
    path = tmp_path / "grid.csv"
    good = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    for axes in (AXIS_FIELDS[:2], AXIS_FIELDS):
        geom = _parse_grid_spec(",".join(":".join(f) for f in axes))
        _header_csv(path, axes, geom)
        assert read_grid_csv(str(path)).geometry == geom
    for bad in BAD_AXIS_FIELDS:
        for axis in (0, 1):
            axes = [["0.0", "1.0", "3"], ["0.0", "1.0", "3"]]
            axes[axis] = bad
            with pytest.raises(ValidationError, match="bad grid axis token|"
                               f"axis {axis} "):
                _parse_grid_spec(",".join(":".join(f) for f in axes))
            _header_csv(path, axes, good)
            with pytest.raises(GeometryError) as err:
                read_grid_csv(str(path))
            assert str(err.value).startswith(f"{path}:{axis + 1}: ")


def test_geometry_rejects_non_finite_bounds_and_coerced_types():
    good = ((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    assert GridGeometry(*good) == GridGeometry((0, 0), (1, 1.0),
                                               (np.int64(3), 3),
                                               (np.bool_(False), False))
    for field, value in ((0, math.nan), (0, True), (1, math.inf),
                         (2, 3.0), (2, True), (3, 0), (3, "false")):
        args = [list(f) for f in good]
        args[field][1] = value
        with pytest.raises(GeometryError, match="axis 1"):
            GridGeometry(*map(tuple, args))


def test_periodic_axis_excludes_endpoint():
    geom = GridGeometry((0.0, -np.pi), (1.0, np.pi), (5, 8), (False, True))
    x = geom.axis_coordinates(1)
    assert x[0] == pytest.approx(-np.pi)
    assert x[-1] < np.pi
    assert geom.spacing(1) == pytest.approx(2 * np.pi / 8)


def test_grid_csv_roundtrip(tmp_path):
    model, policy, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (7, 5), (False, False))
    grid = sweep_backup_h(model, policy, spec, geom, 10.0, 50)
    path = str(tmp_path / "grid.csv")
    write_grid_csv(grid, path)
    back = read_grid_csv(path)
    assert back.geometry == grid.geometry
    assert np.array_equal(back.values, grid.values)


def test_grid_json_roundtrip(tmp_path):
    geom = GridGeometry((0.0, -np.pi), (1.0, np.pi), (4, 6), (False, True))
    grid = LevelGrid(geom, np.arange(24.0))
    path = str(tmp_path / "grid.json")
    write_grid_json(grid, path)
    back = read_grid(path)
    assert back.geometry == grid.geometry
    assert np.array_equal(back.values, grid.values)
    doc = grid_to_json_dict(grid)
    again = grid_from_json_dict(doc)
    assert again.geometry == grid.geometry


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# axis 0: 0.0 1.0 zonk\n")
    with pytest.raises(GeometryError) as err:
        read_grid_csv(str(path))
    assert ":1:" in str(err.value)

    path2 = tmp_path / "bad2.csv"
    path2.write_text("# axis 0: 0.0 1.0 3\n# axis 1: 0.0 1.0 3\n0,0,0.0,0.0\n")
    with pytest.raises(GeometryError) as err:
        read_grid_csv(str(path2))
    assert ":3:" in str(err.value)


def reference_write_grid_csv(grid, path):
    """The former per-cell CSV writer, kept verbatim as the byte reference."""
    geom = grid.geometry
    axes = [geom.axis_coordinates(i) for i in range(geom.dims)]
    with open(path, "w") as fh:
        for i in range(geom.dims):
            flag = " periodic" if geom.periodic_axes[i] else ""
            fh.write(f"# axis {i}: {geom.lower[i]!r} {geom.upper[i]!r} "
                     f"{geom.counts[i]}{flag}\n")
        flat = grid.values.ravel()
        for flat_idx, value in enumerate(flat):
            idx = np.unravel_index(flat_idx, geom.counts)
            coords = [axes[i][idx[i]] for i in range(geom.dims)]
            cols = [str(int(i)) for i in idx] + [repr(float(c)) for c in coords]
            cols.append(repr(float(value)))
            fh.write(",".join(cols) + "\n")


EXTREME_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308)


@st.composite
def level_grids(draw):
    dims = draw(st.integers(2, 3))
    counts = tuple(draw(st.integers(3, 9)) for _ in range(dims))
    lower = tuple(draw(st.floats(-1e3, 1e3)) for _ in range(dims))
    upper = tuple(lo + draw(st.floats(1e-3, 1e3)) for lo in lower)
    periodic = tuple(draw(st.booleans()) for _ in range(dims))
    values = draw(st.lists(
        st.one_of(st.sampled_from(EXTREME_VALUES),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=math.prod(counts), max_size=math.prod(counts)))
    return LevelGrid(GridGeometry(lower, upper, counts, periodic),
                     np.array(values))


@settings(max_examples=60, deadline=None)
@given(level_grids())
def test_grid_files_roundtrip_bit_equal(grid):
    """CSV and JSON read back to the same bits, and the block-wise CSV
    writer emits exactly the text of the per-cell reference writer."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "g.csv")
        ref_path = os.path.join(tmp, "ref.csv")
        json_path = os.path.join(tmp, "g.json")
        write_grid_csv(grid, csv_path)
        reference_write_grid_csv(grid, ref_path)
        write_grid_json(grid, json_path)
        with open(csv_path) as a, open(ref_path) as b:
            assert a.read() == b.read()
        for path in (csv_path, json_path):
            back = read_grid(path)
            assert back.geometry == grid.geometry
            assert back.values.tobytes() == grid.values.tobytes()


def block_encoder_write_grid_csv(grid, path):
    """The former block writer: every row through one ``str.format``, with
    index and coordinate columns gathered per block of cells (the byte
    reference of the per-axis-string writer)."""
    geom = grid.geometry
    axes = [geom.axis_coordinates(i) for i in range(geom.dims)]
    flat = grid.values.ravel()
    row = ",".join(["{}"] * geom.dims + ["{!r}"] * (geom.dims + 1)) + "\n"
    with open(path, "w") as fh:
        for i in range(geom.dims):
            flag = " periodic" if geom.periodic_axes[i] else ""
            fh.write(f"# axis {i}: {geom.lower[i]!r} {geom.upper[i]!r} "
                     f"{geom.counts[i]}{flag}\n")
        for start in range(0, flat.size, 4096):
            stop = min(start + 4096, flat.size)
            idx = np.stack(np.unravel_index(np.arange(start, stop),
                                            geom.counts), axis=-1)
            cols = ([c.tolist() for c in idx.T]
                    + [axes[i][idx[:, i]].tolist() for i in range(geom.dims)]
                    + [flat[start:stop].tolist()])
            fh.writelines(map(row.format, *cols))


@pytest.mark.parametrize("geom", [
    # one last-axis run longer than a block of rows
    GridGeometry((-1.0, -0.1), (2.0, 1e16), (3, 4500), (False, False)),
    # runs that do not divide a block, a periodic axis among them
    GridGeometry((-2.25, -math.pi, 1e-05), (2.25, math.pi, 1.0 / 3.0),
                 (17, 19, 23), (False, True, False)),
])
def test_csv_writer_bytes_match_the_block_encoder(tmp_path, geom):
    values = np.resize([-0.0, 5e-324, 1e-05, 1e16, 1.0 / 3.0, -2.25],
                       math.prod(geom.counts))
    grid = LevelGrid(geom, values)
    path, ref = str(tmp_path / "g.csv"), str(tmp_path / "ref.csv")
    write_grid_csv(grid, path)
    block_encoder_write_grid_csv(grid, ref)
    with open(path, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read()
    back = read_grid_csv(path)
    assert back.geometry == geom
    assert back.values.tobytes() == grid.values.tobytes()


@pytest.mark.parametrize("geom", [
    GridGeometry((-1.0, -0.1), (2.0, 1e16), (3, 4500), (False, False)),
    GridGeometry((-2.25, -math.pi, 1e-05), (2.25, math.pi, 1.0 / 3.0),
                 (17, 19, 23), (False, True, False)),
])
def test_json_writer_bytes_match_json_dumps(tmp_path, geom):
    """The block-streamed JSON is the text of one ``json.dumps`` of the
    whole grid, across block joins, for signed zeros, subnormals and
    large values."""
    values = np.resize([-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.25, 1e-05],
                       math.prod(geom.counts))
    grid = LevelGrid(geom, values)
    path = tmp_path / "g.json"
    write_grid_json(grid, str(path))
    assert path.read_text() == json.dumps(grid_to_json_dict(grid))


@pytest.mark.parametrize("field, value", [("1_0", 10.0), ("\u0661", 1.0),
                                          (" 2.5 ", 2.5), ("-0.0", -0.0)])
def test_csv_reader_keeps_python_float_syntax(tmp_path, field, value):
    """A value field that Python's ``float`` reads but numpy's C parser
    does not (a digit separator, the Arabic-Indic digit one) reads back as
    ``float`` reads it."""
    row = f"1,1,0.5,0.5,{field}\n"
    path = _small_csv(tmp_path, lambda rows: rows[:4] + [row] + rows[5:])
    expected = np.arange(9.0)
    expected[4] = value
    assert read_grid_csv(path).values.ravel().tobytes() == expected.tobytes()


@pytest.mark.parametrize("row, message", [
    ("1,1,0.5,0.5,0x10\n", ":7: bad cell row"),
    ("1,1,0.5,0.5,1d5\n", ":7: bad cell row"),
    ("1,1,0.5,0.5,\n", ":7: bad cell row"),
    # a blank only numpy's C parser strips
    ("1,1,0.5,0.5,4.0\x1f\n", ":7: bad cell row"),
    ("1,1,0.5,0.5,4.0,0\n", ":7: expected 5 columns, got 6"),
])
def test_csv_reader_still_refuses_what_python_float_refuses(tmp_path, row,
                                                            message):
    path = _small_csv(tmp_path, lambda rows: rows[:4] + [row] + rows[5:])
    with pytest.raises(GeometryError) as err:
        read_grid_csv(path)
    assert f"{path}{message}" in str(err.value)


def _small_csv(tmp_path, edit):
    """A 3 x 3 grid file with its data lines (lines 3..11) passed
    through ``edit``."""
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    path = tmp_path / "grid.csv"
    write_grid_csv(LevelGrid(geom, np.arange(9.0)), str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + edit(lines[2:])))
    return str(path)


@pytest.mark.parametrize("edit, lineno", [
    (lambda rows: rows[:4] + ["1,7,0.5,3.5,4.0\n"] + rows[5:], 7),
    (lambda rows: rows[:1] + ["0,0,0.0,0.0,-7.0\n"] + rows[1:], 4),
    (lambda rows: rows[:5] + rows[6:], 8),
    (lambda rows: rows[:8], 11),
    (lambda rows: rows + ["2,2,1.0,1.0,8.0\n"], 12),
    (lambda rows: rows[:3] + ["1,0.5,0.5,0.0,3.0\n"] + rows[4:], 6),
    (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 5),
], ids=["out_of_range", "repeated", "missing", "truncated", "extra",
        "non_integer", "swapped"])
def test_csv_reader_rejects_rows_off_the_row_major_sequence(tmp_path, edit,
                                                            lineno):
    path = _small_csv(tmp_path, edit)
    with pytest.raises(GeometryError) as err:
        read_grid_csv(path)
    assert f"{path}:{lineno}:" in str(err.value)


def test_csv_reader_skips_blank_lines_and_keeps_line_numbers(tmp_path):
    path = _small_csv(tmp_path, lambda rows: rows[:3] + ["\n"] + rows[3:] + ["\n"])
    assert np.array_equal(read_grid_csv(path).values.ravel(), np.arange(9.0))
    path = _small_csv(tmp_path, lambda rows: rows[:3] + ["\n", "0,0\n"] + rows[3:])
    with pytest.raises(GeometryError, match=":7: expected 5 columns"):
        read_grid_csv(path)


def test_level_grid_checks_value_count(tmp_path):
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    doc = grid_to_json_dict(LevelGrid(geom, np.zeros(9)))
    doc["values"] = doc["values"][:8]
    with pytest.raises(GeometryError, match="needs 9 values, got 8"):
        grid_from_json_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    write_grid_json(LevelGrid(geom, np.zeros(9)), str(good))
    assert cli_main(["compare", str(good), str(bad)]) == 2


def escape(p, k, x, y):
    """xdot = x^2, ydot = 0, with an idle backup."""
    return (x * x, 0.0), ((0.0,), (0.0,)), (0.0,), (x,)


def test_sweep_names_the_diverging_node(monkeypatch):
    """xdot0 = x0^2 escapes in finite time 1/x0, so over a horizon of 0.6 s
    only the nodes with x0 = 2 blow up; the error names the first of them
    (its global C-order index, past the first chunk) and its coordinates."""
    model, policy = two_axes("escape", escape)
    band = ScalarConstraint(lambda x: 10.0 - np.abs(np.asarray(x)[..., 0]),
                            lambda x: np.zeros_like(np.asarray(x)), "band")
    spec = SafetySpec(constraints=(band,), terminal=band, alpha_gain=1.0)
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (9, 5), (False, False))
    for chunk in (45, 16):
        monkeypatch.setattr(hjgrid, "_SWEEP_CHUNK", chunk)
        with pytest.raises(FlowDivergenceError) as err:
            sweep_backup_h(model, policy, spec, geom, 0.6, 240)
        assert err.value.row == 40                      # node (8, 0)
        assert "node 40 (x = [2.0, -1.0])" in str(err.value)
