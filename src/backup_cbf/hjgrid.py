"""Grid-based invariant-set baseline and set-comparison metrics.

The near-maximal control invariant set inside a constraint region is
computed by value iteration on a rectangular grid: starting from the
constraint field, each pass applies

    V <- min(V, V + dt(x) * Hhat(x, DV))

with ``Hhat`` the local Lax-Friedrichs Hamiltonian (Osher & Shu, SIAM J.
Numer. Anal. 28, 1991) built from first-order differences: the
Hamiltonian at the central difference plus, on each axis, ``alpha_i(x) /
2`` times the forward less the backward difference, where ``alpha_i(x) =
|f_i(x)| + sum_j |g_ij(x)| ubar_j`` bounds ``|dH/dp_i|`` at the node
(``ubar_j`` the largest magnitude in input ``j``'s interval).  Each node
steps by its own pseudo-time step ``dt(x) = 0.9 / sum_i alpha_i(x) /
dx_i``, the local time stepping of steady problems (Jameson, Schmidt &
Turkel, AIAA 81-1259, 1981), so every interior node's update is monotone.
The outer min freezes improvements, so the iteration is monotone
nonincreasing; its fixpoint, ``min(0, Hhat) = 0`` above the value floor,
does not depend on ``dt``, and the zero-superlevel set of the converged
field approximates the maximal control invariant set.  A pass works on
per-axis contiguous fields (one array per axis for the central gradient
and the drift, one per input and axis for the input matrix) and sums
them in index order (see `_box_hamiltonian`).  One rule,
`_constant_or_field`, makes a float of every per-node quantity that has
the same value at every node: the dissipation, the step, and each drift
and input field.  A float field of 0.0 is left out of the sums and one of
1.0 adds the costate itself; for a finite costate that changes at most
the sign of a zero sum, which the box term turns into +0.0, so the bits
are those of the sums on the full fields (see `solve_invariant` for the
checks that keep the costate finite).

Grids serialize to a plain CSV format (header lines ``# axis i: lower
upper count [periodic]``, then one ``index..., coords..., value`` row per
cell) and to an equivalent JSON document.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice, product

import numpy as np

from .barrier import eval_h_batch, path_values
from .errors import (ConvergenceWarning, FlowDivergenceError, GeometryError,
                     NumericalError, ValidationError)
from .systems import (BackupPolicy, SafetySpec, SystemModel, is_finite_real,
                      is_integer)

Array = np.ndarray


# value-iteration defaults of `solve_invariant`, `run_levelset` and the CLI
HJ_TOL, HJ_MAX_STEPS = 1e-3, 5000
_SWEEP_CHUNK = 32768            # grid nodes per batch flow (one thread's job)


def _threads() -> int:
    raw = os.environ.get("BCBF_THREADS") or "1"
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValidationError(
            f"BCBF_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


_AXIS_CHECKS = (           # (what each entry must be, field, check, type)
    ("lower bound must be a finite number", "lower", is_finite_real, float),
    ("upper bound must be a finite number", "upper", is_finite_real, float),
    ("count must be an integer", "counts", is_integer, int),
    ("periodic flag must be true or false", "periodic_axes",
     lambda p: isinstance(p, (bool, np.bool_)), bool),
)


@dataclass(frozen=True)
class GridGeometry:
    """Axis bounds, point counts, and periodicity flags of a grid.

    Non-periodic axes place ``count`` points inclusively from lower to
    upper; periodic axes exclude the upper endpoint (it wraps onto the
    lower one).  Bounds must be finite numbers, counts integers and flags
    booleans.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]
    periodic_axes: tuple[bool, ...]

    def __post_init__(self):
        dims = len(self.counts)
        if dims not in (2, 3):
            raise GeometryError("grids must have 2 or 3 axes")
        if not (len(self.lower) == len(self.upper) == len(self.periodic_axes) == dims):
            raise GeometryError("axis field lengths disagree")
        for what, field, check, kind in _AXIS_CHECKS:
            for i, value in enumerate(getattr(self, field)):
                if not check(value):
                    raise GeometryError(f"axis {i} {what}, got {value!r}", i)
            object.__setattr__(self, field, tuple(map(kind, getattr(self, field))))
        for i, (lo, hi, n) in enumerate(zip(self.lower, self.upper, self.counts)):
            if n < 3 or lo >= hi:
                raise GeometryError(f"axis {i} needs at least 3 points and lower "
                                    f"< upper, got {n} on [{lo!r}, {hi!r}]", i)

    @property
    def dims(self) -> int:
        return len(self.counts)

    def spacing(self, axis: int) -> float:
        span = self.upper[axis] - self.lower[axis]
        if self.periodic_axes[axis]:
            return span / self.counts[axis]
        return span / (self.counts[axis] - 1)

    def axis_coordinates(self, axis: int) -> Array:
        if self.periodic_axes[axis]:
            return self.lower[axis] + self.spacing(axis) * np.arange(self.counts[axis])
        return np.linspace(self.lower[axis], self.upper[axis], self.counts[axis])

    def nodes(self) -> Array:
        """All node coordinates, shape ``(prod(counts), dims)``, C order."""
        axes = [self.axis_coordinates(i) for i in range(self.dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class SolveRecord:
    """How a `solve_invariant` value iteration ended: passes run, the
    sup-norm update of the last pass, whether it fell below ``tol``, the
    smallest node step ``dt`` (never below the step of grid-wide bounds,
    ``0.9 / sum_i max_x alpha_i(x) / dx_i``) and the CFL ratio, the largest
    ``dt(x) * rate(x)`` (0.9; 0 if no node moves).

    ``converged`` says only that the last update fell below ``tol``, not
    that the set has settled: the zero level can keep moving after.  On
    the Dubins 45^3 grid the set converged at tol 1e-3 (136 passes, 39153
    cells) is the set at tol 1e-4 (150 passes) and 3e-5 (157 passes), cell
    for cell; with dissipation and step from grid-wide maxima it took 262
    passes, kept 36425 cells and lost 1952 of them by tol 1e-4 (1362
    passes)."""

    iterations: int
    final_update: float
    converged: bool
    dt: float
    cfl_ratio: float


@dataclass(frozen=True)
class LevelGrid:
    """A scalar field sampled on a `GridGeometry` (C/row-major order);
    ``solve`` is the record of the value iteration that produced it, if
    one did."""

    geometry: GridGeometry
    values: Array
    solve: SolveRecord | None = None

    def __post_init__(self):
        counts = self.geometry.counts
        values = np.asarray(self.values, dtype=float)
        if values.size != math.prod(counts):
            raise GeometryError(f"grid of {counts} cells needs {math.prod(counts)} "
                                f"values, got {values.size}")
        values = values.reshape(counts)
        if not np.all(np.isfinite(values)):
            raise GeometryError("grid values must be finite")
        object.__setattr__(self, "values", values)

    def membership(self, threshold: float = 0.0) -> Array:
        return self.values >= threshold


def constraint_grid(geometry: GridGeometry, spec: SafetySpec) -> LevelGrid:
    """Initial field ``min_k hC_k`` sampled on the grid nodes."""
    return LevelGrid(geometry, path_values(spec, geometry.nodes())[1])


def _dot(p: Array, q, out: Array, work: Array) -> Array:
    """``sum_i p[i] * q[i]`` over the first axis into ``out``, in index
    order, with ``work`` for the products.

    A term ``q[i]`` may be a float in place of a field that has that value
    at every node (`_constant_or_field`): 0.0 is left out, 1.0 adds
    ``p[i]`` itself (``p[i] * 1.0`` has the bits of ``p[i]``), and any
    other value multiplies as its field would, with the same bits.  A sum
    with no terms is +0.0."""
    kept = [(p_i, q_i) for p_i, q_i in zip(p, q)
            if not (isinstance(q_i, float) and q_i == 0.0)]
    if not kept:
        out.fill(0.0)
        return out
    (p_0, q_0), *rest = kept
    np.multiply(p_0, q_0, out=out)
    for p_i, q_i in rest:
        if isinstance(q_i, float) and q_i == 1.0:
            out += p_i
        else:
            np.multiply(p_i, q_i, out=work)
            out += work
    return out


def _finite(what: str, values: Array, names: tuple[str, ...]) -> Array:
    """``values``, or a `NumericalError` naming the first that is not
    finite (an overflow is refused by name, not warned about)."""
    for i, value in enumerate(values.tolist()):
        if not math.isfinite(value):
            raise NumericalError(f"the {what} {i} ({names[i]}) is not "
                                 f"finite: {value!r}")
    return values


def _box(model: SystemModel) -> tuple[Array, Array]:
    """The half-width and the centre of each input's interval, each
    `_finite`."""
    lo, hi, names = model.input_lower, model.input_upper, model.input_names
    with np.errstate(over="ignore", invalid="ignore"):
        return (_finite("half-width of input", 0.5 * (hi - lo), names),
                _finite("centre of input", 0.5 * (hi + lo), names))


def _box_hamiltonian(half: Array, center: Array, p: Array, f, g,
                     out: Array, work: Array) -> Array:
    """``max over u in the box of p . (f + g u)`` from the per-axis fields
    ``p`` and drift ``f``, shape ``(n,) + shape``, and input matrix ``g``,
    ``(m, n) + shape``, at the same points, into ``out`` (``shape``) with
    ``work`` (``shape``) as scratch; ``half`` and ``center`` are `_box`'s.
    The sum is taken in index order: ``p.f`` (`_dot`), then per input
    channel ``j`` in turn ``+ |p.g_j| * half_j + (p.g_j) * center_j``.
    Any field ``f[i]`` or ``g[j][i]`` may be a float, as `_dot` takes it.

    The box term ``|p.g_0| * half_0`` is never -0.0, so adding it turns a
    zero sum ``p.f`` of either sign into +0.0: the value has the bits of
    the same sums started from +0.0 on the full fields, the left-out
    float 0.0 terms included, whenever ``p`` and the box are finite."""
    _dot(p, f, out, work)
    pg = np.empty_like(out)
    for g_j, half_j, center_j in zip(g, half, center):
        _dot(p, g_j, pg, work)
        np.abs(pg, out=work)
        work *= half_j
        out += work
        pg *= center_j
        out += pg
    return out


def hamiltonian(model: SystemModel, x: Array, p: Array) -> Array:
    """``max over u in the box of p . (f(x) + g(x) u)`` in closed form,
    summed as the solve's pass sums it (`_box_hamiltonian`), with every
    field multiplied (none is left out).  The state ``x`` and the costate
    ``p`` must have ``state_dim`` entries on their last axis
    (`ValidationError`), and the input box a finite half-width and centre
    (`NumericalError`, as `solve_invariant` refuses it)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    for what, value in (("state", x), ("costate", p)):
        if value.shape[-1:] != (model.state_dim,):
            raise ValidationError(f"{what} of shape {value.shape} must have "
                                  f"state_dim = {model.state_dim} entries on "
                                  f"its last axis")
    p, f = np.broadcast_arrays(p, model.f_eval(x))
    g = np.broadcast_to(model.g_eval(x), p.shape + (model.input_dim,))
    out, work = np.empty(p.shape[:-1]), np.empty(p.shape[:-1])
    _box_hamiltonian(*_box(model), np.moveaxis(p, -1, 0), np.moveaxis(f, -1, 0),
                     np.moveaxis(g, (-1, -2), (0, 1)), out, work)
    return out if out.ndim else out[()]


def _face_differences(v: Array, axis: int, periodic: bool, h: float,
                      out: Array) -> tuple[Array, Array]:
    """One-sided differences ``(v[j] - v[j-1]) / h`` along an axis for
    ``j = 0..count`` into ``out`` (one longer than ``v`` on that axis), and
    the views (backward, forward) of them at each cell.  A non-periodic
    edge takes its missing neighbour as the linear extrapolation
    ``2 v[0] - v[1]`` (or ``2 v[-1] - v[-2]``), so its difference is
    one-sided."""
    def cut(start, stop=None):      # start:stop along the axis
        return (slice(None),) * axis + (slice(start, stop),)

    np.subtract(v[cut(1)], v[cut(None, -1)], out=out[cut(1, -1)])
    first, last = v[cut(None, 1)], v[cut(-1)]
    if periodic:
        np.subtract(first, last, out=out[cut(None, 1)])
        out[cut(-1)] = out[cut(None, 1)]
    else:
        np.subtract(first, 2.0 * first - v[cut(1, 2)], out=out[cut(None, 1)])
        np.subtract(2.0 * last - v[cut(-2, -1)], last, out=out[cut(-1)])
    out /= h
    return out[cut(None, -1)], out[cut(1)]


def check_solve_limits(tol: float, max_steps: int):
    """`ValidationError` unless ``tol`` is a finite number >= 0 and
    ``max_steps`` an integer >= 1 (a bool is neither)."""
    if not (is_finite_real(tol) and tol >= 0.0 and is_integer(max_steps)
            and max_steps >= 1):
        raise ValidationError(f"tol must be a finite number >= 0 and max_steps "
                              f"an integer >= 1, got {tol!r} and {max_steps!r}")


def _constant_or_field(field: Array) -> Array | float:
    """``field``'s value as a float if it is the same at every node, else
    ``field`` itself: a pass multiplies by either with the same bits."""
    first = field.flat[0]
    return float(first) if np.all(field == first) else field


def _local_lax_friedrichs(model: SystemModel, f: Array, g: Array,
                          spacings: Array
                          ) -> tuple[list, Array | float, float, float]:
    """The node-local dissipation and pseudo-time step of the per-axis
    drift ``f``, ``(n,) + shape``, and input matrix ``g``, ``(m, n) +
    shape``, each as a float where it is the same at every node: ``alpha_i
    / 2`` per axis, with ``alpha_i = |f_i| + sum_j |g_ji| ubar_j`` (``ubar_j``
    the largest magnitude in input ``j``'s interval; summed in input
    order), and ``dt = 0.9 / rate``, with ``rate = sum_i alpha_i /
    spacing_i`` (summed in axis order); then the smallest step and the
    largest ``dt * rate``, the CFL ratio.

    ``alpha_i`` bounds ``|dH/dp_i|`` at its node, so ``dt * rate <= 0.9``
    keeps each interior node's update monotone.  Where ``rate`` is 0 the
    Hamiltonian and the dissipation are 0 and the node never moves; it
    takes the smallest step (1.0 if no node moves).  An ``alpha_i`` or a
    ``rate`` that is not finite (its largest value named), or a node step
    that is not (a subnormal rate), is refused with a `NumericalError`."""
    u_abs = np.maximum(np.abs(model.input_lower), np.abs(model.input_upper))
    half_alpha, peaks, rate = [], [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, spacing in enumerate(spacings):
            alpha = np.abs(f[i])
            for g_j, u_j in zip(g, u_abs):
                alpha += np.abs(g_j[i]) * u_j
            peaks.append(alpha.max())
            rate = rate + alpha / spacing
            half_alpha.append(_constant_or_field(0.5 * alpha))
        _finite("Lax-Friedrichs bound alpha on axis", np.array(peaks),
                model.state_names)
        top = float(rate.max())
        if not math.isfinite(top):
            raise NumericalError(f"the CFL rate sum(alpha / spacing) is not "
                                 f"finite: {top!r}")
        if top == 0.0:
            return half_alpha, 1.0, 1.0, 0.0
        dt = 0.9 / np.where(rate > 0.0, rate, top)
    # a node of rate 0 takes the step of the largest rate, so where any
    # step is not finite, one at a node of rate > 0 is not either
    bad = ~np.isfinite(dt) & (rate > 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        node = tuple(map(int, np.unravel_index(k, dt.shape)))
        raise NumericalError(f"the node step 0.9 / rate at node {node} is not "
                             f"finite: {float(dt.flat[k])!r} (rate "
                             f"{float(rate.flat[k])!r})")
    cfl_ratio = float(np.max(dt * rate))
    return half_alpha, _constant_or_field(dt), 0.9 / top, cfl_ratio


def solve_invariant(grid0: LevelGrid, model: SystemModel, tol: float = HJ_TOL,
                    max_steps: int = HJ_MAX_STEPS) -> LevelGrid:
    """Run the frozen value iteration from the constraint field ``grid0``
    until the sup-norm update drops below ``tol`` or ``max_steps`` passes.
    Converged means only that the last update fell below ``tol``; a
    smaller ``tol`` can still move the zero level (see `SolveRecord`).

    ``tol`` and ``max_steps`` must pass `check_solve_limits`.
    The result carries a `SolveRecord` as ``solve``.  Running out of
    ``max_steps`` is not an error: the field is returned with
    ``converged=False``, and with a `ConvergenceWarning` naming the pass
    count and the final update when ``tol > 0`` (``tol = 0`` asks for a
    fixed number of passes and stays silent).

    Each node steps by 90% of its own Lax-Friedrichs stability bound,
    ``dt(x) = 0.9 / sum_i alpha_i(x) / dx_i``, with the node-local
    dissipation ``alpha_i(x)`` (see the module docstring and
    `_local_lax_friedrichs`; both are built from the per-axis fields after
    the node arrays are freed), and value blow-up during iteration aborts
    with a diagnostic.  Values are clamped from below at ``min - 2
    max(range, 1)`` of ``grid0``; only the zero level matters for set
    membership, and the clamp stops cells whose true value drains out of
    the domain from delaying convergence.

    Each per-axis field of the drift and the input matrix is sorted once,
    by `_constant_or_field`, the rule of the dissipation and the step: a
    field that has the same value at every node is that float.  A float
    0.0 is left out of the Hamiltonian, a 1.0 adds the costate itself and
    any other float multiplies (on Dubins, ``f = (v sin psi, 0, 0)`` and
    ``g = ((0, 0), (1, 0), (0, 1))`` leave one term in each of the three
    sums; the aeroplane's ``g_dpsi`` is -1.0).  The Hamiltonian
    keeps the bits of the sums on the full fields whenever the costate and
    the box are finite (see `_box_hamiltonian`).  So before the first pass
    a `NumericalError` refuses an input box half-width or centre, a
    dissipation coefficient
    ``alpha``, a CFL rate or a node step that is not finite, naming it,
    and a ``grid0`` whose differences could overflow: every value stays in
    ``[value_floor, max]``, and a difference, the edge extrapolation
    ``2 v[0] - v[1]`` included, is at most ``4 (max(max, 0) -
    min(value_floor, 0)) / min(spacing)``, which must be finite.
    """
    check_solve_limits(tol, max_steps)
    geom = grid0.geometry
    if model.state_dim != geom.dims:
        raise GeometryError("grid dimension does not match the model")
    half, center = _box(model)
    pts = geom.nodes()
    f_nodes = model.f_eval(pts)                       # (P, n)
    g_nodes = model.g_eval(pts)                       # (P, n, m)
    # per-axis contiguous fields (n,) + shape and (m, n) + shape, in place
    # of the node arrays
    shape = geom.counts
    f = np.ascontiguousarray(f_nodes.T).reshape((geom.dims,) + shape)
    g = np.ascontiguousarray(g_nodes.T).reshape(g_nodes.shape[:0:-1] + shape)
    del pts, f_nodes, g_nodes
    spacings = np.array([geom.spacing(i) for i in range(geom.dims)])
    half_alpha, dt, dt_min, cfl_ratio = _local_lax_friedrichs(model, f, g,
                                                              spacings)

    v = grid0.values.copy()
    low, high = float(v.min()), float(v.max())
    value_floor = low - 2.0 * max(high - low, 1.0)
    bound = 4.0 * (max(high, 0.0) - min(value_floor, 0.0)) / float(spacings.min())
    if not math.isfinite(bound):
        raise NumericalError(
            f"grid0 values in [value_floor, max] = [{value_floor!r}, "
            f"{high!r}] could overflow a difference: 4 (max(max, 0) - "
            f"min(value_floor, 0)) / min spacing is {bound!r}")

    f = [_constant_or_field(f_i) for f_i in f]
    g = [[_constant_or_field(g_ji) for g_ji in g_j] for g_j in g]
    # the differences across the count + 1 cell faces of one axis at a time
    # (d_minus is the first count of them, d_plus the last count), in one
    # buffer shared by the axes
    face_shapes = [shape[:ax] + (n + 1,) + shape[ax + 1:]
                   for ax, n in enumerate(shape)]
    faces = np.empty(max(map(math.prod, face_shapes)))
    grads = np.empty((geom.dims,) + shape)
    diss, work, ham = np.empty(shape), np.empty(shape), np.empty(shape)
    for step in range(max_steps):
        diss.fill(0.0)
        for ax, face_shape in enumerate(face_shapes):
            d = faces[:math.prod(face_shape)].reshape(face_shape)
            d_minus, d_plus = _face_differences(v, ax, geom.periodic_axes[ax],
                                                spacings[ax], d)
            np.add(d_minus, d_plus, out=grads[ax])
            grads[ax] *= 0.5
            np.subtract(d_plus, d_minus, out=work)
            work *= half_alpha[ax]
            diss += work

        # V evolves forward as V_t = H(x, DV) (frozen by the outer min), so
        # the monotone Lax-Friedrichs form *adds* the dissipation term.
        _box_hamiltonian(half, center, grads, f, g, ham, work)
        ham += diss

        # v_new <= v: v >= value_floor from the start, dt > 0, and adding a
        # non-positive number never rounds up; a NaN is caught just below
        v_new = np.maximum(v + dt * np.minimum(0.0, ham), value_floor)
        if not np.all(np.isfinite(v_new)):
            raise NumericalError(
                f"value iteration blew up at step {step} (smallest node "
                f"step {dt_min:.4g}, CFL ratio {cfl_ratio:.4g})")
        delta = float(np.max(np.abs(v_new - v)))
        v, passes = v_new, step + 1
        if delta < tol:
            break
    record = SolveRecord(passes, delta, delta < tol, dt_min, cfl_ratio)
    if tol > 0.0 and not record.converged:
        warnings.warn(f"value iteration stopped unconverged after {passes} "
                      f"passes (max_steps): final update {delta:.4g}, "
                      f"tol {tol:.4g}", ConvergenceWarning, stacklevel=2)
    return LevelGrid(geom, v, record)


def sweep_backup_h(model: SystemModel, policy: BackupPolicy, spec: SafetySpec,
                   geometry: GridGeometry, horizon: float, steps: int
                   ) -> LevelGrid:
    """Evaluate the implicit barrier at every grid node, one batch flow per
    chunk of 32768 nodes (chunks run on up to ``BCBF_THREADS`` threads; the
    values do not depend on it).  A diverging flow raises
    `FlowDivergenceError` naming the first diverging node of its chunk (its
    C-order index in ``geometry.nodes()`` as ``row``, and its coordinates)."""
    if model.state_dim != geometry.dims:
        raise GeometryError("grid dimension does not match the model")
    pts = geometry.nodes()
    starts = range(0, pts.shape[0], _SWEEP_CHUNK)

    def work(start: int) -> Array:
        try:
            return eval_h_batch(model, policy, spec,
                                pts[start:start + _SWEEP_CHUNK], horizon, steps).h
        except FlowDivergenceError as exc:
            node = start + exc.row
            raise FlowDivergenceError(
                f"sweep diverged at node {node} (x = {pts[node].tolist()}): {exc}",
                exc.step, node) from exc

    workers = _threads()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, starts))
    else:
        results = [work(s) for s in starts]
    return LevelGrid(geometry, np.concatenate(results))


def _same_geometry(a: GridGeometry, b: GridGeometry) -> bool:
    return (a.counts == b.counts and a.periodic_axes == b.periodic_axes
            and np.allclose(a.lower, b.lower) and np.allclose(a.upper, b.upper))


def compare_sets(grid_a: LevelGrid, grid_b: LevelGrid,
                 threshold: float = 0.0) -> dict:
    """Membership overlap metrics of the two superlevel sets.

    ``fraction_a_not_b`` is ``|A \\ B| / |A|`` (0 when A is empty);
    ``jaccard`` of two empty sets is 1.  A ``threshold`` that is not a
    finite number is refused with `ValidationError` (at NaN no cell is a
    member, so any two sets would read equal).
    """
    if not is_finite_real(threshold):
        raise ValidationError(f"threshold must be a finite number, got "
                              f"{threshold!r}")
    if not _same_geometry(grid_a.geometry, grid_b.geometry):
        raise GeometryError("grids have different geometry")
    a = grid_a.membership(threshold)
    b = grid_b.membership(threshold)
    n_a, n_b = int(a.sum()), int(b.sum())
    inter = int((a & b).sum())
    union = int((a | b).sum())
    return {
        "jaccard": inter / union if union else 1.0,
        "fraction_a_not_b": (n_a - inter) / n_a if n_a else 0.0,
        "fraction_b_not_a": (n_b - inter) / n_b if n_b else 0.0,
        "cell_counts": {"a": n_a, "b": n_b, "intersection": inter,
                        "union": union, "total": int(a.size)},
    }


def dilate_set(grid: LevelGrid) -> Array:
    """Zero-superlevel membership mask grown by one grid cell along every
    axis (wrapping on periodic axes); the standard one-cell tolerance for
    grid-set containment checks."""
    mask = grid.membership()
    grown = mask.copy()
    for ax, periodic in enumerate(grid.geometry.periodic_axes):
        if periodic:
            grown |= np.roll(mask, 1, axis=ax) | np.roll(mask, -1, axis=ax)
        else:
            lead = (slice(None),) * ax
            grown[lead + (slice(1, None),)] |= mask[lead + (slice(None, -1),)]
            grown[lead + (slice(None, -1),)] |= mask[lead + (slice(1, None),)]
    return grown


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

# Cells encoded or decoded per block.  The writer's transient strings are
# one block of rows (whole last-axis runs, so one run if a run is longer)
# plus ``sum(counts)`` per-axis labels; the reader's are one block of lines
# and its table.  Never the whole grid.
_BLOCK_ROWS = 4096


def axis_records(geom: GridGeometry) -> list[dict]:
    """One record per axis: the CSV header lines and the JSON ``axes``
    (`geometry_from_axes` inverts it)."""
    return [{"lower": geom.lower[i], "upper": geom.upper[i],
             "count": geom.counts[i], "periodic": geom.periodic_axes[i]}
            for i in range(geom.dims)]


def axis_from_fields(fields: list[str]) -> dict:
    """The axis record of the text fields ``lower upper count [periodic]``
    (a ``--grid`` token split at colons, a CSV axis header at blanks), or
    `ValueError`; `GridGeometry` checks the values."""
    if len(fields) < 3 or fields[3:] not in ([], ["periodic"]):
        raise ValueError("expected lower upper count [periodic]")
    return {"lower": float(fields[0]), "upper": float(fields[1]),
            "count": int(fields[2]), "periodic": len(fields) == 4}


def geometry_from_axes(axes: list[dict]) -> GridGeometry:
    """The geometry of axis records (``periodic`` defaults to false)."""
    return GridGeometry(tuple(a["lower"] for a in axes),
                        tuple(a["upper"] for a in axes),
                        tuple(a["count"] for a in axes),
                        tuple(a.get("periodic", False) for a in axes))


def _cell_index(counts: tuple[int, ...], start: int, stop: int) -> Array:
    """Row-major indices of the flat cells ``start..stop-1``, ``(k, dims)``."""
    return np.stack(np.unravel_index(np.arange(start, stop), counts), axis=-1)


def write_grid_csv(grid: LevelGrid, path: str) -> None:
    """Write the axis header, then one ``index..., coords..., value`` row
    per cell in row-major order, every float as its ``repr``.

    Each axis's index strings and coordinate ``repr``s are formatted once
    per file; a row is their concatenation with the ``repr`` of its value.
    Rows are built and written one block of whole last-axis runs (at most
    ``_BLOCK_ROWS`` cells, or one run if a run is longer) at a time."""
    geom = grid.geometry
    flat = grid.values.ravel()
    labels = [list(zip(map(str, range(n)),
                       map(repr, geom.axis_coordinates(i).tolist())))
              for i, n in enumerate(geom.counts)]
    last = labels[-1]
    runs = product(*labels[:-1])       # (index, coordinate) of each lead axis
    with open(path, "w") as fh:
        for i, a in enumerate(axis_records(geom)):
            flag = " periodic" if a["periodic"] else ""
            fh.write(f"# axis {i}: {a['lower']!r} {a['upper']!r} "
                     f"{a['count']}{flag}\n")
        start = 0
        while block := list(islice(runs, max(1, _BLOCK_ROWS // len(last)))):
            stop = start + len(block) * len(last)
            values = map(repr, flat[start:stop].tolist())
            rows = []
            for lead in block:
                head = "".join(k + "," for k, _ in lead)
                mid = "".join("," + c for _, c in lead)
                rows += [f"{head}{k}{mid},{c},{v}\n"
                         for (k, c), v in zip(last, values)]
            fh.write("".join(rows))
            start = stop


def _read_csv_header(fh, path: str) -> tuple[GridGeometry, int, str]:
    """The geometry of the leading ``#`` lines (errors name the header line
    of their axis, else the first); also returns the number of lines before
    the first data line, and that line (``""`` at end of file)."""
    axes, lineno, first = [], 0, ""
    for line in fh:
        lineno += 1
        text = line.strip()
        if not text:
            continue
        if not text.startswith("#"):
            first, lineno = line, lineno - 1
            break
        try:
            axes.append(dict(axis_from_fields(text.partition(":")[2].split()),
                             line=lineno))
        except ValueError as exc:
            raise GeometryError(
                f"{path}:{lineno}: bad axis header: {text!r}") from exc
    try:
        return geometry_from_axes(axes), lineno, first
    except GeometryError as exc:
        at = axes[exc.axis or 0]["line"] if axes else 1
        raise GeometryError(f"{path}:{at}: {exc}") from exc


# numpy's C parser strips these as blanks around a number; Python's float
# refuses them
_C_PARSER_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


def _loadtxt_block(data: list[str]) -> Array | None:
    """The comma-separated lines ``data`` as read by numpy's C parser, or
    ``None`` if it refuses them or they hold a blank only it accepts."""
    text = "".join(data)
    if any(c in text for c in _C_PARSER_ONLY_BLANKS):
        return None
    try:
        return np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _decode_block(lines: list[str], lineno: int, geom: GridGeometry,
                  values: Array, filled: int, path: str) -> int:
    """Parse the data lines starting at line ``lineno`` as one table, check
    its index columns against the row-major cell sequence from cell
    ``filled`` on, store its values, and return the new fill count.

    numpy's C parser (`_loadtxt_block`) reads the block first.  Where it
    refuses it, the block is read again row by row: each row's width is
    checked and its fields parsed with Python's ``float`` (which also
    reads digit separators and non-ASCII digits), and the first bad row is
    named: the accepted syntax and the errors do not depend on which
    parser read the block."""
    dims, width = geom.dims, 2 * geom.dims + 1
    data = [line for line in lines if not line.isspace()]
    if not data:
        return filled

    def where(r: int) -> str:
        linenos = [lineno + k for k, line in enumerate(lines) if not line.isspace()]
        return f"{path}:{linenos[r]}"

    table = _loadtxt_block(data)
    if table is None or table.shape != (len(data), width):
        table = np.empty((len(data), width))
        for r, line in enumerate(data):
            cols = line.split(",")
            if len(cols) != width:
                raise GeometryError(f"{where(r)}: expected {width} columns, "
                                    f"got {len(cols)}")
            try:
                table[r] = list(map(float, cols))
            except ValueError as exc:
                raise GeometryError(f"{where(r)}: bad cell row") from exc
    stop = min(filled + len(data), values.size)
    expected = _cell_index(geom.counts, filled, stop)
    bad = np.any(table[:len(expected), :dims] != expected, axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        got = ",".join(data[r].split(",")[:dims])
        raise GeometryError(
            f"{where(r)}: expected cell {tuple(expected[r].tolist())} in "
            f"row-major order, got index columns {got}")
    if len(expected) < len(data):
        raise GeometryError(f"{where(len(expected))}: more rows than the "
                            f"{values.size} cells of the grid")
    values[filled:stop] = table[:, -1]
    return stop


def read_grid_csv(path: str) -> LevelGrid:
    """Read a grid CSV: the axis header, then exactly one row per cell in
    row-major order (the coordinate columns are not read back)."""
    with open(path) as fh:
        geom, lineno, first = _read_csv_header(fh, path)
        values = np.empty(math.prod(geom.counts))
        filled, lineno = 0, lineno + 1
        data = chain([first], fh) if first else iter(())
        while lines := list(islice(data, _BLOCK_ROWS)):
            filled = _decode_block(lines, lineno, geom, values, filled, path)
            lineno += len(lines)
    if filled < values.size:
        raise GeometryError(f"{path}:{lineno}: grid file ends after {filled} "
                            f"of {values.size} cells")
    return LevelGrid(geom, values)


def grid_to_json_dict(grid: LevelGrid) -> dict:
    return {"axes": axis_records(grid.geometry),
            "values": grid.values.ravel().tolist()}


def grid_from_json_dict(doc: dict) -> LevelGrid:
    try:
        geom = geometry_from_axes(doc["axes"])
        values = np.asarray(doc["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise GeometryError(f"malformed grid JSON: {exc}") from exc
    return LevelGrid(geom, values)


def write_grid_json(grid: LevelGrid, path: str) -> None:
    """The bytes of ``json.dumps(grid_to_json_dict(grid))``, written one
    ``_BLOCK_ROWS`` block of values at a time: json writes a finite float
    as its ``repr``, and the values of a grid are finite."""
    flat = grid.values.ravel()
    with open(path, "w") as fh:
        fh.write('{"axes": ' + json.dumps(axis_records(grid.geometry))
                 + ', "values": [')
        for start in range(0, flat.size, _BLOCK_ROWS):
            if start:
                fh.write(", ")
            fh.write(", ".join(map(repr, flat[start:start + _BLOCK_ROWS]
                                   .tolist())))
        fh.write("]}")


def read_grid(path: str) -> LevelGrid:
    """Load a grid from CSV or JSON, keyed on the file extension."""
    if path.endswith(".json"):
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise GeometryError(f"{path}:{exc.lineno}: invalid JSON") from exc
        return grid_from_json_dict(doc)
    return read_grid_csv(path)
