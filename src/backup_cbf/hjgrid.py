"""Grid-based invariant-set baseline and set-comparison metrics.

The near-maximal control invariant set inside a constraint region is
computed by value iteration on a rectangular grid: starting from the
constraint field, each step applies

    V <- min(V, V + dt * Hhat(x, DV))

with ``Hhat`` the Lax-Friedrichs-dissipated Hamiltonian built from
first-order upwind differences.  The outer min freezes improvements so the
iteration is monotone nonincreasing and its fixpoint is the viability
value; the zero-superlevel set of the converged field approximates the
maximal control invariant set.

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
from itertools import chain, islice

import numpy as np

from .barrier import eval_h_batch, path_values
from .errors import (ConvergenceWarning, FlowDivergenceError, GeometryError,
                     NumericalError, ValidationError)
from .systems import BackupPolicy, SafetySpec, SystemModel, is_finite_real

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


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_AXIS_CHECKS = (           # (what each entry must be, field, check, type)
    ("lower bound must be a finite number", "lower", is_finite_real, float),
    ("upper bound must be a finite number", "upper", is_finite_real, float),
    ("count must be an integer", "counts", _is_integer, int),
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
    pseudo-time step and the CFL ratio ``cfl_rate * dt`` (at most 1)."""

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


def _box_hamiltonian(model: SystemModel, p: Array, f: Array, g: Array) -> Array:
    """``max over u in the box of p . (f + g u)`` from drift ``f`` and input
    matrix ``g`` at the same points: the input contributes
    ``|p.g_j| * halfwidth_j + (p.g_j) * center_j`` per channel."""
    half = 0.5 * (model.input_upper - model.input_lower)
    center = 0.5 * (model.input_upper + model.input_lower)
    pf = np.einsum("...i,...i->...", p, f)
    pg = np.einsum("...i,...ij->...j", p, g)
    return pf + np.abs(pg) @ half + pg @ center


def hamiltonian(model: SystemModel, x: Array, p: Array) -> Array:
    """``max over u in the box of p . (f(x) + g(x) u)`` in closed form."""
    x = np.asarray(x, dtype=float)
    return _box_hamiltonian(model, np.asarray(p, dtype=float),
                            model.f_eval(x), model.g_eval(x))


def _side_values(v: Array, axis: int, periodic: bool) -> tuple[Array, Array]:
    """Neighbor fields (previous, next) along an axis; non-periodic edges
    are linearly extrapolated so edge differences become one-sided."""
    if periodic:
        return np.roll(v, 1, axis=axis), np.roll(v, -1, axis=axis)
    w = np.moveaxis(v, axis, 0)
    prev = np.concatenate([2.0 * w[:1] - w[1:2], w[:-1]], axis=0)
    nxt = np.concatenate([w[1:], 2.0 * w[-1:] - w[-2:-1]], axis=0)
    return np.moveaxis(prev, 0, axis), np.moveaxis(nxt, 0, axis)


def solve_invariant(grid0: LevelGrid, model: SystemModel, tol: float = HJ_TOL,
                    max_steps: int = HJ_MAX_STEPS) -> LevelGrid:
    """Run the frozen value iteration from the constraint field ``grid0``
    until the sup-norm update drops below ``tol`` or ``max_steps`` passes.

    ``tol`` must be a finite number >= 0 and ``max_steps`` an integer >= 1.
    The result carries a `SolveRecord` as ``solve``.  Running out of
    ``max_steps`` is not an error: the field is returned with
    ``converged=False``, and with a `ConvergenceWarning` naming the pass
    count and the final update when ``tol > 0`` (``tol = 0`` asks for a
    fixed number of passes and stays silent).

    The pseudo-time step is 90% of the Lax-Friedrichs stability bound, and
    value blow-up during iteration aborts with a diagnostic.  Values are
    clamped from below at ``min - 2 max(range, 1)`` of ``grid0``; only the
    zero level matters for set membership, and the clamp stops cells whose
    true value drains out of the domain from delaying convergence.
    """
    if not (is_finite_real(tol) and tol >= 0.0 and _is_integer(max_steps)
            and max_steps >= 1):
        raise ValidationError(f"tol must be a finite number >= 0 and max_steps "
                              f"an integer >= 1, got {tol!r} and {max_steps!r}")
    geom = grid0.geometry
    if model.state_dim != geom.dims:
        raise GeometryError("grid dimension does not match the model")
    pts = geom.nodes()
    f_nodes = model.f_eval(pts)                       # (P, n)
    g_nodes = model.g_eval(pts)                       # (P, n, m)
    u_abs = np.maximum(np.abs(model.input_lower), np.abs(model.input_upper))

    shape = geom.counts
    f_grid = f_nodes.reshape(shape + (geom.dims,))
    g_grid = g_nodes.reshape(shape + (geom.dims, model.input_dim))

    # Global dissipation coefficients: per-axis bound on |dH/dp_i|.
    alpha = (np.max(np.abs(f_nodes), axis=0)
             + np.abs(g_nodes).max(axis=0) @ u_abs)
    spacings = np.array([geom.spacing(i) for i in range(geom.dims)])
    cfl_rate = float(np.sum(alpha / spacings))
    dt = 0.9 / cfl_rate if cfl_rate > 0.0 else 1.0

    v = grid0.values.copy()
    value_floor = float(v.min()) - 2.0 * max(float(v.max() - v.min()), 1.0)
    for step in range(max_steps):
        grads_c = np.empty(shape + (geom.dims,))
        diss = np.zeros(shape)
        for ax in range(geom.dims):
            prev, nxt = _side_values(v, ax, geom.periodic_axes[ax])
            d_minus = (v - prev) / spacings[ax]
            d_plus = (nxt - v) / spacings[ax]
            grads_c[..., ax] = 0.5 * (d_minus + d_plus)
            diss += 0.5 * alpha[ax] * (d_plus - d_minus)

        # V evolves forward as V_t = H(x, DV) (frozen by the outer min), so
        # the monotone Lax-Friedrichs form *adds* the dissipation term.
        ham = _box_hamiltonian(model, grads_c, f_grid, g_grid) + diss

        v_new = np.maximum(v + dt * np.minimum(0.0, ham), value_floor)
        if not np.all(np.isfinite(v_new)):
            raise NumericalError(
                f"value iteration blew up at step {step} (dt = {dt:.4g}; "
                f"stability bound {1.0 / cfl_rate:.4g})")
        if not np.all(v_new <= v + 1e-12):
            raise NumericalError(f"value iteration lost monotonicity at step {step}")
        delta = float(np.max(np.abs(v_new - v)))
        v, passes = v_new, step + 1
        if delta < tol:
            break
    record = SolveRecord(passes, delta, delta < tol, dt, cfl_rate * dt)
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
    ``jaccard`` of two empty sets is 1.
    """
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
    grown, field = mask.copy(), mask.astype(float)
    for ax, periodic in enumerate(grid.geometry.periodic_axes):
        prev, nxt = _side_values(field, ax, periodic)
        grown |= (prev > 0.5) | (nxt > 0.5)
    return grown


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

# Cells encoded or decoded per block: bounds the transient Python objects
# and index/coordinate columns to one block, never the whole grid.
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
    geom = grid.geometry
    axes = [geom.axis_coordinates(i) for i in range(geom.dims)]
    flat = grid.values.ravel()
    row = ",".join(["{}"] * geom.dims + ["{!r}"] * (geom.dims + 1)) + "\n"
    with open(path, "w") as fh:
        for i, a in enumerate(axis_records(geom)):
            flag = " periodic" if a["periodic"] else ""
            fh.write(f"# axis {i}: {a['lower']!r} {a['upper']!r} "
                     f"{a['count']}{flag}\n")
        for start in range(0, flat.size, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, flat.size)
            idx = _cell_index(geom.counts, start, stop)
            cols = ([c.tolist() for c in idx.T]
                    + [axes[i][idx[:, i]].tolist() for i in range(geom.dims)]
                    + [flat[start:stop].tolist()])
            fh.writelines(map(row.format, *cols))


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


def _decode_block(lines: list[str], lineno: int, geom: GridGeometry,
                  values: Array, filled: int, path: str) -> int:
    """Parse the data lines starting at line ``lineno`` as one table, check
    its index columns against the row-major cell sequence from cell
    ``filled`` on, store its values, and return the new fill count."""
    dims, width = geom.dims, 2 * geom.dims + 1
    rows = [line.split(",") for line in lines if not line.isspace()]
    if not rows:
        return filled

    def where(r: int) -> str:
        linenos = [lineno + k for k, line in enumerate(lines) if not line.isspace()]
        return f"{path}:{linenos[r]}"

    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        table = None
    if table is None or table.shape[1:] != (width,):
        for r, cols in enumerate(rows):
            if len(cols) != width:
                raise GeometryError(f"{where(r)}: expected {width} columns, "
                                    f"got {len(cols)}")
            try:
                list(map(float, cols))
            except ValueError as exc:
                raise GeometryError(f"{where(r)}: bad cell row") from exc
    stop = min(filled + len(rows), values.size)
    expected = _cell_index(geom.counts, filled, stop)
    bad = np.any(table[:len(expected), :dims] != expected, axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        raise GeometryError(
            f"{where(r)}: expected cell {tuple(expected[r].tolist())} in "
            f"row-major order, got index columns {','.join(rows[r][:dims])}")
    if len(expected) < len(rows):
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
    # one dumps call runs the C encoder; json.dump would stream through the
    # pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(grid_to_json_dict(grid)))


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
