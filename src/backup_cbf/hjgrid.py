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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .barrier import eval_h_batch, path_values
from .errors import GeometryError, NumericalError, ValidationError
from .systems import BackupPolicy, SafetySpec, SystemModel

Array = np.ndarray


def _threads() -> int:
    raw = os.environ.get("BCBF_THREADS") or "1"
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValidationError(
            f"BCBF_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class GridGeometry:
    """Axis bounds, point counts, and periodicity flags of a grid.

    Non-periodic axes place ``count`` points inclusively from lower to
    upper; periodic axes exclude the upper endpoint (it wraps onto the
    lower one).
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
        if any(c < 3 for c in self.counts):
            raise GeometryError("each axis needs at least 3 points")
        if any(l >= u for l, u in zip(self.lower, self.upper)):
            raise GeometryError("each axis needs lower < upper")
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        object.__setattr__(self, "periodic_axes",
                           tuple(bool(p) for p in self.periodic_axes))

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
class LevelGrid:
    """A scalar field sampled on a `GridGeometry` (C/row-major order)."""

    geometry: GridGeometry
    values: Array

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(self.geometry.counts)
        if not np.all(np.isfinite(values)):
            raise GeometryError("grid values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def dims(self) -> int:
        return self.geometry.dims

    def membership(self, threshold: float = 0.0) -> Array:
        return self.values >= threshold


def constraint_grid(geometry: GridGeometry, spec: SafetySpec) -> LevelGrid:
    """Initial field ``min_k hC_k`` sampled on the grid nodes."""
    return LevelGrid(geometry, path_values(spec, geometry.nodes())[1])


def hamiltonian(model: SystemModel, x: Array, p: Array) -> Array:
    """``max over u in the box of p . (f(x) + g(x) u)`` in closed form:
    the input contributes ``|p.g_j| * halfwidth_j + (p.g_j) * center_j``
    per channel."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    f = model.f_eval(x)
    g = model.g_eval(x)
    half = 0.5 * (model.input_upper - model.input_lower)
    center = 0.5 * (model.input_upper + model.input_lower)
    pf = np.einsum("...i,...i->...", p, f)
    pg = np.einsum("...i,...ij->...j", p, g)
    return pf + np.einsum("...j,j->...", np.abs(pg), half) \
        + np.einsum("...j,j->...", pg, center)


def _side_values(v: Array, axis: int, periodic: bool) -> tuple[Array, Array]:
    """Neighbor fields (previous, next) along an axis; non-periodic edges
    are linearly extrapolated so edge differences become one-sided."""
    if periodic:
        return np.roll(v, 1, axis=axis), np.roll(v, -1, axis=axis)
    w = np.moveaxis(v, axis, 0)
    prev = np.concatenate([2.0 * w[:1] - w[1:2], w[:-1]], axis=0)
    nxt = np.concatenate([w[1:], 2.0 * w[-1:] - w[-2:-1]], axis=0)
    return np.moveaxis(prev, 0, axis), np.moveaxis(nxt, 0, axis)


def solve_invariant(grid0: LevelGrid, model: SystemModel, dt: float | None = None,
                    tol: float = 1e-3, max_steps: int = 5000,
                    value_floor: float | None = None) -> LevelGrid:
    """Run the frozen value iteration from the constraint field ``grid0``
    until the sup-norm update drops below ``tol`` or ``max_steps`` passes.

    ``dt = None`` picks 90% of the Lax-Friedrichs stability bound; an
    explicit ``dt`` beyond the bound is rejected, and value blow-up during
    iteration aborts with a diagnostic.  Values are clamped from below at
    ``value_floor`` (default: two field ranges under the field minimum);
    only the zero level matters for set membership, and the clamp stops
    cells whose true value drains out of the domain from delaying
    convergence.  A floor above the minimum of ``grid0`` is rejected, as it
    would lift violating cells, possibly to the safe side.
    """
    geom = grid0.geometry
    if model.state_dim != geom.dims:
        raise GeometryError("grid dimension does not match the model")
    pts = geom.nodes()
    f_nodes = model.f_eval(pts)                       # (P, n)
    g_nodes = model.g_eval(pts)                       # (P, n, m)
    half = 0.5 * (model.input_upper - model.input_lower)
    center = 0.5 * (model.input_upper + model.input_lower)
    u_abs = np.maximum(np.abs(model.input_lower), np.abs(model.input_upper))

    shape = geom.counts
    f_grid = f_nodes.reshape(shape + (geom.dims,))
    pg_base = g_nodes.reshape(shape + (geom.dims, model.input_dim))

    # Global dissipation coefficients: per-axis bound on |dH/dp_i|.
    alpha = (np.max(np.abs(f_nodes), axis=0)
             + np.abs(g_nodes).max(axis=0) @ u_abs)
    spacings = np.array([geom.spacing(i) for i in range(geom.dims)])
    cfl_rate = float(np.sum(alpha / spacings))
    if dt is None:
        dt = 0.9 / cfl_rate if cfl_rate > 0.0 else 1.0
    if dt <= 0.0:
        raise ValidationError("dt must be > 0")
    if cfl_rate * dt > 1.0 + 1e-12:
        raise ValidationError(
            f"dt = {dt:.4g} violates the stability bound {1.0 / cfl_rate:.4g}")

    v = grid0.values.copy()
    if value_floor is None:
        v_range = float(v.max() - v.min())
        value_floor = float(v.min()) - 2.0 * max(v_range, 1.0)
    elif value_floor > v.min():
        raise ValidationError(f"value_floor {value_floor:.6g} exceeds the "
                              f"field minimum {float(v.min()):.6g}")
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
        pf = np.einsum("...i,...i->...", grads_c, f_grid)
        pg = np.einsum("...i,...ij->...j", grads_c, pg_base)
        ham = pf + np.abs(pg) @ half + pg @ center + diss

        v_new = np.maximum(v + dt * np.minimum(0.0, ham), value_floor)
        if not np.all(np.isfinite(v_new)):
            raise NumericalError(
                f"value iteration blew up at step {step} (dt = {dt:.4g}; "
                f"stability bound {1.0 / cfl_rate:.4g})")
        if not np.all(v_new <= v + 1e-12):
            raise NumericalError(f"value iteration lost monotonicity at step {step}")
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < tol:
            break
    return LevelGrid(geom, v)


def sweep_backup_h(model: SystemModel, policy: BackupPolicy, spec: SafetySpec,
                   geometry: GridGeometry, horizon: float, steps: int,
                   chunk: int = 32768) -> LevelGrid:
    """Evaluate the implicit barrier at every grid node (batched; node
    chunks run on up to ``BCBF_THREADS`` threads)."""
    if model.state_dim != geometry.dims:
        raise GeometryError("grid dimension does not match the model")
    pts = geometry.nodes()
    pieces = [pts[i:i + chunk] for i in range(0, pts.shape[0], chunk)]

    def work(block: Array) -> Array:
        return eval_h_batch(model, policy, spec, block, horizon, steps).h

    workers = _threads()
    if workers > 1 and len(pieces) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, pieces))
    else:
        results = [work(b) for b in pieces]
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


def dilate_set(grid: LevelGrid, threshold: float = 0.0, cells: int = 1) -> Array:
    """Membership mask grown by ``cells`` grid cells along every axis
    (wrapping on periodic axes); the standard one-cell tolerance for
    grid-set containment checks."""
    mask = grid.membership(threshold)
    for _ in range(cells):
        grown = mask.copy()
        for ax in range(grid.dims):
            if grid.geometry.periodic_axes[ax]:
                grown |= np.roll(mask, 1, axis=ax)
                grown |= np.roll(mask, -1, axis=ax)
            else:
                prev, nxt = _side_values(mask.astype(float), ax, False)
                grown |= prev > 0.5
                grown |= nxt > 0.5
        mask = grown
    return mask


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def write_grid_csv(grid: LevelGrid, path: str) -> None:
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


def read_grid_csv(path: str) -> LevelGrid:
    lower, upper, counts, periodic = [], [], [], []
    values = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    _, spec_part = line.split(":", 1)
                    fields = spec_part.split()
                    lower.append(float(fields[0]))
                    upper.append(float(fields[1]))
                    counts.append(int(fields[2]))
                    periodic.append(len(fields) > 3 and fields[3] == "periodic")
                except (ValueError, IndexError) as exc:
                    raise GeometryError(
                        f"{path}:{lineno}: bad axis header: {line!r}") from exc
                continue
            if values is None:
                geom = GridGeometry(tuple(lower), tuple(upper), tuple(counts),
                                    tuple(periodic))
                values = np.full(int(np.prod(geom.counts)), np.nan)
            cols = line.split(",")
            dims = len(counts)
            if len(cols) != 2 * dims + 1:
                raise GeometryError(f"{path}:{lineno}: expected {2 * dims + 1} "
                                    f"columns, got {len(cols)}")
            try:
                idx = tuple(int(c) for c in cols[:dims])
                value = float(cols[-1])
            except ValueError as exc:
                raise GeometryError(f"{path}:{lineno}: bad cell row") from exc
            values[np.ravel_multi_index(idx, geom.counts)] = value
    if values is None or np.any(np.isnan(values)):
        raise GeometryError(f"{path}: incomplete grid file")
    return LevelGrid(geom, values)


def grid_to_json_dict(grid: LevelGrid) -> dict:
    geom = grid.geometry
    return {
        "axes": [{"lower": geom.lower[i], "upper": geom.upper[i],
                  "count": geom.counts[i], "periodic": geom.periodic_axes[i]}
                 for i in range(geom.dims)],
        "values": [float(v) for v in grid.values.ravel()],
    }


def grid_from_json_dict(doc: dict) -> LevelGrid:
    try:
        axes = doc["axes"]
        geom = GridGeometry(tuple(a["lower"] for a in axes),
                            tuple(a["upper"] for a in axes),
                            tuple(a["count"] for a in axes),
                            tuple(bool(a.get("periodic", False)) for a in axes))
        values = np.asarray(doc["values"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed grid JSON: {exc}") from exc
    return LevelGrid(geom, values)


def write_grid_json(grid: LevelGrid, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(grid_to_json_dict(grid), fh)


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
