"""Uniform tensor-product grids over the sheet parameters and the field unknowns.

The parameter domain is a box [a_0,b_0] x ... x [a_m,b_m] sampled on a uniform
tensor-product grid.  Axis 0 is the time-like parameter (u_0 = c*t); the
remaining m axes are the intrinsic spatial parameters.  All derivative and
quadrature machinery in the package is built on these grids, so node
enumeration is fixed to row-major order once and for all: serialized fields
are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np


class GridError(ValueError):
    """Invalid grid construction, boundary data, or off-grid evaluation."""


# The output rules of every report and error message: how a number prints, and which node is named.
def _node_str(idx: Sequence[int]) -> str:
    return "(" + ", ".join(str(int(i)) for i in idx) + ")"


def _cell(value) -> str:
    """One report cell: a float with 17 significant digits (it reads back bit for bit), a bool as 1 or 0,
    an int or str as is."""
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return ("1" if value else "0") if isinstance(value, (bool, np.bool_)) else str(value)


def _csv_row(obj, columns: Sequence[str], **renamed: str) -> str:
    """obj's attribute of each column name, or of renamed[name], as one row of report cells."""
    return ",".join(_cell(getattr(obj, renamed.get(name, name))) for name in columns)


def _first_node(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """The first node where the boolean mask holds, in row-major order; None where it holds nowhere."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape)) if mask.any() else None


def _raise_at_first(mask: np.ndarray, error: type[Exception], message: str) -> None:
    """Raise error(message), its {node} slot naming _first_node(mask), if the mask holds anywhere."""
    node = _first_node(mask)
    if node is not None:
        raise error(message.format(node=_node_str(node)))


def _worst_node(ndim: int, *values: np.ndarray, least: bool = False) -> tuple[float, tuple[int, ...]]:
    """The largest entry of the arrays, whose leading ndim axes are the nodes (the least with least=True),
    and the first node, in row-major order, that holds it; a NaN is the worst entry."""
    extreme, arg = (np.minimum, np.argmin) if least else (np.maximum, np.argmax)
    per_node = extreme.reduce([extreme.reduce(v.reshape(v.shape[:ndim] + (-1,)), axis=-1) for v in values])
    node = tuple(int(i) for i in np.unravel_index(arg(per_node), per_node.shape))
    return float(per_node[node]), node


@dataclass(frozen=True)
class ParameterGrid:
    """Uniform grid on a box in parameter space.

    extents   -- per-axis (lo, hi) pairs, hi > lo
    counts    -- per-axis node counts, each >= 3
    spacings  -- per-axis spacing, exactly (hi - lo) / (count - 1)
    """

    extents: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    spacings: tuple[float, ...]

    @property
    def ndim(self) -> int:
        return len(self.counts)

    @property
    def m(self) -> int:
        """Number of intrinsic spatial parameters (axes beyond u_0)."""
        return self.ndim - 1

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, hi = self.extents[axis]
        return np.linspace(lo, hi, self.counts[axis])

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (*counts, ndim)."""
        axes = [self.axis_coords(j) for j in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """True where any index sits at an axis extreme, shape (*counts,)."""
        mask = np.zeros(self.counts, dtype=bool)
        for axis in range(self.ndim):
            pre = (slice(None),) * axis
            mask[pre + (0,)] = mask[pre + (-1,)] = True
        return mask

    @cached_property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def nodes(self) -> Iterator[tuple[int, ...]]:
        """Row-major node enumeration over axes in order u_0..u_m."""
        return np.ndindex(*self.counts)

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.extents:
            v *= hi - lo
        return v


def build_grid(extents: Sequence[Sequence[float]], counts: Sequence[int]) -> ParameterGrid:
    """Build a uniform grid; non-integral counts, counts below 3 and degenerate extents are rejected."""
    ext = tuple((float(lo), float(hi)) for lo, hi in extents)
    cts = tuple(int(c) if float(c).is_integer() else c for c in counts)  # a non-integral count stays, to be named
    if len(ext) != len(cts) or not ext:
        raise GridError("extents and counts must be nonempty and of equal length")
    for axis, (lo, hi) in enumerate(ext):
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise GridError(f"axis {axis}: extent [{lo}, {hi}] is degenerate")
        if not isinstance(cts[axis], int):
            raise GridError(f"axis {axis}: count {cts[axis]} is not an integer")
        if cts[axis] < 3:
            raise GridError(f"axis {axis}: count {cts[axis]} < 3, central differences undefined")
    spacings = tuple((hi - lo) / (c - 1) for (lo, hi), c in zip(ext, cts))
    return ParameterGrid(extents=ext, counts=cts, spacings=spacings)


# The stencil rows, over 2h (order 1) or h^2 (order 2): the central row on interior
# nodes; at the near edge the one-sided row keyed by (order, count of the shortest
# axis it fits), as weights of v_1 - v_0, v_2 - v_0, ... (order 2 on three nodes is
# the central row in this form).  The far edge mirrors the row times (-1)^order.
_CENTRAL_ROWS = {1: (-1.0, 0.0, 1.0), 2: (1.0, -2.0, 1.0)}
_EDGE_ROWS = {
    (1, 3): (4.0, -1.0),
    (1, 4): (7.0, -4.0, 1.0),
    (2, 3): (-2.0, 1.0),
    (2, 4): (-5.0, 4.0, -1.0),
    (2, 5): (-9.0, 10.0, -5.0, 1.0),
}


def _axis_matrix(values: np.ndarray, grid: ParameterGrid, axis: int, order: int) -> np.ndarray:
    if values.shape[: grid.ndim] != grid.counts:
        raise GridError("field shape does not match grid counts")
    if not 0 <= axis < grid.ndim:
        raise GridError(f"axis {axis} out of range for {grid.ndim} grid axes")
    if order not in (1, 2):
        raise GridError(f"order must be 1 or 2, got {order}")
    return _stencil_matrix(grid.counts[axis], grid.spacings[axis], order)


@lru_cache(maxsize=64)
def _stencil_matrix(count: int, h: float, order: int) -> np.ndarray:
    """The count x count matrix of finite_difference along one axis of spacing h, built from the rows."""
    mat = np.zeros((count, count))
    for i in range(1, count - 1):
        mat[i, i - 1 : i + 2] = _CENTRAL_ROWS[order]
    row = _EDGE_ROWS[order, min(count, order + 3)]
    mat[0, : len(row) + 1] = (-sum(row), *row)
    mat[-1] = (-1.0) ** order * mat[0, ::-1]
    mat /= 2.0 * h if order == 1 else h * h
    mat.flags.writeable = False
    return mat


def _along_axis(mat: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """out[..., i, ...] = sum_j mat[i, j] values[..., j, ...], by BLAS matrix products that sum over j in order:
    one product where the axis is last, one per leading index elsewhere.  A complex field goes through its
    real view, its (re, im) pairs, so no complex product touches a zero."""
    v = np.ascontiguousarray(values).reshape(math.prod(values.shape[:axis]), len(mat), -1)
    real = v.view(v.real.dtype)
    out = real[..., 0] @ mat.T if real.shape[-1] == 1 else np.matmul(mat, real)
    return out.view(np.result_type(v, float)).reshape(values.shape)


def finite_difference(values: np.ndarray, grid: ParameterGrid, axis: int, order: int = 1) -> np.ndarray:
    """Second-order finite difference of a node-indexed field along one grid axis.

    The field minus its first node along the axis is multiplied by the axis's
    _stencil_matrix, whose rows each sum to zero: a constant field differentiates
    to exactly zero.  The one-sided edge rows match the central rows' leading
    truncation term (h^2 f'''/6 for first, h^2 f''''/12 for second derivatives),
    which keeps composed derivatives, such as the curvature tensor, second-order
    accurate up to the boundary; the short-axis rows are still exact for
    quadratics.  Extra trailing axes of ``values`` (vector or tensor components)
    are differentiated componentwise.
    """
    mat = _axis_matrix(values, grid, axis, order)
    return _along_axis(mat, values - values[(slice(None),) * axis + (slice(0, 1),)], axis)


def _gradient(values: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """finite_difference along every grid axis, stacked right after the node axes.

    Shape (*counts, ndim, *trailing).  finite_difference is looked up as a
    module global at each call, so a wrapper bound in its place sees every one.
    """
    return np.stack([finite_difference(values, grid, j) for j in range(grid.ndim)], axis=grid.ndim)


def finite_difference_adjoint(values: np.ndarray, grid: ParameterGrid, axis: int, order: int = 1) -> np.ndarray:
    """Exact transpose of finite_difference along one grid axis.

    <finite_difference(x), y> == <x, finite_difference_adjoint(y)> for every
    node field x, y of the same shape; trailing component axes and complex
    values are handled componentwise, as in finite_difference.
    """
    return _along_axis(_axis_matrix(values, grid, axis, order).T, values, axis)


_FIELD_DTYPES = {"r": float, "n": float, "r_bc": float, "phi": complex, "phi_bc": complex}


@dataclass
class FieldSet:
    """The unknowns (r, phi, n) on grid nodes plus their prescribed boundary data.

    r        -- position field, shape (*counts, N+1); first component is c*t
    phi      -- complex amplitude, shape (*counts,)
    n        -- candidate normal field, shape (*counts, N+1)
    r_bc     -- boundary values for r (consulted on boundary nodes only);
                slice [0] along axis 0 is the initial-time data, slice [-1]
                the final-time data, and the remaining boundary nodes carry
                the side-wall data.  NaN marks missing data.
    phi_bc   -- boundary values for phi, same layout
    eps      -- admissible-set lower bound for |phi|^2

    n carries no prescribed boundary data: apply_boundary never touches it.
    Every assignment, the constructor's included, casts r, n and r_bc to float
    and phi and phi_bc to complex; an array of that dtype is kept, not copied.
    """

    r: np.ndarray
    phi: np.ndarray
    n: np.ndarray
    r_bc: np.ndarray
    phi_bc: np.ndarray
    eps: float = 1e-4

    def __setattr__(self, name, value):
        dtype = _FIELD_DTYPES.get(name)
        super().__setattr__(name, value if dtype is None else np.asarray(value, dtype=dtype))

    @property
    def n_ambient(self) -> int:
        """Ambient spatial dimension N (r maps into R^{N+1})."""
        return self.r.shape[-1] - 1

    def copy(self) -> "FieldSet":
        """A copy of every array.  They are cast already, so the copy fills its attributes past __setattr__."""
        out = object.__new__(FieldSet)
        vars(out).update(r=self.r.copy(), phi=self.phi.copy(), n=self.n.copy(), r_bc=self.r_bc.copy(),
                         phi_bc=self.phi_bc.copy(), eps=self.eps)
        return out


def apply_boundary(fields: FieldSet, grid: ParameterGrid) -> FieldSet:
    """Overwrite boundary nodes with prescribed data; interior nodes untouched.

    Idempotent.  Missing (NaN) boundary data raises, naming the node.
    """
    mask = grid.boundary_mask
    missing = ~np.all(np.isfinite(fields.r_bc), axis=-1) | ~np.isfinite(fields.phi_bc)
    _raise_at_first(mask & missing, GridError, "missing boundary data at node {node}")
    out = fields.copy()
    out.r[mask] = fields.r_bc[mask]
    out.phi[mask] = fields.phi_bc[mask]
    return out


def interpolate(grid: ParameterGrid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a node-indexed field at parameter points.

    values -- shape (*counts, ...); points -- shape (..., ndim).
    Points must lie inside the grid box (a small snap tolerance is allowed
    at the faces).
    """
    if values.shape[: grid.ndim] != grid.counts:
        raise GridError("field shape does not match grid counts")
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != grid.ndim:
        raise GridError("point dimension does not match grid")
    lead = pts.shape[:-1]
    extra = values.shape[grid.ndim :]

    idx = np.empty(lead + (grid.ndim,), dtype=np.intp)
    frac = np.empty(lead + (grid.ndim,), dtype=float)
    for axis in range(grid.ndim):
        lo, hi = grid.extents[axis]
        h = grid.spacings[axis]
        tol = 1e-9 * max(1.0, abs(hi - lo))
        p = pts[..., axis]
        if not ((p >= lo - tol) & (p <= hi + tol)).all():  # NaN compares False, so it is refused too
            raise GridError(f"interpolation point not finite or outside grid extent on axis {axis}")
        s = np.clip((p - lo) / h, 0.0, grid.counts[axis] - 1.0)
        cell = np.minimum(s.astype(np.intp), grid.counts[axis] - 2)
        idx[..., axis] = cell
        frac[..., axis] = s - cell

    out = np.zeros(lead + extra, dtype=np.result_type(values, float))  # an integer field interpolates to floats
    for corner in np.ndindex(*(2,) * grid.ndim):
        w = np.ones(lead, dtype=float)
        gather = []
        for axis, bit in enumerate(corner):
            w = w * (frac[..., axis] if bit else 1.0 - frac[..., axis])
            gather.append(idx[..., axis] + bit)
        out += w.reshape(lead + (1,) * len(extra)) * values[tuple(gather)]
    return out


@dataclass(frozen=True)
class ChartMap:
    """User-supplied chart u(x, t) from a lab-frame grid into parameter space.

    grid -- uniform grid over (t, x_1, x_2, x_3); axis 0 is lab time
    u    -- parameter values at chart nodes, shape (*grid.counts, m+1)
    c    -- speed constant; the gauge condition u_0(x, t) = c*t must hold
    """

    grid: ParameterGrid
    u: np.ndarray
    c: float

    def derivatives(self) -> np.ndarray:
        """du/dx_i at chart nodes, shape (*counts, 4, m+1) with x_0 = t."""
        return _gradient(self.u, self.grid)


# The gauge u_0 = c*t must hold to GAUGE_TOL relative to max(1, max |c t|).
GAUGE_TOL = 1e-12


def make_chart(chart_grid: ParameterGrid, u: np.ndarray, c: float) -> ChartMap:
    """Validate and wrap chart data; enforces the u_0 = c*t gauge, a finite u and a finite c > 0."""
    if chart_grid.ndim != 4:
        raise GridError("chart grid must have four axes (t, x_1, x_2, x_3)")
    if u.shape[: chart_grid.ndim] != chart_grid.counts:
        raise GridError("chart sample shape does not match chart grid")
    if not (np.isfinite(c) and c > 0):
        raise GridError(f"chart speed c must be finite and > 0, got {c}")
    _raise_at_first(~np.isfinite(u).all(-1), GridError, "chart u is not finite at chart node {node}")
    t = chart_grid.coordinates[..., 0]
    scale = max(1.0, float(np.abs(c * t).max()))
    if np.max(np.abs(u[..., 0] - c * t)) > GAUGE_TOL * scale:
        raise GridError("chart violates the gauge condition u_0(x, t) = c*t")
    return ChartMap(grid=chart_grid, u=np.asarray(u, dtype=float), c=float(c))
