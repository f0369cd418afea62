from pathlib import Path

import numpy as np
import pytest

from worldsheet import (
    GridError,
    apply_boundary,
    build_grid,
    finite_difference,
    finite_difference_adjoint,
    interpolate,
    make_chart,
)
from worldsheet import presets
from worldsheet.grid import _cell, _first_node, _raise_at_first, _stencil_matrix, _worst_node


def test_build_grid_square():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    assert g.spacings == (0.25, 0.25)
    assert g.n_nodes == 25
    assert g.m == 1


def test_build_grid_1d_boundary():
    g = build_grid([(0, 2)], [3])
    assert g.spacings == (1.0,)
    assert list(np.flatnonzero(g.boundary_mask)) == [0, 2]


def test_build_grid_3d_interior_count():
    g = build_grid([(0, 1), (0, 1), (0, 1)], [3, 3, 3])
    assert g.n_nodes == 27
    assert int(g.boundary_mask.sum()) == 26
    assert int(g.interior_mask.sum()) == 1


def test_build_grid_rejects_small_counts():
    with pytest.raises(GridError):
        build_grid([(0, 1)], [2])


def test_build_grid_rejects_a_non_integral_count():
    # A fractional or non-finite count is refused, naming its axis, not truncated; an integral value is taken.
    for counts, bad in (([3.7, 5], "axis 0: count 3.7"), ([5, np.float64(4.5)], "axis 1: count 4.5"),
                        ([5, float("nan")], "axis 1: count nan"), ([float("inf"), 5], "axis 0: count inf")):
        with pytest.raises(GridError, match=f"^{bad} is not an integer$"):
            build_grid([(0, 1), (0, 1)], counts)
    assert build_grid([(0, 1), (0, 1)], [np.int64(3), 5.0]).counts == (3, 5)


def test_build_grid_rejects_degenerate_extent():
    with pytest.raises(GridError):
        build_grid([(1, 1), (0, 1)], [5, 5])


def test_node_enumeration_row_major():
    g = build_grid([(0, 1), (0, 1)], [3, 4])
    nodes = list(g.nodes())
    assert nodes[0] == (0, 0)
    assert nodes[1] == (0, 1)
    assert nodes[4] == (1, 0)
    assert len(nodes) == 12


def test_apply_boundary_flat_identity():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    out = apply_boundary(f, g)
    mask = g.boundary_mask
    coords = g.coordinates
    assert np.array_equal(out.r[mask][:, :2], coords[mask])
    assert np.all(out.phi[mask] == 1.0 + 0.0j)


def test_apply_boundary_restores_boundary_only():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    f.r += 0.37
    f.phi += 0.21j
    out = apply_boundary(f, g)
    mask = g.boundary_mask
    assert np.array_equal(out.r[mask], f.r_bc[mask])
    assert np.array_equal(out.phi[mask], f.phi_bc[mask])
    # interior untouched
    assert np.array_equal(out.r[~mask], f.r[~mask])
    assert np.array_equal(out.phi[~mask], f.phi[~mask])


def test_apply_boundary_idempotent():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    once = apply_boundary(f, g)
    twice = apply_boundary(once, g)
    assert np.array_equal(once.r, twice.r)
    assert np.array_equal(once.phi, twice.phi)
    assert np.array_equal(once.n, twice.n)


def test_apply_boundary_missing_data_names_node():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    f.r_bc[0, 2, 1] = np.nan
    with pytest.raises(GridError, match=r"\(0, 2\)"):
        apply_boundary(f, g)


def test_fd_linear_first_derivative_exact():
    g = build_grid([(0, 1), (0, 2)], [5, 7])
    u = g.coordinates
    for axis in range(2):
        d = finite_difference(u[..., axis], g, axis)
        assert np.max(np.abs(d - 1.0)) < 1e-13


def test_fd_quadratic_second_derivative_exact():
    g = build_grid([(0, 1)], [9])
    x = g.coordinates[..., 0]
    d2 = finite_difference(x**2, g, 0, order=2)
    assert np.max(np.abs(d2 - 2.0)) < 1e-13


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("count", [3, 4, 5, 6])
def test_fd_constant_is_zero(count, order):
    g = build_grid([(0, 1), (0, 1)], [count, 5])
    c = np.full(g.counts, 3.7)
    for axis in range(2):
        assert np.all(finite_difference(c, g, axis, order=order) == 0.0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("count", [3, 4, 5, 6])
def test_fd_quadratic_exact(count, order):
    # Every edge row and short-axis fallback, the count-4 second-order row included.
    g = build_grid([(0, 2)], [count])
    x = g.coordinates[..., 0]
    want = 2 * x if order == 1 else 2.0
    assert np.max(np.abs(finite_difference(x**2, g, 0, order=order) - want)) < 1e-13


def test_fd_sin_refinement_second_order():
    errs = []
    for n in (17, 33):
        g = build_grid([(0, 1)], [n])
        x = g.coordinates[..., 0]
        d = finite_difference(np.sin(x), g, 0)
        errs.append(np.max(np.abs(d - np.cos(x))))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_mixed_partial_symmetry():
    g = build_grid([(0, 1), (0, 1)], [9, 11])
    u = g.coordinates
    f = np.sin(u[..., 0]) * np.cos(2 * u[..., 1])
    d01 = finite_difference(finite_difference(f, g, 0), g, 1)
    d10 = finite_difference(finite_difference(f, g, 1), g, 0)
    scale = np.max(np.abs(d01))
    assert np.max(np.abs(d01 - d10)) <= 1e-12 * scale


def _axis_slicer(arr_ndim, axis):
    def sl(s):
        idx = [slice(None)] * arr_ndim
        idx[axis] = s
        return tuple(idx)

    return sl


def oracle_finite_difference(values, grid, axis, order=1):
    """finite_difference with each edge row written out for both edges, as the oracle."""
    h = grid.spacings[axis]
    count = grid.counts[axis]
    sl = _axis_slicer(values.ndim, axis)
    out = np.empty_like(values, dtype=np.result_type(values, float))

    if order == 1:
        out[sl(slice(1, -1))] = (values[sl(slice(2, None))] - values[sl(slice(None, -2))]) / (2.0 * h)
        if count >= 4:
            lo = values[sl(0)]
            out[sl(0)] = (
                7.0 * (values[sl(1)] - lo) - 4.0 * (values[sl(2)] - lo) + (values[sl(3)] - lo)
            ) / (2.0 * h)
            hi = values[sl(-1)]
            out[sl(-1)] = -(
                7.0 * (values[sl(-2)] - hi) - 4.0 * (values[sl(-3)] - hi) + (values[sl(-4)] - hi)
            ) / (2.0 * h)
        else:
            lo = values[sl(0)]
            out[sl(0)] = (4.0 * (values[sl(1)] - lo) - (values[sl(2)] - lo)) / (2.0 * h)
            hi = values[sl(-1)]
            out[sl(-1)] = -(4.0 * (values[sl(-2)] - hi) - (values[sl(-3)] - hi)) / (2.0 * h)
        return out

    h2 = h * h
    out[sl(slice(1, -1))] = (
        values[sl(slice(2, None))] - 2.0 * values[sl(slice(1, -1))] + values[sl(slice(None, -2))]
    ) / h2
    if count >= 5:
        lo = values[sl(0)]
        out[sl(0)] = (
            -9.0 * (values[sl(1)] - lo)
            + 10.0 * (values[sl(2)] - lo)
            - 5.0 * (values[sl(3)] - lo)
            + (values[sl(4)] - lo)
        ) / h2
        hi = values[sl(-1)]
        out[sl(-1)] = (
            -9.0 * (values[sl(-2)] - hi)
            + 10.0 * (values[sl(-3)] - hi)
            - 5.0 * (values[sl(-4)] - hi)
            + (values[sl(-5)] - hi)
        ) / h2
    elif count == 4:
        lo = values[sl(0)]
        out[sl(0)] = (-5.0 * (values[sl(1)] - lo) + 4.0 * (values[sl(2)] - lo) - (values[sl(3)] - lo)) / h2
        hi = values[sl(-1)]
        out[sl(-1)] = (-5.0 * (values[sl(-2)] - hi) + 4.0 * (values[sl(-3)] - hi) - (values[sl(-4)] - hi)) / h2
    else:
        edge = (values[sl(0)] - 2.0 * values[sl(1)] + values[sl(2)]) / h2
        out[sl(0)] = edge
        out[sl(-1)] = edge
    return out


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("complex_values", [False, True])
def test_fd_matches_oracle_bitwise(ndim, order, complex_values):
    # Counts 3-7 on every axis (3-D: a diagonal of them), scalar, vector and
    # tensor components, with zeros of both signs sprinkled in.  The matrix
    # product acts on the field minus its first node and sums in another order
    # than the written-out rows, so the two agree to 1e-14 of max|x| / h^order.
    rng = np.random.default_rng(10 * ndim + order)
    for count in range(3, 8):
        counts = (count, 10 - count, count)[:ndim]
        g = build_grid([(0, 1.3), (-0.5, 0.5), (1.0, 2.1)][:ndim], counts)
        for trailing in ((), (3,), (2, 3)):
            x = _random_field(rng, counts + trailing, complex_values)
            for part in (x.real, x.imag) if complex_values else (x,):
                part[rng.random(x.shape) < 0.4] = 0.0
                part[rng.random(x.shape) < 0.2] = -0.0
            for axis in range(ndim):
                got = finite_difference(x, g, axis, order=order)
                want = oracle_finite_difference(x, g, axis, order=order)
                bound = 1e-14 * np.max(np.abs(x)) / g.spacings[axis] ** order
                assert np.max(np.abs(got - want)) <= bound and got.dtype == want.dtype
                assert got.strides == want.strides


@pytest.mark.parametrize("order", [1, 2])
def test_stencil_matrix_is_the_oracle_on_the_identity(order):
    # The matrix is built from the rows, not from finite_difference: it must equal
    # the written-out rows applied to the identity bit for bit, zero signs included.
    for count in range(3, 18):
        for h in (1e-3, 0.1, 1.0 / 3.0, 0.7, 2.5):
            line = build_grid([(0.0, h * (count - 1))], [count])
            want = oracle_finite_difference(np.eye(count), line, 0, order=order)
            got = _stencil_matrix(count, line.spacings[0], order)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _random_field(rng, shape, complex_values):
    x = rng.standard_normal(shape)
    if complex_values:
        x = x + 1j * rng.standard_normal(shape)
    return x


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("count", [3, 4, 5, 7])
@pytest.mark.parametrize("complex_values", [False, True])
def test_fd_adjoint_dot_product(order, count, complex_values):
    rng = np.random.default_rng(count * 10 + order)
    g = build_grid([(0, 1.3), (-0.5, 0.5)], [count, 6])
    for trailing in ((), (3,), (2, 3)):
        for axis in range(2):
            x = _random_field(rng, g.counts + trailing, complex_values)
            y = _random_field(rng, g.counts + trailing, complex_values)
            dx = finite_difference(x, g, axis, order=order)
            dty = finite_difference_adjoint(y, g, axis, order=order)
            assert dty.shape == y.shape
            lhs, rhs = np.vdot(dx, y), np.vdot(x, dty)
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(dx) * np.linalg.norm(y)


def test_fd_adjoint_rejects_bad_input():
    g = build_grid([(0, 1)], [5])
    with pytest.raises(GridError):
        finite_difference_adjoint(np.zeros(4), g, 0)
    with pytest.raises(GridError):
        finite_difference_adjoint(np.zeros(5), g, 0, order=3)
    with pytest.raises(GridError):
        finite_difference_adjoint(np.zeros(5), g, 1)


def test_fd_shape_mismatch():
    g = build_grid([(0, 1)], [5])
    with pytest.raises(GridError):
        finite_difference(np.zeros(4), g, 0)
    with pytest.raises(GridError):
        finite_difference(np.zeros(5), g, 0, order=3)


def test_interpolate_linear_exact():
    g = build_grid([(0, 1), (0, 2)], [5, 9])
    u = g.coordinates
    f = 2.0 * u[..., 0] - 0.5 * u[..., 1] + 1.0
    pts = np.array([[0.13, 0.77], [0.5, 1.99], [1.0, 2.0], [0.0, 0.0]])
    got = interpolate(g, f, pts)
    want = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 1.0
    assert np.max(np.abs(got - want)) < 1e-12


def test_interpolate_vector_components():
    g = build_grid([(0, 1)], [5])
    x = g.coordinates[..., 0]
    f = np.stack([x, x**0], axis=-1)
    got = interpolate(g, f, np.array([[0.3]]))
    assert got.shape == (1, 2)
    assert abs(got[0, 0] - 0.3) < 1e-12


def test_interpolate_of_an_integer_field_is_float():
    # The node values are integers, their weighted sums are not: the result takes the float type, as a float
    # field of the same values would give it, instead of raising on the cast.
    g = build_grid([(0, 1), (0, 2)], [5, 9])
    counts = np.arange(45).reshape(5, 9)
    pts = np.array([[0.13, 0.77], [1.0, 2.0]])
    got = interpolate(g, counts, pts)
    assert got.dtype == np.float64
    assert got.tobytes() == interpolate(g, counts.astype(float), pts).tobytes()
    assert interpolate(g, counts.astype(np.complex128), pts).dtype == np.complex128


def test_interpolate_rejects_outside_points():
    g = build_grid([(0, 1)], [5])
    f = g.coordinates[..., 0]
    with pytest.raises(GridError):
        interpolate(g, f, np.array([[1.5]]))
    # A NaN compares False to both faces, so a test for points beyond them
    # alone lets it through to the cell-index cast.  Each axis is checked.
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = g.coordinates[..., 0]
    for point in (1.5, -np.inf, np.nan):
        with pytest.raises(GridError, match="on axis 0$"):
            interpolate(g, f, np.array([[point, 0.5]]))
        with pytest.raises(GridError, match="on axis 1$"):
            interpolate(g, f, np.array([[0.5, point]]))


def test_chart_gauge_enforced():
    cg = build_grid([(0, 1), (0, 1), (0, 1), (0, 1)], [3, 3, 3, 3])
    u = np.zeros(cg.counts + (2,))
    u[..., 0] = 2.0 * cg.coordinates[..., 0]
    u[..., 1] = cg.coordinates[..., 1]
    chart = make_chart(cg, u, c=2.0)
    assert chart.u.shape == cg.counts + (2,)
    with pytest.raises(GridError):
        make_chart(cg, u, c=1.0)


def test_make_chart_refuses_a_non_finite_u_and_a_bad_c():
    cg = build_grid([(0, 1)] * 4, [3] * 4)
    u = np.zeros(cg.counts + (2,))
    u[..., 0] = cg.coordinates[..., 0]
    for comp, value in ((0, np.nan), (1, np.inf), (1, -np.inf)):
        bad = u.copy()
        bad[1, 2, 0, 1, comp] = value
        with pytest.raises(GridError, match=r"^chart u is not finite at chart node \(1, 2, 0, 1\)$"):
            make_chart(cg, bad, c=1.0)
    for c in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(GridError, match="^chart speed c must be finite and > 0"):
            make_chart(cg, u * c if np.isfinite(c) else u, c=c)


def test_build_grid_rejects_unequal_lengths():
    with pytest.raises(GridError, match="equal length"):
        build_grid([(0, 1)], [3, 3])


def test_interpolate_rejects_wrong_shapes():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    with pytest.raises(GridError, match="^field shape"):
        interpolate(g, np.zeros((5, 4)), np.array([[0.5, 0.5]]))
    with pytest.raises(GridError, match="^point dimension"):
        interpolate(g, np.zeros((5, 5)), np.array([[0.5, 0.5, 0.5]]))


def test_make_chart_rejects_wrong_shapes():
    with pytest.raises(GridError, match="four axes"):
        make_chart(build_grid([(0, 1), (0, 1)], [3, 3]), np.zeros((3, 3, 2)), c=1.0)
    cg = build_grid([(0, 1)] * 4, [3] * 4)
    with pytest.raises(GridError, match="sample shape"):
        make_chart(cg, np.zeros((3, 3, 3, 4, 2)), c=1.0)


# The output rules of reports and error messages, stated once in grid.py.
def test_cell_prints_float_17_digits_bool_as_bit_int_and_str_as_is():
    assert _cell(0.1) == "0.10000000000000001" and float(_cell(0.1)) == 0.1
    assert _cell(np.float64(-1e-300)) == "-1e-300" and _cell(np.float32(0.5)) == "0.5"
    assert _cell(float("nan")) == "nan" and _cell(-0.0) == "-0"
    assert (_cell(True), _cell(np.bool_(False))) == ("1", "0")
    assert (_cell(7), _cell(np.int64(-3)), _cell("converged")) == ("7", "-3", "converged")


def test_first_node_is_row_major():
    mask = np.zeros((3, 4, 2), dtype=bool)
    assert _first_node(mask) is None
    _raise_at_first(mask, GridError, "never {node}")
    mask[2, 0, 0] = mask[1, 3, 1] = True
    assert _first_node(mask) == (1, 3, 1)
    assert all(type(i) is int for i in _first_node(mask))
    with pytest.raises(GridError, match=r"^bad at node \(1, 3, 1\): \{x\}$"):
        _raise_at_first(mask, GridError, "bad at node {node}: {{x}}")


def test_worst_node_reduces_trailing_axes_and_names_the_first_node():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((4, 5, 2, 3)), rng.standard_normal((4, 5, 7))
    value, node = _worst_node(2, a, b)
    assert value == max(a.max(), b.max()) and value in (a[node].max(), b[node].max())
    value, node = _worst_node(2, a, b, least=True)
    assert value == min(a.min(), b.min()) and value in (a[node].min(), b[node].min())
    tied = np.zeros((3, 3))
    tied[2, 1] = tied[1, 2] = 5.0
    assert _worst_node(2, tied) == (5.0, (1, 2))
    tied[2, 0] = np.nan
    value, node = _worst_node(2, tied, least=True)
    assert np.isnan(value) and node == (2, 0)


def test_output_rules_live_only_in_grid():
    # A number prints through grid._cell and a node is found through grid's helpers: no other module
    # restates the 17-digit format or locates a node by hand.
    src = Path(__file__).resolve().parent.parent / "src" / "worldsheet"
    found = [
        f"{path.name}:{lineno}: {token}"
        for path in sorted(src.glob("*.py"))
        if path.name != "grid.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for token in (".17g", "np.argwhere", "np.unravel_index")
        if token in line
    ]
    assert not found, found


def test_fieldset_copy_keeps_dtypes_shares_no_memory_and_still_casts():
    g = build_grid([(0, 2), (0, 1)], [3, 7])
    f = presets.perturbed_flat(g, shear_amp=0.06)
    c = f.copy()
    names = ("r", "phi", "n", "r_bc", "phi_bc")
    for name in names:
        a, b = getattr(f, name), getattr(c, name)
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes() and not np.shares_memory(a, b), name
    assert [getattr(c, name).dtype for name in names] == [float, complex, float, float, complex]
    assert type(c) is type(f) and c.eps == f.eps
    # An assignment made after the copy casts, as on the original.
    c.phi = c.phi.real
    c.r = c.r.astype(np.int64)
    assert c.phi.dtype == complex and c.r.dtype == float
    assert f.phi.dtype == complex and f.r.dtype == float
