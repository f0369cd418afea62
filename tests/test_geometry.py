import warnings

import numpy as np
import pytest

from worldsheet import (
    DegenerateFrameError,
    DegenerateMetricError,
    GeometryError,
    MetricData,
    NonUnitNormalError,
    SignatureError,
    build_geometry,
    build_grid,
    chart_metric,
    finite_difference,
    gauss_residual,
    make_chart,
    metric,
    minkowski_dot,
    normal_frame,
    second_derivatives,
    second_fundamental_form,
    weingarten_residual,
)
from worldsheet import presets
from worldsheet.geometry import _factor, _node_str, _second_derivatives_adjoint, oriented_normal

RHO = 1.5


def cylinder_setup(n=17):
    g = build_grid([(0, 1), (0, 2 * np.pi * RHO)], [9, n])
    f = presets.cylinder(g, radius=RHO)
    return g, f


def sphere_setup(n=17):
    g = build_grid([(0, 1), (0.7, np.pi - 0.7), (0.3, np.pi - 0.3)], [9, n, n])
    f = presets.sphere_product(g, radius=RHO)
    return g, f


def test_minkowski_signature():
    assert minkowski_dot(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == -1.0


def test_minkowski_null():
    assert minkowski_dot(np.array([1.0, 1.0, 0]), np.array([1.0, 1.0, 0])) == 0.0


def test_minkowski_spatial():
    v = np.array([0.0, 2.0, 3.0])
    assert minkowski_dot(v, v) == 13.0


def test_minkowski_length_mismatch():
    with pytest.raises(ValueError):
        minkowski_dot(np.zeros(3), np.zeros(4))


def test_flat_metric_exact():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    md = metric(f, g)
    want = np.array([[-1.0, 0.0], [0.0, 1.0]])
    assert np.max(np.abs(md.g - want)) == 0.0
    assert np.max(np.abs(md.det_g + 1.0)) == 0.0
    assert np.max(np.abs(md.sqrt_neg_g - 1.0)) == 0.0


def test_cylinder_metric_second_order():
    errs = []
    for n in (17, 33):
        g, f = cylinder_setup(n)
        md = metric(f, g)
        want = np.array([[-1.0, 0.0], [0.0, 1.0]])
        errs.append(np.max(np.abs(md.g - want)))
    assert errs[0] < 0.08
    assert 2.5 < errs[0] / errs[1] < 6.0


def test_sphere_metric_matches_analytic():
    g, f = sphere_setup(33)
    md = metric(f, g)
    u1 = g.coordinates[..., 1]
    want = np.zeros(g.counts + (3, 3))
    want[..., 0, 0] = -1.0
    want[..., 1, 1] = RHO**2
    want[..., 2, 2] = RHO**2 * np.sin(u1) ** 2
    assert np.max(np.abs(md.g - want)) < 2e-2


def test_metric_inverse_identity():
    g, f = sphere_setup(9)
    md = metric(f, g)
    eye = np.eye(3)
    prod = np.einsum("...jk,...kl->...jl", md.g, md.g_inv)
    assert np.max(np.abs(prod - eye)) < 1e-10


def test_metric_degenerate_error_names_node():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    f.r[..., 1] = 0.0  # kill the spatial tangent everywhere
    with pytest.raises(DegenerateMetricError, match=r"\(0, 0\)"):
        metric(f, g)


@pytest.mark.parametrize("scale", [1e-4, 1e4])
def test_metric_degeneracy_test_is_scale_free(scale):
    # |det g| scales as scale^4 here; the test compares it with the tangents'
    # Hadamard bound, so neither unit is degenerate (1e-4 was, as det g = -1e-16).
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    f.r *= scale
    f.r_bc *= scale
    geom = build_geometry(f, g, with_riemann=True, with_frame=True)
    assert np.max(np.abs(geom.metric.det_g + scale**4)) <= 1e-14 * scale**4
    f.r[..., 1] = 0.0
    with pytest.raises(DegenerateMetricError, match=r"\(0, 0\)"):
        metric(f, g)


def test_metric_overflow_is_not_a_small_determinant():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    f.r[..., 1] *= 1e200
    with np.errstate(over="ignore"), pytest.raises(GeometryError, match=r"not finite at node \(0, 0\)") as info:
        metric(f, g)
    assert not isinstance(info.value, DegenerateMetricError)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_r_and_phi_are_refused_at_their_node(value):
    # Refused before the stencils spread the entry along its grid lines, and before an inf warns in their matmul.
    g = build_grid([(0, 1), (0, 1)], [6, 7])
    bad_r, bad_phi = presets.flat(g), presets.flat(g)
    bad_r.r[3, 4, 2] = value
    bad_phi.phi[3, 4] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=r"^r is not finite at node \(3, 4\)$"):
            build_geometry(bad_r, g)
        with pytest.raises(GeometryError, match=r"^phi is not finite at node \(3, 4\)$"):
            build_geometry(bad_phi, g)


def test_singular_and_overflowing_metric_raise_without_warning():
    # The factorisation meets a zero pivot on the first and infinities on the
    # second; only computing g itself may overflow.
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    singular, huge = presets.flat(g), presets.flat(g)
    singular.r[..., 1] = 0.0
    huge.r[..., 1] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetricError, match=r"\(0, 0\)"):
            metric(singular, g)
        with np.errstate(over="ignore"), pytest.raises(GeometryError, match=r"not finite at node \(0, 0\)") as info:
            metric(huge, g)
    assert not isinstance(info.value, DegenerateMetricError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, inv = _factor(np.array([[[0.0, 0.0], [0.0, 1.0]], [[np.inf, 1.0], [1.0, 1.0]], [[np.nan, 1.0], [1.0, 0.0]]]))
    assert det[0] == 0.0 and np.isfinite(inv[0]).all()
    assert not np.isfinite(det[1:]).any()


def test_metric_signature_error():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    # Riemannian sheet: both tangents space-like.
    f.r[...] = 0.0
    f.r[..., 1] = g.coordinates[..., 0]
    f.r[..., 2] = g.coordinates[..., 1]
    with pytest.raises(SignatureError):
        metric(f, g)


def test_normal_frame_flat():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    frame = normal_frame(metric(f, g))
    assert frame.vectors.shape == g.counts + (1, 3)
    assert np.max(np.abs(np.abs(frame.vectors[..., 0, 2]) - 1.0)) < 1e-12


def test_normal_frame_cylinder():
    g, f = cylinder_setup(33)
    frame = normal_frame(metric(f, g))
    ang = g.coordinates[..., 1] / RHO
    want = np.stack([np.zeros_like(ang), np.cos(ang), np.sin(ang)], axis=-1)
    got = frame.vectors[..., 0, :]
    align = np.einsum("...a,...a->...", got, want)
    assert np.max(np.abs(np.abs(align) - 1.0)) < 5e-3


def random_embeddings():
    """Five bent 7x7 sheets with s = 2 normal directions."""
    rng = np.random.default_rng(7)
    g = build_grid([(0, 1), (0, 1)], [7, 7])
    u = g.coordinates
    for _ in range(5):
        a, b = rng.uniform(0.05, 0.25, size=2)
        f = presets.flat(g, n_ambient=3)
        f.r[..., 2] = a * np.sin(u[..., 1] + u[..., 0])
        f.r[..., 3] = b * np.cos(2 * u[..., 1])
        yield g, f


def near_span_sheet(seed):
    """A 17^3 sphere product whose slow 0.02 r mode in u_0 leaves canonical
    candidates a short, but space-like, distance from the tangent span."""
    ext = [(0, 1), (0.6, np.pi - 0.6), (0.2, 1.2)]
    g = build_grid(ext, [17, 17, 17])
    u = g.coordinates
    s = [(u[..., a] - lo) / (hi - lo) for a, (lo, hi) in enumerate(ext)]
    f = presets.sphere_product(g, n_ambient=3)
    rng = np.random.default_rng(seed)
    for comp in range(1, 4):
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        f.r[..., comp] += 0.02 * a * np.sin(np.pi * s[0] + c) * np.cos(np.pi * s[1] + b)
    return g, f


def test_normal_frame_invariants_random_embedding():
    for g, f in random_embeddings():
        md = metric(f, g)
        frame = normal_frame(md)
        s = frame.vectors.shape[-2]
        assert s == 2
        gram = np.einsum(
            "...qa,...pa,a->...qp", frame.vectors, frame.vectors, np.array([-1.0, 1, 1, 1])
        )
        assert np.max(np.abs(gram - np.eye(s))) < 1e-10
        tangency = np.einsum(
            "...qa,...ja,a->...qj", frame.vectors, md.tangents, np.array([-1.0, 1, 1, 1])
        )
        assert np.max(np.abs(tangency)) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_normal_frame_accepts_candidate_near_tangent_span(seed):
    g, f = near_span_sheet(seed)
    geom = build_geometry(f, g, with_frame=True)
    signs = np.array([-1.0, 1, 1, 1])
    vec = geom.frame.vectors
    gram = np.einsum("...qa,...pa,a->...qp", vec, vec, signs)
    assert np.max(np.abs(gram - np.eye(vec.shape[-2]))) < 1e-12
    assert np.max(np.abs(np.einsum("...qa,...ja,a->...qj", vec, geom.tangents, signs))) < 1e-8


def test_oriented_normal_refuses_a_zero_orientation_determinant():
    # r = (u_0, u_1, 0, u_1): the first frame vector, (0, 1, 0, -1)/sqrt(2), and
    # the tangents have no component along ambient axis 2, so det(t_0, t_1, n)
    # over the first three coordinates is 0 and no sign orients n.
    g = build_grid([(0, 1), (0, 1)], [3, 4])
    f = presets.flat(g, n_ambient=3)
    f.r[..., 3] = f.r[..., 1]
    with pytest.raises(DegenerateFrameError, match=r"^normal orientation undefined at node \(0, 0\)"):
        oriented_normal(metric(f, g))


def test_normal_frame_null_complement_error():
    # Hand-built tangents containing a null direction, (1, 0, 1) and (0, 1, 0),
    # which metric would reject.  g_inv is the inverse of no g: it is chosen so
    # that the first candidate, P e_0 = (1/2, 0, -1/2), is null.
    counts = (3, 3)
    tang = np.zeros(counts + (2, 3))
    tang[..., 0, 0] = 1.0
    tang[..., 0, 2] = 1.0
    tang[..., 1, 1] = 1.0
    md = MetricData(
        tangents=tang,
        g=np.zeros(counts + (2, 2)),
        g_inv=np.broadcast_to(np.diag([-0.5, 1.0]), counts + (2, 2)),
        det_g=np.zeros(counts),
        sqrt_neg_g=np.zeros(counts),
    )
    with pytest.raises(DegenerateFrameError, match=r"null direction in the tangent complement at node \(0, 0\)"):
        normal_frame(md)


def tangent_gram_schmidt_frame(tangents):
    """Normal frame by pseudo-orthonormalizing the tangents, then projecting
    e_0..e_N onto their complement in fixed order: the oracle for normal_frame."""
    counts = tangents.shape[:-2]
    n_par = tangents.shape[-2]
    dim = tangents.shape[-1]
    s_normals = dim - n_par
    signs = np.ones(dim)
    signs[0] = -1.0
    tau = np.zeros(counts + (n_par, dim))
    sigma = np.zeros(counts + (n_par,))
    for a in range(n_par):
        w = tangents[..., a, :].copy()
        for b in range(a):
            coef = np.einsum("...a,...a,a->...", w, tau[..., b, :], signs) * sigma[..., b]
            w -= coef[..., None] * tau[..., b, :]
        nu = np.einsum("...a,...a,a->...", w, w, signs)
        bad = np.abs(nu) < 1e-8
        if bad.any():
            node = tuple(np.argwhere(bad)[0][: len(counts)])
            raise DegenerateFrameError(f"null direction in tangent span at node {_node_str(node)}")
        sigma[..., a] = np.sign(nu)
        tau[..., a, :] = w / np.sqrt(np.abs(nu))[..., None]
    frame = np.zeros(counts + (s_normals, dim))
    filled = np.zeros(counts, dtype=np.intp)
    for i in range(dim):
        active = filled < s_normals
        v = np.zeros(counts + (dim,))
        v[..., i] = 1.0
        for a in range(n_par):
            v -= (sigma[..., a] * tau[..., a, i] * signs[i])[..., None] * tau[..., a, :]
        for q in range(s_normals):
            v -= np.einsum("...a,...a,a->...", v, frame[..., q, :], signs)[..., None] * frame[..., q, :]
        eucl = np.einsum("...a,...a->...", v, v)
        nu = np.einsum("...a,...a,a->...", v, v, signs)
        candidate = active & (eucl >= 1e-16)
        assert not (candidate & (nu <= 1e-8 * eucl)).any()
        where = np.nonzero(candidate)
        frame[where + (filled[where],)] = (v / np.sqrt(np.where(candidate, nu, 1.0))[..., None])[where]
        filled[where] += 1
    assert (filled == s_normals).all()
    return frame


def perturbed_flat_setup():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    return g, presets.perturbed_flat(g, bump_amp=0.1, shear_amp=0.05, n_scale=1.2, n_tilt=0.1)


FRAME_ORACLE_INPUTS = {
    **{f"random-{k}": lambda k=k: list(random_embeddings())[k] for k in range(5)},
    "cylinder": lambda: cylinder_setup(33),
    "perturbed_flat": perturbed_flat_setup,
    **{f"near_span-{seed}": lambda seed=seed: near_span_sheet(seed) for seed in range(6)},
}


@pytest.mark.parametrize("name", FRAME_ORACLE_INPUTS)
def test_normal_frame_matches_tangent_gram_schmidt(name):
    g, f = FRAME_ORACLE_INPUTS[name]()
    md = metric(f, g)
    assert np.max(np.abs(normal_frame(md).vectors - tangent_gram_schmidt_frame(md.tangents))) <= 1e-9


def test_normal_frame_null_coordinate_tangent():
    # r = (u_0, u_0 + u_1, u_1): t_0 = (1, 1, 0) is null, yet det g = -1.
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    u = g.coordinates
    f.r[...] = np.stack([u[..., 0], u[..., 0] + u[..., 1], u[..., 1]], axis=-1)
    md = metric(f, g)
    assert np.max(np.abs(md.det_g + 1.0)) <= 1e-14
    vec = normal_frame(md).vectors
    signs = np.array([-1.0, 1, 1])
    gram = np.einsum("...qa,...pa,a->...qp", vec, vec, signs)
    assert np.max(np.abs(gram - 1.0)) <= 1e-12
    assert np.max(np.abs(np.einsum("...qa,...ja,a->...qj", vec, md.tangents, signs))) <= 1e-12


def composed_second_derivatives(r, grid):
    """d^2 r from stencils on r for every (j, k), j <= k, mirrored: the oracle for second_derivatives."""
    nd = grid.ndim
    d2 = np.empty(grid.counts + (nd, nd) + r.shape[nd:])
    for j in range(nd):
        for k in range(j, nd):
            if j == k:
                val = finite_difference(r, grid, j, order=2)
            else:
                val = finite_difference(finite_difference(r, grid, j), grid, k)
            d2[..., j, k, :] = d2[..., k, j, :] = val
    return d2


def _tangent_stack(r, grid):
    return np.stack([finite_difference(r, grid, j) for j in range(grid.ndim)], axis=-2)


@pytest.mark.parametrize("counts", [(3, 7), (9, 5), (5, 4, 3), (3, 6, 4)])
def test_second_derivatives_bitwise_equal_to_composed_stencils(counts):
    rng = np.random.default_rng(sum(counts))
    g = build_grid([(0, 1.0 + 0.3 * a) for a in range(len(counts))], counts)
    r = rng.standard_normal(g.counts + (4,))
    assert np.array_equal(second_derivatives(r, _tangent_stack(r, g), g), composed_second_derivatives(r, g))


def test_build_geometry_d2r_bitwise_equal_to_composed_stencils():
    g = build_grid([(0, 2), (0, 1)], [3, 7])
    f = presets.perturbed_flat(g, shear_amp=0.06)
    assert np.array_equal(build_geometry(f, g).d2r, composed_second_derivatives(f.r, g))
    g, f = sphere_setup(9)
    assert np.array_equal(build_geometry(f, g).d2r, composed_second_derivatives(f.r, g))


@pytest.mark.parametrize("count", [3, 4, 5, 7])
def test_second_derivatives_adjoint_dot_product(count):
    rng = np.random.default_rng(count)
    g = build_grid([(0, 1), (0, 2), (0, 1)], [count, 5, 4])
    for _ in range(3):
        x = rng.standard_normal(g.counts + (2,))
        t = _tangent_stack(x, g)
        d2 = second_derivatives(x, t, g)
        y_t, y_d2 = rng.standard_normal(t.shape), rng.standard_normal(d2.shape)
        adj = _second_derivatives_adjoint(y_t, y_d2, g)
        assert adj.shape == x.shape
        lhs, rhs = np.vdot(t, y_t) + np.vdot(d2, y_d2), np.vdot(x, adj)
        scale = np.hypot(np.linalg.norm(t), np.linalg.norm(d2)) * np.hypot(np.linalg.norm(y_t), np.linalg.norm(y_d2))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_christoffel_flat_zero():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    geom = build_geometry(f, g)
    assert np.max(np.abs(geom.gamma)) == 0.0


def test_christoffel_cylinder_flat_connection():
    g, f = cylinder_setup(33)
    geom = build_geometry(f, g)
    h = g.spacings[1]
    assert np.max(np.abs(geom.gamma)) < 2.0 * h**2


def test_christoffel_sphere_analytic():
    g, f = sphere_setup(33)
    geom = build_geometry(f, g)
    u1 = g.coordinates[..., 1]
    # frozen from the tangential-projection definition on the round sphere
    err122 = np.abs(geom.gamma[..., 1, 2, 2] + np.sin(u1) * np.cos(u1))
    err212 = np.abs(geom.gamma[..., 2, 1, 2] - np.cos(u1) / np.sin(u1))
    assert err122.max() < 5e-3
    assert err212.max() < 5e-3
    # spatial block entries that vanish on the sphere
    assert np.abs(geom.gamma[..., 1, 1, 1]).max() < 5e-3
    # symmetry in the lower pair is exact by construction
    assert np.array_equal(geom.gamma, np.swapaxes(geom.gamma, -2, -1))


def test_fundamental_form_flat_zero():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    geom = build_geometry(f, g)
    assert np.max(np.abs(geom.b)) == 0.0


def test_fundamental_form_cylinder():
    g, f = cylinder_setup(33)
    geom = build_geometry(f, g)
    assert np.max(np.abs(geom.b[..., 1, 1] + 1.0 / RHO)) < 5e-3
    assert np.max(np.abs(geom.b[..., 0, 0])) < 1e-12
    assert np.max(np.abs(geom.b[..., 0, 1])) < 1e-12


def test_fundamental_form_sphere_proportional_to_metric():
    g, f = sphere_setup(33)
    geom = build_geometry(f, g)
    md = geom.metric
    want = -(1.0 / RHO) * md.g[..., 1:, 1:]
    assert np.max(np.abs(geom.b[..., 1:, 1:] - want)) < 2e-2
    assert np.max(np.abs(geom.b - np.swapaxes(geom.b, -2, -1))) < 1e-12


def test_fundamental_form_requires_unit_normal():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    f.n *= 2.0
    geom = build_geometry(f, g)  # lenient path works
    assert geom.b.shape == g.counts + (2, 2)
    d2r = geom.d2r
    with pytest.raises(ValueError, match="not unit"):
        second_fundamental_form(d2r, f.n, geom.metric)
    f.n /= 2.0
    f.n[2, 3, 1] = np.nan
    with pytest.raises(NonUnitNormalError, match=r"^normal is not unit at node \(2, 3\) \(n.n = nan\)$"):
        second_fundamental_form(d2r, f.n, geom.metric)


@pytest.mark.parametrize("setup", [cylinder_setup, sphere_setup])
def test_fundamental_form_of_a_unit_normal_is_the_cache_s(setup):
    g, f = setup(9)
    geom = build_geometry(f, g)
    b, b_up = second_fundamental_form(geom.d2r, f.n, geom.metric)
    assert np.array_equal(b, geom.b) and np.array_equal(b_up, geom.b_up)


@pytest.mark.parametrize("setup", [cylinder_setup, sphere_setup, perturbed_flat_setup])
def test_a_cache_built_without_flags_forms_riemann_and_frame_on_first_read(setup):
    g, f = setup()
    flagged = build_geometry(f, g, with_riemann=True, with_frame=True)
    plain = build_geometry(f, g)
    assert "riemann" not in vars(plain) and "frame" not in vars(plain)
    assert np.array_equal(plain.riemann, flagged.riemann) and plain.riemann is plain.riemann
    assert np.array_equal(plain.frame.vectors, flagged.frame.vectors) and plain.frame is plain.frame
    assert np.array_equal(plain.b, flagged.b) and np.array_equal(plain.b_up, flagged.b_up)
    assert gauss_residual(plain.riemann, plain.b, plain.b_up) == gauss_residual(flagged.riemann, flagged.b, flagged.b_up)
    got = weingarten_residual(f, g, plain.b_up, plain.metric, plain.frame)
    want = weingarten_residual(f, g, flagged.b_up, flagged.metric, flagged.frame)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])


def test_riemann_flat_zero():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    geom = build_geometry(f, g, with_riemann=True)
    assert np.max(np.abs(geom.riemann)) == 0.0


def test_riemann_sphere_value_and_antisymmetry():
    g, f = sphere_setup(33)
    geom = build_geometry(f, g, with_riemann=True)
    u1 = g.coordinates[..., 1]
    # R^1_{212} = -sin^2(u1) in the curvature convention used here (derived
    # by evaluating the defining formula on the round-sphere connection).
    got = geom.riemann[..., 1, 2, 1, 2]
    assert np.max(np.abs(got + np.sin(u1) ** 2)) < 3e-2
    swapped = np.swapaxes(geom.riemann, -3, -2)
    assert np.max(np.abs(geom.riemann + swapped)) <= 1e-10


def test_gauss_residual_flat_exact():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    geom = build_geometry(f, g, with_riemann=True)
    assert gauss_residual(geom.riemann, geom.b, geom.b_up) == 0.0


def test_gauss_residual_cylinder_structurally_zero():
    # Static and intrinsically flat: both sides of the identity vanish to
    # rounding, independent of the spacing.
    g, f = cylinder_setup(17)
    geom = build_geometry(f, g, with_riemann=True)
    assert gauss_residual(geom.riemann, geom.b, geom.b_up) < 1e-10


def test_gauss_residual_sphere_second_order():
    res = []
    for n in (9, 17):
        g = build_grid([(0, 1), (1.0, np.pi - 1.0), (0.4, np.pi - 0.4)], [n, n, n])
        f = presets.sphere_product(g, radius=1.0)
        geom = build_geometry(f, g, with_riemann=True)
        res.append(gauss_residual(geom.riemann, geom.b, geom.b_up))
    assert 2.8 < res[0] / res[1] < 5.0


def test_weingarten_flat_exact():
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    geom = build_geometry(f, g, with_frame=True)
    res, e = weingarten_residual(f, g, geom.b_up, geom.metric, geom.frame)
    assert res == 0.0
    assert np.max(np.abs(e)) == 0.0


def test_weingarten_cylinder_second_order():
    res = []
    for n in (17, 33):
        g, f = cylinder_setup(n)
        geom = build_geometry(f, g, with_frame=True)
        r, _ = weingarten_residual(f, g, geom.b_up, geom.metric, geom.frame)
        res.append(r)
    assert 3.0 < res[0] / res[1] < 5.0


def test_normal_tangency_consequence_of_unit_length():
    g, f = cylinder_setup(33)
    from worldsheet.grid import finite_difference

    dn = np.stack([finite_difference(f.n, g, axis=j) for j in range(2)], axis=-2)
    dots = np.einsum("...ja,...a->...j", dn, f.n) - 2.0 * dn[..., 0] * 0.0
    # minkowski dot: time components vanish here, plain dot suffices
    h = g.spacings[1]
    assert np.max(np.abs(dots)) < 2.0 * h**2


def test_chart_metric_identity():
    c = 2.0
    cg = build_grid([(0, 1), (0, 1), (0, 1), (0, 1)], [3, 3, 3, 3])
    u = np.zeros(cg.counts + (4,))
    u[..., 0] = c * cg.coordinates[..., 0]
    u[..., 1:] = cg.coordinates[..., 1:]
    cm = chart_metric(make_chart(cg, u, c))
    want = np.diag([c**2, 1.0, 1.0, 1.0])
    assert np.max(np.abs(cm.U_ij - want)) < 1e-12
    assert np.max(np.abs(cm.U - c**2)) < 1e-12


def test_chart_metric_degenerate_chart():
    cg = build_grid([(0, 1), (0, 1), (0, 1), (0, 1)], [3, 3, 3, 3])
    u = np.zeros(cg.counts + (2,))
    u[..., 0] = cg.coordinates[..., 0]
    u[..., 1] = cg.coordinates[..., 1]  # independent of x_2, x_3
    cm = chart_metric(make_chart(cg, u, 1.0))
    assert np.max(np.abs(cm.U)) < 1e-12


def test_chart_metric_rescaled_axis():
    cg = build_grid([(0, 1), (0, 1), (0, 1), (0, 1)], [3, 3, 3, 3])
    u = np.zeros(cg.counts + (2,))
    u[..., 0] = cg.coordinates[..., 0]
    u[..., 1] = 2.0 * cg.coordinates[..., 1]
    cm = chart_metric(make_chart(cg, u, 1.0))
    assert np.max(np.abs(cm.U_ij[..., 1, 1] - 4.0)) < 1e-12
