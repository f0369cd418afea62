"""The reverse-mode gradient of J_K against a per-DOF finite-difference oracle.

The oracle below is the optimizer's former gradient: two full assemble_JK
calls per interior degree of freedom.  It is far too slow for descent but
independent of the backward pass, so it stays here as the reference.  The
L-BFGS two-loop direction is checked against the dense BFGS inverse update.
"""

import dataclasses
from collections import deque

import numpy as np
import pytest

from worldsheet import (
    PenaltyConfig,
    assemble_JK,
    backward_JK,
    build_geometry,
    build_grid,
    gradient_JK,
    minimize_fixed_K,
    optimizer,
    presets,
)
from worldsheet.optimizer import pack_interior


def _dof_entries(grid, n_components, kinds=("r", "phi", "n")):
    """Deterministic DOF order: r block, phi block (Re, Im), n block.

    Within a block, interior nodes run row-major; within a node, vector
    components run in index order.
    """
    interior_nodes = [tuple(idx) for idx in np.argwhere(grid.interior_mask)]
    entries = []
    if "r" in kinds:
        for node in interior_nodes:
            for comp in range(n_components):
                entries.append(("r", node, comp))
    if "phi" in kinds:
        for node in interior_nodes:
            entries.append(("phi_re", node, 0))
            entries.append(("phi_im", node, 0))
    if "n" in kinds:
        for node in interior_nodes:
            for comp in range(n_components):
                entries.append(("n", node, comp))
    return entries


def fd_gradient_JK(fields, grid, K, fd_step=1e-6, kinds=("r", "phi", "n")):
    """Central finite-difference gradient of J_K over the interior DOFs.

    Same return convention as gradient_JK: boundary entries zero, the phi
    slot carries dJ/d(Re phi) + i dJ/d(Im phi).
    """
    work = fields.copy()
    grad = fields.copy()
    for arr in (grad.r, grad.phi, grad.n, grad.r_bc, grad.phi_bc):
        arr[...] = 0.0
    for kind, node, comp in _dof_entries(grid, fields.r.shape[-1], kinds):
        if kind in ("r", "n"):
            arr, idx = getattr(work, kind), node + (comp,)
        else:
            arr, idx = work.phi, node
        old = arr[idx]
        base = old.real if kind != "phi_im" else old.imag
        h = fd_step * (1.0 + abs(base))
        delta = h if kind != "phi_im" else 1j * h
        arr[idx] = old + delta
        jp = assemble_JK(work, grid, K).total_JK
        arr[idx] = old - delta
        jm = assemble_JK(work, grid, K).total_JK
        arr[idx] = old
        d = (jp - jm) / (2.0 * h)
        if kind in ("r", "n"):
            getattr(grad, kind)[idx] = d
        elif kind == "phi_re":
            grad.phi[idx] += d
        else:
            grad.phi[idx] += 1j * d
    return grad


def _perturbed_start(preset, seed):
    rng = np.random.default_rng(seed)
    if preset == "flat":
        g = build_grid([(0, 1), (0, 1)], [5, 6])
        f = presets.flat(g, phi0=presets.normalized_phi0(g))
    elif preset == "cylinder":
        g = build_grid([(0, 1), (0, 2 * np.pi)], [5, 7])
        f = presets.cylinder(g, radius=1.0)
    else:
        g = build_grid([(0, 1), (0.8, np.pi - 0.8), (0.4, np.pi - 0.4)], [3, 5, 4])
        f = presets.sphere_product(g, radius=1.0)
    interior = g.interior_mask
    shape = f.phi[interior].shape
    f.r[interior] += 0.01 * rng.standard_normal(f.r[interior].shape)
    f.n[interior] += 0.05 * rng.standard_normal(f.n[interior].shape)
    f.phi[interior] += 0.03 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return g, f


@pytest.mark.parametrize("preset", ["flat", "cylinder", "sphere_product"])
def test_gradient_matches_fd_oracle(preset):
    g, f = _perturbed_start(preset, seed=3)
    K = 50.0
    exact = pack_interior(gradient_JK(f, g, K), g)
    oracle = pack_interior(fd_gradient_JK(f, g, K), g)
    rel = np.linalg.norm(exact - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-7, rel


def test_gradient_matches_fd_oracle_restricted_kinds():
    g, f = _perturbed_start("cylinder", seed=5)
    kinds = ("phi", "n")
    exact = gradient_JK(f, g, 10.0, kinds=kinds)
    oracle = fd_gradient_JK(f, g, 10.0, kinds=kinds)
    assert np.all(exact.r == 0.0)
    a, b = pack_interior(exact, g), pack_interior(oracle, g)
    assert np.linalg.norm(a - b) <= 1e-7 * np.linalg.norm(b)


def test_descent_all_fields_9x17_monotone():
    g = build_grid([(0, 2), (0, 1)], [9, 17])
    f = presets.perturbed_flat(
        g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True
    )
    cfg = PenaltyConfig(max_iters=30, grad_tol=1e-12, optimize_fields=("r", "phi", "n"))
    _, rec = minimize_fixed_K(f, g, 10.0, cfg)
    trace = np.array(rec.jk_trace)
    assert rec.iterations == 30
    assert rec.termination == "max_iters"
    assert np.all(np.diff(trace) <= 0.0)
    assert trace[-1] < trace[0]


def _perturbed_flat(counts):
    g = build_grid([(0, 2), (0, 1)], counts)
    f = presets.perturbed_flat(
        g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True
    )
    return g, f


@pytest.mark.parametrize("counts", [(3, 7), (9, 17)])
def test_backward_without_r_matches_full_pass(counts):
    g, f = _perturbed_flat(counts)
    geom = build_geometry(f, g)
    _, (r_full, phi_full, n_full) = backward_JK(f, g, 30.0, geom)
    _, (r_part, phi_part, n_part) = backward_JK(f, g, 30.0, geom, kinds=("phi", "n"))
    assert np.any(r_full != 0.0)
    assert np.all(r_part == 0.0) and r_part.shape == r_full.shape
    assert np.array_equal(phi_part, phi_full)
    assert np.array_equal(n_part, n_full)


@pytest.mark.parametrize("counts", [(3, 7), (9, 17)])
def test_backward_breakdown_equals_assemble(counts):
    g, f = _perturbed_flat(counts)
    geom = build_geometry(f, g)
    want = assemble_JK(f, g, 30.0, geom=geom)
    for kinds in (("r", "phi", "n"), ("phi", "n")):
        got, _ = backward_JK(f, g, 30.0, geom, kinds=kinds)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_real_phi_assigned_after_construction_keeps_the_gradient():
    # An assignment casts phi to complex, as the constructor does.
    g = build_grid([(0, 2), (0, 6)], (3, 7))
    f = presets.perturbed_flat(g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1)
    f.phi = f.phi.real
    want = presets.perturbed_flat(g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1)
    want.phi = want.phi.real + 0j
    got, want = gradient_JK(f, g, 10.0), gradient_JK(want, g, 10.0)
    for name in ("r", "phi", "n"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_integer_r_assigned_after_construction_descends_as_float_r():
    # Packing an integer r as it is would reinterpret its bytes as floats: an assignment casts it.
    g = build_grid([(0, 2), (0, 6)], (3, 7))
    f, want = presets.flat(g, phi0=0.4), presets.flat(g, phi0=0.4)
    f.r = f.r.astype(np.int64)
    assert np.array_equal(pack_interior(f, g), pack_interior(want, g))
    cfg = PenaltyConfig(max_iters=3)
    assert minimize_fixed_K(f, g, 10.0, cfg)[1] == minimize_fixed_K(want, g, 10.0, cfg)[1]


def _dense_bfgs_direction(grad, pairs):
    """-H grad with H from the dense BFGS inverse update over the pairs, oldest first.

    H_0 = (s.y / y.y) I of the newest pair; with no pairs, H = I.
    """
    eye = np.eye(grad.size)
    h = (pairs[-1][0] @ pairs[-1][1]) / (pairs[-1][1] @ pairs[-1][1]) * eye if pairs else eye
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        h = (eye - rho * np.outer(s, y)) @ h @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s)
    return -h @ grad


@pytest.mark.parametrize("n_pairs", [0, 1, 3, optimizer.MEMORY, optimizer.MEMORY + 4])
def test_two_loop_equals_dense_bfgs(n_pairs):
    # Pairs from a random SPD quadratic (y = A s); past MEMORY pairs only the
    # newest MEMORY are kept, so the oracle sees those alone.
    rng = np.random.default_rng(n_pairs)
    dim = 12
    q = rng.standard_normal((dim, dim))
    a = q @ q.T + 0.5 * np.eye(dim)
    memory = deque(maxlen=optimizer.MEMORY)
    pairs = []
    for _ in range(n_pairs):
        s = rng.standard_normal(dim)
        pairs.append((s, a @ s))
        memory.append(pairs[-1])
    grad = rng.standard_normal(dim)
    got = optimizer._lbfgs_direction(grad, memory)
    want = _dense_bfgs_direction(grad, pairs[-optimizer.MEMORY :])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert grad @ got < 0.0
