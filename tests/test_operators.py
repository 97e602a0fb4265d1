"""Named operators against closed-form oracles."""

import collections
import dataclasses
import functools
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import eqfield as eq
from eqfield.checks import PATH_TOL


def _interior(values, margin=2):
    sl = (slice(None),) + (slice(margin, -margin),) * (values.ndim - 1)
    return values[sl]


def _polynomial_scalar(g):
    x = g.coords()
    f = 2.0 * x[0] - x[1] + 0.75 * x[0] * x[1]
    if g.dim == 3:
        f = f + 0.5 * x[2] ** 2
    return eq.TensorField.from_scalar(g, f)


def test_grad_exact_on_polynomials():
    # central differences are exact through quadratics
    g = eq.Grid.centered((9, 9, 9), spacing=0.5)
    x = g.coords()
    u = _polynomial_scalar(g)
    v = eq.grad(u)
    assert v.l == 1
    expect = [2.0 + 0.75 * x[1], -1.0 + 0.75 * x[0], x[2]]
    for a in range(3):
        assert np.allclose(_interior(v.components)[a], _interior(np.stack(expect))[a],
                           atol=1e-12)


def test_div_exact_on_linear_field():
    g = eq.Grid.centered((7, 7, 7), spacing=0.5)
    x = g.coords()
    v = eq.TensorField.zeros(g, 1)
    v.components[0] = x[0]
    v.components[1] = 2.0 * x[1]
    v.components[2] = 3.0 * x[2] + 0.2 * x[0]
    out = eq.div(v)
    assert out.l == 0
    assert np.allclose(_interior(out.components), 6.0, atol=1e-12)


def test_curl_sign_oracle():
    # curl of (-y, x, 0) is (0, 0, 2): pins the orientation, not just magnitude
    g = eq.Grid.centered((7, 7, 7), spacing=0.5)
    x = g.coords()
    v = eq.TensorField.zeros(g, 1)
    v.components[0] = -x[1]
    v.components[1] = x[0]
    out = eq.curl(v)
    inner = _interior(out.components)
    assert np.allclose(inner[0], 0.0, atol=1e-12)
    assert np.allclose(inner[1], 0.0, atol=1e-12)
    assert np.allclose(inner[2], 2.0, atol=1e-12)


def test_curl_2d_is_the_scalar_rot():
    g = eq.Grid.centered((7, 7), spacing=0.5)
    x = g.coords()
    v = eq.TensorField.zeros(g, 1)
    v.components[0] = -x[1]
    v.components[1] = x[0]
    out = eq.curl(v)
    assert out.l == 0
    assert np.allclose(_interior(out.components), 2.0, atol=1e-12)


def test_laplacian_exact_on_quadratic():
    g = eq.Grid.centered((9, 9, 9), spacing=0.5)
    x = g.coords()
    f = x[0] ** 2 + 2.0 * x[1] ** 2 - 0.5 * x[2] ** 2
    out = eq.laplacian(eq.TensorField.from_scalar(g, f))
    assert np.allclose(_interior(out.components), 5.0, atol=1e-11)


def test_vector_calculus_identities_random_fields():
    rng = np.random.default_rng(12)
    worst_cg = worst_dc = worst_dgl = 0.0
    for _ in range(3):
        g = eq.Grid.centered((11, 11, 11), spacing=0.8)
        f = eq.TensorField.random(g, 0, rng)
        v = eq.TensorField.random(g, 1, rng)
        gf = eq.grad(f)
        scale = gf.max_abs() / min(g.spacing)
        worst_cg = max(worst_cg, np.max(np.abs(_interior(eq.curl(gf).components))) / scale)
        dc = eq.div(eq.curl(v))
        worst_dc = max(worst_dc, np.max(np.abs(_interior(dc.components)))
                       / (v.max_abs() / min(g.spacing) ** 2))
        dg = eq.div(eq.grad(f))
        lap = eq.laplacian(f)
        worst_dgl = max(worst_dgl, np.max(np.abs(_interior(dg.components - lap.components)))
                        / np.max(np.abs(_interior(lap.components))))
    assert worst_cg < 1e-13
    assert worst_dc < 1e-13
    assert worst_dgl < 1e-13


def test_identity_operator():
    g = eq.Grid.centered((6, 6))
    u = eq.TensorField.random(g, 1, np.random.default_rng(1))
    out = eq.make_operator("identity", g).apply(u)
    assert np.array_equal(out.components, u.components)


def test_operator_cache_reuses_instances():
    g = eq.Grid.centered((6, 6, 6))
    assert eq.make_operator("grad", g) is eq.make_operator("grad", g)
    a = eq.make_operator("diffusion", g, D=0.5, t=0.25)
    b = eq.make_operator("diffusion", g, D=0.5, t=0.25)
    assert a is b
    assert a is not eq.make_operator("diffusion", g, D=0.5, t=0.5)


def test_a_recipe_sampled_with_a_non_finite_value_is_refused_before_its_transform():
    # the kernel goes to its layout unchecked by any TensorField; the layout
    # refuses it before transforming it, as a whole sample would be refused
    g = eq.Grid.centered((12, 12, 12))
    kgrid = eq.kernels.free_space_kernel_grid(g)
    profile = eq.RadialProfile(lambda r: np.where(r > 3.0, np.inf, 1.0))
    with pytest.raises(eq.FieldError):
        eq.sample_kernel(kgrid, profile, 0)
    with pytest.raises(eq.KernelError, match=r"^kernel of shape \(23, 23, 23\) has a "
                       r"non-finite value$"):
        eq.EquivariantOp("inf", g, lambda out=None: eq.sample_kernel(kgrid, profile, 0, out),
                         "scalar", boundary=eq.ZERO)


def test_make_operator_validation():
    g = eq.Grid.centered((6, 6, 6))
    with pytest.raises(KeyError):
        eq.make_operator("hessian", g)
    with pytest.raises(TypeError):
        eq.make_operator("diffusion", g)  # D and t are required
    with pytest.raises(eq.KernelError):
        eq.make_operator("diffusion", g, D=-1.0, t=1.0)
    with pytest.raises(eq.RuleError):
        eq.make_operator("grad", g).apply(eq.TensorField.random(g, 1, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# Green's functions


def test_point_charge_potential_3d():
    # kernel values are exact lattice samples, so a unit point charge
    # reproduces 1/(4 pi r) to rounding
    g = eq.Grid.centered((17, 17, 17))
    rho = eq.TensorField.zeros(g, 0)
    c = tuple(int(i) for i in g.center_index())
    rho.components[(0,) + c] = 1.0
    phi = eq.inverse_laplacian(rho)
    x = g.coords()
    r = np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
    mask = r > 0.5
    expect = 1.0 / (4.0 * math.pi * r[mask])
    assert np.allclose(phi.components[0][mask], expect, rtol=1e-13)
    # regularized self-energy voxel, up to spectral-path rounding
    assert abs(phi.components[0][c]) < 1e-14 * phi.max_abs()


def test_point_charge_potential_2d():
    g = eq.Grid.centered((17, 17), spacing=0.5)
    rho = eq.TensorField.zeros(g, 0)
    c = tuple(int(i) for i in g.center_index())
    rho.components[(0,) + c] = 1.0
    phi = eq.inverse_laplacian(rho)
    x = g.coords()
    r = np.sqrt(x[0] ** 2 + x[1] ** 2)
    mask = r > 0.25
    expect = -np.log(r[mask]) / (2.0 * math.pi) * g.voxel_volume
    assert np.allclose(phi.components[0][mask], expect, rtol=1e-12, atol=1e-14)


def test_point_charge_field_3d():
    g = eq.Grid.centered((17, 17, 17))
    rho = eq.TensorField.zeros(g, 0)
    c = tuple(int(i) for i in g.center_index())
    rho.components[(0,) + c] = 2.0  # charge 2 checks linear scaling too
    E = eq.gauss_law(rho)
    assert E.l == 1
    x = g.coords()
    r = np.sqrt(sum(xi ** 2 for xi in x))
    mask = r > 0.5
    for a in range(3):
        expect = 2.0 * x[a][mask] / (4.0 * math.pi * r[mask] ** 3)
        assert np.allclose(E.components[a][mask], expect, rtol=1e-12, atol=1e-16)


def test_gauss_law_is_3d_only():
    with pytest.raises(eq.RuleError):
        eq.make_operator("gauss_law", eq.Grid.centered((9, 9)))


def test_superposition_of_charges():
    g = eq.Grid.centered((15, 15, 15))
    r1 = eq.TensorField.zeros(g, 0)
    r2 = eq.TensorField.zeros(g, 0)
    r1.components[0, 5, 7, 7] = 1.0
    r2.components[0, 9, 7, 7] = -1.0
    both = eq.TensorField(g, 0, r1.components + r2.components)
    lhs = eq.inverse_laplacian(both).components
    rhs = eq.inverse_laplacian(r1).components + eq.inverse_laplacian(r2).components
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_field_is_minus_grad_potential_far_field():
    # two discretizations of the same physics: -grad(inverse_laplacian) vs
    # the direct Gauss kernel; they agree away from sources and edges
    g = eq.Grid.centered((33, 33, 33))
    rng = np.random.default_rng(23)
    rho = eq.TensorField.zeros(g, 0)
    for _ in range(4):
        idx = tuple(rng.integers(12, 21, size=3))
        rho.components[(0,) + idx] = 0.5 + rng.random()  # same sign: no null surfaces
    E_pair = eq.grad(eq.inverse_laplacian(rho))
    E_pair = eq.TensorField(g, 1, -E_pair.components)
    E_direct = eq.gauss_law(rho)
    norm_direct = eq.field_norm(E_direct).components[0]
    diff = eq.field_norm(eq.TensorField(g, 1, E_pair.components - E_direct.components))
    x = g.coords()
    far = np.ones(g.shape, dtype=bool)
    for idx in zip(*np.nonzero(rho.components[0])):
        p = g.world(idx)
        r = np.sqrt(sum((x[a] - p[a]) ** 2 for a in range(3)))
        far &= r >= 5.0
    inner = np.zeros(g.shape, dtype=bool)
    inner[4:-4, 4:-4, 4:-4] = True
    mask = far & inner
    rel = diff.components[0][mask] / norm_direct[mask]
    assert np.max(rel) < 0.05  # measured ~0.03 across seeds
    assert np.median(rel) < 0.01


def test_div_of_gauss_field_recovers_density():
    # the sampled Coulomb kernel cannot carry the lattice delta through the
    # wide divergence at the source voxel itself; away from it the density
    # comes back cleanly
    g = eq.Grid.centered((33, 33, 33))
    rho = eq.TensorField.zeros(g, 0)
    rho.components[0, 16, 16, 16] = 1.0
    back = eq.div(eq.gauss_law(rho))
    err = np.abs(back.components - rho.components)[0]
    x = g.coords()
    r = np.sqrt(sum(xi ** 2 for xi in x))
    mask = r >= 2.5
    mask[:2] = mask[-2:] = False
    mask[:, :2] = mask[:, -2:] = False
    mask[:, :, :2] = mask[:, :, -2:] = False
    assert np.max(err[mask]) < 0.005 * np.max(np.abs(rho.components))


# ---------------------------------------------------------------------------
# diffusion


def test_heat_kernel_point_source():
    D, t = 0.8, 2.0
    g = eq.Grid.centered((21, 21, 21))
    u = eq.TensorField.zeros(g, 0)
    c = tuple(int(i) for i in g.center_index())
    u.components[(0,) + c] = 1.0 / g.voxel_volume  # unit mass
    out = eq.diffusion(u, D, t)
    x = g.coords()
    r2 = sum(xi ** 2 for xi in x)
    expect = (4.0 * math.pi * D * t) ** -1.5 * np.exp(-r2 / (4.0 * D * t))
    # discrete mass normalization shifts the profile by a smooth factor only
    ratio = out.components[0][c] / expect[c]
    assert abs(ratio - 1.0) < 0.02
    assert np.allclose(out.components[0], expect * ratio, rtol=1e-10, atol=1e-15)


def test_diffusion_conserves_mass_periodic():
    g = eq.Grid.centered((16, 16), boundary=eq.PERIODIC)
    rng = np.random.default_rng(31)
    u = eq.TensorField.random(g, 0, rng)
    m0 = np.sum(u.components) * g.voxel_volume
    out = eq.diffusion(u, 0.7, 1.3)
    m1 = np.sum(out.components) * g.voxel_volume
    assert abs(m1 - m0) < 1e-12 * max(1.0, abs(m0))


def test_diffusion_short_time_identity_on_smooth_field():
    g = eq.Grid.centered((17, 17, 17), boundary=eq.PERIODIC)
    x = g.coords()
    blob = np.exp(-sum(xi ** 2 for xi in x) / (2.0 * 3.0 ** 2))
    u = eq.TensorField.from_scalar(g, blob)
    out = eq.diffusion(u, 1.0, 1e-4)
    rel = np.max(np.abs(out.components - u.components)) / u.max_abs()
    assert rel < 0.05


def test_diffusion_peak_decays():
    g = eq.Grid.centered((17, 17, 17))
    u = eq.TensorField.zeros(g, 0)
    u.components[0, 8, 8, 8] = 1.0
    peaks = [eq.diffusion(u, 1.0, t).max_abs() for t in (0.5, 1.0, 2.0)]
    assert peaks[0] > peaks[1] > peaks[2]
    # far-field peak scales like t^(-3/2)
    assert peaks[1] / peaks[2] == pytest.approx(2.0 ** 1.5, rel=0.1)


def test_diffusion_validates_parameters():
    g = eq.Grid.centered((9, 9))
    u = eq.TensorField.zeros(g, 0)
    with pytest.raises(eq.KernelError):
        eq.diffusion(u, -1.0, 1.0)
    with pytest.raises(eq.KernelError):
        eq.diffusion(u, 1.0, 0.0)
    with pytest.raises(eq.KernelError):
        eq.diffusion(u, 1.0, math.nan)
    # in 3d, t=1e300 underflows the heat kernel's mass and D*t=1e-600 its width
    u3 = eq.TensorField.zeros(eq.Grid.centered((5, 5, 5)), 0)
    # and D*t past float range makes an infinite support radius, which the
    # kernel grid clips to the free-space box
    for D, t in ((1.0, math.inf), (math.inf, 1.0), (1.0, 1e300), (1e-300, 1e-300),
                 (1e200, 1e200), (1e300, 10.0)):
        with pytest.raises(eq.KernelError):
            eq.diffusion(u3, D, t)
    out = eq.diffusion(u, 1.0, 1.0)
    assert np.allclose(out.components, 0.0)


def _heat_half_widths(g, D, t):
    # the heat kernel's box: its support ball of radius 10 sqrt(2 D t),
    # clipped on each axis to the free-space extent
    R = 10.0 * math.sqrt(2.0 * D * t)
    return [min(n - 1, math.ceil(R / h)) for n, h in zip(g.shape, g.spacing)]


def _heat_cases():
    for shape, spacing, D, t, taps in [
        ((9, 8, 7), 1.0, 1.0, 0.5, None),             # R = 10 >= (N - 1) h
        ((12, 10, 9), (0.5, 1.0, 2.0), 1.0, 0.5, None),  # clipped on two axes only
        ((48, 48, 48), 1.0, 1.0, 0.5, None),          # the greens benchmark's
        ((32, 32, 32), 1.0, 0.5, 0.8, None),          # the cli's
        ((16, 16, 16), 1.0, 1.0, 0.005, 7),
        ((16, 16, 16), 1.0, 1.0, 0.02, 33),
        ((10, 7), 1.0, 1.0, 0.5, None),
        ((48, 48), 1.0, 1.0, 0.5, None),
        ((32, 32), 1.0, 0.5, 0.8, None),
        ((16, 16), 1.0, 1.0, 0.005, 5),
        ((16, 16), 1.0, 1.0, 0.02, 13),
    ]:
        for boundary in eq.BOUNDARIES:
            yield pytest.param(eq.Grid.centered(shape, spacing, boundary), D, t, taps,
                               id=f"{'x'.join(map(str, shape))}-t{t:g}-{boundary}")


@pytest.mark.parametrize("g, D, t, taps", _heat_cases())
def test_heat_kernel_is_sampled_on_its_support_ball(g, D, t, taps):
    op = eq.diffusion_op(g, D, t)
    profile = eq.gaussian_diffusion(D, t, g.dim)
    R = 10.0 * math.sqrt(2.0 * D * t)
    assert profile.support == R
    half = _heat_half_widths(g, D, t)
    assert op.kernel.grid.shape == tuple(2 * c + 1 for c in half)
    # the operator's kernel is its support sample renormalized to unit mass
    raw = eq.sample_kernel(op.kernel.grid, profile, 0).field.components
    mass = float(np.sum(raw)) * g.voxel_volume
    assert np.array_equal(op.kernel.field.components, raw * (1.0 / mass))
    # exact zeros outside the ball; inside, the bits of the untruncated
    # sample on the whole (2N-1)-wide box at the same offsets
    full_kernel = eq.sample_kernel(eq.kernels.free_space_kernel_grid(g),
                                   eq.RadialProfile(profile.fn, profile.name,
                                                    profile.singular_at_origin, math.inf), 0)
    raw_full = full_kernel.field.components
    crop = (slice(None),) + tuple(slice(n - 1 - c, n + c) for n, c in zip(g.shape, half))
    offsets = np.meshgrid(*[(np.arange(2 * c + 1) - c) * h for c, h in zip(half, g.spacing)],
                          indexing="ij")
    inside = (np.sqrt(sum(x ** 2 for x in offsets)) <= R)[None]
    assert np.all(raw[~inside] == 0.0)
    assert np.array_equal(raw[inside], raw_full[crop][inside])
    # outputs as those of the full-box operator
    full_mass = float(np.sum(raw_full)) * g.voxel_volume
    full = eq.EquivariantOp("diffusion", g, full_kernel.scaled(1.0 / full_mass), "scalar")
    u = eq.TensorField.random(g, 0, np.random.default_rng(17))
    out, ref = op.apply(u).components, full.apply(u).components
    scale = np.max(np.abs(ref))
    if taps is None:
        assert op.spectrum is not None
        assert np.max(np.abs(out - ref)) <= 1e-14 * scale
    else:
        # short times go direct, with taps only inside the ball
        assert op.spectrum is None
        assert np.count_nonzero(op.kernel.field.components) == taps
        forced = op.apply(u, path=eq.FOURIER).components
        assert np.max(np.abs(out - forced)) <= PATH_TOL * scale
        assert np.max(np.abs(out - ref)) <= PATH_TOL * scale


# ---------------------------------------------------------------------------
# operator plumbing


def test_registry_covers_named_operators():
    assert set(eq.REGISTRY) == {"identity", "grad", "div", "curl", "laplacian",
                                "inverse_laplacian", "gauss_law", "diffusion"}


def test_greens_operators_force_zero_boundary():
    g = eq.Grid.centered((9, 9, 9), boundary=eq.PERIODIC)
    op = eq.make_operator("inverse_laplacian", g)
    assert op.boundary == eq.ZERO
    assert eq.make_operator("gauss_law", g).boundary == eq.ZERO


def test_module_functions_match_operator_apply():
    g = eq.Grid.centered((9, 9, 9))
    u = eq.TensorField.random(g, 0, np.random.default_rng(2))
    via_op = eq.make_operator("grad", g).apply(u)
    assert np.array_equal(eq.grad(u).components, via_op.components)


def test_operators_are_frozen():
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_operator("laplacian", g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.kernel = eq.delta_stencil(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.path = eq.FOURIER
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.kernel.l_h = 1
    nop = eq.make_neural_op(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        nop.grid = eq.Grid.centered((7, 7, 7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        nop.param.gaussians = ()
    assert eq.make_neural_op(g) == nop and hash(eq.make_neural_op(g)) == hash(nop)


def test_a_held_kernel_cannot_be_swapped_out():
    g = eq.Grid.centered((9, 9, 9))
    u = eq.TensorField.random(g, 0, np.random.default_rng(6))
    before = eq.grad(u)
    k = eq.make_operator("grad", g).kernel
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.field.components = np.zeros_like(k.field.components)
    with pytest.raises(dataclasses.FrozenInstanceError):
        eq.gaussian(1.0).fn = np.cos   # held recipes capture their profile
    assert eq.grad(u).components.tobytes() == before.components.tobytes()
    u.components[0, 4, 4, 4] = 1.0   # a field's own array stays writable


def test_cached_kernels_are_read_only():
    g = eq.Grid.centered((9, 9, 9))
    u = eq.TensorField.random(g, 0, np.random.default_rng(5))
    before = eq.grad(u)
    with pytest.raises(ValueError):
        eq.make_operator("grad", g).kernel.field.components[...] *= 2
    assert np.array_equal(eq.grad(u).components, before.components)
    before = eq.gauss_law(u)
    with pytest.raises(ValueError):
        eq.make_operator("gauss_law", g).spectrum[...] = 0.0
    assert np.array_equal(eq.gauss_law(u).components, before.components)
    basis = eq.basis_kernels(eq.make_neural_op(g))
    assert isinstance(basis, tuple)
    for smooth in basis[:-1]:
        with pytest.raises(ValueError):
            smooth.spectrum[...] = 0.0
    with pytest.raises(ValueError):
        basis[-1].kernel.field.components[...] = 0.0


def test_path_argument_forces_one_call_only():
    g = eq.Grid.centered((9, 9, 9))
    u = eq.TensorField.random(g, 0, np.random.default_rng(3))
    op = eq.make_operator("laplacian", g)
    direct = eq.conv(u, op.kernel, eq.product_rule("scalar", 0, 0, 3), path=eq.DIRECT)
    forced = op.apply(u, path=eq.FOURIER)
    assert np.allclose(forced.components, direct.components, atol=1e-12)
    assert np.array_equal(op.apply(u).components, direct.components)


@pytest.mark.parametrize("path", ["bogus", ""])
def test_invalid_path_is_refused_before_any_kernel_is_sampled(monkeypatch, fft_calls, path):
    # only None selects the default path; anything else but direct|fourier
    # raises before the recipe samples a kernel or a transform runs
    g = eq.Grid.centered((9, 9, 9))
    u = eq.TensorField.random(g, 0, np.random.default_rng(3))
    kernel = eq.sample_kernel(eq.kernel_grid((3, 3, 3), 1.0), eq.gaussian(1.0), 0)
    ops = (eq.make_operator("inverse_laplacian", g), eq.make_operator("laplacian", g))
    sample, calls = eq.operators.sample_kernel, []
    monkeypatch.setattr(eq.operators, "sample_kernel", lambda *a: calls.append(1) or sample(*a))
    fft_calls.forward.clear()
    for call in (lambda: ops[0].apply(u, path=path), lambda: ops[1].apply(u, path=path),
                 lambda: eq.conv(u, kernel, eq.product_rule("scalar", 0, 0, 3), path=path)):
        with pytest.raises(ValueError, match="path must be"):
            call()
    assert calls == [] and fft_calls.forward == [] and fft_calls.inverse == []


def test_conv_is_an_operator_built_for_one_call():
    # the same bits as an operator built from the kernel, and nothing held
    g = eq.Grid.centered((9, 8, 7))
    u = eq.TensorField.random(g, 1, np.random.default_rng(5))
    rule = eq.product_rule("dot", 1, 1, 3)
    for width in (3, 9):
        kernel = eq.sample_kernel(eq.kernel_grid((width,) * 3, 1.0), eq.gaussian(2.0), 1)
        for boundary in eq.BOUNDARIES:
            op = eq.EquivariantOp("x", g, kernel, "dot", boundary)
            held = [(k, id(v)) for k, v in eq.operators._held.items()]
            for path in (None, eq.DIRECT, eq.FOURIER):
                out = eq.conv(u, kernel, rule, path=path, boundary=boundary)
                assert np.array_equal(out.components, op.apply(u, path).components)
            assert [(k, id(v)) for k, v in eq.operators._held.items()] == held
    with pytest.raises(eq.RuleError, match="input order"):
        eq.conv(eq.TensorField.zeros(g, 0), kernel, rule)
    assert not hasattr(eq.convolve, "conv")


def test_operator_rejects_field_on_another_grid():
    # a kernel built for 9^3 spans too few displacements for a 17^3 field
    op = eq.make_operator("inverse_laplacian", eq.Grid.centered((9, 9, 9)))
    u = eq.TensorField.random(eq.Grid.centered((17, 17, 17)), 0,
                              np.random.default_rng(4))
    with pytest.raises(eq.FieldError):
        op.apply(u)
    grad = eq.make_operator("grad", eq.Grid.centered((9, 9, 9)))
    with pytest.raises(eq.FieldError):
        grad.apply(eq.TensorField.zeros(eq.Grid.centered((9, 9, 9), spacing=0.5), 0))


def test_operator_refuses_a_kernel_on_another_spacing():
    # its Fourier path never meets the kernel again, so the build checks it
    g = eq.Grid.centered((9, 9, 9))
    kernel = eq.sample_kernel(eq.kernel_grid((17, 17, 17), 0.5), eq.gaussian(2.0), 0)
    with pytest.raises(eq.FieldError, match="spacing differ"):
        eq.EquivariantOp("x", g, kernel, "scalar")
    with pytest.raises(eq.FieldError, match="dimensions differ"):
        eq.EquivariantOp("x", eq.Grid.centered((9, 9)), kernel, "scalar")


def test_second_apply_transforms_only_the_input(fft_calls):
    g = eq.Grid.centered((9, 8, 7))
    u = eq.TensorField.random(g, 0, np.random.default_rng(6))
    for name in ("inverse_laplacian", "gauss_law"):
        first = eq.make_operator(name, g).apply(u)
        fft_calls.forward.clear()
        second = eq.make_operator(name, g).apply(u)
        assert len(fft_calls.forward) == 1
        assert np.array_equal(first.components, second.components)


def _registry_ops():
    for dim, shape in ((3, (9, 8, 7)), (2, (10, 7))):
        for boundary in eq.BOUNDARIES:
            g = eq.Grid.centered(shape, boundary=boundary)
            for name, build in eq.REGISTRY.items():
                if name == "gauss_law" and dim == 2:
                    continue
                params = {"D": 1.0, "t": 0.5} if name == "diffusion" else {}
                yield pytest.param(g, name, build, params, id=f"{name}-{dim}d-{boundary}")


@pytest.mark.parametrize("g, name, build, params", _registry_ops())
def test_operator_holds_what_it_applies_with(g, name, build, params):
    # a Fourier operator holds its spectrum alone, and a forced direct
    # apply samples its kernel again without keeping it
    op = build(g, **params)
    held_before = dict(vars(op))   # before anything reads the operator
    direct = eq.convolve.default_path(op.kernel) == eq.DIRECT
    assert (op.spectrum is None) == direct
    assert op.nbytes == (op.kernel.nbytes if direct else op.spectrum.nbytes)
    spectrum = None if direct else op.spectrum.copy()
    l_u = 1 if name in ("div", "curl") else 0
    u = eq.TensorField.random(g, l_u, np.random.default_rng(9))
    for path in (None, eq.DIRECT, eq.FOURIER):
        op.apply(u, path=path)
        assert vars(op).keys() == held_before.keys()
        assert all(vars(op)[k] is v for k, v in held_before.items())
        assert direct or np.array_equal(op.spectrum, spectrum)


def _fresh_kernel(g, name, params):
    # the kernel as the REGISTRY function samples it, sampled here again
    if name == "diffusion":
        profile = eq.gaussian_diffusion(params["D"], params["t"], g.dim)
        raw = eq.sample_kernel(eq.kernels.free_space_kernel_grid(g, profile.support),
                               profile, 0)
        return raw.scaled(1.0 / (float(np.sum(raw.field.components)) * g.voxel_volume))
    profile, l_h = {"inverse_laplacian": (eq.inverse_r() if g.dim == 3 else eq.log_r(), 0),
                    "gauss_law": (eq.inverse_r2(), 1)}[name]
    return eq.sample_kernel(eq.kernels.free_space_kernel_grid(g), profile, l_h)


def _reachable(op):
    # (arrays, values): every ndarray the operator reaches through its
    # attributes, the arguments of a partial, the closure of a function and
    # the attributes of each eqfield value on the way, and those values
    seen, stack, arrays, values = set(), list(vars(op).values()), [], []
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            arrays.append(v)
        elif isinstance(v, functools.partial):
            stack += [*v.args, *v.keywords.values()]
        elif inspect.isfunction(v):
            stack += [c.cell_contents for c in v.__closure__ or ()]
        elif type(v).__module__.startswith("eqfield."):
            values.append(v)
            stack += list(vars(v).values())
        elif isinstance(v, (tuple, list)):
            stack += list(v)
    return arrays, values


def _fourier_registry_ops():
    for p in _registry_ops():
        g, name, build, params = p.values
        if name in ("inverse_laplacian", "gauss_law", "diffusion"):
            yield p


@pytest.mark.parametrize("g, name, build, params", _fourier_registry_ops())
def test_fourier_operator_rebuilds_its_kernel_to_the_same_bits(g, name, build, params):
    op = build(g, **params)
    assert op.spectrum is not None
    fresh = _fresh_kernel(g, name, params)
    assert np.array_equal(op.kernel.field.components, fresh.field.components)
    assert op.kernel.l_h == fresh.l_h and op.kernel.grid == fresh.grid
    u = eq.TensorField.random(g, 0, np.random.default_rng(21))
    rule = eq.product_rule("scalar", 0, fresh.l_h, g.dim)
    assert np.array_equal(op.apply(u, path=eq.DIRECT).components,
                          eq.conv(u, fresh, rule, path=eq.DIRECT, boundary=op.boundary).components)
    assert np.array_equal(op.apply(u).components,
                          eq.conv(u, fresh, rule, boundary=op.boundary).components)
    # no array the operator reaches has the kernel's shape: it reaches the
    # spectrum alone, through its grids and the recipe's profile
    arrays, values = _reachable(op)
    assert len(arrays) == 1 and arrays[0] is op.spectrum
    assert sorted(type(v).__name__ for v in values) == ["Grid", "Grid", "RadialProfile"]
    assert all(a.shape[-g.dim:] != fresh.grid.shape for a in arrays)


@pytest.mark.parametrize("g, name, build, params", _fourier_registry_ops())
def test_operator_recipe_looks_up_its_sampler_when_it_runs(monkeypatch, g, name, build,
                                                           params):
    # an operator built while the sampler is wrapped does not keep the wrapper
    sample, calls = eq.operators.sample_kernel, []
    with monkeypatch.context() as m:
        m.setattr(eq.operators, "sample_kernel", lambda *a: calls.append(1) or sample(*a))
        op = build(g, **params)
    assert calls == [1]
    assert np.array_equal(op.kernel.field.components,
                          _fresh_kernel(g, name, params).field.components)
    assert calls == [1]


def test_degenerate_heat_kernel_fails_when_the_operator_is_built():
    # (4 pi D t)^(-3/2) underflows to 0, so the sampled kernel has no mass
    g = eq.Grid.centered((9, 9, 9))
    with pytest.raises(eq.KernelError, match="discrete mass"):
        eq.make_operator("diffusion", g, D=1e308, t=1e308)
    assert not any(k[0] == "diffusion" and dict(k[2]) == {"D": 1e308, "t": 1e308}
                   for k in eq.operators._held if isinstance(k, tuple))


@pytest.mark.parametrize("name, shape, boundary", [
    ("inverse_laplacian", (9, 8, 7), eq.ZERO), ("inverse_laplacian", (48, 48, 48), eq.ZERO),
    ("inverse_laplacian", (10, 7), eq.ZERO), ("inverse_laplacian", (256, 256), eq.ZERO),
    ("gauss_law", (9, 8, 7), eq.ZERO), ("gauss_law", (32, 32, 32), eq.ZERO),
    ("diffusion", (9, 8, 7), eq.ZERO), ("diffusion", (9, 8, 7), eq.PERIODIC),
    ("diffusion", (10, 7), eq.PERIODIC),
    ("diffusion", (48, 48, 48), eq.ZERO), ("diffusion", (48, 48, 48), eq.PERIODIC),
])
def test_green_operator_bytes_follow_from_the_grid_shape(name, shape, boundary):
    # one real half spectrum per component, of rows 0 ... W0//2 of the first
    # axis, at the work shape W of a kernel (2N-1) wide or for heat
    # 2 min(N-1, ceil(R/h)) + 1; the kernel is not held
    g = eq.Grid.centered(shape, boundary=boundary)
    op = eq.make_operator(name, g, **({"D": 1.0, "t": 0.5} if name == "diffusion" else {}))
    ncomp = 3 if name == "gauss_law" else 1
    half = _heat_half_widths(g, 1.0, 0.5) if name == "diffusion" else [n - 1 for n in shape]
    k = tuple(2 * c + 1 for c in half)
    w = eq.convolve.work_shape(shape, k, op.boundary)
    assert op.nbytes == 8 * ncomp * (w[0] // 2 + 1) * math.prod(w[1:-1]) * (w[-1] // 2 + 1)


def _work_arrays_and_slabs(op):
    # the spectrum, one half-complex work array per kernel component, in whose
    # real view the kernel is laid out and which is transformed in place, and
    # four slabs' worth of sampling temporaries, ufunc buffers and the
    # real-axis scratch; no kernel-sized array, and no other work-sized one
    w = eq.convolve.work_shape(op.grid.shape, op.kernel_grid.shape, op.boundary)
    half = math.prod(w[:-1]) * (w[-1] // 2 + 1)
    return (op.nbytes + op.spectrum.shape[0] * 16 * half
            + 4 * 8 * eq.kernels.SAMPLE_SLAB_VOXELS)


def _heat_24_periodic(op):
    # the 21^3 heat kernel (R = 10 at D t = 0.5) is narrower than the 24^3
    # work array; the 13 x 24 x 13 real spectrum keeps half its first and
    # last axes
    assert op.nbytes == 8 * 13 * 24 * 13
    return _work_arrays_and_slabs(op)


@pytest.mark.parametrize("build, bound", [
    (lambda: eq.inverse_laplacian_op(eq.Grid.centered((24,) * 3)), _work_arrays_and_slabs),
    (lambda: eq.inverse_laplacian_op(eq.Grid.centered((32,) * 3)), _work_arrays_and_slabs),
    (lambda: eq.inverse_laplacian_op(eq.Grid.centered((48,) * 3)), _work_arrays_and_slabs),
    (lambda: eq.inverse_laplacian_op(eq.Grid.centered((64, 64))), _work_arrays_and_slabs),
    (lambda: eq.gauss_law_op(eq.Grid.centered((16,) * 3)), _work_arrays_and_slabs),
    (lambda: eq.diffusion_op(eq.Grid.centered((24,) * 3, boundary=eq.PERIODIC), 1.0, 0.5),
     _heat_24_periodic),
], ids=["inverse_laplacian_3d", "inverse_laplacian_32", "inverse_laplacian_48",
        "inverse_laplacian_2d", "gauss_law", "diffusion_periodic"])
def test_green_operator_build_peak_is_bounded(build, bound):
    # building an operator with its spectrum holds, at its peak, what the
    # operator keeps plus its work arrays and a few slabs, stated from the
    # grid shape: a recipe's kernel is sampled slab by slab into the work
    # array.  The 21^3 heat kernel (74 kB), sampled whole for its mass, is
    # laid out and dropped before the transform, and fits in those slabs
    tracemalloc.start()
    try:
        op = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound(op)


def test_forced_fourier_call_on_a_stencil_keeps_no_spectrum():
    g = eq.Grid.centered((9, 8, 7))
    u = eq.TensorField.random(g, 0, np.random.default_rng(8))
    op = eq.grad_op(g)
    out = op.apply(u, path=eq.FOURIER)
    assert op.spectrum is None
    rule = eq.product_rule("scalar", 0, 1, 3)
    assert np.array_equal(out.components,
                          eq.conv(u, op.kernel, rule, path=eq.FOURIER).components)


def _held_bytes():
    # every held value: an operator, or a learned basis (a tuple of operators)
    return sum(sum(k.nbytes for k in v) if isinstance(v, tuple) else v.nbytes
               for v in eq.operators._held.values())


def test_operator_cache_is_bounded_by_bytes(monkeypatch):
    g = eq.Grid.centered((10, 10, 10))
    budget = 3 * eq.diffusion_op(g, 1.0, 0.5).nbytes
    monkeypatch.setattr(eq.operators, "CACHE_BYTES", budget)
    oldest = eq.make_operator("diffusion", g, D=1.0, t=0.01)
    for t in np.linspace(0.02, 0.5, 12):
        newest = eq.make_operator("diffusion", g, D=1.0, t=float(t))
        assert _held_bytes() <= budget
    assert eq.make_operator("diffusion", g, D=1.0, t=float(t)) is newest
    assert eq.make_operator("diffusion", g, D=1.0, t=0.01) is not oldest


def test_one_budget_holds_operators_and_learned_bases(monkeypatch):
    # named operators, a learned basis and the learned operator all count
    # against the one CACHE_BYTES, and an evicted learned operator rebuilds
    # to the same bits; an apply builds no basis, so the basis is built
    # here.  The named operators, which hold their spectra alone, are built
    # on a finer grid so that together they fill it, each fitting alone
    g, fine = eq.Grid.centered((9, 9, 9)), eq.Grid.centered((13, 13, 13))
    u = eq.TensorField.random(g, 0, np.random.default_rng(13))
    learned = eq.make_neural_op(g).with_params(np.random.default_rng(14).standard_normal(11))
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    eq.basis_kernels(learned)
    expect = learned.apply(u).components
    budget = _held_bytes()   # the basis plus the learned operator
    first = learned.operator
    named = [("inverse_laplacian", {}), ("gauss_law", {})] + [
        ("diffusion", {"D": 1.0, "t": float(t)}) for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
    sizes = [eq.make_operator(n, fine, **p).nbytes for n, p in named]
    assert max(sizes) <= budget < sum(sizes)
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    monkeypatch.setattr(eq.operators, "CACHE_BYTES", budget)
    for name, params in named:
        eq.make_operator(name, fine, **params)
        assert _held_bytes() <= budget
    basis = eq.basis_kernels(learned)
    assert np.array_equal(learned.apply(u).components, expect)
    assert _held_bytes() <= budget
    for name, params in named:   # evicts the basis, then the learned operator
        eq.make_operator(name, fine, **params)
        assert _held_bytes() <= budget
    assert learned not in eq.operators._held
    assert basis not in eq.operators._held.values()
    assert np.array_equal(learned.apply(u).components, expect)
    assert _held_bytes() <= budget
    rebuilt = learned.operator
    assert rebuilt is not first and np.array_equal(rebuilt.spectrum, first.spectrum)
    assert np.array_equal(learned.apply(u, path=eq.DIRECT).components,
                          first.apply(u, path=eq.DIRECT).components)


def test_cache_budget_holds_the_greens_benchmark_operators():
    # bench/workloads.py applies these four in turn; all must stay cached,
    # and they hold their spectra alone, of half the first axis
    g48, g32 = eq.Grid.centered((48,) * 3), eq.Grid.centered((32,) * 3)
    ops = (eq.inverse_laplacian_op(g48), eq.diffusion_op(g48, 1.0, 0.5),
           eq.gauss_law_op(g32), eq.inverse_laplacian_op(eq.Grid.centered((256, 256))))
    assert sum(op.nbytes for op in ops) == 4_430_312 <= eq.operators.CACHE_BYTES
