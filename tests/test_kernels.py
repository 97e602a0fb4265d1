"""Radial profiles, harmonic sampling, and the named stencils."""

import math
import tracemalloc

import numpy as np
import pytest

import eqfield as eq


def test_gaussian_profile_values():
    p = eq.gaussian(2.0)
    r = np.array([0.0, 2.0, 4.0])
    assert np.allclose(p(r), [1.0, math.exp(-1.0), math.exp(-4.0)])
    with pytest.raises(eq.KernelError):
        eq.gaussian(0.0)


@pytest.mark.parametrize("make, message", [
    (lambda: eq.gaussian(-1.0), "gaussian width must be positive and finite, got -1.0"),
    (lambda: eq.gaussian_diffusion(1.0, 0.0, 3), "gaussian_diffusion needs finite D > 0 and t > 0"),
    (lambda: eq.gaussian_diffusion(1e-300, 1e-300, 3),
     "heat kernel for D=1e-300, t=1e-300 is out of float range"),
    (lambda: eq.named_profile("cubic"),
     "unknown profile 'cubic'; library: ['gaussian', 'gaussian_diffusion', 'inverse_r', "
     "'inverse_r2', 'log_r']"),
    (lambda: eq.KernelField(eq.TensorField.zeros(eq.kernel_grid((3, 3), 1.0), 1), 0),
     "kernel l_h does not match its field"),
    (lambda: eq.KernelField(eq.TensorField.zeros(eq.Grid.centered((3, 4), 1.0), 0), 0),
     "kernel grids need odd extent per axis"),
    (lambda: eq.sample_kernel(eq.Grid((3, 3), (1.0, 1.0), (0.0, 0.0)), eq.gaussian(1.0), 0),
     "kernel grid must be centered (a voxel at r=0)"),
    (lambda: eq.kernel_grid((3, 4), 1.0), "kernel grids need odd extent per axis, got (3, 4)"),
])
def test_kernel_guards_name_what_is_wrong(make, message):
    with pytest.raises(eq.KernelError) as info:
        make()
    assert type(info.value) is eq.KernelError and str(info.value) == message


def test_greens_profile_values():
    r = np.array([1.0, 2.0])
    assert np.allclose(eq.inverse_r()(r), 1.0 / (4.0 * math.pi * r))
    assert np.allclose(eq.inverse_r2()(r), 1.0 / (4.0 * math.pi * r ** 2))
    assert np.allclose(eq.log_r()(r), -np.log(r) / (2.0 * math.pi))
    # singular profiles evaluate to 0 at the origin voxel
    assert eq.inverse_r()(np.array([0.0]))[0] == 0.0
    assert eq.inverse_r2()(np.array([0.0]))[0] == 0.0
    assert eq.log_r()(np.array([0.0]))[0] == 0.0


def test_heat_profile_values():
    D, t = 0.7, 1.3
    p = eq.gaussian_diffusion(D, t, 3)
    r = np.array([0.0, 1.0])
    norm = (4.0 * math.pi * D * t) ** -1.5
    assert np.allclose(p(r), norm * np.exp(-r ** 2 / (4.0 * D * t)))
    with pytest.raises(eq.KernelError):
        eq.gaussian_diffusion(0.7, 0.0, 3)
    with pytest.raises(eq.KernelError):
        eq.gaussian_diffusion(0.7, math.nan, 3)


def test_named_profile_lookup():
    p = eq.named_profile("gaussian", sigma=1.5)
    assert p(np.array([1.5]))[0] == pytest.approx(math.exp(-1.0))
    with pytest.raises(eq.KernelError):
        eq.named_profile("sinc")


def test_kernel_grid_is_centered_and_odd():
    kg = eq.kernel_grid((5, 5, 5), 0.5)
    assert np.allclose(kg.world(kg.center_index()), 0.0)
    with pytest.raises(eq.KernelError):
        eq.kernel_grid((4, 5, 5), 0.5)


def test_unit_harmonics():
    rhat = np.array([0.0, 0.0, 1.0])
    assert np.allclose(eq.unit_harmonic(0, rhat), 1.0)
    assert np.allclose(eq.unit_harmonic(1, rhat), rhat)
    # Y_2(zhat) is the traceless quadrupole 3 z z^T - I
    y2 = eq.matrix_from_l2(eq.unit_harmonic(2, rhat))
    assert np.allclose(y2, np.diag([-1.0, -1.0, 2.0]), atol=1e-14)
    assert np.sum(y2 * y2) == pytest.approx(6.0)


def test_vector_kernel_sampling_peak_is_bounded():
    # an l_h = 1 kernel is sampled into its unit directions in place: the
    # kernel plus scalar-sized temporaries, not a second copy of the kernel
    kgrid = eq.kernel_grid((31, 31, 31), (1.0, 1.0, 1.0))
    tracemalloc.start()
    try:
        nbytes = eq.sample_kernel(kgrid, eq.inverse_r2(), 1).field.components.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * nbytes


def test_sample_kernel_separates_radial_and_angular():
    kg = eq.kernel_grid((7, 7, 7), 1.0)
    k = eq.sample_kernel(kg, eq.gaussian(2.0), 1)
    assert k.l_h == 1
    # at offset (3,0,0) the vector kernel points along +x with R(3)
    c = tuple(int(i) for i in kg.center_index())
    v = k.field.components[:, c[0] + 3, c[1], c[2]]
    assert np.allclose(v, [math.exp(-2.25), 0.0, 0.0])
    # origin voxel of an l>0 kernel is zero (no direction defined)
    assert np.allclose(k.field.components[:, c[0], c[1], c[2]], 0.0)


def test_sampled_kernel_parity():
    kg = eq.kernel_grid((5, 5, 5), 1.0)
    even = eq.sample_kernel(kg, eq.gaussian(1.0), 0).field.components[0]
    assert np.allclose(even, even[::-1, ::-1, ::-1])  # l=0 kernels are even
    odd = eq.sample_kernel(kg, eq.gaussian(1.0), 1).field.components
    assert np.allclose(odd, -odd[:, ::-1, ::-1, ::-1])  # l=1 kernels are odd


def _same_bits(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _stacked_sample(grid, profile, l_h):
    """R(|r|) Y_l(rhat) from a stacked coordinate meshgrid, the reference
    that ``sample_kernel``'s broadcast radii must reproduce bit for bit."""
    offsets = [(np.arange(n) - c) * s
               for n, c, s in zip(grid.shape, grid.center_index(), grid.spacing)]
    pos = np.stack(np.meshgrid(*offsets, indexing="ij"))
    r = np.sqrt(np.sum(pos ** 2, axis=0))
    if l_h == 0:
        return profile(r)[None]
    rhat = np.where(r == 0.0, 0.0, pos / np.where(r == 0.0, 1.0, r))
    radial = np.where(r == 0.0, 0.0, profile(np.where(r == 0.0, 1.0, r)))
    return radial[None] * eq.unit_harmonic(l_h, rhat)


@pytest.mark.parametrize("shape,spacing,l_h", [
    ((9, 7), (0.7, 1.3), 0), ((9, 7), (0.7, 1.3), 1),
    ((7, 9, 5), (0.7, 1.1, 0.45), 0), ((7, 9, 5), (0.7, 1.1, 0.45), 1),
    ((7, 9, 5), (0.7, 1.1, 0.45), 2)])
def test_sample_kernel_matches_stacked_meshgrid(shape, spacing, l_h):
    kg = eq.kernel_grid(shape, spacing)
    for profile in (eq.gaussian(1.3), eq.inverse_r(), eq.inverse_r2(), eq.log_r(),
                    eq.gaussian_diffusion(0.7, 0.4, len(shape))):
        got = eq.sample_kernel(kg, profile, l_h).field.components
        assert _same_bits(got, _stacked_sample(kg, profile, l_h)), profile.name


def _whole_array_sample(grid, profile, l_h):
    """R(|r|) Y_l(rhat) evaluated on the whole kernel at once, from per-axis
    offsets that broadcast: the reference that the slab-by-slab
    ``sample_kernel`` must reproduce bit for bit."""
    axes = [((np.arange(n) - c) * s).reshape((n,) + (1,) * (grid.dim - 1 - a))
            for a, (n, c, s) in enumerate(zip(grid.shape, grid.center_index(), grid.spacing))]
    r = np.sqrt(sum(x ** 2 for x in axes))
    if l_h == 0:
        return profile(r)[None]
    away = r != 0.0
    radial = np.where(away, profile(np.where(away, r, 1.0)), 0.0)
    rhat = np.zeros((grid.dim,) + grid.shape)
    for x, out in zip(axes, rhat):
        np.divide(x, r, out=out, where=away)
    values = eq.unit_harmonic(l_h, rhat)
    values *= radial
    return values


def _slab_rows(shape):
    return max(1, eq.kernels.SAMPLE_SLAB_VOXELS // math.prod(shape[1:]))


# (131, 45) and (23, 41, 37) end in a partial slab, (9, 7) and (7, 9, 5) fit in
# one, and a row of (5, 67, 71) is wider than the slab cap, so each slab is one row
SLAB_SHAPES = [((131, 45), (0.7, 1.3)), ((9, 7), (0.7, 1.3)),
               ((23, 41, 37), (0.7, 1.1, 0.45)), ((7, 9, 5), (0.7, 1.1, 0.45)),
               ((5, 67, 71), (1.0, 0.5, 0.25))]


def test_slab_shapes_cover_partial_single_and_one_row_slabs():
    rows = {shape: _slab_rows(shape) for shape, _ in SLAB_SHAPES}
    assert rows[(131, 45)] < 131 and 131 % rows[(131, 45)] != 0
    assert rows[(23, 41, 37)] < 23 and 23 % rows[(23, 41, 37)] != 0
    assert rows[(9, 7)] >= 9 and rows[(7, 9, 5)] >= 7
    assert 67 * 71 > eq.kernels.SAMPLE_SLAB_VOXELS and rows[(5, 67, 71)] == 1


def _with_orders(shapes):
    return [(shape, spacing, l_h) for shape, spacing in shapes
            for l_h in ((0, 1) if len(shape) == 2 else (0, 1, 2))]


@pytest.mark.parametrize("shape,spacing,l_h", _with_orders(SLAB_SHAPES))
def test_sample_kernel_in_slabs_matches_the_whole_array(shape, spacing, l_h):
    kg = eq.kernel_grid(shape, spacing)
    # the heat kernel's support (10 sqrt(2 D t) = 2) is inside every box here
    heat = eq.gaussian_diffusion(0.5, 0.04, len(shape))
    assert heat.support < max(n // 2 * h for n, h in zip(shape, kg.spacing))
    for profile in (eq.inverse_r(), eq.inverse_r2(), eq.log_r(), heat, eq.gaussian(1.3)):
        got = eq.sample_kernel(kg, profile, l_h).field.components
        assert _same_bits(got, _whole_array_sample(kg, profile, l_h)), profile.name


SLAB_TEMPORARIES = {0: 8, 1: 8, 2: 24}   # slab-sized float arrays; l = 2 forms rhat rhat^T


@pytest.mark.parametrize("shape,spacing,l_h",
                         _with_orders(SLAB_SHAPES + [((95, 95, 95), (1.0, 1.0, 1.0))]))
def test_sample_kernel_holds_one_slab_of_temporaries(shape, spacing, l_h):
    # the output, the one-byte-per-value mask of TensorField's finiteness
    # check, and the temporaries of one slab, whatever the kernel's size
    kg = eq.kernel_grid(shape, spacing)
    slab = 8 * _slab_rows(shape) * math.prod(shape[1:])
    tracemalloc.start()
    try:
        values = eq.sample_kernel(kg, eq.inverse_r(), l_h).field.components
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + values.size + SLAB_TEMPORARIES[l_h] * slab


def test_singular_profile_zeroes_origin_without_touching_fn_output():
    r = np.array([[0.0, 0.5], [2.0, 0.0]])
    kept = r.copy()
    fn = lambda x: -np.log(x) / (2.0 * math.pi)
    ref = np.where(r == 0.0, 0.0, fn(np.where(r == 0.0, 1.0, r)))
    assert _same_bits(eq.RadialProfile(fn, singular_at_origin=True)(r), ref)
    # an fn may return its input, a view, a read-only array, a scalar or an
    # array that the caller keeps; none of them is written to
    table = np.full((2, 2), 2.0)
    frozen = np.ones((2, 2))
    frozen.setflags(write=False)
    for fn, want in ((lambda x: x, np.array([[0.0, 0.5], [2.0, 0.0]])),
                     (lambda x: x.T.T, np.array([[0.0, 0.5], [2.0, 0.0]])),
                     (lambda x: frozen, np.array([[0.0, 1.0], [1.0, 0.0]])),
                     (lambda x: 3.0, np.array([[0.0, 3.0], [3.0, 0.0]])),
                     (lambda x: table, np.array([[0.0, 2.0], [2.0, 0.0]]))):
        assert _same_bits(eq.RadialProfile(fn, singular_at_origin=True)(r), want)
    assert _same_bits(r, kept) and np.all(frozen == 1.0) and np.all(table == 2.0)


def test_unflagged_profile_infinite_at_the_origin_is_refused_for_every_order():
    # the profile alone sets the origin voxel: Y_l(0) = 0 times inf is not finite
    kg = eq.kernel_grid((5, 5, 5), 1.0)
    bare = eq.RadialProfile(lambda r: 1.0 / r)
    flagged = eq.RadialProfile(bare.fn, singular_at_origin=True)
    for l_h in (0, 1, 2):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(eq.FieldError):
            eq.sample_kernel(kg, bare, l_h)
        origin = eq.sample_kernel(kg, flagged, l_h).field.components[:, 2, 2, 2]
        assert origin.tolist() == [0.0] * len(origin)


def test_delta_stencil_identity_weight():
    g = eq.Grid.centered((5, 5), spacing=0.5)
    k = eq.delta_stencil(g)
    assert k.grid.shape == (3, 3)
    vals = k.field.components[0]
    c = tuple(int(i) for i in k.field.grid.center_index())
    assert vals[c] == pytest.approx(1.0 / g.voxel_volume)
    assert np.sum(vals != 0.0) == 1


def test_gradient_stencil_weights():
    g = eq.Grid.centered((5, 5, 5), spacing=(0.5, 1.0, 2.0))
    k = eq.gradient_stencil(g)
    assert k.grid.shape == (3, 3, 3) and k.l_h == 1
    vals = k.field.components
    vol = g.voxel_volume
    c = tuple(int(i) for i in k.field.grid.center_index())
    # conv reverses offsets, so the +h voxel carries the -1/(2h) coefficient
    for a in range(3):
        plus = list(c)
        plus[a] += 1
        w = vals[(a,) + tuple(plus)]
        assert w == pytest.approx(-1.0 / (2.0 * g.spacing[a] * vol))
    # antisymmetric under inversion
    assert np.allclose(vals, -vals[:, ::-1, ::-1, ::-1])


def test_laplacian_stencil_structure():
    g = eq.Grid.centered((9, 9), spacing=(0.5, 1.0))
    k = eq.laplacian_stencil(g)
    # 5 voxels per axis sends it down the direct path
    u = eq.TensorField.random(g, 0, np.random.default_rng(3))
    rule = eq.product_rule("scalar", 0, 0, g.dim)
    assert np.array_equal(eq.conv(u, k, rule).components,
                          eq.conv(u, k, rule, path=eq.DIRECT).components)
    vals = k.field.components[0]
    assert vals.shape == (5, 5)  # reaches +-2 voxels per axis
    assert np.sum(vals != 0.0) == 2 * g.dim + 1
    assert abs(np.sum(vals)) < 1e-12  # annihilates constants
    vol = g.voxel_volume
    # weight at +-2h per axis is 1/(2h)^2, scaled by the voxel volume split
    assert vals[4, 2] == pytest.approx(1.0 / ((2.0 * 0.5) ** 2 * vol))
    assert vals[2, 4] == pytest.approx(1.0 / ((2.0 * 1.0) ** 2 * vol))


def test_kernel_save_load_round_trip(tmp_path):
    kg = eq.kernel_grid((5, 5, 5), 0.5)
    k = eq.sample_kernel(kg, eq.inverse_r(), 1)
    path = tmp_path / "k.eqf"
    eq.save_kernel(path, k)
    back = eq.load_kernel(path)
    assert back.l_h == 1
    assert back.grid == k.grid
    assert np.array_equal(back.field.components, k.field.components)


def test_kernel_file_with_legacy_kind_token_loads(tmp_path):
    k = eq.gradient_stencil(eq.Grid.centered((5, 5)))
    path = tmp_path / "k.eqf"
    eq.write_eqf(path, k.field)
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b" kind=stencil\n" + payload)
    back = eq.load_kernel(path)
    assert back.l_h == 1
    assert np.array_equal(back.field.components, k.field.components)
    eq.save_kernel(path, back)
    assert b"kind=" not in path.read_bytes().split(b"\n", 1)[0]


def test_kernel_scaled():
    kg = eq.kernel_grid((5, 5, 5), 1.0)
    k = eq.sample_kernel(kg, eq.gaussian(1.0), 0)
    s = k.scaled(-2.5)
    assert np.allclose(s.field.components, -2.5 * k.field.components)
    assert s.grid == k.grid and s.l_h == k.l_h
