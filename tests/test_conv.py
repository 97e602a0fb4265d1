"""Convolution semantics: brute-force oracle, paths, boundaries, rules."""

import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

import eqfield as eq
from eqfield.checks import EQUIVARIANCE_TOL, LINEARITY_TOL, PATH_TOL, compatible_rotations


def _pointwise(uval, hval, rule):
    """Independent per-voxel tensor product using explicit matrix algebra."""
    if rule.kind == "scalar":
        return uval[0] * hval if rule.l_u == 0 else hval[0] * uval
    if rule.kind == "dot":
        if rule.l_u == 1:
            return np.array([float(np.dot(uval, hval))])
        mu = eq.matrix_from_l2(uval)
        mh = eq.matrix_from_l2(hval)
        return np.array([float(np.sum(mu * mh))])
    if rule.kind == "cross":
        if len(uval) == 3:
            return np.cross(uval, hval)
        return np.array([uval[0] * hval[1] - uval[1] * hval[0]])
    if rule.kind == "matvec":
        return eq.matrix_from_l2(uval) @ hval
    raise AssertionError(rule.kind)


def _ref_conv(u, kernel, rule, boundary):
    """O(N * K) loop reference: v[p] = sum_n product(u[p - n], h[n]) * vol."""
    g = u.grid
    kg = kernel.field.grid
    kc = [int(i) for i in kg.center_index()]
    out = np.zeros((eq.components_for(rule.l_v, g.dim),) + g.shape)
    vol = g.voxel_volume
    for p in np.ndindex(g.shape):
        acc = np.zeros(out.shape[0])
        for n in np.ndindex(kg.shape):
            q = [p[a] - (n[a] - kc[a]) for a in range(g.dim)]
            if boundary == eq.PERIODIC:
                q = [q[a] % g.shape[a] for a in range(g.dim)]
            elif any(not 0 <= q[a] < g.shape[a] for a in range(g.dim)):
                continue
            uval = u.components[(slice(None),) + tuple(q)]
            hval = kernel.field.components[(slice(None),) + tuple(n)]
            acc = acc + _pointwise(uval, hval, rule) * vol
        out[(slice(None),) + tuple(p)] = acc
    return out


def _random_kernel(dim, l_h, rng, width=3):
    kg = eq.kernel_grid((width,) * dim, 1.0)
    field = eq.TensorField.random(kg, l_h, rng)
    return eq.KernelField(field=field, l_h=l_h)


def _direct_tap_by_tap(u, kernel, rule, boundary):
    """The direct path as nested loops: over taps with a non-zero component,
    then over the non-zero (m, p) entries of that tap's mix."""
    karr = kernel.field.components
    coeff = eq.rule_coefficients(rule, u.grid.dim)
    kshape, ushape = kernel.grid.shape, u.grid.shape
    upad = np.pad(u.components, [(0, 0)] + [(k // 2, (k - 1) // 2) for k in kshape],
                  mode="wrap" if boundary == eq.PERIODIC else "constant")
    out = np.zeros((coeff.shape[2],) + ushape)
    for idx in np.argwhere(np.any(karr != 0.0, axis=0)):
        mix = np.einsum("mnp,n->mp", coeff, karr[(slice(None),) + tuple(idx)])
        window = upad[(slice(None),) + tuple(slice(k - 1 - i, k - 1 - i + n)
                                             for k, i, n in zip(kshape, idx, ushape))]
        for m, p in np.argwhere(mix):
            out[p] += mix[m, p] * window[m]
    return out * u.grid.voxel_volume


ORACLE_RULES = [
    ("scalar", 0, 0, 2),
    ("scalar", 0, 1, 2),
    ("scalar", 1, 0, 3),
    ("dot", 1, 1, 3),
    ("dot", 2, 2, 3),
    ("cross", 1, 1, 2),
    ("cross", 1, 1, 3),
    ("matvec", 2, 1, 3),
    ("scalar", 1, 0, 2),
    ("dot", 1, 1, 2),
    ("scalar", 0, 0, 3),
    ("scalar", 0, 1, 3),
    ("scalar", 0, 2, 3),
    ("scalar", 2, 0, 3),
]


ORACLE_SHAPES = {2: (5, 4), 3: (4, 4, 3)}

# width 7 is wider than the field on every axis: zero-boundary taps fall
# wholly outside it and periodic taps alias onto the same voxel; "wider",
# 2N+3 for the longest axis, also passes 2N-1 on every axis, so the
# zero-boundary Fourier path crops it
ORACLE_CASES = [pytest.param(*rule, width, id="-".join(map(str, rule)) + suffix)
                for width, suffix in ((3, ""), (7, "-wide"), (None, "-wider"))
                for rule in ORACLE_RULES]


@pytest.mark.parametrize("kind,l_u,l_h,dim,width", ORACLE_CASES)
def test_conv_matches_brute_force(kind, l_u, l_h, dim, width):
    # crc32, unlike hash(), does not change with the per-process string salt
    rng = np.random.default_rng(zlib.crc32(repr((kind, l_u, l_h, dim)).encode()))
    rule = eq.product_rule(kind, l_u, l_h, dim)
    shape = ORACLE_SHAPES[dim]
    kernel = _random_kernel(dim, l_h, rng, width or 2 * max(shape) + 3)
    for boundary in eq.BOUNDARIES:
        g = eq.Grid.centered(shape, boundary=boundary)
        u = eq.TensorField.random(g, l_u, rng)
        ref = _ref_conv(u, kernel, rule, boundary)
        for path in (eq.DIRECT, eq.FOURIER):
            out = eq.conv(u, kernel, rule, path=path)
            assert out.l == rule.l_v
            assert np.allclose(out.components, ref, atol=1e-12), (boundary, path)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("width", (3, 5))
def test_conv_direct_matches_tap_by_tap_loop(dim, width):
    rng = np.random.default_rng(10 * dim + width)
    for rule in eq.supported_rules(dim):
        kg = eq.kernel_grid((width,) * dim, 1.0)
        comps = eq.TensorField.random(kg, rule.l_h, rng).components
        comps[(slice(None),) + (1,) * dim] = 0.0   # one zero tap
        kern = eq.KernelField(eq.TensorField(kg, rule.l_h, comps), rule.l_h)
        for boundary in (eq.ZERO, eq.PERIODIC):
            g = eq.Grid.centered((7, 6, 5)[:dim], 1.0, boundary=boundary)
            u = eq.TensorField.random(g, rule.l_u, rng)
            got = eq.convolve.conv_direct(u, kern, rule, boundary).components
            assert got.tobytes() == _direct_tap_by_tap(u, kern, rule, boundary).tobytes()


def test_raw_paths_are_not_exported():
    # they skip the operator's checks of kernel grid, boundary and rule
    for name in ("conv_direct", "conv_fourier"):
        assert not hasattr(eq, name) and callable(getattr(eq.convolve, name))


def test_delta_identity_exact():
    rng = np.random.default_rng(2)
    for dim, shape in ((2, (6, 7)), (3, (5, 5, 5))):
        for boundary in eq.BOUNDARIES:
            for spacing, exact in ((1.0, True), (0.7, False)):
                g = eq.Grid.centered(shape, spacing=spacing, boundary=boundary)
                delta = eq.delta_stencil(g)
                for l in (0, 1) + ((2,) if dim == 3 else ()):
                    u = eq.TensorField.random(g, l, rng)
                    rule = eq.product_rule("scalar", l, 0, dim)
                    out = eq.conv(u, delta, rule, path=eq.DIRECT)
                    if exact:  # unit volume: weight 1/vol * vol is exactly 1
                        assert np.array_equal(out.components, u.components)
                    else:
                        assert np.allclose(out.components, u.components,
                                           rtol=1e-14, atol=0.0)


def test_conv_linearity():
    rng = np.random.default_rng(3)
    g = eq.Grid.centered((6, 6, 6))
    kernel = _random_kernel(3, 1, rng)
    rule = eq.product_rule("dot", 1, 1, 3)
    u = eq.TensorField.random(g, 1, rng)
    v = eq.TensorField.random(g, 1, rng)
    lhs = eq.conv(eq.TensorField(g, 1, 0.7 * u.components - 1.3 * v.components),
                  kernel, rule)
    rhs = 0.7 * eq.conv(u, kernel, rule).components - 1.3 * eq.conv(v, kernel, rule).components
    assert np.allclose(lhs.components, rhs, atol=1e-12)


def test_translation_covariance_periodic():
    rng = np.random.default_rng(4)
    g = eq.Grid.centered((8, 8), boundary=eq.PERIODIC)
    kernel = _random_kernel(2, 0, rng)
    rule = eq.product_rule("scalar", 0, 0, 2)
    u = eq.TensorField.random(g, 0, rng)
    shifted = eq.TensorField(g, 0, np.roll(u.components, (3, -2), axis=(1, 2)))
    out_then_shift = np.roll(eq.conv(u, kernel, rule).components, (3, -2), axis=(1, 2))
    shift_then_out = eq.conv(shifted, kernel, rule).components
    assert np.allclose(shift_then_out, out_then_shift, atol=1e-13)


def test_boundaries_agree_away_from_edges():
    rng = np.random.default_rng(5)
    g0 = eq.Grid.centered((9, 9), boundary=eq.ZERO)
    u = eq.TensorField.zeros(g0, 0)
    u.components[0, 4, 4] = 1.0  # impulse far from the edge
    kernel = _random_kernel(2, 0, rng)
    rule = eq.product_rule("scalar", 0, 0, 2)
    a = eq.conv(u, kernel, rule, boundary=eq.ZERO)
    b = eq.conv(u, kernel, rule, boundary=eq.PERIODIC)
    assert np.allclose(a.components, b.components, atol=1e-14)


def test_boundary_changes_edge_response():
    g = eq.Grid.centered((9, 9))
    u = eq.TensorField.zeros(g, 0)
    u.components[0, 0, 4] = 1.0  # impulse on the edge
    kernel = _random_kernel(2, 0, np.random.default_rng(6))
    rule = eq.product_rule("scalar", 0, 0, 2)
    a = eq.conv(u, kernel, rule, boundary=eq.ZERO)
    b = eq.conv(u, kernel, rule, boundary=eq.PERIODIC)
    assert not np.allclose(a.components, b.components)


def test_path_equivalence_random_pairs():
    # every rule, with a sampled kernel, whose spectrum is kept real, and with
    # its symmetry-broken twin and random kernels, whose spectra stay complex
    rng = np.random.default_rng(7)
    cases = [(dim, rule, boundary) for dim in (2, 3) for rule in eq.supported_rules(dim)
             for boundary in eq.BOUNDARIES]
    for dim, rule, boundary in cases:
        g = eq.Grid.centered((9, 8, 7)[:dim], boundary=boundary)
        symmetric = eq.sample_kernel(eq.kernel_grid((7,) * dim, 1.0), eq.gaussian(2.0), rule.l_h)
        u = eq.TensorField.random(g, rule.l_u, rng)
        for kernel, dtype in ((symmetric, np.float64),
                              (eq.checks._corrupted(symmetric), np.complex128),
                              (_random_kernel(dim, rule.l_h, rng, 7), np.complex128),
                              (_random_kernel(dim, rule.l_h, rng, 3), np.complex128)):
            assert eq.convolve.kernel_spectrum(kernel, g.shape, boundary)[0].dtype == dtype
            d = eq.conv(u, kernel, rule, path=eq.DIRECT).components
            f = eq.conv(u, kernel, rule, path=eq.FOURIER).components
            assert np.max(np.abs(d - f)) / np.max(np.abs(d)) < PATH_TOL, (rule, boundary, dtype)


def test_supported_rules_table():
    rules3 = eq.supported_rules(3)
    assert eq.ProductRule("cross", 1, 1, 1) in rules3
    assert eq.ProductRule("matvec", 2, 1, 1) in rules3
    rules2 = eq.supported_rules(2)
    # the 2d cross lands on a scalar and there is no matvec without l=2
    assert eq.ProductRule("cross", 1, 1, 0) in rules2
    assert all(r.kind != "matvec" for r in rules2)


def test_product_rule_validation():
    with pytest.raises(eq.RuleError):
        eq.product_rule("matvec", 2, 1, 2)  # needs l=2, unsupported in 2d
    with pytest.raises(eq.RuleError):
        eq.product_rule("dot", 0, 1, 3)
    with pytest.raises(eq.RuleError):
        eq.product_rule("outer", 1, 1, 3)


def test_conv_rejects_mismatches():
    rng = np.random.default_rng(8)
    g = eq.Grid.centered((5, 5, 5))
    u = eq.TensorField.random(g, 0, rng)
    kernel = _random_kernel(3, 1, rng)
    with pytest.raises(eq.RuleError):
        eq.conv(u, kernel, eq.product_rule("dot", 1, 1, 3))  # field l mismatch
    with pytest.raises(eq.RuleError):
        eq.conv(u, kernel, eq.product_rule("scalar", 0, 0, 3))  # kernel l mismatch
    kg = eq.kernel_grid((3, 3, 3), 0.5)  # spacing differs from the field grid
    bad = eq.KernelField(field=eq.TensorField.random(kg, 1, rng), l_h=1)
    with pytest.raises(eq.FieldError):
        eq.conv(u, bad, eq.product_rule("scalar", 0, 1, 3))
    with pytest.raises(ValueError):
        eq.conv(u, kernel, eq.product_rule("scalar", 0, 1, 3), path="spectral")


@pytest.mark.parametrize("path", [None, eq.DIRECT, eq.FOURIER])
def test_unknown_boundary_is_refused_before_any_work(fft_calls, path):
    # a misspelt boundary must not fall through to the zero boundary
    g = eq.Grid.centered((8, 8, 8))
    u = eq.TensorField.random(g, 0, np.random.default_rng(9))
    kernel = eq.sample_kernel(eq.kernel_grid((15, 15, 15), 1.0), eq.gaussian(2.0), 0)
    with pytest.raises(eq.GridError, match="perodic"):
        eq.conv(u, kernel, eq.product_rule("scalar", 0, 0, 3), path=path, boundary="perodic")
    with pytest.raises(eq.GridError, match="bogus"):
        eq.EquivariantOp("x", g, kernel, "scalar", boundary="bogus")
    assert fft_calls.forward == [] and fft_calls.inverse == []


def test_pointwise_product_matches_reference():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        g = eq.Grid.centered((4,) * dim)
        for rule in eq.supported_rules(dim):
            u = eq.TensorField.random(g, rule.l_u, rng)
            w = eq.TensorField.random(g, rule.l_h, rng)
            out = eq.pointwise_product(u, w, rule)
            for p in [(0,) * dim, (1, 2, 3)[:dim], (3,) * dim]:
                uval = u.components[(slice(None),) + p]
                wval = w.components[(slice(None),) + p]
                ref = _pointwise(uval, wval, rule)
                assert np.allclose(out.components[(slice(None),) + p], ref, atol=1e-13)


def test_brute_force_oracle_covers_every_supported_rule():
    for dim in (2, 3):
        for rule in eq.supported_rules(dim):
            assert (rule.kind, rule.l_u, rule.l_h, dim) in ORACLE_RULES


def test_default_path_follows_kernel_extent():
    # at most 5 voxels on every axis goes direct, anything wider through the FFT
    rng = np.random.default_rng(12)
    rule = eq.product_rule("scalar", 0, 0, 3)
    u = eq.TensorField.random(eq.Grid.centered((6, 5, 4)), 0, rng)
    for width, path in ((5, eq.DIRECT), (7, eq.FOURIER)):
        kernel = _random_kernel(3, 0, rng, width=width)
        out = eq.conv(u, kernel, rule)
        assert np.array_equal(out.components, eq.conv(u, kernel, rule, path=path).components)


def test_fast_len_matches_scipy():
    # scipy's next_fast_len is the independent reference for both rules:
    # 11-smooth for a complex axis, 5-smooth for a real one
    for real in (False, True):
        assert [eq.convolve._fast_len(n, real=real) for n in range(1, 4097)] == \
            [next_fast_len(n, real=real) for n in range(1, 4097)]


def test_fourier_work_shape(fft_calls):
    # zero boundary: N + min(radius, N - 1) rounded up to a fast length, with
    # the (2N+3)-wide kernel cropped, 11-smooth on the leading axes and
    # 5-smooth on the last (real) one; periodic: the field's own shape
    rng = np.random.default_rng(13)
    shape = (6, 5, 4)
    rule = eq.product_rule("scalar", 0, 0, 3)
    for width in (7, 9, 2 * max(shape) + 3):
        kernel = _random_kernel(3, 0, rng, width)
        for boundary in eq.BOUNDARIES:
            u = eq.TensorField.random(eq.Grid.centered(shape, boundary=boundary), 0, rng)
            fft_calls.forward.clear()
            fft_calls.inverse.clear()
            eq.conv(u, kernel, rule)
            if boundary == eq.PERIODIC:
                work = shape
            else:
                work = tuple(next_fast_len(n + min((width - 1) // 2, n - 1), real=a == 2)
                             for a, n in enumerate(shape))
            assert fft_calls.forward == [work, work]   # the kernel, then the input
            assert fft_calls.inverse == [work]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_pruned_transforms_match_numpy_property(data):
    # skipped lines are all padding (forward) or outside the crop (inverse),
    # and the kept ones run numpy's own 1-d passes in its order.  numpy's rfft
    # of an all-zero line has -0 imaginary parts where the skipped line keeps
    # +0, so the forward is compared by value (-0 == +0), the inverse by bits
    dim = data.draw(st.sampled_from([2, 3]))
    shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    work = tuple(n + data.draw(st.integers(0, 8)) for n in shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape)
    forward = eq.convolve._rfftn_padded(x, work)
    ref = np.fft.rfftn(np.pad(x, [(0, w - n) for n, w in zip(shape, work)]))
    assert forward.shape == ref.shape and np.array_equal(forward, ref)
    acc = rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape)
    ref = np.fft.irfftn(acc, s=work, axes=range(dim))[tuple(slice(0, n) for n in shape)]
    inverse = eq.convolve._irfftn_cropped(acc.copy(), work, shape)
    assert inverse.shape == ref.shape and inverse.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape,work,spare", [
    ((16, 16, 16), (31, 31, 32), True),   # zero boundary: 15 spare rows hold 16 x 16 x 32
    ((256, 256), (512, 512), True),
    ((256, 256), (511, 512), False),      # 255 x 514 float64s: two short of 256 x 512
    ((9, 8, 7), (10, 8, 12), False),      # one spare row of 8 x 7 complex: too few
    ((16, 16, 16), (16, 16, 16), False),  # periodic: none
])
def test_inverse_real_axis_pass_writes_into_rows_outside_the_crop(shape, work, spare):
    # the real-axis block, N0 x ... x W[-1] float64s, goes into rows
    # N0 ... W0 - 1 of the spectrum being inverted where they can hold it,
    # and is a new array where they cannot
    rng = np.random.default_rng(31)
    half = work[:-1] + (work[-1] // 2 + 1,)
    acc = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    ref = np.fft.irfftn(acc, s=work, axes=range(len(work)))[tuple(slice(0, n) for n in shape)]
    out = eq.convolve._irfftn_cropped(acc, work, shape)
    assert out.tobytes() == ref.tobytes()
    assert np.shares_memory(out, acc) == spare


@pytest.mark.parametrize("shape,work", [((48,) * 3, (96,) * 3), ((256, 256), (512, 512)),
                                        ((32,) * 3, (32,) * 3)])
def test_forward_transform_allocates_only_its_output(shape, work):
    # the real-axis pass pads each line inside rfft, so no padded copy of the
    # input is made; cases: the 48^3 inverse-Laplacian work shape, a 2d one
    # and a periodic one, where the work shape is the field's own
    x = np.random.default_rng(19).standard_normal(shape)
    tracemalloc.start()
    try:
        out = eq.convolve._rfftn_padded(x, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 64 * 2**10


# The traced peak of one Fourier apply once each inverse transform wrote its
# real-axis block into spare rows of its spectrum (numpy 2.4.6): gauss_law at
# 32^3, then each 3d rule on a 16^3 field with a 31^3 kernel
APPLY_PEAKS = {"gauss_law 32^3": 5_112_542, "scalar(0,0)->0": 412_831,
               "scalar(0,1)->1": 790_158, "scalar(1,0)->1": 970_495,
               "scalar(0,2)->2": 856_300, "scalar(2,0)->2": 1_561_544,
               "dot(1,1)->0": 970_550, "dot(2,2)->0": 1_528_326,
               "cross(1,1)->1": 1_528_158, "matvec(2,1)->1": 2_085_772}


@pytest.mark.parametrize("case", list(APPLY_PEAKS))
def test_fourier_apply_holds_its_input_transforms_and_two_spectra(case):
    # an apply holds the input transforms, one work spectrum and, only when a
    # term is added to a partial sum, a scratch one; the output; and the
    # buffer through which a product casts the float64 held spectrum to
    # complex (numpy's buffer size in complex elements).  The real-axis block
    # of an inverse transform goes into rows N0 ... W0 - 1 of its spectrum,
    # and counts only where they cannot hold it.  64 KiB covers the
    # interpreter's objects, of which 1 KiB may differ from the pinned peak
    if case == "gauss_law 32^3":
        g = eq.Grid.centered((32,) * 3)
        op, rule = eq.gauss_law_op(g), eq.product_rule("scalar", 0, 1, 3)
    else:
        g = eq.Grid.centered((16,) * 3)
        rule = next(r for r in eq.supported_rules(3) if str(r) == case)
        kernel = eq.sample_kernel(eq.kernel_grid((31,) * 3, 1.0), eq.gaussian(4.0), rule.l_h)
        op = eq.EquivariantOp(case, g, kernel, rule.kind, eq.ZERO)
    u = eq.TensorField.random(g, rule.l_u, np.random.default_rng(37))
    op.apply(u)   # one-time allocations of numpy and the interpreter
    tracemalloc.start()
    try:
        op.apply(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = eq.convolve.work_shape(g.shape, op.kernel_grid.shape, op.boundary)
    coeff = eq.fields.rule_coefficients(rule, g.dim)
    spectra = coeff.shape[0] + (2 if np.count_nonzero(coeff, axis=(0, 1)).max() > 1 else 1)
    spectrum = 16 * math.prod(work[:-1]) * (work[-1] // 2 + 1)
    out = 8 * coeff.shape[2] * g.n_voxels
    block = 8 * math.prod(g.shape[:-1]) * work[-1]
    spare = spectrum // work[0] * (work[0] - g.shape[0])
    transient = max(block if spare < block else 0, 16 * np.getbufsize())
    assert peak <= spectra * spectrum + out + transient + 64 * 2**10
    assert peak <= APPLY_PEAKS[case] + 2**10
    if case == "gauss_law 32^3":
        assert work == (63, 63, 64) and peak < 5_200_000


def test_direct_path_lists_taps_not_mix_entries():
    # a 9^3 l = 1 kernel under the cross rule has 729 taps of 6 entries each;
    # the direct path holds the output, the padded input and the mix table,
    # plus einsum's buffers and one index list per axis, not one per entry
    g = eq.Grid.centered((7, 7, 7))
    rule = eq.product_rule("cross", 1, 1, 3)
    kernel = eq.sample_kernel(eq.kernel_grid((9, 9, 9), 1.0), eq.gaussian(2.0), 1)
    u = eq.TensorField.random(g, 1, np.random.default_rng(29))
    tracemalloc.start()
    try:
        out = eq.convolve.conv_direct(u, kernel, rule, eq.ZERO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = 8 * 3 * 15 ** 3
    mix = 8 * 9 ** 3 * 3 * 3
    assert peak <= out.components.nbytes + padded + mix + 128 * 2**10


class _NoRfftn:
    """``numpy.fft`` without ``rfftn``: a forward transform that does not go
    through ``_rfftn_padded`` fails."""

    def rfftn(self, *args, **kwargs):
        raise AssertionError("a forward transform bypassed _rfftn_padded")

    def __getattr__(self, name):
        return getattr(np.fft, name)


def test_every_forward_transform_goes_through_rfftn_padded(monkeypatch):
    monkeypatch.setattr(eq.convolve, "sfft", _NoRfftn())
    rng = np.random.default_rng(23)
    built = []
    for shape in ((9, 8, 7), (10, 7)):
        for boundary in eq.BOUNDARIES:
            g = eq.Grid.centered(shape, boundary=boundary)
            for name, build in eq.REGISTRY.items():
                if name == "gauss_law" and g.dim == 2:
                    continue
                op = build(g, **({"D": 1.0, "t": 0.5} if name == "diffusion" else {}))
                if eq.convolve.default_path(op.kernel) == eq.FOURIER:
                    op.apply(eq.TensorField.random(g, 0, rng))
                    built.append(name)
            kernel = _random_kernel(g.dim, 1, rng, 7)
            assert eq.convolve.kernel_spectrum(kernel, shape, boundary)[0].dtype == np.complex128
            eq.conv(eq.TensorField.random(g, 0, rng), kernel,
                    eq.product_rule("scalar", 0, 1, g.dim), path=eq.FOURIER)
    assert set(built) == {"inverse_laplacian", "gauss_law", "diffusion"}


def _add_at_layout(karr, target):
    """The circular layout by ``np.add.at`` over the index grid, the reference
    the run-sliced ``_circular_kernel`` must match bit for bit."""
    out = np.zeros(target)
    np.add.at(out, np.ix_(*[(np.arange(k) - (k - 1) // 2) % w
                            for k, w in zip(karr.shape, target)]), karr)
    return out


def _laid_out(karr, target):
    """``_circular_kernel`` of one component into a zeroed ``target``."""
    return eq.convolve._circular_kernel(karr[None], np.zeros((1, *target)))[0]


def _same_bits(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_circular_kernel_matches_add_at_property(data):
    # zero-boundary work shapes never alias; a periodic field narrower than
    # the kernel sums its aliased offsets, in add.at's (C) order
    dim = data.draw(st.sampled_from([2, 3]))
    kshape = tuple(2 * h + 1 for h in data.draw(st.lists(st.integers(0, 7),
                                                         min_size=dim, max_size=dim)))
    if data.draw(st.booleans()):
        target = tuple(k + data.draw(st.integers(0, 5)) for k in kshape)
    else:
        target = tuple(data.draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    karr = rng.standard_normal(kshape)
    karr[rng.random(kshape) < 0.2] = -0.0
    ref = _add_at_layout(karr, target)
    assert _same_bits(_laid_out(karr, target), ref)
    # slabs of rows added in row order, as sample_kernel lays them out
    rows, out = data.draw(st.integers(1, kshape[0])), np.zeros((1, *target))
    for first in range(0, kshape[0], rows):
        eq.convolve._circular_kernel(karr[None, first:first + rows], out, first, kshape[0])
    assert _same_bits(out[0], ref)


@pytest.mark.parametrize("kshape,target", [((95, 95, 95), (96, 96, 96)), ((95, 95, 95), (48, 48, 48)),
                                           ((9, 7, 5), (4, 3, 5)), ((23, 23), (7, 5))])
def test_circular_kernel_matches_add_at(kshape, target):
    karr = np.random.default_rng(17).standard_normal(kshape)
    karr[tuple(k // 2 for k in kshape)] = -0.0
    assert _same_bits(_laid_out(karr, target), _add_at_layout(karr, target))


def _complex_spectrum(kernel, ushape, boundary):
    """The full ``rfftn`` of each kernel component as ``kernel_spectrum`` lays
    it out: cropped to offsets within N - 1 of its center for the zero
    boundary, whole for the periodic one, then circular at the work shape."""
    work = eq.convolve.work_shape(ushape, kernel.grid.shape, boundary)
    karr = kernel.field.components
    if boundary == eq.ZERO:
        cuts = [max((k - 1) // 2 - (n - 1), 0) for n, k in zip(ushape, kernel.grid.shape)]
        karr = karr[(slice(None),) + tuple(slice(c, k - c)
                                           for c, k in zip(cuts, kernel.grid.shape))]
    return np.stack([np.fft.rfftn(_add_at_layout(k, work)) for k in karr])


def _fourier_registry_ops():
    for shape in ((9, 8, 7), (7, 7, 7), (10, 7), (9, 5)):
        for boundary in eq.BOUNDARIES:
            g = eq.Grid.centered(shape, boundary=boundary)
            for name, build in eq.REGISTRY.items():
                if name == "gauss_law" and g.dim == 2:
                    continue
                op = build(g, **({"D": 1.0, "t": 0.5} if name == "diffusion" else {}))
                if eq.convolve.default_path(op.kernel) == eq.FOURIER:
                    yield pytest.param(op, id=f"{name}-{shape}-{boundary}")


@pytest.mark.parametrize("op", _fourier_registry_ops())
def test_symmetric_kernel_keeps_one_real_part(op):
    # h(-r) = (-1)^l h(r): the spectrum is real for even l, imaginary for odd
    # l; h(-x, ...) = s h(x, ...): it mirrors on the first axis, S[W0 - j] =
    # s S[j].  The operator keeps that part of rows 0 ... W0//2 alone, bit
    # for bit, and the rows it drops are the mirrored kept rows times s
    full = _complex_spectrum(op.kernel, op.grid.shape, op.boundary)
    part, other = (full.imag, full.real) if op.kernel.l_h % 2 else (full.real, full.imag)
    w0, h = full.shape[1], full.shape[1] // 2 + 1
    assert op.spectrum.dtype == np.float64
    assert _same_bits(op.spectrum, part[:, :h])
    scale = np.max(np.abs(part))
    assert np.max(np.abs(other)) <= 1e-14 * scale
    signs = np.reshape(op.signs, (-1,) + (1,) * (part.ndim - 1))
    assert np.max(np.abs(part[:, h:] - signs * part[:, w0 - h:0:-1])) <= 1e-14 * scale


def _whole_layout_route(op):
    """The held spectrum and first-axis signs as a build made them while it
    still held the whole kernel and its whole layout: the kernel sampled
    whole and cropped for the zero boundary, each component laid out by
    ``_circular_kernel`` on a zeroed work-shaped array, transformed by
    ``_rfftn_padded`` into a new spectrum, and its real or imaginary part of
    rows 0 ... W0//2 kept; the signs from ``_has_parity`` on the kernel."""
    kernel = op.kernel
    work = eq.convolve.work_shape(op.grid.shape, kernel.grid.shape, op.boundary)
    karr = kernel.field.components
    if op.boundary == eq.ZERO:
        cuts = [max((k - 1) // 2 - (n - 1), 0) for n, k in zip(op.grid.shape, kernel.grid.shape)]
        karr = karr[(slice(None),) + tuple(slice(c, k - c)
                                           for c, k in zip(cuts, kernel.grid.shape))]
    signs = tuple(next(s for s in (1.0, -1.0) if eq.convolve._has_parity(k, s, (0,)))
                  for k in karr)
    part = np.imag if kernel.l_h % 2 else np.real
    held = [part(eq.convolve._rfftn_padded(_laid_out(k, work), work))[:work[0] // 2 + 1]
            for k in karr]
    return np.stack(held), signs


def _multi_slab_ops():
    # kernels of several slabs: 23^3 (7 rows of 23^2 a slab) and 79 x 59
    # (69 rows of 59 a slab)
    for name, shape in (("gauss_law", (12, 12, 12)), ("inverse_laplacian", (12, 12, 12)),
                        ("inverse_laplacian", (40, 30))):
        yield pytest.param(eq.REGISTRY[name](eq.Grid.centered(shape)),
                           id=f"{name}-{shape}-several-slabs")


@pytest.mark.parametrize("op", [*_fourier_registry_ops(), *_multi_slab_ops()])
def test_held_spectrum_matches_the_whole_layout_route(op):
    # sampled slab by slab into the transform buffer (inverse_laplacian,
    # gauss_law) or laid out whole there (diffusion, whose periodic kernel
    # aliases on these grids), to the bits of the whole-layout route
    spectrum, signs = _whole_layout_route(op)
    assert _same_bits(op.spectrum, spectrum) and op.signs == signs


@pytest.mark.parametrize("boundary", eq.BOUNDARIES)
def test_asymmetric_kernel_keeps_its_complex_spectrum(boundary):
    rng = np.random.default_rng(21)
    g = eq.Grid.centered((9, 8, 7), boundary=boundary)
    for l_h in (0, 1, 2):
        symmetric = eq.sample_kernel(eq.kernel_grid((9, 7, 7), 1.0), eq.gaussian(2.0), l_h)
        for kernel in (eq.checks._corrupted(symmetric), _random_kernel(3, l_h, rng, 7)):
            spectrum, signs = eq.convolve.kernel_spectrum(kernel, g.shape, boundary)
            assert spectrum.dtype == np.complex128 and signs is None
            assert _same_bits(spectrum.view(float),
                              _complex_spectrum(kernel, g.shape, boundary).view(float))


def _full_spectrum_apply(op, u):
    """``op.apply(u)`` on the Fourier path with the whole complex spectrum of
    ``_complex_spectrum``: whole ``numpy.fft`` transforms, one einsum product."""
    rule = eq.product_rule(op.kind, u.l, op.l_h, u.grid.dim)
    coeff = eq.rule_coefficients(rule, u.grid.dim)
    work = eq.convolve.work_shape(u.grid.shape, op.kernel_grid.shape, op.boundary)
    axes = tuple(range(1, u.grid.dim + 1))
    spectrum = _complex_spectrum(op.kernel, u.grid.shape, op.boundary)
    u_hat = np.fft.rfftn(u.components, s=work, axes=axes)
    v = np.fft.irfftn(np.einsum("mnp,m...,n...->p...", coeff, u_hat, spectrum), s=work, axes=axes)
    return v[(slice(None),) + tuple(slice(0, n) for n in u.grid.shape)] * u.grid.voxel_volume


def _half_spectrum_ops():
    # first-axis work lengths: zero boundary 15 (N0 = 8) and 18 (N0 = 9),
    # periodic 8 and 9; the registry's Green's functions, and a 9-wide
    # sampled kernel for every rule, l_h 0, 1 and 2
    for shape in ((9, 8, 7), (8, 8, 7), (9, 5), (8, 5)):
        for boundary in eq.BOUNDARIES:
            g = eq.Grid.centered(shape, boundary=boundary)
            for name in ("inverse_laplacian", "gauss_law", "diffusion"):
                if name != "gauss_law" or g.dim == 3:
                    op = eq.REGISTRY[name](g, **({"D": 1.0, "t": 0.5} if name == "diffusion"
                                                  else {}))
                    yield pytest.param(op, 0, id=f"{name}-{shape}-{boundary}")
            for rule in eq.supported_rules(g.dim):
                kernel = eq.sample_kernel(eq.kernel_grid((9,) * g.dim, 1.0), eq.gaussian(2.0),
                                          rule.l_h)
                op = eq.EquivariantOp("conv", g, kernel, rule.kind, input_l=rule.l_u)
                yield pytest.param(op, rule.l_u, id=f"{rule}-{shape}-{boundary}")


@pytest.mark.parametrize("op, l", _half_spectrum_ops())
def test_half_spectrum_apply_matches_the_whole_spectrum(op, l):
    w0 = eq.convolve.work_shape(op.grid.shape, op.kernel_grid.shape, op.boundary)[0]
    assert op.spectrum.dtype == np.float64 and op.spectrum.shape[1] == w0 // 2 + 1
    u = eq.TensorField.random(op.grid, l, np.random.default_rng(24))
    assert _relative_deviation(op.apply(u).components, _full_spectrum_apply(op, u)) <= 1e-14


def test_parity_tests_hold_no_kernel_sized_temporary():
    # one block of rows at a time: a 63^3 kernel (2 MB) is compared in rows
    # of 63^2 voxels
    k = eq.sample_kernel(eq.kernel_grid((63,) * 3, 1.0), eq.gaussian(9.0), 0).field.components[0]
    tracemalloc.start()
    try:
        found = [eq.convolve._has_parity(k, s, axes) for s in (1.0, -1.0)
                 for axes in ((0,), (0, 1, 2), (1,))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [True] * 3 + [False] * 3
    assert peak <= 4 * 8 * 63 ** 2 < k.nbytes // 8


def _xyz(width, spacing):
    """Per-axis offsets of a centered kernel grid, exactly symmetric about 0."""
    return np.ix_(*((np.arange(width) - width // 2) * h for h in spacing))


@pytest.mark.parametrize("boundary", eq.BOUNDARIES)
def test_kernel_without_a_parity_keeps_its_rows_or_its_complex_part(boundary):
    # exp(x y) exp(-z^2) has inversion parity but no first-axis parity: one
    # real part of every row.  Bumped off center, it has neither: the complex
    # spectrum of every row.  x exp(-r^2) at l = 0 is odd on the first axis
    # but even under no inversion: complex, of half the rows.  All three
    # match the direct path
    spacing = (0.7, 1.1, 0.9)
    x, y, z = _xyz(7, spacing)
    xy = np.exp(x * y) * np.exp(-z * z)
    bumped = xy.copy()
    bumped[1, 2, 3] += 0.5
    g = eq.Grid.centered((9, 8, 7), spacing, boundary=boundary)
    w0 = eq.convolve.work_shape(g.shape, (7, 7, 7), boundary)[0]
    u = eq.TensorField.random(g, 0, np.random.default_rng(25))
    rule = eq.product_rule("scalar", 0, 0, 3)
    for values, dtype, rows, signs in (
            (xy, np.float64, w0, None), (bumped, np.complex128, w0, None),
            (x * np.exp(-(x * x + y * y + z * z)), np.complex128, w0 // 2 + 1, (-1.0,))):
        kernel = eq.KernelField(eq.TensorField(eq.kernel_grid((7, 7, 7), spacing), 0,
                                               values[None]), 0)
        spectrum, got = eq.convolve.kernel_spectrum(kernel, g.shape, boundary)
        assert spectrum.dtype == dtype and spectrum.shape[1] == rows and got == signs
        d = eq.conv(u, kernel, rule, path=eq.DIRECT, boundary=boundary).components
        f = eq.conv(u, kernel, rule, path=eq.FOURIER, boundary=boundary).components
        assert _relative_deviation(f, d) < PATH_TOL


def _relative_deviation(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_conv_equivariance_property(data):
    # a sampled radial kernel is steerable, so conv commutes with every
    # lattice rotation that maps the grid onto itself, on both paths
    dim = data.draw(st.sampled_from([2, 3]))
    rule = data.draw(st.sampled_from(eq.supported_rules(dim)))
    shape = data.draw(st.lists(st.integers(3, 7), min_size=dim, max_size=dim))
    if data.draw(st.booleans()):   # a cube admits every rotation
        shape = [shape[0]] * dim
    spacing = data.draw(st.floats(0.5, 2.0))
    g = eq.Grid.centered(shape, spacing, boundary=data.draw(st.sampled_from(eq.BOUNDARIES)))
    width = data.draw(st.sampled_from([3, 5, 7, 9]))
    kernel = eq.sample_kernel(eq.kernel_grid((width,) * dim, spacing),
                              eq.gaussian(data.draw(st.floats(0.5, 3.0)) * spacing), rule.l_h)
    path = data.draw(st.sampled_from([eq.DIRECT, eq.FOURIER]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = eq.TensorField.random(g, rule.l_u, rng)
    ref = eq.conv(u, kernel, rule, path=path)
    for rot in compatible_rotations(g):
        out = eq.conv(eq.rotate_field(u, rot), kernel, rule, path=path)
        assert _relative_deviation(out.components,
                                   eq.rotate_field(ref, rot).components) < EQUIVARIANCE_TOL


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_conv_linearity_property(data):
    dim = data.draw(st.sampled_from([2, 3]))
    rule = data.draw(st.sampled_from(eq.supported_rules(dim)))
    shape = data.draw(st.lists(st.integers(3, 7), min_size=dim, max_size=dim))
    g = eq.Grid.centered(shape, boundary=data.draw(st.sampled_from(eq.BOUNDARIES)))
    kshape = data.draw(st.lists(st.sampled_from([3, 5, 7, 9]), min_size=dim, max_size=dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kernel = eq.KernelField(eq.TensorField.random(eq.kernel_grid(kshape, 1.0), rule.l_h, rng),
                            rule.l_h)
    path = data.draw(st.sampled_from([eq.DIRECT, eq.FOURIER]))
    u, v = (eq.TensorField.random(g, rule.l_u, rng) for _ in range(2))
    weight = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))   # no subnormal products
    alpha, beta = data.draw(weight), data.draw(weight)
    combined = eq.conv(u * alpha + v * beta, kernel, rule, path=path).components
    separate = (eq.conv(u, kernel, rule, path=path).components * alpha
                + eq.conv(v, kernel, rule, path=path).components * beta)
    assert _relative_deviation(separate, combined) < LINEARITY_TOL
