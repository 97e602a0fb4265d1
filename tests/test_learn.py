"""Trainable radial functions: bases, fitting routes, layers, model files."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqfield as eq
from eqfield.checks import PATH_TOL
from eqfield.learn import _reduce_dataset, _reduce_rows


def _small_param():
    # well separated widths keep the design matrix comfortably conditioned
    return eq.ParamRadial(gaussians=((0.0, 1.0), (0.0, 2.5), (0.0, 6.0)),
                          powers=(), stencils=((0.0, 0),))


def test_power_profile_cutoff():
    p = eq.power_profile(1, r_min=1.0)
    r = np.array([0.0, 0.5, 1.0, 2.0])
    vals = p(r)
    assert vals[0] == 0.0 and vals[1] == 0.0  # inside the cutoff
    assert vals[2] == pytest.approx(1.0)
    assert vals[3] == pytest.approx(0.5)


@pytest.mark.parametrize("k", [1.5, 2.7, 0, -1, math.nan, math.inf])
def test_power_exponent_must_be_a_positive_integer(k):
    with pytest.raises(ValueError, match="positive integer"):
        eq.power_profile(k, 1.0)
    with pytest.raises(ValueError, match="positive integer"):
        eq.ParamRadial(powers=((1.0, k, 1.0),))
    # an integral float is still an integer exponent
    assert eq.ParamRadial(powers=((1.0, 2.0, 1.0),)).powers == ((1.0, 2, 1.0),)


def test_default_param_radial_layout():
    g = eq.Grid.centered((9, 9, 9))
    p = eq.default_param_radial(g, l_h=0, n_gaussians=4)
    assert len(p.gaussians) == 4
    assert len(p.powers) == 2
    assert len(p.stencils) == 1
    assert p.n_params == 7
    widths = [w for _, w in p.gaussians]
    assert widths == sorted(widths)
    assert widths[0] == pytest.approx(min(g.spacing))
    # the embedded stencil order matches the kernel order
    assert p.stencils[0][1] == 0
    assert eq.default_param_radial(g, l_h=1).stencils[0][1] == 1


def test_param_radial_evaluate():
    p = eq.ParamRadial(gaussians=((2.0, 1.0),), powers=((3.0, 1, 0.5),))
    r = np.array([1.0, 2.0])
    # smooth part only: stencils have no radial profile
    expect = 2.0 * np.exp(-(r / 1.0) ** 2) + 3.0 / r
    assert np.allclose(p.evaluate(r), expect)


def test_with_amplitudes_round_trip():
    p = _small_param()
    amps = np.array([0.5, -1.0, 2.0, 0.25])
    q = p.with_amplitudes(amps)
    assert np.allclose(q.amplitudes, amps)
    assert q.hyper_key() == p.hyper_key()  # same basis, different amplitudes
    with pytest.raises(ValueError):
        p.with_amplitudes(np.zeros(3))


def test_basis_contains_exact_green_kernel():
    # the r^-1 basis member with cutoff at one spacing reproduces the sampled
    # Coulomb kernel exactly away from the origin voxel
    g = eq.Grid.centered((9, 9, 9))
    param = eq.ParamRadial(powers=((1.0, 1, 1.0),))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=param)
    basis = eq.basis_kernels(op)
    assert len(basis) == 1
    kernel = basis[0].kernel
    ref = eq.sample_kernel(kernel.field.grid, eq.inverse_r(), 0)
    scaled = kernel.field.components * (1.0 / (4.0 * math.pi))
    assert np.allclose(scaled, ref.field.components, atol=1e-15)


def test_stencil_order_must_match_kernel_order():
    g = eq.Grid.centered((9, 9, 9))
    with pytest.raises(eq.RuleError):
        eq.make_neural_op(g, kind="scalar", l_u=0, l_h=1,
                          param=eq.ParamRadial(stencils=((1.0, 0),)))
    with pytest.raises(eq.RuleError):
        eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0,
                          param=eq.ParamRadial(stencils=((1.0, 1),)))


def test_neural_op_is_linear_in_amplitudes():
    rng = np.random.default_rng(4)
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    u = eq.TensorField.random(g, 0, rng)
    a1 = rng.standard_normal(4)
    a2 = rng.standard_normal(4)
    out1 = op.with_params(a1).apply(u).components
    out2 = op.with_params(a2).apply(u).components
    mixed = op.with_params(0.3 * a1 - 2.0 * a2).apply(u).components
    assert np.allclose(mixed, 0.3 * out1 - 2.0 * out2, atol=1e-12)


def test_learned_operator_builds_its_kernel_once(monkeypatch):
    # the held operator samples its kernel when it is built on first use and
    # keeps only the spectrum, so each forced direct apply samples it again;
    # a fit works from the basis and samples none.  Equal recipes share one
    # held op, so the counted phase gets a cache of its own: the reference
    # phase has already built this op
    rng = np.random.default_rng(11)
    g = eq.Grid.centered((9, 9, 9))
    zero = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    amps = rng.standard_normal(4)
    data = [(eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, 0, rng))
            for _ in range(4)]
    u = data[0][0]
    expect_fit = eq.fit_least_squares(zero, data).amplitudes
    expect_apply = zero.with_params(amps).apply(u).components
    expect_loss = eq.loss(zero.with_params(amps), data)
    expect_direct = zero.with_params(amps).apply(u, path=eq.DIRECT).components
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    kernel, calls = eq.NeuralOp.kernel, []
    monkeypatch.setattr(eq.NeuralOp, "kernel", lambda self: calls.append(1) or kernel(self))
    fresh = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    assert np.array_equal(eq.fit_least_squares(fresh, data).amplitudes, expect_fit)
    assert calls == []
    op = fresh.with_params(amps)
    assert np.array_equal(op.apply(u).components, expect_apply)
    assert eq.loss(op, data) == expect_loss
    assert len(calls) == 1
    for forced in (2, 3):
        assert np.array_equal(op.apply(u, path=eq.DIRECT).components, expect_direct)
        assert len(calls) == forced


def test_equal_models_share_one_held_operator(tmp_path, monkeypatch):
    # two loads of one manifest are equal recipes: the second finds the op
    # that the first built
    g = eq.Grid.centered((9, 9, 9))
    model = tmp_path / "m.eqm"
    eq.save_model(model, eq.make_neural_op(g, param=_small_param()).with_params(
        np.random.default_rng(15).standard_normal(4)))
    u = eq.TensorField.random(g, 0, np.random.default_rng(16))
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    kernel, calls = eq.NeuralOp.kernel, []
    monkeypatch.setattr(eq.NeuralOp, "kernel", lambda self: calls.append(1) or kernel(self))
    a, b = eq.load_model(model), eq.load_model(model)
    assert a == b and a is not b
    assert np.array_equal(a.apply(u).components, b.apply(u).components)
    assert a.operator is b.operator
    assert len(calls) == 1


def _held_spectrum_bytes(shape, ncomp):
    # one real half spectrum per component, of rows 0 ... W0//2 of the first
    # axis, at the zero-boundary work shape W of a (2N-1)-wide kernel
    w = eq.convolve.work_shape(shape, tuple(2 * n - 1 for n in shape), eq.ZERO)
    return 8 * ncomp * (w[0] // 2 + 1) * math.prod(w[1:-1]) * (w[-1] // 2 + 1)


def _default_basis_bytes(shape, l_h):
    # ten smooth terms holding their spectra, and one 3-wide stencil kernel
    ncomp = 2 * l_h + 1
    return 10 * _held_spectrum_bytes(shape, ncomp) + 8 * ncomp * 3 ** len(shape)


@pytest.mark.parametrize("shape", [(12, 12, 12), (16, 16, 16)])
@pytest.mark.parametrize("l_h", [0, 1])
def test_basis_bytes_follow_from_the_grid_shape(shape, l_h):
    g = eq.Grid.centered(shape)
    op = eq.make_neural_op(g, l_h=l_h)
    basis = eq.basis_kernels(op)
    ncomp = 2 * l_h + 1
    assert op.operator.nbytes == _held_spectrum_bytes(shape, ncomp)
    *smooth, stencil = basis
    for b in smooth:
        assert not isinstance(b.recipe, eq.KernelField)
        assert b.nbytes == b.spectrum.nbytes == _held_spectrum_bytes(shape, ncomp)
    assert stencil.spectrum is None and stencil.kernel.grid.shape == (3, 3, 3)
    assert stencil.nbytes == stencil.kernel.nbytes == 8 * ncomp * 27
    assert sum(b.nbytes for b in basis) == _default_basis_bytes(shape, l_h)


def test_large_bases_fit_the_cache_budget():
    assert _default_basis_bytes((48, 48, 48), 0) == 18_439_896
    assert _default_basis_bytes((64, 64, 64), 0) == 43_264_216
    assert _default_basis_bytes((64, 64, 64), 1) == 129_792_648
    # a 64^3 vector basis, its learned operator and the four greens benchmark
    # operators (4,381,928 B, test_operators) are held together
    assert (_default_basis_bytes((64, 64, 64), 1) + _held_spectrum_bytes((64, 64, 64), 3)
            + 4_381_928 <= eq.operators.CACHE_BYTES)


@pytest.mark.parametrize("samples", [1, 2, 4])
def test_fit_transforms_each_basis_spectrum_once(fft_calls, monkeypatch, samples):
    # the ten smooth spectra are made once, when the basis is built; each
    # sample then costs one input transform and one inverse per smooth term,
    # and the delta stencil goes direct
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    rng = np.random.default_rng(17)
    g = eq.Grid.centered((12, 12, 12))
    data = [(eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, 0, rng))
            for _ in range(samples)]
    eq.fit_least_squares(eq.make_neural_op(g), data)
    assert len(fft_calls.forward) == 10 + 10 * samples
    assert len(fft_calls.inverse) == 10 * samples


@pytest.mark.parametrize("shape, l_h", [((9, 8, 7), 0), ((9, 8, 7), 1), ((10, 7), 1)])
def test_design_columns_match_convolution_with_the_basis_kernels(shape, l_h):
    # a smooth column is conv with the term's kernel, to the bit; the stencil
    # column goes direct, and agrees with the stencil padded to the
    # free-space kernel grid, on the Fourier path, within PATH_TOL
    rng = np.random.default_rng(18)
    g = eq.Grid.centered(shape)
    op = eq.make_neural_op(g, l_h=l_h)
    u, v = eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, l_h, rng)
    *smooth, stencil = eq.basis_kernels(op)
    cols = [b.apply(u).components for b in smooth]
    for b, col in zip(smooth, cols):
        assert np.array_equal(col, eq.conv(u, b.kernel, op.rule, boundary=eq.ZERO).components)
    small = stencil.kernel
    padded = np.pad(small.field.components, [(0, 0)] + [(n - 2, n - 2) for n in shape])
    wide = eq.KernelField(eq.TensorField(eq.kernels.free_space_kernel_grid(g), l_h, padded),
                          l_h)
    col = stencil.apply(u).components
    assert np.array_equal(col, eq.conv(u, small, op.rule, path=eq.DIRECT,
                                       boundary=eq.ZERO).components)
    ref = eq.conv(u, wide, op.rule, path=eq.FOURIER, boundary=eq.ZERO).components
    assert np.max(np.abs(col - ref)) <= PATH_TOL * np.max(np.abs(ref))
    block = np.column_stack([c.ravel() for c in cols + [col]] + [v.components.ravel()])
    reduced = _reduce_rows([block], block.shape[1])
    assert all(np.array_equal(a, b) for a, b in zip(_reduce_dataset(op, [(u, v)]), reduced))


def _padded_stencils(op):
    # each stencil term's kernel, zero-padded out to the free-space kernel grid
    return [np.pad((eq.delta_stencil if order == 0 else eq.gradient_stencil)(op.grid)
                   .field.components, [(0, 0)] + [(n - 2, n - 2) for n in op.grid.shape])
            for _, order in op.param.stencils]


def _padded_sum(op):
    # the learned kernel as the sum of every basis term sampled on the
    # free-space kernel grid, the stencils zero-padded out to it
    kgrid = eq.kernels.free_space_kernel_grid(op.grid)
    terms = [eq.sample_kernel(kgrid, p, op.l_h).field.components
             for p in op.param.smooth_profiles()] + _padded_stencils(op)
    comps = np.zeros_like(terms[0])
    for a, term in zip(op.param.amplitudes, terms):
        if a != 0.0:
            comps = comps + a * term
    return comps


def _one_sample(op):
    # R(r) Y_l(rhat) of the one radial function param.evaluate, computed whole
    # from the offsets of the free-space kernel grid, plus the padded stencils
    kgrid = eq.kernels.free_space_kernel_grid(op.grid)
    x = np.meshgrid(*((np.arange(n) - n // 2) * h for n, h in zip(kgrid.shape, kgrid.spacing)),
                    indexing="ij")
    r = np.sqrt(sum(xi ** 2 for xi in x))
    if op.l_h == 0:
        comps = op.param.evaluate(r)[None]
    else:
        comps = np.divide(x, r, out=np.zeros((len(x),) + r.shape), where=r != 0.0)
        comps *= op.param.evaluate(r)
    for (a, _), stencil in zip(op.param.stencils, _padded_stencils(op)):
        comps = comps + a * stencil
    return comps


@pytest.mark.parametrize("shape, kind, l_u, l_h", [
    ((9, 8, 7), "scalar", 0, 0), ((9, 8, 7), "dot", 1, 1), ((10, 7), "scalar", 0, 1),
    ((3, 4), "scalar", 0, 0)])
def test_learned_kernel_is_the_padded_sum_of_its_terms(monkeypatch, shape, kind, l_u, l_h):
    # one sample of param.evaluate, without building the basis.  For l_h = 0
    # it is the sum of the terms to the bit; for l_h = 1 the sum and the unit
    # vector commute to rounding only: 1.1e-16 of the largest value here, and
    # at most 5.5e-16 over 20 seeds of these and 12^3 and 16^3 grids
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    rng = np.random.default_rng(19)
    op = eq.make_neural_op(eq.Grid.centered(shape), kind=kind, l_u=l_u, l_h=l_h)
    amps = rng.standard_normal(op.param.n_params)
    amps[[1, 4]] = 0.0
    for p in (amps, np.zeros_like(amps), -amps):
        learned = op.with_params(p)
        kernel = learned.kernel()
        comps, terms = kernel.field.components, _padded_sum(learned)
        assert kernel.grid == eq.kernels.free_space_kernel_grid(op.grid)
        assert np.array_equal(comps, _one_sample(learned))
        if l_h == 0:
            assert np.array_equal(comps, terms)
        else:
            assert np.max(np.abs(comps - terms)) <= 1e-15 * np.max(np.abs(terms))
        assert np.array_equal(learned.operator.kernel.field.components, comps)
    assert not any(isinstance(k, tuple) and k[0] == "basis" for k in eq.operators._held)


@pytest.mark.parametrize("spacing", [1.0, (0.7, 1.1, 0.9)])
def test_learned_kernel_reads_the_fitted_radial_function(spacing):
    # along each axis the l_h = 0 kernel reads param.evaluate, the R_fitted
    # column that fit --csv writes, to the bit: at offsets k h with k >= 1,
    # and at the centre with the delta term added
    g = eq.Grid.centered((9, 8, 7), spacing)
    op = eq.make_neural_op(g).with_params(np.random.default_rng(21).standard_normal(11))
    comps = op.kernel().field.components[0]
    centre = tuple(n // 2 for n in comps.shape)
    ((a, _),) = op.param.stencils
    delta = a * eq.delta_stencil(g).field.components[(0, 1, 1, 1)]
    for axis, h in enumerate(g.spacing):
        line = comps[centre[:axis] + (slice(centre[axis], None),) + centre[axis + 1:]]
        expect = op.param.evaluate(np.arange(line.size) * h)
        assert line[1:].tobytes() == expect[1:].tobytes()
        assert line[0] == expect[0] + delta


def test_recipes_look_up_their_sampler_when_they_run(monkeypatch):
    # an operator built while a sampler is wrapped does not keep the wrapper
    g = eq.Grid.centered((9, 9, 9))
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    calls = []
    sample, kernel = eq.learn.sample_kernel, eq.NeuralOp.kernel
    learned = eq.make_neural_op(g).with_params(np.arange(1.0, 12.0))
    with monkeypatch.context() as m:
        m.setattr(eq.learn, "sample_kernel", lambda *a: calls.append(1) or sample(*a))
        m.setattr(eq.NeuralOp, "kernel", lambda self: calls.append(1) or kernel(self))
        basis = eq.basis_kernels(learned)
        op = learned.operator
    built = len(calls)
    assert built == 12   # ten basis terms, then the learned kernel and its one sample
    for b in basis:
        b.kernel
    op.kernel
    learned.apply(eq.TensorField.random(g, 0, np.random.default_rng(20)), path=eq.DIRECT)
    assert len(calls) == built


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("l_h", [0, 1])
def test_learned_op_build_holds_one_kernel_beside_its_work_arrays(monkeypatch, n, l_h):
    # the build samples one radial function into one kernel-sized array, slab
    # by slab, then lays it out in the C half-complex work arrays of its
    # spectrum, with numpy's three ufunc buffers of getbufsize() float64s for
    # the sliced adds.  Sampling's temporaries, at most eight slabs, come
    # before the work arrays exist and are smaller.  64 KiB covers the interpreter's objects.  A sum
    # of per-term samples held three kernel-sized arrays: the sum, a term and
    # the term scaled
    g = eq.Grid.centered((n,) * 3)
    learned = eq.make_neural_op(g, l_h=l_h).with_params(
        np.random.default_rng(22).standard_normal(11))
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    learned.operator   # one-time allocations of numpy and the interpreter
    monkeypatch.setattr(eq.operators, "_held", collections.OrderedDict())
    tracemalloc.start()
    try:
        learned.operator
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c, kshape = 2 * l_h + 1, (2 * n - 1,) * 3
    kernel = 8 * c * math.prod(kshape)
    w = eq.convolve.work_shape(g.shape, kshape, eq.ZERO)
    work = 16 * c * math.prod(w[:-1]) * (w[-1] // 2 + 1)
    row = math.prod(kshape[1:])
    slab = 8 * row * max(1, eq.kernels.SAMPLE_SLAB_VOXELS // row)
    assert 8 * slab < work
    assert peak <= kernel + work + 24 * np.getbufsize() + 64 * 2**10


@pytest.mark.parametrize("terms", [
    {"gaussians": ((math.nan, 1.0),)},
    {"powers": ((math.inf, 1, 1.0),)},
    {"stencils": ((-math.inf, 0),)},
    {"gaussians": ((1.0, math.inf),)},
    {"powers": ((1.0, 2, math.inf),)},
])
def test_param_radial_refuses_non_finite_values(terms):
    with pytest.raises(ValueError, match="finite"):
        eq.ParamRadial(**terms)


def test_least_squares_recovers_amplitudes():
    rng = np.random.default_rng(5)
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    truth = np.array([0.5, -0.3, 0.8, 0.2])
    target_op = op.with_params(truth)
    data = [(eq.TensorField.random(g, 0, rng), None)]
    data = [(u, target_op.apply(u)) for u, _ in data]
    fit = eq.fit_least_squares(op, data)
    assert not fit.flagged
    assert fit.residual < 1e-15
    assert np.max(np.abs(fit.amplitudes - truth)) < 1e-6


@pytest.mark.parametrize("shape, l_h", [((12, 12, 12), 0), ((12, 12, 12), 1), ((24, 24), 0)])
def test_least_squares_matches_the_svd_tikhonov_solution(shape, l_h):
    # the fit solves on the factor Rx, so it keeps cond(X) rather than its square
    g = eq.Grid.centered(shape)
    f = eq.TensorField.random(g, 0, np.random.default_rng(1))
    data = [(f, eq.inverse_laplacian(f) if l_h == 0 else eq.gauss_law(f))]
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=l_h)
    fit = eq.fit_least_squares(op, data)
    Rx, c, _, _ = _reduce_dataset(op, data)
    U, s, Vt = np.linalg.svd(Rx)
    lam = 1e-10 * float(s @ s) / len(s)
    ref = Vt.T @ (s / (s ** 2 + lam) * (U.T @ c))
    assert np.linalg.norm(fit.amplitudes - ref) <= 1e-10 * np.linalg.norm(ref)
    assert fit.condition == pytest.approx((s[0] ** 2 + lam) / (s[-1] ** 2 + lam), rel=1e-9)
    assert not fit.flagged


def test_ridge_free_fit_on_a_repeated_width_is_solved_on_the_factor():
    g = eq.Grid.centered((8, 8, 8))
    f = eq.TensorField.random(g, 0, np.random.default_rng(0))
    param = eq.ParamRadial(((0.0, 1.0), (0.0, 1.0), (0.0, 2.0)), ((0.0, 1, 1.0),),
                           ((0.0, 0),))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=param)
    fit = eq.fit_least_squares(op, [(f, eq.inverse_laplacian(f))], ridge=0.0)
    assert fit.residual < 1e-20 and fit.flagged
    assert np.max(np.abs(fit.amplitudes)) < 1.0   # the minimum-norm solution


def test_a_dead_basis_term_makes_the_ridge_free_condition_infinite():
    # a power law cut off beyond the kernel grid responds with exact zeros
    g = eq.Grid.centered((8, 8, 8))
    f = eq.TensorField.random(g, 0, np.random.default_rng(0))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0,
                           param=eq.ParamRadial(((0.0, 1.0),), ((0.0, 1, 100.0),)))
    data = [(f, eq.inverse_laplacian(f))]
    ls = eq.fit_least_squares(op, data, ridge=0.0)
    assert ls.condition == math.inf and ls.flagged and ls.amplitudes[1] == 0.0
    assert eq.fit_gradient_descent(op, data, steps=3).condition == math.inf


def test_one_shot_greens_function_fit():
    rng = np.random.default_rng(6)
    g = eq.Grid.centered((13, 13, 13))
    rho = eq.TensorField.zeros(g, 0)
    rho.components[0, 4, 6, 6] = 1.0
    rho.components[0, 8, 6, 6] = -1.0
    target = eq.inverse_laplacian(rho)
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0)
    fit = eq.fit_least_squares(op, [(rho, target)])
    fitted = op.with_params(fit.amplitudes)
    assert fit.residual < 1e-12
    # held-out random densities
    for _ in range(5):
        u = eq.TensorField.random(g, 0, rng)
        ref = eq.inverse_laplacian(u)
        pred = fitted.apply(u)
        num = np.sqrt(np.sum((pred.components - ref.components) ** 2))
        den = np.sqrt(np.sum(ref.components ** 2))
        assert num / den < 1e-6


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    p0 = rng.standard_normal(op.param.n_params)
    op = op.with_params(p0)
    data = [(eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, 0, rng))]
    gan = eq.grad_params(op, data)
    for i in range(len(p0)):
        step = 1e-5 * max(abs(p0[i]), 1.0)
        pp, pm = p0.copy(), p0.copy()
        pp[i] += step
        pm[i] -= step
        fd = (eq.loss(op.with_params(pp), data) - eq.loss(op.with_params(pm), data)) / (2 * step)
        assert abs(gan[i] - fd) < 1e-6 * max(abs(fd), 1.0)


def test_gradient_descent_agrees_with_least_squares():
    rng = np.random.default_rng(8)
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    truth = op.with_params([0.5, -0.3, 0.8, 0.2])
    u = eq.TensorField.random(g, 0, rng)
    data = [(u, truth.apply(u))]
    ls = eq.fit_least_squares(op, data)
    gd = eq.fit_gradient_descent(op, data, steps=2000)
    assert abs(ls.residual - gd.residual) < 1e-4
    # descent trace never increases
    assert all(b <= a + 1e-15 for a, b in zip(gd.trace, gd.trace[1:]))


def test_gradient_descent_divergence_guard():
    rng = np.random.default_rng(9)
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    u = eq.TensorField.random(g, 0, rng)
    data = [(u, eq.TensorField.random(g, 0, rng))]
    res = eq.fit_gradient_descent(op, data, steps=50, step_size=1e9)
    assert res.flagged  # diverged and aborted early
    assert len(res.trace) < 52
    assert res.trace[-1] > 1e6 * res.trace[0]


@pytest.mark.parametrize("seed", range(4))
def test_row_reduction_matches_stacked_lstsq(seed):
    # any split of the rows, with a first block narrower than the width
    # and single rows, folds to the stacked problem's solution and residual
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 6))
    y = rng.standard_normal(40)
    cuts = sorted({2, 3, *rng.choice(np.arange(4, 40), size=4, replace=False)})
    Rx, c, rho2, norm = _reduce_rows(np.split(np.column_stack([X, y]), cuts), 7)
    assert Rx.shape == (6, 6)
    ref, res, rank, svals = np.linalg.lstsq(X, y, rcond=None)
    p, *_ = np.linalg.lstsq(Rx, c, rcond=None)
    assert np.allclose(p, ref, rtol=1e-12, atol=1e-12)
    assert rho2 == pytest.approx(res[0], rel=1e-12)
    assert norm == pytest.approx(float(y @ y), rel=1e-12)
    assert np.allclose(np.linalg.svd(Rx, compute_uv=False), svals, rtol=1e-12)


def test_fit_with_fewer_voxels_than_terms_matches_stacked_reference():
    # a 3x3 grid gives 9 rows for the 11-term default basis plus the target
    rng = np.random.default_rng(12)
    g = eq.Grid.centered((3, 3))
    op = eq.make_neural_op(g)
    u = eq.TensorField.random(g, 0, rng)
    target = op.with_params(rng.standard_normal(op.param.n_params)).apply(u)
    X = np.column_stack([b.apply(u).components.ravel() for b in eq.basis_kernels(op)])
    y = target.components.ravel()
    Rx, c, rho2, norm = _reduce_dataset(op, [(u, target)])
    assert Rx.shape == (11, 11)
    scale = np.linalg.norm(X)
    assert np.allclose(Rx.T @ Rx, X.T @ X, rtol=0.0, atol=1e-13 * scale ** 2)
    assert np.allclose(Rx.T @ c, X.T @ y, rtol=0.0, atol=1e-13 * scale * np.linalg.norm(y))
    assert norm == pytest.approx(float(y @ y), rel=1e-12)
    fit = eq.fit_least_squares(op, [(u, target)])
    assert not fit.flagged
    assert fit.residual < 1e-6
    direct = float(np.sum((X @ fit.amplitudes - y) ** 2) / (y @ y))
    assert fit.residual == pytest.approx(direct, rel=1e-6)
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.allclose(X @ fit.amplitudes, X @ ref, rtol=0.0, atol=1e-3 * np.linalg.norm(y))


@pytest.mark.parametrize("samples", [2, 8])
@pytest.mark.parametrize("l_h", [0, 1])
def test_fit_peak_does_not_grow_with_samples(l_h, samples):
    # with the basis cache warm: four copies of one sample's N*C x cols
    # block (the block, the stack handed to the QR step and its copy) plus
    # one convolution's transforms, about 2^dim N per input, kernel and
    # output component, twice over
    rng = np.random.default_rng(13)
    g = eq.Grid.centered((12, 12, 12))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=l_h)
    data = [(eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, l_h, rng))
            for _ in range(samples)]
    eq.fit_least_squares(op, data)
    tracemalloc.start()
    try:
        eq.fit_least_squares(op, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_voxels, c = 12 ** 3, 2 * l_h + 1
    cols = op.param.n_params + 1
    assert peak <= 8 * n_voxels * (4 * c * cols + 2 * 2 ** 3 * (1 + 2 * c))


def test_fit_rejects_degenerate_inputs():
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    with pytest.raises(ValueError):
        eq.fit_least_squares(op, [])
    zero = eq.TensorField.zeros(g, 0)
    with pytest.raises(ValueError):
        eq.fit_least_squares(op, [(zero, zero)])


def _guard_cases():
    # each reached with everything else valid, on a 5^3 grid
    g = eq.Grid.centered((5, 5, 5))
    rng = np.random.default_rng(23)
    u, v = eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, 0, rng)
    zero = eq.TensorField.zeros(g, 0)
    op = eq.make_neural_op(g, param=_small_param())
    other = eq.TensorField.random(eq.Grid.centered((4, 5, 5)), 0, rng)
    scalar_layer = eq.AttentionLayer.create((0,), (0,), 3)
    return [
        (lambda: eq.loss(op, [(u, other)]), ValueError,
         "dataset fields must live on the operator grid"),
        (lambda: eq.loss(op, [(u, eq.TensorField.random(g, 1, rng))]), eq.RuleError,
         "dataset orders do not match the operator rule"),
        (lambda: eq.loss(op, [(u, zero)]), ValueError,
         "dataset target is identically zero; relative loss undefined"),
        (lambda: eq.fit_gradient_descent(op, [(u, v)], steps=-1), ValueError,
         "steps must be >= 0"),
        (lambda: eq.fit_gradient_descent(op, [(zero, v)]), ValueError,
         "basis responses vanish on this dataset"),
        (lambda: eq.fit_gradient_descent(op, [(u, v)], step_size=0.0), ValueError,
         "step_size must be positive"),
        (lambda: eq.NonlinearLayer([1.0, 2.0], [0.0]), ValueError,
         "a and b must have one value per channel"),
        (lambda: eq.NonlinearLayer([1.0], [0.0], activation="tanh"), ValueError,
         "activation must be relu|identity, got 'tanh'"),
        (lambda: eq.apply_nonlinear(eq.NonlinearLayer([1.0], [0.0]), [u, v]), ValueError,
         "layer has 1 channels, got 2 fields"),
        (lambda: eq.AttentionLayer((0,), (0,), 3, scalar_layer.pairs, np.zeros((2, 1))),
         ValueError, "weights must be (n_output_channels, n_pairs)"),
        (lambda: eq.apply_attention(scalar_layer, [u, v]), ValueError,
         "layer has 1 input channels, got 2 fields"),
        (lambda: eq.apply_attention(scalar_layer, [eq.TensorField.random(g, 1, rng)]),
         eq.RuleError, "field orders do not match the layer's input channels"),
        (lambda: eq.apply_attention(eq.AttentionLayer.create((), (0,), 3), []), ValueError,
         "attention needs at least one input field"),
    ]


@pytest.mark.parametrize("make, error, message", _guard_cases())
def test_learn_guards_name_what_is_wrong(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_apply_neural_validates_input():
    rng = np.random.default_rng(10)
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    with pytest.raises(eq.RuleError):
        op.apply(eq.TensorField.random(g, 1, rng))
    other = eq.Grid.centered((7, 7, 7))
    with pytest.raises(eq.FieldError):
        op.apply(eq.TensorField.random(other, 0, rng))


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    g = eq.Grid.centered((9, 9, 9), spacing=0.5)
    op = eq.make_neural_op(g, kind="dot", l_u=1, l_h=1)
    op = op.with_params(rng.standard_normal(op.param.n_params))
    path = tmp_path / "model.txt"
    eq.save_model(path, op)
    back = eq.load_model(path)
    assert back.rule == op.rule
    assert back.grid == op.grid
    assert np.array_equal(back.param.amplitudes, op.param.amplitudes)
    u = eq.TensorField.random(g, 1, rng)
    assert np.array_equal(back.apply(u).components, op.apply(u).components)


def test_load_model_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("model=nope\n")
    with pytest.raises(eq.FormatError):
        eq.load_model(bad)


# ---------------------------------------------------------------------------
# nonlinearity and attention


def test_nonlinear_identity_passthrough():
    rng = np.random.default_rng(12)
    g = eq.Grid.centered((7, 7, 7))
    u = eq.TensorField.random(g, 1, rng)
    layer = eq.NonlinearLayer([1.0], [0.0], "identity")
    out = eq.apply_nonlinear(layer, [u])[0]
    assert np.allclose(out.components, u.components, atol=1e-15)


def test_nonlinear_relu_gates_by_norm():
    g = eq.Grid.centered((5, 5))
    u = eq.TensorField.zeros(g, 1)
    u.components[0, 2, 2] = 3.0   # norm 3
    u.components[1, 1, 1] = 0.5   # norm 0.5
    layer = eq.NonlinearLayer([1.0], [-1.0], "relu")  # gate = relu(n - 1)
    out = eq.apply_nonlinear(layer, [u])[0]
    # voxel with norm 3 is rescaled to norm 2, direction kept
    assert out.components[0, 2, 2] == pytest.approx(2.0)
    # voxel with norm 0.5 is fully gated off
    assert out.components[1, 1, 1] == 0.0


def test_nonlinear_preserves_direction():
    rng = np.random.default_rng(13)
    g = eq.Grid.centered((7, 7, 7))
    u = eq.TensorField.random(g, 1, rng)
    layer = eq.NonlinearLayer([0.7], [0.2], "relu")
    out = eq.apply_nonlinear(layer, [u])[0]
    cross = np.cross(u.components, out.components, axisa=0, axisb=0, axisc=0)
    assert np.max(np.abs(cross)) < 1e-12  # parallel everywhere


def test_nonlinear_equivariance():
    rng = np.random.default_rng(14)
    g = eq.Grid.centered((7, 7, 7))
    layer = eq.NonlinearLayer([1.3], [0.2], "relu")
    for l in (0, 1, 2):
        u = eq.TensorField.random(g, l, rng)
        for rot in eq.all_rotations(3)[:8]:
            a = eq.apply_nonlinear(layer, [eq.rotate_field(u, rot)])[0]
            b = eq.rotate_field(eq.apply_nonlinear(layer, [u])[0], rot)
            dev = np.max(np.abs(a.components - b.components)) / max(b.max_abs(), 1e-30)
            assert dev < 1e-10


def test_attention_identity_channel():
    rng = np.random.default_rng(15)
    g = eq.Grid.centered((7, 7, 7))
    u = eq.TensorField.random(g, 1, rng)
    att = eq.AttentionLayer.create([1], [1], 3)
    w = np.zeros_like(att.weights)
    w[0, att.pair_index(0, att.identity_channel, "scalar")] = 1.0
    att = eq.AttentionLayer(att.input_l, att.output_l, att.dim, att.pairs, w)
    out = eq.apply_attention(att, [u])[0]
    assert np.allclose(out.components, u.components, atol=1e-15)


def test_attention_pairwise_products():
    rng = np.random.default_rng(16)
    g = eq.Grid.centered((6, 6, 6))
    v1 = eq.TensorField.random(g, 1, rng)
    v2 = eq.TensorField.random(g, 1, rng)
    att = eq.AttentionLayer.create([1, 1], [0], 3)
    w = np.zeros_like(att.weights)
    w[0, att.pair_index(0, 1, "dot")] = 2.0
    att = eq.AttentionLayer(att.input_l, att.output_l, att.dim, att.pairs, w)
    out = eq.apply_attention(att, [v1, v2])[0]
    expect = 2.0 * np.einsum("a...,a...->...", v1.components, v2.components)
    assert np.allclose(out.components[0], expect, atol=1e-13)


def test_attention_equivariance():
    rng = np.random.default_rng(17)
    g = eq.Grid.centered((6, 6, 6))
    fields = [eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, 1, rng)]
    att = eq.AttentionLayer.create([0, 1], [0, 1], 3)
    # randomize only the entries whose pair order matches the output channel
    orders = att.input_l + (0,)
    w = np.zeros_like(att.weights)
    for j, lo in enumerate(att.output_l):
        for k, (a, b, kind) in enumerate(att.pairs):
            if eq.product_rule(kind, orders[a], orders[b], 3).l_v == lo:
                w[j, k] = rng.standard_normal()
    att = eq.AttentionLayer(att.input_l, att.output_l, att.dim, att.pairs, w)
    for rot in eq.all_rotations(3)[:8]:
        rotated = [eq.rotate_field(f, rot) for f in fields]
        a = eq.apply_attention(att, rotated)
        b = [eq.rotate_field(f, rot) for f in eq.apply_attention(att, fields)]
        for fa, fb in zip(a, b):
            dev = np.max(np.abs(fa.components - fb.components)) / max(fb.max_abs(), 1e-30)
            assert dev < 1e-10


def test_attention_validates_output_orders():
    att = eq.AttentionLayer.create([1], [1], 3)
    bad = att.weights.copy()
    # wire a dot-product (l=0) pair into the l=1 output channel
    bad[0, :] = 0.0
    bad[0, att.pair_index(0, 0, "dot")] = 1.0
    with pytest.raises(eq.RuleError):
        eq.AttentionLayer(att.input_l, att.output_l, att.dim, att.pairs, bad)


def test_neural_op_checks_stencil_order_at_construction():
    g = eq.Grid.centered((9, 9, 9))
    rule = eq.product_rule("scalar", 0, 1, 3)
    with pytest.raises(eq.RuleError):
        eq.NeuralOp(eq.ParamRadial(stencils=((1.0, 0),)), rule, g)


def test_load_model_ignores_legacy_path_key(tmp_path):
    rng = np.random.default_rng(13)
    g = eq.Grid.centered((7, 7, 7))
    op = eq.make_neural_op(g, param=_small_param())
    op = op.with_params(rng.standard_normal(op.param.n_params))
    path = tmp_path / "model.txt"
    eq.save_model(path, op)
    assert "path=" not in path.read_text()
    assert "trainable=" not in path.read_text()
    with open(path, "a") as fh:
        fh.write("path=direct\ntrainable=1\n")
    u = eq.TensorField.random(g, 0, rng)
    assert np.array_equal(eq.load_model(path).apply(u).components,
                          op.apply(u).components)


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_model_manifest_round_trip_property(tmp_path, data):
    dim = data.draw(st.sampled_from([2, 3]))
    rule = data.draw(st.sampled_from(eq.supported_rules(dim)))
    shape = tuple(data.draw(st.lists(st.integers(3, 5), min_size=dim, max_size=dim)))
    spacing = data.draw(st.floats(0.25, 2.0))
    g = eq.Grid.centered(shape, spacing=spacing,
                         boundary=data.draw(st.sampled_from(eq.BOUNDARIES)))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    positive = st.floats(1e-3, 10.0)
    gaussians = data.draw(st.lists(st.tuples(finite, positive), max_size=3))
    powers = data.draw(st.lists(st.tuples(finite, st.integers(1, 3), positive),
                                max_size=2))
    stencils = data.draw(st.lists(st.tuples(finite, st.just(rule.l_h)), max_size=1)
                         if rule.l_h <= 1 else st.just([]))
    param = eq.ParamRadial(tuple(gaussians), tuple(powers), tuple(stencils))
    if param.n_params == 0:   # an empty basis has no kernel to apply: rejected
        with pytest.raises(eq.EmptyBasisError):
            eq.NeuralOp(param, rule, g)
        return
    op = eq.NeuralOp(param, rule, g)
    path = tmp_path / "m.eqm"
    eq.save_model(path, op)
    back = eq.load_model(path)
    assert back.grid == g and back.rule == rule
    for name in ("gaussians", "powers", "stencils"):
        # bit-identical amplitudes, widths, exponents, cutoffs and orders
        assert getattr(back.param, name) == getattr(param, name)
    with open(path, "a") as fh:
        fh.write("path=direct\ntrainable=1\n")
    u = eq.TensorField.random(g, rule.l_u, np.random.default_rng(0))
    assert np.array_equal(eq.load_model(path).apply(u).components,
                          op.apply(u).components)
