"""Trainable radial functions: bases, fitting routes, layers, model files."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqfield as eq
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
    ref = eq.sample_kernel(basis[0].field.grid, eq.inverse_r(), 0)
    scaled = basis[0].field.components * (1.0 / (4.0 * math.pi))
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


def test_loss_builds_the_learned_kernel_once(monkeypatch):
    rng = np.random.default_rng(11)
    g = eq.Grid.centered((9, 9, 9))
    op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=0, param=_small_param())
    op = op.with_params(rng.standard_normal(4))
    data = [(eq.TensorField.random(g, 0, rng), eq.TensorField.random(g, 0, rng))
            for _ in range(4)]
    expect = eq.loss(op, data)
    kernel, calls = eq.NeuralOp.kernel, []
    monkeypatch.setattr(eq.NeuralOp, "kernel", lambda self: calls.append(1) or kernel(self))
    assert eq.loss(op, data) == expect
    assert len(calls) == 1


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
    X = np.column_stack([eq.conv(u, b, op.rule, boundary=eq.ZERO).components.ravel()
                         for b in eq.basis_kernels(op)])
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
