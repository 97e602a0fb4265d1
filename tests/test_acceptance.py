"""Acceptance suite: nine headline properties, one PASS/FAIL line each.

Run with -s to see the lines; every criterion is also a hard assertion.
"""

import math
import time

import numpy as np
import pytest

import eqfield as eq


def _report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _max_rel(a, b):
    scale = max(float(np.max(np.abs(b.components))), 1e-300)
    return float(np.max(np.abs(a.components - b.components))) / scale


def _dipole(grid):
    rho = np.zeros(grid.shape)
    c = tuple(int(i) for i in grid.center_index())
    rho[c[0] + 2, c[1], c[2]] = 1.0
    rho[c[0] - 2, c[1], c[2]] = -1.0
    return eq.TensorField.from_scalar(grid, rho)


def _random_densities(grid, count, seed):
    # band-limited random charge blobs, zero away from the center
    rng = np.random.default_rng(seed)
    return [eq.diffusion(eq.TensorField.random(grid, 0, rng), 1.0, 0.5)
            for _ in range(count)]


def _one_shot_fit(kind, l_h, truth_fn):
    """Fit one dipole->truth pair on 16^3, return (op, train, test, wall)."""
    g = eq.Grid.centered((16, 16, 16))
    rho = _dipole(g)
    target = truth_fn(rho)
    t0 = time.perf_counter()
    op = eq.make_neural_op(g, kind=kind, l_u=0, l_h=l_h,
                           param=eq.default_param_radial(g, l_h))
    result = eq.fit_least_squares(op, [(rho, target)])
    fitted = op.with_params(result.amplitudes)
    train = math.sqrt(eq.loss(fitted, [(rho, target)]))
    test = 0.0
    for rho_t in _random_densities(g, 20, seed=11):
        pair = [(rho_t, truth_fn(rho_t))]
        test = max(test, math.sqrt(eq.loss(fitted, pair)))
    wall = time.perf_counter() - t0
    return fitted, train, test, wall


@pytest.fixture(scope="module")
def poisson_fit():
    return _one_shot_fit("scalar", 0, eq.inverse_laplacian)


@pytest.fixture(scope="module")
def gauss_fit():
    return _one_shot_fit("scalar", 1, eq.gauss_law)


def test_criterion_1_one_shot_poisson(poisson_fit):
    _, train, test, wall = poisson_fit
    ok = train < 0.002 and test < 0.01 and wall < 30.0
    _report(1, ok, f"one-shot Poisson train={train:.2e} (<0.2%) "
                   f"test={test:.2e} (<1%) wall={wall:.2f}s (<30s)")


def test_criterion_2_one_shot_gauss_law(gauss_fit):
    _, train, test, wall = gauss_fit
    ok = train < 0.002 and test < 0.01 and wall < 30.0
    _report(2, ok, f"one-shot Gauss law train={train:.2e} (<0.2%) "
                   f"test={test:.2e} (<1%) wall={wall:.2f}s (<30s)")


def test_criterion_3_radial_functions_match(poisson_fit, gauss_fit):
    h = 1.0
    r = np.linspace(2.0 * h, 4.0 * h, 9)
    worst = 0.0
    for fitted, reference in ((poisson_fit[0], eq.inverse_r()),
                              (gauss_fit[0], eq.inverse_r2())):
        truth = reference(r)
        dev = np.max(np.abs(fitted.param.evaluate(r) - truth) / truth)
        worst = max(worst, float(dev))
    _report(3, worst < 0.05,
            f"fitted R(r) vs 1/(4 pi r), 1/(4 pi r^2) on [2h,4h]: "
            f"max rel dev={worst:.2e} (<5%)")


def test_criterion_4_parameter_estimation():
    g = eq.Grid.centered((32, 32), boundary=eq.PERIODIC)
    src = eq.point_source(g, rate=1.0)
    model = eq.DiffusionAdvectionModel(g, 0.1, (0.2, -0.1), 0.5, source=src)
    t0 = time.perf_counter()
    traj = eq.simulate(model, eq.TensorField.zeros(g, 0), 49)
    clean = eq.estimate_parameters(traj, model.dt, source=src)
    err_clean = max(abs(clean.D - 0.1) / 0.1,
                    float(np.max(np.abs(clean.w - model.w))) / 0.2)
    rng = np.random.default_rng(4)
    noisy = []
    for u in traj:
        rms = float(np.sqrt(np.mean(u.components ** 2)))
        bump = 0.01 * rms * rng.standard_normal(u.components.shape)
        noisy.append(eq.TensorField(g, 0, u.components + bump))
    est = eq.estimate_parameters(noisy, model.dt, source=src, smooth_sigma=2.0)
    err_noisy = max(abs(est.D - 0.1) / 0.1,
                    float(np.max(np.abs(est.w - model.w))) / 0.2)
    wall = time.perf_counter() - t0
    ok = err_clean < 1e-6 and err_noisy < 0.05 and wall < 10.0
    _report(4, ok, f"50-frame recovery: noiseless={err_clean:.2e} (<1e-6) "
                   f"1% noise={err_noisy:.2e} (<5%) wall={wall:.2f}s (<10s)")


def test_criterion_5_equivariance_suite():
    g = eq.Grid.centered((9, 9, 9))
    rng = np.random.default_rng(5)
    named = [
        ("identity", 0, eq.make_operator("identity", g).apply),
        ("grad", 0, eq.grad),
        ("laplacian", 0, eq.laplacian),
        ("inverse_laplacian", 0, eq.inverse_laplacian),
        ("gauss_law", 0, eq.gauss_law),
        ("diffusion", 0, lambda u: eq.diffusion(u, 0.5, 0.8)),
        ("div", 1, eq.div),
        ("curl", 1, eq.curl),
    ]
    neural_specs = [("scalar", 0, 0), ("scalar", 0, 1), ("dot", 1, 1),
                    ("cross", 1, 1), ("matvec", 2, 1)]
    for kind, l_u, l_h in neural_specs:
        op = eq.make_neural_op(g, kind=kind, l_u=l_u, l_h=l_h)
        op = op.with_params(rng.standard_normal(op.param.n_params))
        named.append((f"neural {kind}({l_u},{l_h})", l_u,
                      lambda u, _op=op: _op.apply(u)))
    rotations = eq.all_rotations(3)
    worst, worst_name = 0.0, ""
    for name, l_u, fn in named:
        u = eq.TensorField.random(g, l_u, rng)
        ref = fn(u)
        for rot in rotations:
            dev = _max_rel(fn(eq.rotate_field(u, rot)), eq.rotate_field(ref, rot))
            if dev > worst:
                worst, worst_name = dev, name
    ok = worst < 1e-10
    _report(5, ok, f"{len(named)} operators x {len(rotations)} rotations: "
                   f"max dev={worst:.2e} at {worst_name!r} (<1e-10)")


def test_criterion_6_path_equivalence():
    rng = np.random.default_rng(6)
    rules = list(eq.supported_rules(3))
    worst = 0.0
    for k in range(10):
        rule = rules[k % len(rules)]
        boundary = eq.PERIODIC if k % 2 else eq.ZERO
        g = eq.Grid.centered((9, 9, 9), boundary=boundary)
        u = eq.TensorField.random(g, rule.l_u, rng)
        kg = eq.kernel_grid((3, 3, 3), g.spacing)
        kern = eq.KernelField(eq.TensorField.random(kg, rule.l_h, rng), rule.l_h)
        d = eq.conv(u, kern, rule, path=eq.DIRECT)
        f = eq.conv(u, kern, rule, path=eq.FOURIER)
        worst = max(worst, _max_rel(f, d))
    _report(6, worst < 1e-10,
            f"direct vs fourier on 10 stencil pairs: max dev={worst:.2e} (<1e-10)")


def test_criterion_7_calculus_identities():
    g = eq.Grid.centered((11, 11, 11))
    rng = np.random.default_rng(7)
    f = eq.TensorField.random(g, 0, rng)
    v = eq.TensorField.random(g, 1, rng)
    inner = (slice(None),) + (slice(2, -2),) * 3

    gf = eq.grad(f)
    lap = eq.laplacian(f)
    dev_dg = (np.max(np.abs((eq.div(gf) - lap).components[inner]))
              / np.max(np.abs(lap.components[inner])))
    gscale = float(np.max(np.abs(gf.components)))
    dev_cg = np.max(np.abs(eq.curl(gf).components[inner])) / gscale
    cscale = float(np.max(np.abs(v.components)))  # spacing 1: no h factor
    dev_dc = np.max(np.abs(eq.div(eq.curl(v)).components[inner])) / cscale
    worst = float(max(dev_dg, dev_cg, dev_dc))
    _report(7, worst < 1e-10,
            f"div grad=laplacian {dev_dg:.2e}, curl grad {dev_cg:.2e}, "
            f"div curl {dev_dc:.2e} (<1e-10 interior)")


def test_criterion_8_gradient_correctness():
    rng = np.random.default_rng(8)
    g = eq.Grid.centered((9, 9, 9))
    specs = [("scalar", 0, 0), ("scalar", 0, 1), ("dot", 1, 1),
             ("cross", 1, 1), ("matvec", 2, 1)]
    worst = 0.0
    for kind, l_u, l_h in specs:
        op = eq.make_neural_op(g, kind=kind, l_u=l_u, l_h=l_h)
        op = op.with_params(rng.standard_normal(op.param.n_params))
        rule = eq.product_rule(kind, l_u, l_h, 3)
        dataset = [(eq.TensorField.random(g, l_u, rng),
                    eq.TensorField.random(g, rule.l_v, rng))
                   for _ in range(2)]
        analytic = eq.grad_params(op, dataset)
        fd = np.zeros_like(analytic)
        eps = 1e-6
        p = op.param.amplitudes
        for i in range(len(p)):
            step = np.zeros_like(p)
            step[i] = eps
            fd[i] = (eq.loss(op.with_params(p + step), dataset)
                     - eq.loss(op.with_params(p - step), dataset)) / (2 * eps)
        dev = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
        worst = max(worst, float(dev))
    _report(8, worst < 1e-6,
            f"grad_params vs central differences on 5 configs: "
            f"max rel dev={worst:.2e} (<1e-6)")


def test_criterion_9_fourier_scaling():
    cases = []
    for n in (32, 64):
        g = eq.Grid.centered((n, n, n))
        u = eq.TensorField.random(g, 0, np.random.default_rng(9))
        op = eq.make_operator("inverse_laplacian", g)
        op.apply(u)  # warm-up: kernel FFT and plan
        cases.append((op, u))
    # the sizes take turns, so a change in the machine's load reaches both
    best = [math.inf, math.inf]
    for _ in range(5):
        for i, (op, u) in enumerate(cases):
            t0 = time.perf_counter()
            op.apply(u)
            best[i] = min(best[i], time.perf_counter() - t0)
    factor = best[1] / best[0]
    _report(9, factor < 16.0,
            f"fourier apply 32^3 -> 64^3 wall factor={factor:.2f} "
            f"(<16; quadratic would be 64)")
