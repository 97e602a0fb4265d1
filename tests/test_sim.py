"""Time stepping and parameter recovery for the diffusion-advection model."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqfield as eq


def _periodic(shape, spacing=1.0):
    return eq.Grid.centered(shape, spacing=spacing, boundary=eq.PERIODIC)


def test_max_stable_dt_formula():
    g = eq.Grid.centered((16, 16), spacing=0.5)
    # diffusion-limited: 0.5 * h^2 / (2 dim D)
    assert eq.max_stable_dt(g, 1.0, (0.0, 0.0)) == pytest.approx(0.5 * 0.25 / 4.0)
    # advection-limited: 0.5 * h / |w|
    assert eq.max_stable_dt(g, 0.0, (3.0, 4.0)) == pytest.approx(0.5 * 0.5 / 5.0)
    assert eq.max_stable_dt(g, 0.0, (0.0, 0.0)) == math.inf


def test_stability_guard_at_construction():
    g = _periodic((16, 16))
    limit = eq.max_stable_dt(g, 1.0, (0.0, 0.0))
    eq.DiffusionAdvectionModel(g, 1.0, (0.0, 0.0), 0.99 * limit)
    with pytest.raises(eq.StabilityError):
        eq.DiffusionAdvectionModel(g, 1.0, (0.0, 0.0), 1.01 * limit)


def test_model_validation():
    g = _periodic((8, 8))
    with pytest.raises(ValueError):
        eq.DiffusionAdvectionModel(g, -0.1, (0.0, 0.0), 0.01)
    with pytest.raises(ValueError):
        eq.DiffusionAdvectionModel(g, 0.1, (0.0, 0.0, 0.0), 0.01)
    with pytest.raises(ValueError):
        eq.DiffusionAdvectionModel(g, 0.1, (0.0, 0.0), -0.5)


def test_model_values_cannot_be_reset_past_their_checks():
    w = np.array([0.2, -0.1])
    model = eq.DiffusionAdvectionModel(_periodic((8, 8)), 0.1, w, 0.5)
    for name, value in (("dt", 50.0), ("D", 10.0), ("w", np.zeros(2)), ("source", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)
    with pytest.raises(ValueError):
        model.w[0] = 5.0
    w[0] = 5.0   # the model holds its own copy
    assert model.w.tolist() == [0.2, -0.1] and model.dt == 0.5


def test_constant_state_grows_linearly_with_source():
    # lap and grad of a constant vanish, so u_n = u0 + n dt s exactly
    g = _periodic((12, 12))
    s = eq.TensorField.from_scalar(g, np.full(g.shape, 0.3))
    model = eq.DiffusionAdvectionModel(g, 0.2, (0.1, -0.2), 0.1, source=s)
    u0 = eq.TensorField.from_scalar(g, np.full(g.shape, 1.5))
    traj = eq.simulate(model, u0, 7)
    assert len(traj) == 8
    for n, u in enumerate(traj):
        assert np.allclose(u.components, 1.5 + n * 0.1 * 0.3, atol=1e-13)


def test_time_derivative_oracle():
    g = eq.Grid.centered((11, 11), spacing=0.5)
    x = g.coords()
    u = eq.TensorField.from_scalar(g, x[0] ** 2 + 3.0 * x[1])
    s = eq.TensorField.from_scalar(g, np.full(g.shape, 0.7))
    model = eq.DiffusionAdvectionModel(g, 0.4, (0.2, -0.1), 0.01, source=s)
    out = eq.time_derivative(model, u)
    # s + D*2 - (w_x * 2x + w_y * 3), exact on the interior for a quadratic
    expect = 0.7 + 0.4 * 2.0 - (0.2 * 2.0 * x[0] - 0.1 * 3.0)
    inner = (slice(None), slice(2, -2), slice(2, -2))
    assert np.allclose(out.components[inner], expect[None][inner], atol=1e-12)


def test_time_derivative_takes_a_scalar_on_the_model_grid_only():
    g = eq.Grid.centered((7, 7), spacing=0.5)
    model = eq.DiffusionAdvectionModel(g, 0.4, (0.2, -0.1), 0.01)
    for u in (eq.TensorField.zeros(eq.Grid.centered((7, 7)), 0),
              eq.TensorField.zeros(g.with_boundary(eq.PERIODIC), 0),
              eq.TensorField.zeros(g, 1)):
        with pytest.raises(ValueError,
                           match="^state must be a scalar field on the model grid$"):
            eq.time_derivative(model, u)


def test_pure_diffusion_mode_decay_exact():
    # a periodic sine is an eigenvector of the double-step laplacian with
    # eigenvalue -sin^2(k h)/h^2, so Euler multiplies it by a known factor
    n, m, D = 16, 3, 0.3
    g = _periodic((n, n))
    x = g.coords()
    k = 2.0 * math.pi * m / n
    u0 = eq.TensorField.from_scalar(g, np.sin(k * x[0]))
    dt = 0.5 * eq.max_stable_dt(g, D, (0.0, 0.0))
    model = eq.DiffusionAdvectionModel(g, D, (0.0, 0.0), dt)
    steps = 12
    traj = eq.simulate(model, u0, steps)
    factor = 1.0 - dt * D * math.sin(k) ** 2
    assert np.allclose(traj[-1].components, factor ** steps * u0.components,
                       atol=1e-13)


def test_simulation_is_rotation_equivariant():
    rng = np.random.default_rng(40)
    g = _periodic((12, 12, 12))
    src = eq.TensorField.random(g, 0, rng)
    model = eq.DiffusionAdvectionModel(g, 0.15, (0.2, -0.1, 0.05), 0.2, source=src)
    u0 = eq.TensorField.random(g, 0, rng)
    rot = eq.axis_rotation(2, 1)
    traj = eq.simulate(model, u0, 5)
    traj_rot = eq.simulate(model.rotated(rot), eq.rotate_field(u0, rot), 5)
    for a, b in zip(traj, traj_rot):
        ref = eq.rotate_field(a, rot)
        assert np.allclose(b.components, ref.components, atol=1e-12)


def test_simulate_aborts_on_nonfinite():
    g = _periodic((8, 8))
    model = eq.DiffusionAdvectionModel(g, 0.1, (0.0, 0.0), 0.1)
    u0 = eq.TensorField.zeros(g, 0)
    u0.components[0, 2, 2] = math.inf
    with pytest.raises(eq.SimulationError, match="step 1"):
        eq.simulate(model, u0, 3)


def test_point_source_placement():
    g = eq.Grid.centered((9, 9))
    s = eq.point_source(g, rate=2.0)
    c = tuple(int(i) for i in g.center_index())
    assert s.components[(0,) + c] == 2.0  # rate is a density
    assert np.sum(s.components != 0.0) == 1
    s2 = eq.point_source(g, rate=1.0, index=(1, 2))
    assert s2.components[0, 1, 2] != 0.0
    # even axes have no center voxel; placement rounds down and must not raise
    even = eq.point_source(eq.Grid.centered((10, 10)))
    assert even.components[0, 4, 4] == 1.0


# ---------------------------------------------------------------------------
# parameter estimation


def _reference_run(seed=0, noise=0.0, shape=(24, 24), frames=30):
    rng = np.random.default_rng(seed)
    g = _periodic(shape)
    src = eq.point_source(g, rate=1.0)
    model = eq.DiffusionAdvectionModel(g, 0.1, (0.2, -0.1), 0.5, source=src)
    traj = eq.simulate(model, eq.TensorField.zeros(g, 0), frames - 1)
    if noise > 0.0:
        noisy = []
        for u in traj:
            rms = float(np.sqrt(np.mean(u.components ** 2)))
            bump = noise * rms * rng.standard_normal(u.components.shape)
            noisy.append(eq.TensorField(g, 0, u.components + bump))
        traj = noisy
    return traj, model


def test_estimation_noiseless_round_trip():
    traj, model = _reference_run()
    est = eq.estimate_parameters(traj, model.dt, source=model.source)
    assert abs(est.D - 0.1) / 0.1 < 1e-8
    assert np.max(np.abs(est.w - model.w)) < 1e-8
    assert est.residual < 1e-16


def test_estimation_smoothing_keeps_noiseless_exact():
    traj, model = _reference_run()
    est = eq.estimate_parameters(traj, model.dt, source=model.source,
                                 smooth_sigma=2.0)
    assert abs(est.D - 0.1) / 0.1 < 1e-8
    assert np.max(np.abs(est.w - model.w)) < 1e-8


def test_estimation_with_noise_stays_within_bound():
    traj, model = _reference_run(seed=3, noise=0.01)
    est = eq.estimate_parameters(traj, model.dt, source=model.source,
                                 smooth_sigma=2.0)
    assert abs(est.D - 0.1) / 0.1 < 0.05
    assert np.max(np.abs(est.w - model.w)) < 0.05 * np.max(np.abs(model.w))


def test_smoothing_removes_noise_bias_on_decaying_field():
    # a freely decaying field has weak late frames, where noise correlates
    # with its own laplacian feature and drags D down; the commuting
    # prefilter suppresses that bias by an order of magnitude
    rng = np.random.default_rng(0)
    g = _periodic((24, 24))
    u0 = eq.diffusion(eq.TensorField.random(g, 0, rng), 1.0, 1.0)
    model = eq.DiffusionAdvectionModel(g, 0.1, (0.2, -0.1), 0.5)
    traj = eq.simulate(model, u0, 39)
    noise_rng = np.random.default_rng(3)
    noisy = []
    for u in traj:
        rms = float(np.sqrt(np.mean(u.components ** 2)))
        bump = 0.01 * rms * noise_rng.standard_normal(u.components.shape)
        noisy.append(eq.TensorField(g, 0, u.components + bump))
    naive = eq.estimate_parameters(noisy, model.dt)
    smoothed = eq.estimate_parameters(noisy, model.dt, smooth_sigma=2.0)
    assert abs(naive.D - 0.1) / 0.1 > 0.005     # the bias is real
    assert abs(smoothed.D - 0.1) / 0.1 < 0.005  # and the filter removes it


def test_estimation_guards():
    g = _periodic((8, 8))
    u = eq.TensorField.zeros(g, 0)
    with pytest.raises(ValueError):
        eq.estimate_parameters([u], 0.1)
    with pytest.raises(eq.EstimationError):
        eq.estimate_parameters([u, u, u], 0.1)  # constant: features vanish


def test_fewer_than_two_frames_are_unidentifiable():
    # a one-frame trajectory (simulate --steps 0) has no transition to fit
    g = _periodic((8, 8))
    u = eq.TensorField.random(g, 0, np.random.default_rng(4))
    for frames in ([u], []):
        with pytest.raises(eq.EstimationError, match="need at least two frames"):
            eq.estimate_parameters(frames, 0.1)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_estimation_rejects_a_non_positive_or_non_finite_dt(dt):
    g = _periodic((8, 8))
    u = eq.TensorField.random(g, 0, np.random.default_rng(4))
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        eq.estimate_parameters([u, u * 0.5], dt)


def test_constant_trajectory_is_unidentifiable():
    # the features of a constant field vanish exactly, so the reduced
    # factor has rank 0, with or without a source and smoothing
    g = _periodic((6, 6))
    u = eq.TensorField.from_scalar(g, np.full(g.shape, 2.5))
    with pytest.raises(eq.EstimationError):
        eq.estimate_parameters([u, u, u], 0.1)
    with pytest.raises(eq.EstimationError):
        eq.estimate_parameters([u, u, u], 0.1, source=eq.point_source(g), smooth_sigma=1.0)


def test_estimation_matches_stacked_lstsq_reference():
    # the reference row-stacks every frame's features into one matrix
    traj, model = _reference_run(seed=3, noise=0.01, frames=8)
    est = eq.estimate_parameters(traj, model.dt, source=model.source)
    X = np.concatenate([
        np.column_stack([eq.laplacian(u).components.ravel()]
                        + [-c.ravel() for c in eq.grad(u).components])
        for u in traj[:-1]])
    y = np.concatenate([((b.components - a.components) / model.dt
                         - model.source.components).ravel()
                        for a, b in zip(traj, traj[1:])])
    theta, res, rank, svals = np.linalg.lstsq(X, y, rcond=None)
    assert rank == 3
    assert est.D == pytest.approx(theta[0], rel=1e-10)
    assert np.allclose(est.w, theta[1:], rtol=1e-10, atol=0.0)
    assert est.condition == pytest.approx(svals[0] / svals[-1], rel=1e-10)
    assert est.residual == pytest.approx(res[0] / float(y @ y), rel=1e-8)


@pytest.mark.parametrize("bad", ["last_frame_spacing", "last_frame_vector",
                                 "source_grid", "source_vector"])
def test_estimation_checks_every_frame_and_the_source(bad):
    rng = np.random.default_rng(4)
    g = _periodic((9, 9))
    traj = [eq.TensorField.random(g, 0, rng) for _ in range(3)]
    source = eq.TensorField.random(g, 0, rng)
    if bad == "last_frame_spacing":
        traj[-1] = eq.TensorField(_periodic((9, 9), spacing=2.0), 0, traj[-1].components)
    elif bad == "last_frame_vector":
        traj[-1] = eq.TensorField.random(g, 1, rng)
    elif bad == "source_grid":
        source = eq.TensorField.random(_periodic((9, 8)), 0, rng)
    else:
        source = eq.TensorField.random(g, 1, rng)
    with pytest.raises(ValueError, match="scalar fields on one grid"):
        eq.estimate_parameters(traj, 0.1, source=source)


def _traced_peak(fn):
    fn()   # warm the operator caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("frames", [4, 16])
def test_estimation_peak_does_not_grow_with_frames(frames):
    # one frame's block of N x (dim + 2) features at a time: the block, the
    # stack handed to the QR step and its copy, and the per-frame fields
    rng = np.random.default_rng(5)
    g = _periodic((16, 16, 16))
    traj = [eq.TensorField.random(g, 0, rng) for _ in range(frames)]
    source = eq.TensorField.random(g, 0, rng)
    peak = _traced_peak(lambda: eq.estimate_parameters(traj, 0.1, source=source,
                                                       smooth_sigma=2.0))
    n_voxels, cols = 16 ** 3, 3 + 2
    assert peak <= 8 * n_voxels * 6 * cols


def test_trajectory_save_load_round_trip(tmp_path):
    traj, model = _reference_run(frames=4, shape=(10, 10))
    out = tmp_path / "run"
    eq.save_trajectory(out, traj, model)
    frames, back = eq.load_trajectory(out)
    assert len(frames) == 4
    for a, b in zip(frames, traj):
        assert np.array_equal(a.components, b.components)
    assert back.D == model.D
    assert np.array_equal(back.w, model.w)
    assert back.dt == model.dt
    assert np.array_equal(back.source.components, model.source.components)


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_trajectory_round_trip_property(tmp_path, data):
    dim = data.draw(st.sampled_from([2, 3]))
    shape = data.draw(st.lists(st.integers(3, 5), min_size=dim, max_size=dim))
    g = eq.Grid.centered(shape, spacing=data.draw(st.floats(1e-3, 1e3)),
                         boundary=data.draw(st.sampled_from(eq.BOUNDARIES)))
    D = data.draw(st.floats(0.0, 1e3))
    w = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
    limit = min(eq.max_stable_dt(g, D, w), 1.0)
    dt = data.draw(st.floats(1e-6, 1.0)) * limit
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = eq.DiffusionAdvectionModel(g, D, w, dt, eq.TensorField.random(g, 0, rng))
    traj = [eq.TensorField.random(g, 0, rng)
            for _ in range(data.draw(st.integers(1, 3)))]
    out = tmp_path / "run"
    eq.save_trajectory(out, traj, model)
    frames, back = eq.load_trajectory(out)
    assert len(frames) == len(traj)
    for a, b in zip(frames, traj):
        assert a.grid == b.grid and a.components.tobytes() == b.components.tobytes()
    assert back.source.components.tobytes() == model.source.components.tobytes()
    assert (back.D, back.dt) == (model.D, model.dt)
    assert back.w.tobytes() == model.w.tobytes()


def test_load_trajectory_rejects_garbage(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "trajectory.txt").write_text("model=other\n")
    with pytest.raises(eq.FormatError):
        eq.load_trajectory(d)


@pytest.mark.parametrize("D,w,dt", [
    (math.nan, (0.0, 0.0), 0.01),
    (math.inf, (0.0, 0.0), 0.01),
    (0.1, (math.nan, 0.0), 0.01),
    (0.1, (0.0, -math.inf), 0.01),
    (0.1, (0.0, 0.0), math.nan),
    (0.1, (0.0, 0.0), math.inf),
])
def test_model_rejects_non_finite_parameters(D, w, dt):
    with pytest.raises(ValueError) as info:
        eq.DiffusionAdvectionModel(_periodic((8, 8)), D, w, dt)
    assert not isinstance(info.value, eq.StabilityError)
