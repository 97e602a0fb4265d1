"""End-to-end CLI runs, in process, pinned to the documented exit codes."""

import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqfield as eq
from eqfield.cli import _read_pair_manifest, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_scalar(path, grid, values):
    u = eq.TensorField.from_scalar(grid, values)
    eq.write_eqf(path, u)
    return u


def _blob(grid, width=2.0):
    x = grid.coords()
    return np.exp(-sum(xi ** 2 for xi in x) / (2.0 * width ** 2))


def test_apply_identity_round_trip(tmp_path):
    g = eq.Grid.centered((9, 9, 9))
    src = tmp_path / "in.eqf"
    dst = tmp_path / "out.eqf"
    rng = np.random.default_rng(0)
    u = eq.TensorField.random(g, 1, rng)
    eq.write_eqf(src, u)
    assert main(["apply", "identity", str(src), str(dst)]) == 0
    v, _ = eq.read_eqf(dst)
    assert v.l == 1
    assert np.array_equal(v.components, u.components)


def test_apply_report_file(tmp_path):
    g = eq.Grid.centered((9, 9))
    src = tmp_path / "in.eqf"
    dst = tmp_path / "out.eqf"
    rep = tmp_path / "report.txt"
    _write_scalar(src, g, _blob(g))
    assert main(["apply", "grad", str(src), str(dst),
                 "--report", str(rep)]) == 0
    kv = eq.read_keyvalues(rep)
    assert kv["command"] == "apply"
    assert kv["input.field"] == str(src)
    assert kv["param.operator"] == "grad"
    assert kv["output.0"] == str(dst)
    assert float(kv["metric.wall_seconds"]) >= 0.0
    # floats print with enough digits to round-trip bit exactly
    v, _ = eq.read_eqf(dst)
    norms = np.sqrt(np.sum(v.components ** 2, axis=0))
    assert float(kv["metric.output_max_norm"]) == float(np.max(norms))


def test_apply_path_override(tmp_path):
    g = eq.Grid.centered((9, 9, 9))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    out_d = tmp_path / "d.eqf"
    out_f = tmp_path / "f.eqf"
    assert main(["apply", "laplacian", str(src), str(out_d), "--path", "direct"]) == 0
    assert main(["apply", "laplacian", str(src), str(out_f), "--path", "fourier"]) == 0
    a, _ = eq.read_eqf(out_d)
    b, _ = eq.read_eqf(out_f)
    assert np.allclose(a.components, b.components, atol=1e-12)


def test_apply_path_does_not_outlive_the_command(tmp_path):
    g = eq.Grid.centered((9, 9, 9))
    src = tmp_path / "in.eqf"
    u = _write_scalar(src, g, _blob(g))
    assert main(["apply", "laplacian", str(src), str(tmp_path / "f.eqf"),
                 "--path", "fourier"]) == 0
    direct = eq.conv(u, eq.laplacian_stencil(g), eq.product_rule("scalar", 0, 0, 3),
                     path=eq.DIRECT)
    assert np.array_equal(eq.laplacian(u).components, direct.components)


def test_apply_model_refuses_boundary_before_reading(tmp_path, capsys, monkeypatch):
    # a model keeps the grid it was fitted on, so a moved field could never match it
    model = tmp_path / "m.eqm"
    g = eq.Grid.centered((9, 9, 9))
    eq.save_model(model, eq.make_neural_op(g))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))

    def unread(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(eq.cli, "read_eqf", unread)
    monkeypatch.setattr(eq.cli, "load_model", unread)
    for boundary in eq.BOUNDARIES:
        argv = ["apply", str(model), str(src), str(tmp_path / "o.eqf"), "--boundary", boundary]
        assert main(argv) == 2
        assert "--boundary" in capsys.readouterr().err
    assert not (tmp_path / "o.eqf").exists()


def test_apply_refuses_diffusion_flags_on_other_operators_before_reading(
        tmp_path, capsys, monkeypatch):
    # --D and --t parameterize the heat kernel only; elsewhere they would be ignored
    model = tmp_path / "m.eqm"
    g = eq.Grid.centered((9, 9, 9))
    eq.save_model(model, eq.make_neural_op(g))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))

    def unread(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(eq.cli, "read_eqf", unread)
    monkeypatch.setattr(eq.cli, "load_model", unread)
    for operator in ("grad", "inverse_laplacian", str(model)):
        for flags in (["--D", "1"], ["--t", "0.5"], ["--D", "2", "--t", "0.5"]):
            assert main(["apply", operator, str(src), str(tmp_path / "o.eqf"), *flags]) == 2
            assert "--D and --t" in capsys.readouterr().err
    assert not (tmp_path / "o.eqf").exists()


def test_apply_model_on_another_grid_exits_3(tmp_path, capsys):
    # refused before it is built: a 64^3 model's operator would sample and
    # transform a 127^3 kernel
    model = tmp_path / "m.eqm"
    nop = eq.make_neural_op(eq.Grid.centered((64, 64, 64)))
    eq.save_model(model, nop)
    g = eq.Grid.centered((6, 6, 6))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    tracemalloc.start()
    try:
        code = main(["apply", str(model), str(src), str(tmp_path / "o.eqf")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3 and peak < 2**20
    assert out == "" and err == "error: operator 'neural' was built for another grid\n"
    assert not (tmp_path / "o.eqf").exists()
    with pytest.raises(eq.FieldError, match="^operator 'neural' was built for another grid$"):
        nop.apply(eq.read_eqf(src)[0])
    assert nop not in eq.operators._held


def test_a_shape_too_large_to_allocate_exits_3(capsys):
    # 10^15 voxels, 7.1 PiB: past any address space, so the allocation fails at once
    assert main(["check", "--random", "100000,100000,100000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate 7.11 PiB") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["apply", "grad", "FIELD", "OUT"], ["check", "FIELD"],
                                  ["apply", "laplacian", "FIELD", "OUT"]])
def test_a_spacing_past_the_float_range_exits_3_with_one_line(tmp_path, capsys, argv):
    # a stencil weight that is not finite and non-zero is refused, naming the
    # spacing.  Too fine: the gradient's 1/(2 h^2) divides by an underflowed
    # zero at h = 1e-300 and overflows at 1e-160; at 1e-110 it is 5e219, so
    # grad applies, while the Laplacian's 4 h^3 underflows to 0.  Too coarse:
    # at 6e153 the gradient's weight is subnormal, not 0, so grad applies,
    # while the Laplacian's 4 h^3 overflows; at 1e200 the gradient's 2 h^2
    # overflows too, and at (1e300, 1e10) the voxel volume, the delta's d,
    # does.  check stops before its stencils there, so it runs only to 1e200
    paths = {"FIELD": str(tmp_path / "u.eqf"), "OUT": str(tmp_path / "o.eqf")}
    spacings = [(1e-300, 1.0), (1e-160, 1.0), (1e-110, 1.0), (6e153, 1.0), (1e200, 1.0)]
    for spacing in spacings + ([(1e300, 1e10)] if argv[0] == "apply" else []):
        g = eq.Grid.centered((5, 6), spacing)
        _write_scalar(tmp_path / "u.eqf", g, np.ones(g.shape))
        code = main([paths.get(a, a) for a in argv])
        out, err = capsys.readouterr()
        if argv[1] == "grad" and spacing[0] in (1e-110, 6e153):
            assert code == 0 and err == ""
            (tmp_path / "o.eqf").unlink()
            continue
        assert code == 3 and out == ""
        assert err == f"error: spacing {spacing!r} puts a stencil weight past the float range\n"
        assert not (tmp_path / "o.eqf").exists()


@pytest.mark.parametrize("flags", [[], ["--path", "direct"]])
def test_a_model_whose_kernel_is_not_finite_exits_3_naming_the_kernel(tmp_path, capsys, flags):
    # two Gaussian amplitudes of 1e308 overflow the sampled kernel, which its
    # layout refuses before the transform, whichever path the apply takes
    g = eq.Grid.centered((12, 12, 12))
    op = eq.make_neural_op(g)
    amps = np.zeros(op.param.n_params)
    amps[6] = amps[7] = 1e308
    eq.save_model(tmp_path / "m.eqm", op.with_params(amps))
    _write_scalar(tmp_path / "u.eqf", g, _blob(g))
    argv = ["apply", str(tmp_path / "m.eqm"), str(tmp_path / "u.eqf"), str(tmp_path / "o.eqf")]
    assert main(argv + flags) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: kernel of shape (23, 23, 23) has a non-finite value\n"
    assert not (tmp_path / "o.eqf").exists()


@pytest.mark.parametrize("key,value", [
    ("spacing", "nan,1,1"),
    ("spacing", "-1,1,1"),
    ("origin", "inf,0,0"),
    ("shape", "4294967296,4294967296,3"),   # voxel count overflows int64
    ("payload", "-3"),                      # truncated mid-float
])
def test_bad_header_geometry_exits_2(tmp_path, capsys, key, value):
    g = eq.Grid.centered((5, 5, 5))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    data = src.read_bytes()
    header, payload = data.split(b"\n", 1)
    if key == "payload":
        payload = payload[:int(value)]
    tokens = [f"{key}={value}" if t.startswith(f"{key}=") else t
              for t in header.decode().split()]
    src.write_bytes(" ".join(tokens).encode() + b"\n" + payload)
    assert main(["apply", "identity", str(src), str(tmp_path / "o.eqf")]) == 2
    assert "error:" in capsys.readouterr().err


def _rewrite_manifest_line(path, key, line):
    """Replace the manifest line for ``key`` by ``line`` (bytes; b"" drops it)."""
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(line if raw.startswith(key + b"=") else raw
                                for raw in lines))


# the per-term lists, all empty; stencil_amps is the last one save_model writes
EMPTY_BASIS = b"\n".join(key + b"=" for key in (
    b"gaussian_widths", b"gaussian_amps", b"power_exponents", b"power_rmins",
    b"power_amps", b"stencil_orders", b"stencil_amps"))


@pytest.mark.parametrize("key,line", [
    (b"shape", b""),
    (b"power_exponents", b"power_exponents=a,b"),
    (b"kind", b"kind=scalar\xff"),                  # not UTF-8
    (b"spacing", b"spacing=-1,1,1"),
    (b"gaussian_widths", b"gaussian_widths=-1,1,1,1,1,1,1,1"),
    (b"gaussian_amps", b"gaussian_amps=0"),         # fewer amplitudes than widths
    (b"power_exponents", b"power_exponents=0,2"),
    (b"power_rmins", b"power_rmins=-1,1"),
    (b"gaussian_widths", b"gaussian_widths=nan,1,1,1,1,1,1,1"),
    (b"power_rmins", b"power_rmins=nan,1"),
    (b"gaussian_amps", b"gaussian_amps=nan,0,0,0,0,0,0,0"),
    (b"power_amps", b"power_amps=inf,0"),
    (b"gaussian_widths", b"gaussian_widths=inf,1,1,1,1,1,1,1"),
    (b"power_rmins", b"power_rmins=inf,1"),
    (b"stencil_orders", b"stencil_orders=5"),
    (b"kind", b"kind=outer"),
    pytest.param(b"stencil_amps", EMPTY_BASIS, id="empty-basis"),
])
def test_bad_model_manifest_exits_2(tmp_path, capsys, key, line):
    g = eq.Grid.centered((7, 7, 7))
    model = tmp_path / "m.eqm"
    eq.save_model(model, eq.make_neural_op(g))
    _rewrite_manifest_line(model, key, line)
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    assert main(["apply", str(model), str(src), str(tmp_path / "o.eqf")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if line == b"gaussian_amps=0":
        assert "gaussian_amps" in err and "gaussian_widths" in err
    if line == EMPTY_BASIS:
        assert "empty basis" in err


@pytest.mark.parametrize("key,line", [
    (b"dim", b"dim=2"),                             # beside a 3-d shape
    (b"gaussian_amps", b"gaussian_amps=0,0,0,0,,0,0,0,0"),
    (b"power_exponents", b"power_exponents=1,2,"),
    (b"stencil_orders", b"stencil_orders=,0"),
])
def test_model_manifest_grid_and_list_mismatches_exit_2(tmp_path, capsys, key, line):
    # the text reader keeps every item: an empty one is an error, not a skip
    g = eq.Grid.centered((7, 7, 7))
    model = tmp_path / "m.eqm"
    eq.save_model(model, eq.make_neural_op(g))
    _rewrite_manifest_line(model, key, line)
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    assert main(["apply", str(model), str(src), str(tmp_path / "o.eqf")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_list_item_error_names_its_key_and_position(tmp_path, capsys):
    g = eq.Grid.centered((7, 7, 7))
    model = tmp_path / "m.eqm"
    eq.save_model(model, eq.make_neural_op(g))
    _rewrite_manifest_line(model, b"gaussian_amps", b"gaussian_amps=0,,0,0,0,0,0,0,0")
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    assert main(["apply", str(model), str(src), str(tmp_path / "o.eqf")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "gaussian_amps item 2 is not float: ''" in line


@pytest.mark.parametrize("key,line", [
    (b"n_frames", b""),
    (b"n_frames", b"n_frames=0"),
    (b"dt", b"dt=nan"),
    (b"dt", b"dt=50"),                              # beyond the stability guard
    (b"w", b"w=0,0,0"),                             # a 3-vector on a 2d grid
    (b"boundary", b"boundary=zero"),                # the frames are periodic
    (b"boundary", b"boundary=bogus"),
    (b"boundary", b""),
])
def test_bad_trajectory_manifest_exits_2(tmp_path, capsys, key, line):
    g = eq.Grid.centered((8, 8), boundary=eq.PERIODIC)
    u = eq.TensorField.from_scalar(g, _blob(g))
    model = eq.DiffusionAdvectionModel(g, 0.1, (0.0, 0.0), 0.1)
    eq.save_trajectory(tmp_path / "run", [u, u], model)
    _rewrite_manifest_line(tmp_path / "run" / "trajectory.txt", key, line)
    assert main(["estimate", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err


def test_apply_diffusion_requires_parameters(tmp_path, capsys):
    g = eq.Grid.centered((8, 8))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    assert main(["apply", "diffusion", str(src), str(tmp_path / "o.eqf")]) == 2
    assert "--D" in capsys.readouterr().err
    assert main(["apply", "diffusion", str(src), str(tmp_path / "o.eqf"),
                 "--D", "0.5", "--t", "0.8"]) == 0


def test_apply_unknown_operator(tmp_path, capsys):
    g = eq.Grid.centered((8, 8))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    assert main(["apply", "gradd", str(src), str(tmp_path / "o.eqf")]) == 2
    assert "gradd" in capsys.readouterr().err


def test_apply_rule_mismatch_exits_3(tmp_path, capsys):
    g = eq.Grid.centered((9, 9, 9))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))  # scalar field
    assert main(["apply", "curl", str(src), str(tmp_path / "o.eqf")]) == 3
    assert "error:" in capsys.readouterr().err


def test_unwritable_report_exits_2(tmp_path, capsys):
    g = eq.Grid.centered((8, 8))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    for report in (tmp_path / "no" / "r.txt", tmp_path):   # missing directory, a directory
        assert main(["apply", "grad", str(src), str(tmp_path / "o.eqf"),
                     "--report", str(report)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and str(report) in line


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["apply", "identity", str(tmp_path / "nope.eqf"),
                 str(tmp_path / "o.eqf")]) == 2
    capsys.readouterr()


def test_garbage_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.eqf"
    bad.write_text("not a field\n")
    assert main(["apply", "identity", str(bad), str(tmp_path / "o.eqf")]) == 2
    capsys.readouterr()


def _make_pair_manifest(dirpath, grid, n_pairs, seed):
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(n_pairs):
        rho = eq.diffusion(eq.TensorField.random(grid, 0, rng), 1.0, 0.5)
        phi = eq.inverse_laplacian(rho)
        eq.write_eqf(dirpath / f"rho_{k}.eqf", rho)
        eq.write_eqf(dirpath / f"phi_{k}.eqf", phi)
        lines.append(f"rho_{k}.eqf phi_{k}.eqf")
    manifest = dirpath / f"pairs_{seed}.txt"
    manifest.write_text("# density -> potential\n" + "\n".join(lines) + "\n")
    return manifest


def test_fit_round_trip(tmp_path, capsys):
    g = eq.Grid.centered((9, 9, 9))
    train = _make_pair_manifest(tmp_path, g, 3, seed=1)
    test = _make_pair_manifest(tmp_path, g, 2, seed=2)
    model = tmp_path / "greens.eqm"
    csv = tmp_path / "radial.csv"
    rep = tmp_path / "fit.txt"
    assert main(["fit", str(train), "--model", str(model),
                 "--gaussians", "4", "--test", str(test),
                 "--csv", str(csv), "--reference", "inverse_r",
                 "--report", str(rep)]) == 0
    kv = eq.read_keyvalues(rep)
    assert float(kv["metric.train_relative_mse"]) < 1e-6
    assert float(kv["metric.test_relative_mse"]) < 1e-4
    header = csv.read_text().splitlines()[0]
    assert header == "r,R_fitted,R_reference"
    # the manifest is itself an operator the apply command accepts
    src = tmp_path / "rho_0.eqf"
    out = tmp_path / "phi_hat.eqf"
    assert main(["apply", str(model), str(src), str(out)]) == 0
    phi_hat, _ = eq.read_eqf(out)
    phi, _ = eq.read_eqf(tmp_path / "phi_0.eqf")
    scale = float(np.max(np.abs(phi.components)))
    assert np.allclose(phi_hat.components, phi.components, atol=1e-4 * scale)
    capsys.readouterr()


def test_fit_refuses_reference_without_csv_before_reading(tmp_path, capsys, monkeypatch):
    # the reference is a column of the CSV file, so without one it would be ignored
    train = _make_pair_manifest(tmp_path, eq.Grid.centered((7, 7, 7)), 1, seed=1)

    def unread(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(eq.cli, "read_eqf", unread)
    monkeypatch.setattr(eq.cli, "manifest_lines", unread)
    model = tmp_path / "m.eqm"
    assert main(["fit", str(train), "--model", str(model), "--reference", "inverse_r"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--reference" in err and "--csv" in err
    assert not model.exists()


@pytest.mark.parametrize("flag,value,code", [
    ("--ridge", "-1", 3),
    ("--ridge", "nan", 3),
    ("--ridge", "inf", 3),
    ("--gaussians", "-2", 3),
    ("--ridge", "0", 0),
])
def test_fit_validates_ridge_and_gaussians(tmp_path, capsys, flag, value, code):
    train = _make_pair_manifest(tmp_path, eq.Grid.centered((7, 7, 7)), 1, seed=1)
    assert main(["fit", str(train), "--model", str(tmp_path / "m.eqm"),
                 flag, value]) == code
    if code:
        assert flag.lstrip("-") in capsys.readouterr().err


@settings(derandomize=True, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_pair_manifest_relative_paths_round_trip(tmp_path, monkeypatch, data):
    # relative paths resolve against the manifest's directory, not the cwd
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir(exist_ok=True)
    monkeypatch.chdir(elsewhere)
    dim = data.draw(st.sampled_from([2, 3]))
    shape = data.draw(st.lists(st.integers(3, 5), min_size=dim, max_size=dim))
    g = eq.Grid.centered(shape, spacing=data.draw(st.floats(1e-3, 1e3)),
                         boundary=data.draw(st.sampled_from(eq.BOUNDARIES)))
    l_in, l_out = data.draw(st.lists(st.integers(0, 1), min_size=2, max_size=2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    (tmp_path / "data").mkdir(exist_ok=True)
    pairs, lines = [], ["# input target", ""]
    for k in range(data.draw(st.integers(1, 3))):
        pair = (eq.TensorField.random(g, l_in, rng), eq.TensorField.random(g, l_out, rng))
        names = [f"data/in_{k}.eqf", f"data/out_{k}.eqf"]
        for name, u in zip(names, pair):
            eq.write_eqf(tmp_path / name, u)
        pairs.append(pair)
        lines.append(" ".join(names))
    manifest = tmp_path / "pairs.txt"
    manifest.write_text("\n".join(lines) + "\n")
    back = _read_pair_manifest(str(manifest))
    assert len(back) == len(pairs)
    for got, want in zip(back, pairs):
        for a, b in zip(got, want):
            assert (a.grid, a.l) == (b.grid, b.l)
            assert a.components.tobytes() == b.components.tobytes()


def test_fit_rejects_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "pairs.txt"
    for content, message in ((b"only_one_column.eqf\n", "expected 'input.eqf output.eqf'"),
                             (b"a\xff.eqf b.eqf\n", "not UTF-8 text"),
                             (b"# density -> potential\n\n", "manifest has no field pairs")):
        bad.write_bytes(content)
        assert main(["fit", str(bad), "--model", str(tmp_path / "m.eqm")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: {message}")
    assert not (tmp_path / "m.eqm").exists()


def test_simulate_writes_trajectory(tmp_path, capsys):
    g = eq.Grid.centered((16, 16), boundary=eq.PERIODIC)
    u0 = tmp_path / "u0.eqf"
    _write_scalar(u0, g, _blob(g))
    outdir = tmp_path / "run"
    assert main(["simulate", "none", str(u0), str(outdir),
                 "--D", "0.1", "--wx", "0.2", "--wy", "-0.1",
                 "--dt", "0.5", "--steps", "10"]) == 0
    frames, model = eq.load_trajectory(outdir)
    assert len(frames) == 11
    assert model.D == 0.1
    assert (outdir / "trajectory.txt").exists()
    assert (outdir / "frame_00010.eqf").exists()
    capsys.readouterr()


def test_simulate_3d_takes_its_third_velocity_component(tmp_path, capsys):
    g = eq.Grid.centered((6, 6, 6), boundary=eq.PERIODIC)
    u0 = tmp_path / "u0.eqf"
    _write_scalar(u0, g, _blob(g))
    outdir = tmp_path / "run"
    assert main(["simulate", "none", str(u0), str(outdir),
                 "--D", "0.1", "--wx", "0.2", "--wy", "-0.1", "--wz", "0.3",
                 "--dt", "0.1", "--steps", "2"]) == 0
    frames, model = eq.load_trajectory(outdir)
    assert len(frames) == 3 and frames[-1].grid == g
    assert list(model.w) == [0.2, -0.1, 0.3]
    assert "param.w=0.20000000000000001,-0.10000000000000001,0.29999999999999999" \
        in capsys.readouterr().out.splitlines()


def test_simulate_report_file(tmp_path, capsys):
    g = eq.Grid.centered((8, 8), boundary=eq.PERIODIC)
    u0, src, rep = tmp_path / "u0.eqf", tmp_path / "src.eqf", tmp_path / "sim.txt"
    _write_scalar(u0, g, _blob(g))
    eq.write_eqf(src, eq.point_source(g))
    assert main(["simulate", str(src), str(u0), str(tmp_path / "run"),
                 "--D", "0.1", "--wx", "0.2", "--wy", "-0.1", "--dt", "0.5", "--steps", "3",
                 "--report", str(rep)]) == 0
    kv = eq.read_keyvalues(rep)
    printed = capsys.readouterr().out.splitlines()
    assert kv["command"] == "simulate" and kv["input.source"] == str(src)
    assert kv["param.boundary"] == "periodic" and kv["output.0"] == str(tmp_path / "run")
    assert [f"{k}={v}" for k, v in kv.items()] == printed[-len(kv):]


def test_simulate_source_on_another_grid_exits_3(tmp_path, capsys):
    # the source moves onto u0's boundary, never onto another spacing
    g = eq.Grid.centered((8, 8), boundary=eq.PERIODIC)
    u0, src = tmp_path / "u0.eqf", tmp_path / "src.eqf"
    _write_scalar(u0, g, _blob(g))
    argv = ["simulate", str(src), str(u0), str(tmp_path / "run"),
            "--D", "0.1", "--wx", "0.2", "--wy", "-0.1", "--dt", "0.5", "--steps", "3"]
    eq.write_eqf(src, eq.point_source(g.with_boundary(eq.ZERO)))
    assert main(argv) == 0
    assert "param.boundary=periodic" in capsys.readouterr().out.splitlines()
    eq.write_eqf(src, eq.point_source(eq.Grid.centered((8, 8), spacing=2.0,
                                                        boundary=eq.PERIODIC)))
    argv[3] = str(tmp_path / "run2")
    assert main(argv) == 3
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and line.startswith("error:") and "source" in line
    assert not (tmp_path / "run2").exists()


def test_simulate_unstable_dt_exits_4(tmp_path, capsys):
    g = eq.Grid.centered((16, 16), boundary=eq.PERIODIC)
    u0 = tmp_path / "u0.eqf"
    _write_scalar(u0, g, _blob(g))
    assert main(["simulate", "none", str(u0), str(tmp_path / "run"),
                 "--D", "0.1", "--wx", "0.2", "--wy", "-0.1",
                 "--dt", "5.0", "--steps", "10"]) == 4
    assert "largest stable dt" in capsys.readouterr().err


def test_simulate_non_finite_diffusivity_exits_3(tmp_path, capsys):
    g = eq.Grid.centered((16, 16), boundary=eq.PERIODIC)
    u0 = tmp_path / "u0.eqf"
    _write_scalar(u0, g, _blob(g))
    assert main(["simulate", "none", str(u0), str(tmp_path / "run"),
                 "--D", "nan", "--wx", "0.2", "--wy", "-0.1",
                 "--dt", "0.5", "--steps", "10"]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("shape, extra, message", [
    ((6, 6, 6), [], "needs --wz"),
    ((8, 8), ["--wz", "0"], "--wz given for a 2d grid"),
    ((8, 8), ["--steps", "-1"], "n_steps must be >= 0")])
def test_simulate_argument_errors_exit_3(tmp_path, capsys, shape, extra, message):
    g = eq.Grid.centered(shape)
    u0 = tmp_path / "u0.eqf"
    _write_scalar(u0, g, _blob(g))
    argv = ["simulate", "none", str(u0), str(tmp_path / "run"), "--D", "0.1",
            "--wx", "0", "--wy", "0", "--dt", "0.1", "--steps", "2"]
    assert main(argv + extra) == 3
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and line.startswith("error:") and message in line
    assert not (tmp_path / "run").exists()


def test_estimate_recovers_parameters(tmp_path, capsys):
    g = eq.Grid.centered((16, 16), boundary=eq.PERIODIC)
    u0 = tmp_path / "u0.eqf"
    src = tmp_path / "src.eqf"
    _write_scalar(u0, g, np.zeros(g.shape))
    eq.write_eqf(src, eq.point_source(g, rate=1.0))
    outdir = tmp_path / "run"
    assert main(["simulate", str(src), str(u0), str(outdir),
                 "--D", "0.1", "--wx", "0.2", "--wy", "-0.1",
                 "--dt", "0.5", "--steps", "20"]) == 0
    rep = tmp_path / "est.txt"
    assert main(["estimate", str(outdir), "--report", str(rep)]) == 0
    kv = eq.read_keyvalues(rep)
    assert float(kv["metric.D_relative_error"]) < 1e-6
    assert float(kv["metric.w_relative_error"]) < 1e-6
    # the smoothing flag must not break the exact recovery
    assert main(["estimate", str(outdir), "--smooth", "2.0"]) == 0
    capsys.readouterr()
    for sigma in ("nan", "-1", "inf"):
        assert main(["estimate", str(outdir), "--smooth", sigma]) == 3
        assert "smooth_sigma" in capsys.readouterr().err


def test_estimate_smoothing_width_past_the_float_range_exits_3(tmp_path, capsys):
    # the heat-kernel time sigma^2/4 overflows
    g = eq.Grid.centered((8, 8), boundary=eq.PERIODIC)
    u0 = tmp_path / "u0.eqf"
    _write_scalar(u0, g, _blob(g))
    outdir = tmp_path / "run"
    assert main(["simulate", "none", str(u0), str(outdir), "--D", "0.1", "--wx", "0",
                 "--wy", "0", "--dt", "0.1", "--steps", "2"]) == 0
    capsys.readouterr()
    for sigma in ("1e200", "1.35e154", "1.7976931348623157e308"):
        assert main(["estimate", str(outdir), "--smooth", sigma]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: smooth_sigma") and len(err.splitlines()) == 1


def test_estimate_unidentifiable_exits_4(tmp_path, capsys):
    g = eq.Grid.centered((8, 8), boundary=eq.PERIODIC)
    u = eq.TensorField.from_scalar(g, np.ones(g.shape))
    model = eq.DiffusionAdvectionModel(g, 0.1, (0.0, 0.0), 0.1)
    eq.save_trajectory(tmp_path / "flat", [u, u, u], model)
    assert main(["estimate", str(tmp_path / "flat")]) == 4
    capsys.readouterr()


def test_estimate_one_frame_exits_4(tmp_path, capsys):
    # simulate --steps 0 writes a valid one-frame trajectory, which identifies nothing
    g = eq.Grid.centered((8, 8), boundary=eq.PERIODIC)
    u0 = tmp_path / "u0.eqf"
    _write_scalar(u0, g, _blob(g))
    outdir = tmp_path / "run"
    assert main(["simulate", "none", str(u0), str(outdir), "--D", "0.1", "--wx", "0.2",
                 "--wy", "-0.1", "--dt", "0.5", "--steps", "0"]) == 0
    capsys.readouterr()
    assert main(["estimate", str(outdir)]) == 4
    assert "two frames" in capsys.readouterr().err


def test_estimate_frame_on_another_grid_exits_3(tmp_path, capsys):
    g = eq.Grid.centered((9, 9), boundary=eq.PERIODIC)
    u = eq.TensorField.from_scalar(g, _blob(g))
    model = eq.DiffusionAdvectionModel(g, 0.1, (0.0, 0.0), 0.1)
    eq.save_trajectory(tmp_path / "run", [u, u, u], model)
    coarse = eq.Grid.centered((9, 9), spacing=2.0, boundary=eq.PERIODIC)
    eq.write_eqf(tmp_path / "run" / "frame_00002.eqf",
                 eq.TensorField.from_scalar(coarse, _blob(g)))
    assert main(["estimate", str(tmp_path / "run")]) == 3
    assert "one grid" in capsys.readouterr().err


def test_check_random_passes(capsys):
    assert main(["check", "--random", "9,9,9", "--l", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("shape, item", [("5,a,5", "item 2 is not int: 'a'"),
                                         ("5,,5", "item 2 is not int: ''"),
                                         ("5,5,", "item 3 is not int: ''")])
def test_check_random_with_a_malformed_shape_exits_2(shape, item, capsys):
    assert main(["check", "--random", shape]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert err.startswith("error:") and item in err and len(err.splitlines()) == 1


def test_check_refuses_a_file_and_random_before_reading(tmp_path, capsys, monkeypatch):
    # one of the two would be ignored
    g = eq.Grid.centered((9, 9, 9))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))

    def unread(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(eq.cli, "read_eqf", unread)
    assert main(["check", str(src), "--random", "9,9,9"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and err.startswith("error:") and "--random" in err


@pytest.mark.parametrize("order", ["0", "1", "2"])
def test_check_refuses_an_order_with_a_file_before_reading(tmp_path, capsys, monkeypatch,
                                                           order):
    # --l sets the order of a generated field; a file's field has its own
    g = eq.Grid.centered((9, 9, 9))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))

    def unread(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(eq.cli, "read_eqf", unread)
    assert main(["check", str(src), "--l", order]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "--l" in err
    assert len(err.splitlines()) == 1


def test_check_corrupt_is_a_negative_control(capsys):
    assert main(["check", "--random", "9,9,9", "--corrupt"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_on_saved_field(tmp_path, capsys):
    g = eq.Grid.centered((10, 10))
    src = tmp_path / "in.eqf"
    _write_scalar(src, g, _blob(g))
    rep = tmp_path / "check.txt"
    assert main(["check", str(src), "--report", str(rep)]) == 0
    kv = eq.read_keyvalues(rep)
    assert kv["metric.checks_passed"] == kv["metric.checks_total"]
    capsys.readouterr()


def test_check_on_a_cube_with_unequal_spacing_keeps_its_four_rotations(tmp_path, capsys):
    # a quarter turn would exchange axes of different spacing; only the
    # identity and the three half turns map the lattice onto itself
    g = eq.Grid.centered((6, 6, 6), (1.0, 2.0, 3.0))
    src = tmp_path / "aniso.eqf"
    eq.write_eqf(src, eq.TensorField.random(g, 0, np.random.default_rng(0)))
    assert main(["check", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS equivariance") == 3 and out.count("[4 rotations]") == 3
    assert "FAIL" not in out


def test_check_boundary_flag_moves_the_file_field(tmp_path, capsys):
    g = eq.Grid.centered((8, 8))
    values = np.random.default_rng(12).standard_normal(g.shape)
    reports = []
    for name, boundary, flag in (("zero", eq.ZERO, ["--boundary", eq.PERIODIC]),
                                 ("periodic", eq.PERIODIC, [])):
        src = tmp_path / f"u_{name}.eqf"
        _write_scalar(src, g.with_boundary(boundary), values)
        code = main(["check", str(src), *flag])
        reports.append((code, capsys.readouterr().out.replace(str(src), "FIELD")))
    assert reports[0] == reports[1]
    assert "param.boundary=periodic" in reports[0][1].splitlines()


@pytest.mark.parametrize("shape", ["4,4,4", "4,4"])
def test_check_refuses_a_grid_without_an_interior(shape, capsys):
    # the calculus identities leave out 2 voxels at every face
    assert main(["check", "--random", shape]) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert err.startswith("error:") and "at least 5 voxels" in err and len(err.splitlines()) == 1


def test_run_checks_refuses_a_tiny_grid_before_any_convolution(monkeypatch):
    calls = []
    for path in ("conv_direct", "conv_fourier"):
        monkeypatch.setattr(eq.convolve, path, lambda *args: calls.append(args))
    u = eq.TensorField.random(eq.Grid.centered((3, 3, 3)), 0, np.random.default_rng(0))
    with pytest.raises(eq.GridError, match="at least 5 voxels"):
        eq.run_checks(u)
    with pytest.raises(eq.GridError, match="at least 5 voxels"):
        eq.checks.check_calculus(u.grid, np.random.default_rng(0))
    assert calls == []


@pytest.mark.parametrize("shape, l, forward, inverse", [
    ((7, 7, 7), 1, 284, 210), ((7, 7, 7), 0, 108, 270), ((12, 12), 1, 70, 40)])
def test_run_checks_transforms_one_spectrum_per_rule_and_boundary(fft_calls, shape, l,
                                                                  forward, inverse):
    u = eq.TensorField.random(eq.Grid.centered(shape), l, np.random.default_rng(0))
    assert eq.all_passed(eq.run_checks(u))
    assert (len(fft_calls.forward), len(fft_calls.inverse)) == (forward, inverse)


def test_check_without_input_exits_2(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()


def _fresh_python(code, *argv):
    """Run ``code`` with ``argv`` in a fresh interpreter that imports this eqfield."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    # numpy is the package's one numerical dependency; check in a fresh interpreter
    code = ("import eqfield.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_RECORDS = {"Grid", "TensorField", "ProductRule", "RadialProfile", "KernelField",
            "EquivariantOp", "LatticeRotation", "CheckResult", "ParamRadial", "NeuralOp",
            "FitResult", "NonlinearLayer", "AttentionLayer", "DiffusionAdvectionModel",
            "EstimateResult", "RunReport"}


def test_cli_import_generates_no_dataclass_code():
    # the record classes are written out, so importing the CLI in a fresh
    # interpreter processes no dataclass and no eqfield class has dataclass fields
    code = ("import dataclasses, sys\n"
            "import numpy\n"
            "calls, process = [], dataclasses._process_class\n"
            "def counted(cls, *args):\n"
            "    calls.append(cls.__qualname__)\n"
            "    return process(cls, *args)\n"
            "dataclasses._process_class = counted\n"
            "import eqfield.cli\n"
            "classes = {c for m in list(sys.modules.values()) for c in vars(m).values()\n"
            "           if isinstance(c, type) and c.__module__.startswith('eqfield.')}\n"
            "print(calls)\n"
            "print(sorted(c.__name__ for c in classes if hasattr(c, '__dataclass_fields__')))\n"
            "print(sorted(c.__name__ for c in classes))\n")
    out = _fresh_python(code)
    assert out.returncode == 0, out.stderr
    calls, dataclasses, classes = out.stdout.splitlines()
    assert calls == "[]" and dataclasses == "[]"
    assert _RECORDS <= set(eval(classes))


def test_check_loads_no_numpy_random():
    # check draws its fields from the standard library's generator, so no
    # command imports numpy.random; run in a fresh interpreter
    code = ("import contextlib, io, sys\n"
            "from eqfield.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['--seed', '3', 'check', '--random', '7,7,7', '--l', '1'])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = _fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 []"


def test_check_seed_repeats_its_fields(capsys):
    runs = {}
    for seed in ("3", "3", "4"):
        assert main(["--seed", seed, "check", "--random", "6,5", "--l", "1"]) == 0
        runs.setdefault(seed, []).append(capsys.readouterr().out)
    assert runs["3"][0] == runs["3"][1] != runs["4"][0]


def test_negative_seed_is_refused_before_any_work(capsys, tmp_path):
    # random.Random would take -1 as seed 1; the input file is not read
    missing = str(tmp_path / "missing.eqf")
    for argv in (["check", "--random", "7,7,7"], ["check", missing]):
        assert main(["--seed", "-1", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must be a non-negative integer, got -1\n"


_EXIT_PROBE = ("import atexit, gc, sys\n"
               "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0,"
               " gc.isenabled()))\n")


@pytest.mark.parametrize("start", [
    # as `python -m eqfield.cli` runs it
    "import runpy\n"
    "sys.argv[0] = 'eqfield'\n"
    "runpy.run_module('eqfield.cli', run_name='__main__')\n",
    # as the installed `eqfield` script runs it; the import alone freezes nothing
    "import eqfield.cli\n"
    "print('imported', gc.get_freeze_count(), gc.isenabled())\n"
    "sys.exit(eqfield.cli.entry(sys.argv[1:]))\n"], ids=["python_m", "entry"])
def test_cli_process_freezes_its_imports_before_the_command(tmp_path, start):
    src = tmp_path / "in.eqf"
    g = eq.Grid.centered((5, 5))
    _write_scalar(src, g, _blob(g))
    out = _fresh_python(_EXIT_PROBE + start, "apply", "identity", str(src),
                        str(tmp_path / "out.eqf"))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "at exit True True"
    assert "command: apply" in lines
    if "imported" in start:
        assert lines[0] == "imported 0 True"
    assert eq.read_eqf(tmp_path / "out.eqf")[0].components.tobytes() == \
        eq.read_eqf(src)[0].components.tobytes()


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    # library callers, tests and the bench's probe call main in long-lived processes
    src = tmp_path / "in.eqf"
    g = eq.Grid.centered((5, 5))
    _write_scalar(src, g, _blob(g))
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["apply", "identity", str(src), str(tmp_path / "out.eqf")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before
    capsys.readouterr()


def test_console_script_starts_at_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"eqfield": "eqfield.cli:entry"}
