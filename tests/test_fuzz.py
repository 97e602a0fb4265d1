"""A seeded mutation fuzz of the file readers: EQF headers, model manifests,
trajectory manifests and ``fit`` pair manifests, each built from a valid
file.  Every case runs twice:

- through ``cli.main`` in process, where it exits 0, 2, 3 or 4; a failing
  case prints exactly one ``error:`` line and leaves no output file;
- through the library reader, which loads it or raises a ``ValueError`` or
  ``OSError`` subclass.

Every size is small, or a petabyte that cannot be allocated: never one near
the machine's memory."""

import os
import random

import numpy as np
import pytest

import eqfield as eq
from eqfield.cli import _read_pair_manifest, main

GRID = eq.Grid.centered((5, 6), (1.0, 0.5))
PETA = "100000,100000,100000"   # 10^15 voxels, 7.1 PiB of float64s

# header and manifest keys shared by EQF files and model manifests
GRID_VALUES = {
    "dim": ["2", "3", "0", "-2", "2.5", "", "x"],
    "shape": ["5,6", "6,5", "3,10", "2,15", "30", "5,6,1", "5,-6", "0,0", "5,,6", "5.0,6",
              "", "100000,100000", PETA],
    "spacing": ["1,0.5", "0.5,1", "0,1", "-1,1", "1", "1,0.5,1", "nan,1", "inf,1",
                "1e-300,1", "1e300,1", "", "a,b"],
    "origin": ["0,0", "1e300,0", "nan,0", "inf,0", "0", "0,0,0", "", "x,0"],
    "boundary": ["zero", "periodic", "mirror", "ZERO", ""],
}
HEADER_VALUES = {"l": ["0", "1", "2", "3", "-1", "0.5", "1e9", ""], **GRID_VALUES}
AMPS = ["1", "0.5,-2", "0", "-1e308", "1e308", "nan", "inf", "", "x"]
MODEL_VALUES = {
    "model": ["eqfield-neural-v1", "eqfield-neural-v2", ""],
    **GRID_VALUES,
    "kind": ["scalar", "dot", "cross", "gradient", "wedge", ""],
    "l_u": ["0", "1", "2", "-1", "x"],
    "l_h": ["0", "1", "2", "-1", "x"],
    "gaussian_widths": ["1", "1,2", "0,1", "-1,1", "nan,1", "1e-300,1", "1e300,1", ""],
    "gaussian_amps": AMPS,
    "power_exponents": ["1,2", "2,1", "0,1", "3,1", "-1,1", "1.5,1", "1", ""],
    "power_rmins": ["0.5,0.5", "0,0.5", "-1,0.5", "nan,0.5", "1e300,0.5", ""],
    "power_amps": AMPS,
    "stencil_orders": ["0", "1", "2", "-1", "0,0", ""],
    "stencil_amps": AMPS,
}
TRAJECTORY_VALUES = {
    "model": ["eqfield-trajectory-v1", "eqfield-trajectory-v0", ""],
    "n_frames": ["4", "3", "2", "1", "0", "-1", "5", "1e3", "100000000000", "", "x"],
    "dt": ["0.01", "0.02", "0", "-1", "nan", "inf", "1e300", "1e-300", "", "x"],
    "D": ["0.05", "0", "-1", "nan", "1e300", "1e-300", "", "x"],
    "w": ["0.5,0", "0,0", "1", "0,0,0", "nan,0", "1e300,0", "", "x,0"],
    "source": ["source.eqf", "frame_00000.eqf", "missing.eqf", "trajectory.txt", "", "/"],
    "boundary": ["zero", "periodic", "mirror", ""],
}
PAIR_LINES = ["in0.eqf out0.eqf", "in1.eqf out1.eqf", "in0.eqf in0.eqf", "in0.eqf",
              "in0.eqf out0.eqf out1.eqf", "in0.eqf missing.eqf", "in0.eqf other.eqf",
              "in0.eqf vector.eqf", "zero.eqf zero.eqf", "in0.eqf zero.eqf", ". out0.eqf",
              "in0.eqf\tout0.eqf", "shape=5,6", "# a comment", ""]
EXTRA_LINES = ["no equals sign", "=", "key=", "model", "\udcff\udcfe"]   # the last: not UTF-8


def _set(lines: list, key: str, value: str) -> list:
    return [f"{key}={value}" if line.split("=", 1)[0] == key else line for line in lines]


def _key_cases(rnd, lines: list, values: dict, n: int) -> list:
    """n mutations of a key=value file: one key set to one of its values,
    dropped, or a stray line added."""
    cases = []
    for _ in range(n):
        kind = rnd.random()
        if kind < 0.8:
            key = rnd.choice(list(values))
            value = rnd.choice(values[key])
            cases.append((f"{key}={value}", _set(lines, key, value)))
        elif kind < 0.9:
            key = rnd.choice(list(values))
            cases.append((f"no {key}", [line for line in lines if not line.startswith(key + "=")]))
        else:
            extra = rnd.choice(EXTRA_LINES)
            at = rnd.randrange(len(lines) + 1)
            cases.append((f"line {extra!r}", lines[:at] + [extra] + lines[at:]))
    return cases


def _write_lines(path, lines: list) -> None:
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))


def _run(case: str, argv: list, capsys, output=None) -> int:
    """``main(argv)``: exit 0, 2, 3 or 4; on failure one ``error:`` line on
    stderr and no ``output`` file."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (case, code, err)
    if code == 0:
        assert err == "" and (output is None or os.path.exists(output)), (case, err)
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (case, code, err)
        assert output is None or not os.path.exists(output), (case, code)
    return code


def _loads(read, *args) -> None:
    """The library reader loads, or raises a ValueError or OSError subclass."""
    try:
        read(*args)
    except (ValueError, OSError):
        pass


@pytest.fixture
def field_files(tmp_path):
    """A valid 5x6 scalar field and a model on its grid."""
    u = eq.TensorField.random(GRID, 0, np.random.default_rng(23))
    eq.write_eqf(tmp_path / "u.eqf", u)
    param = eq.default_param_radial(GRID, 0, n_gaussians=2).with_amplitudes(
        [1.0, 0.5, 0.25, -0.5, 2.0])
    eq.save_model(tmp_path / "model.txt", eq.make_neural_op(GRID, param=param))
    return tmp_path


def test_fuzzed_eqf_headers(field_files, capsys):
    rnd = random.Random(2301)
    header, payload = (field_files / "u.eqf").read_bytes().split(b"\n", 1)
    tokens = header.decode("ascii").split()
    cases = []
    for _ in range(120):
        key = rnd.choice(list(HEADER_VALUES))
        value = rnd.choice(HEADER_VALUES[key])
        text = " ".join(_set(tokens, key, value)).encode("ascii")
        cases.append((f"{key}={value}", text, rnd.choice((2, 1, 0))))
    for _ in range(40):   # byte flips in the header line, over the whole payload
        text = bytearray(header)
        for _ in range(rnd.randint(1, 3)):
            text[rnd.randrange(len(text))] = rnd.randrange(256)
        cases.append((f"flipped {bytes(text)!r}", bytes(text), 2))
    commands = (["apply", "grad"], ["apply", str(field_files / "model.txt")], ["check"])
    for n, (name, text, halves) in enumerate(cases):   # the whole payload, half or none
        path = field_files / f"case{n}.eqf"
        path.write_bytes(text + b"\n" + payload[:len(payload) * halves // 2])
        _loads(eq.read_eqf, path)
        command = commands[n % 3]
        if command[0] == "apply":
            out = field_files / f"out{n}.eqf"
            _run(name, [*command, str(path), str(out)], capsys, out)
        else:
            _run(name, [*command, str(path)], capsys)


def test_fuzzed_model_manifests(field_files, capsys):
    rnd = random.Random(2302)
    lines = (field_files / "model.txt").read_text().splitlines()
    # a model whose build would need petabytes: refused
    # at the grid comparison, before anything is allocated
    oversized = _set(_set(_set(_set(lines, "dim", "3"), "shape", PETA), "spacing", "1,1,1"),
                     "origin", "0,0,0")
    cases = [("oversized", oversized)] + _key_cases(rnd, lines, MODEL_VALUES, 100)
    field = str(field_files / "u.eqf")
    codes = []
    for n, (name, mutated) in enumerate(cases):
        path = field_files / f"model{n}.txt"
        _write_lines(path, mutated)
        _loads(eq.read_keyvalues, path)
        _loads(eq.load_model, path)
        out = field_files / f"out{n}.eqf"
        codes.append(_run(name, ["apply", str(path), field, str(out)], capsys, out))
    assert codes[0] == 3


def test_fuzzed_trajectory_manifests(tmp_path, capsys):
    rnd = random.Random(2303)
    u0 = eq.TensorField.random(GRID, 0, np.random.default_rng(24))
    model = eq.DiffusionAdvectionModel(GRID, 0.05, [0.5, 0.0], 0.01)
    eq.save_trajectory(tmp_path / "base", eq.simulate(model, u0, 3), model)
    lines = (tmp_path / "base" / "trajectory.txt").read_text().splitlines()
    frames = {name: (tmp_path / "base" / name).read_bytes()
              for name in os.listdir(tmp_path / "base") if name.endswith(".eqf")}
    # one frame is a trajectory whose parameters are not identifiable
    cases = [("one frame", _set(lines, "n_frames", "1"))]
    codes = []
    for n, (name, mutated) in enumerate(cases + _key_cases(rnd, lines, TRAJECTORY_VALUES, 80)):
        trajdir = tmp_path / f"traj{n}"
        trajdir.mkdir()
        for frame, data in frames.items():
            (trajdir / frame).write_bytes(data)
        _write_lines(trajdir / "trajectory.txt", mutated)
        _loads(eq.read_keyvalues, trajdir / "trajectory.txt")
        _loads(eq.load_trajectory, trajdir)
        codes.append(_run(name, ["estimate", str(trajdir)], capsys))
    assert codes[0] == 4


def test_fuzzed_fit_pair_manifests(tmp_path, capsys):
    rnd = random.Random(2304)
    rng = np.random.default_rng(25)
    op = eq.make_operator("laplacian", GRID)
    for k in range(2):
        u = eq.TensorField.random(GRID, 0, rng)
        eq.write_eqf(tmp_path / f"in{k}.eqf", u)
        eq.write_eqf(tmp_path / f"out{k}.eqf", op.apply(u))
    eq.write_eqf(tmp_path / "other.eqf", eq.TensorField.random(eq.Grid.centered((6, 5)), 0, rng))
    eq.write_eqf(tmp_path / "vector.eqf", eq.TensorField.random(GRID, 1, rng))
    eq.write_eqf(tmp_path / "zero.eqf", eq.TensorField.zeros(GRID, 0))
    for n in range(40):
        lines = [rnd.choice(PAIR_LINES) for _ in range(rnd.randint(0, 3))]
        if rnd.random() < 0.1:
            lines.insert(0, rnd.choice(EXTRA_LINES))
        path = tmp_path / f"pairs{n}.txt"
        _write_lines(path, lines)
        _loads(_read_pair_manifest, path)
        out = tmp_path / f"model{n}.txt"
        _run(repr(lines), ["fit", str(path), "--model", str(out), "--gaussians", "2"], capsys, out)


@pytest.mark.parametrize("text, read, what", [
    ("EQF1 dim=2 l=0 shape=5,6 stray spacing=1,0.5 origin=0,0 boundary=zero\n",
     eq.read_eqf, "header token 'stray'"),
    ("model=eqfield-neural-v1\nstray line\n", eq.read_keyvalues, "line 'stray line'")])
def test_a_token_without_equals_is_malformed(tmp_path, text, read, what):
    path = tmp_path / "bad"
    path.write_text(text)
    with pytest.raises(eq.FormatError) as info:
        read(path)
    assert type(info.value) is eq.FormatError and str(info.value) == f"{path}: malformed {what}"
