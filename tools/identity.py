"""Identity harness: does a change keep every output of the package, to the bit?

Runs one fixed corpus of eqfield calls on small grids in a fresh Python
process for each of two source trees, and compares SHA-256 digests of what
each case produced: arrays (dtype, shape and bytes), floats by their repr,
stdout, stderr, exit codes and the files a CLI command wrote, with every
``wall_seconds`` line dropped.  It prints each case that differs, and the
parts of it that do, and exits 1 if any case differs (2 if a tree cannot be
loaded).

    python tools/identity.py                  # this tree against HEAD~1
    python tools/identity.py --against REV    # against a git revision
    python tools/identity.py --against DIR    # against a tree holding src/eqfield

A revision is unpacked with ``git archive``.  Both processes run at once,
single-threaded (OMP/OPENBLAS/MKL threads = 1), each in its own empty
working directory, so the CLI cases read and write relative paths there.
The corpus covers every registry operator (2d and 3d, both boundaries, the
default, direct and Fourier paths, its kernel and spectrum, and an even
first-axis work length; ``gauss_law`` at 32^3 and ``inverse_laplacian`` at
11 x 11, whose zero-boundary work lengths are 7-smooth; the builds of a
periodic heat kernel wider than its grid and of the 32^3 inverse
Laplacian, spectrum and signs), ``conv`` for every
supported rule (and a wide l_h = 2 kernel, an aliased periodic one and one
with inversion parity alone), ``rotate_field`` for every rotation,
``run_checks`` with and without ``corrupt``, a one-sample learned fit for
l_h = 0 and 1, two learned operators at fixed amplitudes (16^3 with l_h = 0,
its kernel several sampling slabs long and its delta term live; 10 x 7 with
l_h = 1 on an anisotropic grid: kernel, spectrum, signs, bytes and both
paths), ``estimate_parameters`` with and without smoothing, and every CLI
subcommand, exit codes 0 to 4.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
DROPPED = "wall_seconds"   # lines holding a timing differ from run to run


# ------------------------------------------------------------------ digests

def _feed(h, value) -> None:
    import numpy as np
    if isinstance(value, np.ndarray):
        h.update(f"ndarray {value.dtype.str} {value.shape}|".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif hasattr(value, "components") and hasattr(value, "grid"):   # a TensorField
        h.update(f"field l={value.l} {value.grid!r}|".encode())
        _feed(h, value.components)
    elif hasattr(value, "field") and hasattr(value, "l_h"):   # a KernelField
        h.update(f"kernel l_h={value.l_h}|".encode())
        _feed(h, value.field)
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__} {len(value)}|".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(f"dict {len(value)}|".encode())
        for key in sorted(value):
            h.update(f"{key!r}:".encode())
            _feed(h, value[key])
    elif isinstance(value, bytes):
        h.update(f"bytes {len(value)}|".encode() + value)
    else:
        h.update(f"{type(value).__name__} {value!r}|".encode())


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _without_timings(data: bytes) -> bytes:
    if DROPPED.encode() not in data:
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if DROPPED.encode() not in line)


# ------------------------------------------------------------------ corpus

def _registry_cases(eq, np):
    # (label suffix, shape, spacing, boundaries); N0 = 7 makes the zero-boundary
    # work length 7 + 6 = 13, rounded up to an even 14 on the first axis
    grids = [("2d", (6, 5), (0.7, 1.1), eq.BOUNDARIES),
             ("3d", (5, 4, 3), (0.7, 1.1, 0.9), eq.BOUNDARIES),
             ("3d N0=7", (7, 4, 3), (0.7, 1.1, 0.9), (eq.ZERO,))]
    for suffix, shape, spacing, boundaries in grids:
        for boundary in boundaries:
            g = eq.Grid.centered(shape, spacing, boundary=boundary)
            for name, build in eq.REGISTRY.items():
                if name == "gauss_law" and g.dim == 2:
                    continue
                # D t = 0.005 keeps the heat kernel at most 5 wide (direct); 0.5 does not
                times = (0.005, 0.5) if name == "diffusion" else (None,)
                for t in times:
                    params = {} if t is None else {"D": 1.0, "t": t}
                    label = f"op {name}{'' if t is None else f' t={t}'} {suffix} {boundary}"

                    def run(g=g, build=build, params=params):
                        op = build(g, **params)
                        u = eq.TensorField.random(g, op.input_l or 0, np.random.default_rng(1))
                        return {"kernel": op.kernel, "spectrum": op.spectrum,
                                "nbytes": op.nbytes, "default": op.apply(u),
                                "direct": op.apply(u, path=eq.DIRECT),
                                "fourier": op.apply(u, path=eq.FOURIER)}
                    yield label, run
    # zero-boundary work lengths that are 11-smooth but not 5-smooth on every
    # axis: 63 at 32^3 (the greens benchmark's gauss_law), 21 at 11 x 11
    for name, shape in (("gauss_law", (32, 32, 32)), ("inverse_laplacian", (11, 11))):
        def run(name=name, shape=shape):
            g = eq.Grid.centered(shape, 0.9)
            u = eq.TensorField.random(g, 0, np.random.default_rng(1))
            return {"default": eq.REGISTRY[name](g).apply(u)}
        yield f"op {name} {'x'.join(map(str, shape))} zero", run
    # builds: a heat kernel (17 x 15 x 13) wider than its 9 x 8 x 7 periodic
    # grid, whose layout sums aliased offsets, and the 32^3 inverse Laplacian
    for name, shape, boundary, params in (
            ("diffusion", (9, 8, 7), eq.PERIODIC, {"D": 1.0, "t": 0.5}),
            ("inverse_laplacian", (32, 32, 32), eq.ZERO, {})):
        def run(name=name, shape=shape, boundary=boundary, params=params):
            g = eq.Grid.centered(shape, 0.9, boundary=boundary)
            op = eq.REGISTRY[name](g, **params)
            u = eq.TensorField.random(g, 0, np.random.default_rng(1))
            return {"spectrum": op.spectrum, "signs": op.signs, "nbytes": op.nbytes,
                    "default": op.apply(u)}
        yield f"op {name} build {'x'.join(map(str, shape))} {boundary}", run


def _conv_cases(eq, np):
    for dim, spacing in ((2, (0.7, 1.1)), (3, (0.7, 1.1, 0.9))):
        shape = (6, 5, 4)[:dim]
        for rule in eq.supported_rules(dim):
            for width in (3, 7):
                for boundary in eq.BOUNDARIES:
                    def run(rule=rule, width=width, boundary=boundary, dim=dim,
                            spacing=spacing, shape=shape):
                        rng = np.random.default_rng(2)
                        g = eq.Grid.centered(shape, spacing)
                        kernel = eq.sample_kernel(eq.kernel_grid((width,) * dim, spacing),
                                                  eq.gaussian(1.5), rule.l_h)
                        u = eq.TensorField.random(g, rule.l_u, rng)
                        return {str(path): eq.conv(u, kernel, rule, path=path,
                                                   boundary=boundary)
                                for path in (None, eq.DIRECT, eq.FOURIER)}
                    yield f"conv {rule} {dim}d width={width} {boundary}", run

    def run_wide(shape, l_h, width, boundary, spacing=(0.7, 1.1, 0.9)):
        # a sampled kernel of order l_h, wider than the default cases
        g = eq.Grid.centered(shape, spacing)
        kernel = eq.sample_kernel(eq.kernel_grid((width,) * 3, spacing), eq.gaussian(1.5), l_h)
        rule = eq.product_rule("scalar", 0, l_h, 3)
        u = eq.TensorField.random(g, 0, np.random.default_rng(9))
        return {str(path): eq.conv(u, kernel, rule, path=path, boundary=boundary)
                for path in (None, eq.DIRECT, eq.FOURIER)}
    # 13 wide on N0 = 7: an even zero-boundary work length (14) on the first axis
    yield "conv l_h=2 3d width=13 zero N0=7", lambda: run_wide((7, 5, 4), 2, 13, eq.ZERO)
    # 11 wide on a 5 x 4 x 3 periodic field: the layout wraps each axis more than once
    yield "conv l_h=1 3d width=11 periodic aliased", \
        lambda: run_wide((5, 4, 3), 1, 11, eq.PERIODIC)

    def run_xy(boundary):
        # exp(x y) exp(-z^2) is even under inversion, but neither even nor odd
        # under the reflection of x alone
        spacing = (0.7, 1.1, 0.9)
        x, y, z = np.ix_(*((np.arange(7) - 3) * h for h in spacing))
        values = (np.exp(x * y) * np.exp(-z * z))[None]
        kernel = eq.KernelField(eq.TensorField(eq.kernel_grid((7,) * 3, spacing), 0, values), 0)
        g = eq.Grid.centered((6, 5, 4), spacing)
        u = eq.TensorField.random(g, 0, np.random.default_rng(10))
        rule = eq.product_rule("scalar", 0, 0, 3)
        return {"spectrum": eq.EquivariantOp("xy", g, kernel, "scalar", boundary).spectrum,
                **{str(path): eq.conv(u, kernel, rule, path=path, boundary=boundary)
                   for path in (None, eq.DIRECT, eq.FOURIER)}}
    for boundary in eq.BOUNDARIES:
        yield f"conv f(xy) l_h=0 3d {boundary}", lambda boundary=boundary: run_xy(boundary)


def _rotation_cases(eq, np):
    for dim, shape in ((2, (6, 6)), (3, (4, 4, 4))):
        for l in (0, 1, 2)[:dim]:
            def run(dim=dim, shape=shape, l=l):
                u = eq.TensorField.random(eq.Grid.centered(shape, 0.5), l,
                                          np.random.default_rng(3))
                return {str(i): eq.rotate_field(u, rot)
                        for i, rot in enumerate(eq.all_rotations(dim))}
            yield f"rotate_field {dim}d l={l}", run


def _check_cases(eq, np):
    for shape, l, corrupt in (((5, 5, 5), 0, False), ((5, 5, 5), 1, False),
                              ((5, 5, 5), 1, True), ((6, 5), 1, False), ((6, 5), 0, True)):
        def run(shape=shape, l=l, corrupt=corrupt):
            u = eq.TensorField.random(eq.Grid.centered(shape), l, np.random.default_rng(4))
            results = eq.run_checks(u, np.random.default_rng(5), corrupt=corrupt)
            return {"results": [(r.name, r.deviation, r.tolerance, r.passed) for r in results]}
        yield f"run_checks {shape} l={l} corrupt={corrupt}", run


def _learn_cases(eq, np):
    for l_h in (0, 1):
        def run(l_h=l_h):
            g = eq.Grid.centered((5, 5, 5), 0.8)
            f = eq.TensorField.random(g, 0, np.random.default_rng(6))
            target = eq.inverse_laplacian(f) if l_h == 0 else eq.gauss_law(f)
            op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=l_h,
                                   param=eq.default_param_radial(g, l_h))
            fit = eq.fit_least_squares(op, [(f, target)])
            fitted = op.with_params(fit.amplitudes)
            return {"amplitudes": fit.amplitudes, "residual": fit.residual,
                    "condition": fit.condition, "flagged": fit.flagged,
                    "apply": fitted.apply(f), "direct": fitted.apply(f, path=eq.DIRECT),
                    "loss": eq.loss(fitted, [(f, target)])}
        yield f"learn fit l_h={l_h}", run
    # learned operators at fixed amplitudes: a 16^3 scalar one, whose 31^3
    # kernel spans several sampling slabs, with a live delta term and one
    # Gaussian switched off, and a 10 x 7 vector one on an anisotropic grid
    for shape, spacing, l_h in (((16, 16, 16), 1.0, 0), ((10, 7), (1.0, 0.7), 1)):
        def run(shape=shape, spacing=spacing, l_h=l_h):
            g = eq.Grid.centered(shape, spacing)
            op = eq.make_neural_op(g, kind="scalar", l_u=0, l_h=l_h)
            amps = np.random.default_rng(12).standard_normal(op.param.n_params)
            amps[2] = 0.0
            learned = op.with_params(amps).operator
            u = eq.TensorField.random(g, 0, np.random.default_rng(13))
            return {"kernel": learned.kernel, "spectrum": learned.spectrum,
                    "signs": learned.signs, "nbytes": learned.nbytes,
                    "default": learned.apply(u), "direct": learned.apply(u, path=eq.DIRECT)}
        yield f"learn op {'x'.join(map(str, shape))} l_h={l_h}", run


def _estimate_cases(eq, np):
    for smooth in (0.0, 1.0):
        def run(smooth=smooth):
            g = eq.Grid.centered((8, 7), 1.0, boundary=eq.PERIODIC)
            model = eq.DiffusionAdvectionModel(g, 0.1, [0.2, -0.1], 0.2,
                                               eq.point_source(g, 0.5))
            u0 = eq.TensorField.random(g, 0, np.random.default_rng(7))
            traj = eq.simulate(model, u0, 4)
            est = eq.estimate_parameters(traj, model.dt, model.source, smooth_sigma=smooth)
            return {"trajectory": traj, "D": est.D, "w": est.w,
                    "residual": est.residual, "condition": est.condition}
        yield f"estimate_parameters smooth={smooth}", run


CLI = [   # (label, argv); run in order in one working directory
    ("apply grad", "apply grad in.eqf grad.eqf --report r_grad.txt"),
    ("apply grad fourier", "apply grad in.eqf grad_f.eqf --path fourier"),
    ("apply curl periodic", "apply curl vec.eqf curl.eqf --boundary periodic"),
    ("apply inverse_laplacian", "apply inverse_laplacian in.eqf il.eqf"),
    ("apply inverse_laplacian direct", "apply inverse_laplacian in.eqf il_d.eqf --path direct"),
    ("apply gauss_law", "apply gauss_law in.eqf gl.eqf"),
    ("apply diffusion", "apply diffusion in.eqf heat.eqf --D 1 --t 0.5"),
    ("apply diffusion short", "apply diffusion in.eqf heat_s.eqf --D 1 --t 0.005"),
    ("fit", "fit pairs.txt --model m.eqm --test pairs.txt --csv radial.csv "
            "--reference inverse_r --report r_fit.txt"),
    ("fit vector", "fit pairs_v.txt --model mv.eqm --l-h 1 --gaussians 3"),
    ("apply model", "apply m.eqm in.eqf out.eqf"),
    ("apply model direct", "apply m.eqm in.eqf out_d.eqf --path direct"),
    ("simulate", "simulate src.eqf in.eqf traj --D 0.1 --wx 0.2 --wy -0.1 --wz 0.1 "
                 "--dt 0.2 --steps 3 --report r_sim.txt"),
    ("estimate", "estimate traj"),
    ("estimate smooth", "estimate traj --smooth 1.0"),
    ("check", "check --random 6,5 --l 1 --boundary periodic"),
    ("check file", "check plane.eqf --boundary periodic --report r_check.txt"),
    ("check corrupt (exit 1)", "check --random 5,6 --corrupt"),
    ("apply grad --D (exit 2)", "apply grad in.eqf bad.eqf --D 1"),
    ("apply unknown (exit 2)", "apply nosuch in.eqf bad.eqf"),
    ("check bad shape (exit 2)", "check --random 5,a,5"),
    ("check missing file (exit 2)", "check missing.eqf"),
    ("check file --l (exit 2)", "check in.eqf --l 1"),
    ("apply grad bad path (argparse)", "apply grad in.eqf bad.eqf --path spectral"),
    ("check tiny (exit 3)", "check --random 4,4,4"),
    ("apply model other grid (exit 3)", "apply m.eqm other.eqf bad.eqf"),
    ("estimate huge smooth (exit 3)", "estimate traj --smooth 1e200"),
    ("simulate 3d without --wz (exit 3)", "simulate none in.eqf traj_e --D 0.1 --wx 0 "
                                          "--wy 0 --dt 0.1 --steps 2"),
    ("simulate 2d with --wz (exit 3)", "simulate none flat.eqf traj_e --D 0.1 --wx 0 "
                                       "--wy 0 --wz 0 --dt 0.1 --steps 2"),
    ("simulate negative steps (exit 3)", "simulate none in.eqf traj_e --D 0.1 --wx 0 "
                                         "--wy 0 --wz 0 --dt 0.1 --steps -1"),
    ("simulate unstable (exit 4)", "simulate none in.eqf traj_u --D 10 --wx 0 --wy 0 "
                                   "--wz 0 --dt 1 --steps 1"),
    ("simulate one frame", "simulate none in.eqf traj_0 --D 0.1 --wx 0 --wy 0 --wz 0 "
                           "--dt 0.1 --steps 0"),
    ("estimate one frame (exit 4)", "estimate traj_0"),
]


def _files() -> dict:
    found = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.normpath(path)] = digest(_without_timings(fh.read()))
    return found


def _cli_cases(eq, np):
    from eqfield.cli import main

    def setup():
        rng = np.random.default_rng(8)
        g = eq.Grid.centered((6, 6, 6), 0.9)
        rho = eq.TensorField.random(g, 0, rng)
        eq.write_eqf("in.eqf", rho)
        eq.write_eqf("vec.eqf", eq.TensorField.random(g, 1, rng))
        eq.write_eqf("src.eqf", eq.point_source(g, 0.5))
        eq.write_eqf("phi.eqf", eq.inverse_laplacian(rho))
        eq.write_eqf("e.eqf", eq.gauss_law(rho))
        eq.write_eqf("plane.eqf", eq.TensorField.random(eq.Grid.centered((5, 6), 0.9), 1, rng))
        eq.write_eqf("other.eqf", eq.TensorField.random(eq.Grid.centered((5, 5, 5)), 0, rng))
        eq.write_eqf("flat.eqf", eq.TensorField.random(eq.Grid.centered((5, 6), 0.9), 0, rng))
        with open("pairs.txt", "w") as fh:
            fh.write("in.eqf phi.eqf\n")
        with open("pairs_v.txt", "w") as fh:
            fh.write("in.eqf e.eqf\n")
        return _files()
    yield "cli setup", setup

    for label, argv in CLI:
        def run(argv=argv):
            before = _files()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv.split())
                except SystemExit as exc:   # argparse's own usage errors
                    code = exc.code
            after = _files()
            return {"exit": code,
                    "stdout": _without_timings(out.getvalue().encode()),
                    "stderr": _without_timings(err.getvalue().encode()),
                    "files": {p: d for p, d in after.items() if before.get(p) != d}}
        yield f"cli {label}", run


def corpus():
    """(label, thunk) for every case, in a fixed order."""
    import numpy as np

    import eqfield as eq
    for group in (_registry_cases, _conv_cases, _rotation_cases, _check_cases,
                  _learn_cases, _estimate_cases, _cli_cases):
        yield from group(eq, np)


def run_corpus() -> dict:
    """{label: {part: digest}}: each case returns its parts by name, and one
    that raises has one part, ``raised``."""
    results = {}
    for label, thunk in corpus():
        try:
            parts = thunk()
        except Exception as exc:
            parts = {"raised": f"{type(exc).__name__}: {exc}"}
        results[label] = {name: digest(value) for name, value in parts.items()}
    return results


# ------------------------------------------------------------------ two trees

def _unpack(rev: str, dest: str) -> str:
    """``git archive`` of rev's ``src`` unpacked under dest; returns the tree."""
    data = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev, "src"],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def _start(tree: str, tmp: str, name: str):
    """A fresh interpreter running the corpus on tree's ``src``."""
    work = os.path.join(tmp, name)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = os.path.join(tmp, name + ".json")
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--corpus-out", out],
                            cwd=work, env=env, stderr=subprocess.PIPE, text=True)
    return proc, out


def compare(first: dict, second: dict) -> list:
    """Lines naming each case whose digests differ, in corpus order."""
    lines = []
    for label in list(first) + [k for k in second if k not in first]:
        a, b = first.get(label), second.get(label)
        if a is None or b is None:
            lines.append(f"DIFFER {label}: only in the {'second' if a is None else 'first'} tree")
        elif a != b:
            parts = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            lines.append(f"DIFFER {label}: {', '.join(parts)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", default="HEAD~1",
                   help="git revision or source tree to compare with (default HEAD~1)")
    p.add_argument("--corpus-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.corpus_out:
        import eqfield
        results = {"eqfield": os.path.dirname(os.path.abspath(eqfield.__file__)),
                   "cases": run_corpus()}
        with open(args.corpus_out, "w") as fh:
            json.dump(results, fh)
        return 0

    with tempfile.TemporaryDirectory(prefix="eqfield-identity-") as tmp:
        other = args.against
        if not os.path.isdir(other):
            try:
                other = _unpack(other, os.path.join(tmp, "rev"))
            except subprocess.CalledProcessError as exc:
                print(f"error: cannot unpack {args.against!r}: {exc.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
        runs = [(tree, *_start(tree, tmp, name))
                for tree, name in ((REPO, "tree"), (other, "against"))]
        finished = [(tree, proc, proc.communicate()[1], out) for tree, proc, out in runs]
        results = []
        for tree, proc, err, out in finished:
            if proc.returncode != 0:
                print(f"error: the corpus failed on {tree}:\n{err}", file=sys.stderr)
                return 2
            with open(out) as fh:
                loaded = json.load(fh)
            expected = os.path.join(os.path.abspath(tree), "src", "eqfield")
            if os.path.realpath(loaded["eqfield"]) != os.path.realpath(expected):
                print(f"error: {tree} ran eqfield from {loaded['eqfield']}", file=sys.stderr)
                return 2
            results.append(loaded["cases"])
    lines = compare(*results)
    print(f"identity: {REPO} against {args.against}")
    print("\n".join(lines) if lines else "no case differs")
    print(f"{len(results[0])} cases, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
