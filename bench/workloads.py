"""The two workloads: inputs (made in the parent, from the seed), set-up,
requests and output checks (run in a worker process).

Each workload mixes request kinds in fixed, unequal proportions; the seed
shuffles the order inside each deck of requests.  Proportions are chosen so
the median falls well inside one latency mode, not on a boundary between two.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

import gen

POOL = 2                 # distinct inputs per request kind
SPAWNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")


def schedule(mix: dict, seed: int):
    """Endless request kinds: decks of fixed composition, shuffled per seed."""
    deck = [k for k, count in mix.items() for _ in range(count)]
    d = 0
    while True:
        order = np.random.default_rng([seed, d]).permutation(len(deck))
        for i in order:
            yield deck[i]
        d += 1


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


class Workload:
    name = ""
    mix: dict = {}
    tail_pct = 90.0          # highest multiple of 5 with >= 10 requests beyond it at baseline
    trace_requests = 20      # requests in each of the traced run's two passes

    def generate(self, rng: np.random.Generator, workdir: str) -> dict:
        """Inputs and references as arrays; runs in the parent, never imports eqfield."""
        raise NotImplementedError

    def setup(self, eq, data: dict, workdir: str) -> None:
        """Build what requests reuse and run one warm-up request of each kind."""
        self.eq, self.data, self.workdir = eq, data, workdir
        self.warmup_failed = sum(not self.warm_up(kind, n) for n, kind in enumerate(self.mix))

    def close(self) -> None:
        """Stop any process that setup started."""

    def warm_up(self, kind: str, n: int) -> bool:
        try:
            return self.check(kind, n, self.request(kind, n))[0]
        except Exception:
            traceback.print_exc()
            return False

    def request(self, kind: str, n: int):
        raise NotImplementedError

    def check(self, kind: str, n: int, out) -> tuple:
        """(passed, digest of the output) for request n; digests compare runs."""
        raise NotImplementedError


class Greens(Workload):
    """Free-space Green's-function applies on cached operators."""

    name = "greens"
    mix = {"il48": 8, "diff48": 6, "gl32": 3, "il2d": 3}   # p50 inside il48, p90 inside diff48
    SHAPES = {"il48": (48, 48, 48), "diff48": (48, 48, 48), "gl32": (32, 32, 32),
              "il2d": (256, 256)}
    KERNELS = {"il48": ("inverse_r", {}), "diff48": ("heat", {"D": 1.0, "t": 0.5}),
               "gl32": ("inverse_r2", {}), "il2d": ("log_r", {})}

    def generate(self, rng, workdir):
        data = {}
        for kind, shape in self.SHAPES.items():
            name, params = self.KERNELS[kind]
            kernel = gen.greens_kernel(name, shape, 1.0, **params)
            for j in range(POOL):
                u = gen.band_limited(rng, shape)
                data[f"{kind}.{j}.u"] = u
                data[f"{kind}.{j}.ref"] = gen.free_space(u, kernel, 1.0)
        return data

    def setup(self, eq, data, workdir):
        grids = {k: eq.Grid.centered(s, 1.0) for k, s in self.SHAPES.items()}
        self.inputs = {(k, j): eq.TensorField.from_scalar(grids[k], data[f"{k}.{j}.u"])
                       for k in self.SHAPES for j in range(POOL)}
        self.apply = {"il48": eq.inverse_laplacian, "il2d": eq.inverse_laplacian,
                      "gl32": eq.gauss_law,
                      "diff48": lambda u: eq.diffusion(u, 1.0, 0.5)}
        super().setup(eq, data, workdir)

    def request(self, kind, n):
        return self.apply[kind](self.inputs[(kind, n % POOL)]).components

    def check(self, kind, n, out):
        ref = self.data[f"{kind}.{n % POOL}.ref"]
        return gen.max_rel(out, ref) < gen.GREENS_TOL, _digest(out)


class Cli(Workload):
    """One `python -m eqfield.cli` subprocess per request."""

    name = "cli"
    mix = {"apply_grad": 3, "apply_il": 2, "apply_diff": 1, "simulate": 1,
           "estimate": 1, "fit": 1, "apply_model": 2, "check": 1}
    tail_pct = 75.0
    trace_requests = 12
    spawner = None
    SIM = dict(shape=(48, 48), D=0.1, w=(0.2, -0.1), dt=0.5, steps=30)

    def generate(self, rng, workdir):
        os.makedirs(workdir, exist_ok=True)
        data = {}
        shape3 = (32, 32, 32)
        il = gen.greens_kernel("inverse_r", shape3, 1.0)
        heat = gen.greens_kernel("heat", shape3, 1.0, D=0.5, t=0.8)
        for j in range(POOL):
            u = gen.band_limited(rng, shape3)
            gen.write_eqf(os.path.join(workdir, f"density{j}.eqf"), u[None], 0, 1.0)
            data[f"apply_grad.{j}"] = gen.grad_zero(u, 1.0)
            data[f"apply_il.{j}"] = gen.free_space(u, il, 1.0)
            data[f"apply_diff.{j}"] = gen.free_space(u, heat, 1.0)
        s = self.SIM
        source = gen.point_source(s["shape"])
        frames = gen.simulate_periodic(source, 1.0, s["D"], s["w"], s["dt"], s["steps"])
        gen.write_eqf(os.path.join(workdir, "source.eqf"), source[None], 0, 1.0, "periodic")
        gen.write_eqf(os.path.join(workdir, "initial.eqf"), frames[0][None], 0, 1.0, "periodic")
        data["simulate"] = frames[-1]
        noise = gen.noise_like(rng, frames, 0.01)
        gen.write_trajectory(os.path.join(workdir, "traj"), [f + e for f, e in zip(frames, noise)],
                             source, 1.0, s["D"], s["w"], s["dt"])
        shape12 = (12, 12, 12)
        il12 = gen.greens_kernel("inverse_r", shape12, 1.0)
        rho = gen.dipole(shape12, int(rng.integers(3)), 1.0)
        gen.write_eqf(os.path.join(workdir, "rho.eqf"), rho[None], 0, 1.0)
        gen.write_eqf(os.path.join(workdir, "phi.eqf"), gen.free_space(rho, il12, 1.0), 0, 1.0)
        with open(os.path.join(workdir, "pairs.txt"), "w") as fh:
            fh.write("rho.eqf phi.eqf\n")
        held = gen.band_limited(rng, shape12)
        gen.write_eqf(os.path.join(workdir, "held.eqf"), held[None], 0, 1.0)
        data["apply_model"] = gen.free_space(held, il12, 1.0)
        data["check_seed"] = rng.integers(2 ** 31, size=POOL)
        return data

    def argv(self, kind, n) -> list:
        j = n % POOL
        out = f"out{n}.eqf"
        s = self.SIM
        return {
            "apply_grad": ["apply", "grad", f"density{j}.eqf", out],
            "apply_il": ["apply", "inverse_laplacian", f"density{j}.eqf", out],
            "apply_diff": ["apply", "diffusion", f"density{j}.eqf", out, "--D", "0.5", "--t", "0.8"],
            "simulate": ["simulate", "source.eqf", "initial.eqf", f"sim{n}", "--D", str(s["D"]),
                         "--wx", str(s["w"][0]), "--wy", str(s["w"][1]), "--dt", str(s["dt"]),
                         "--steps", str(s["steps"])],
            "estimate": ["estimate", "traj", "--smooth", "2.0"],
            "fit": ["fit", "pairs.txt", "--model", "model.eqm" if n < 0 else f"fit{n}.eqm"],
            "apply_model": ["apply", "model.eqm", "held.eqf", out],
            "check": ["--seed", str(self.data["check_seed"][j]), "check", "--random", "7,7,7",
                      "--l", "1"],
        }[kind]

    def setup(self, eq, data, workdir):
        """Time a fresh `import eqfield.cli`; fit the model that apply_model uses."""
        self.data, self.workdir, self.probe = data, workdir, None
        self.env = dict(os.environ)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import eqfield.cli"], check=True, env=self.env)
        self.setup_s = time.perf_counter() - t0
        self.maxrss_kb = 0
        self.spawner = subprocess.Popen([sys.executable, "-S", SPAWNER], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True, env=self.env)
        self.warmup_failed = 0
        if not os.path.exists(os.path.join(workdir, "model.eqm")):
            self.warmup_failed = int(not self.warm_up("fit", -1))

    def close(self):
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def request(self, kind, n):
        if self.probe is None:
            cmd = [sys.executable, "-m", "eqfield.cli"]
        else:
            cmd = [sys.executable, self.probe, f"spans{n}.json"]
        cmd += self.argv(kind, n)
        self.spawner.stdin.write(json.dumps({"cmd": cmd, "cwd": self.workdir}) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.maxrss_kb = reply["maxrss_kb"]
        return subprocess.CompletedProcess(cmd, reply["returncode"], reply["stdout"],
                                           reply["stderr"])

    def check(self, kind, n, out):
        """Exit code 0, a parseable report, and outputs equal to the references."""
        report = {}
        for line in out.stdout.splitlines():
            key, sep, value = line.partition("=")
            if sep and key and " " not in key:
                report[key] = value
        ok = out.returncode == 0 and report.get("command") == self.argv(kind, n)[
            2 if kind == "check" else 0]
        stable = {k: v for k, v in report.items()
                  if "wall_seconds" not in k and not k.startswith("output.")}
        parts = [sorted(stable.items())]
        j = n % POOL
        path = os.path.join(self.workdir, f"out{n}.eqf")
        try:
            if not ok:
                pass
            elif kind.startswith("apply"):
                got = gen.read_eqf(path)
                ref = self.data[kind if kind == "apply_model" else f"{kind}.{j}"]
                tol = 0.01 if kind == "apply_model" else gen.GREENS_TOL
                err = gen.rel_rms(got[0], ref[0]) if kind == "apply_model" else gen.max_rel(got, ref)
                ok = err < tol
                parts.append(got)
            elif kind == "simulate":
                s = self.SIM
                got = gen.read_eqf(os.path.join(self.workdir, f"sim{n}",
                                                f"frame_{s['steps']:05d}.eqf"))
                ok = gen.max_rel(got[0], self.data["simulate"]) < 1e-10
                parts.append(got)
            elif kind == "estimate":
                w_hat = [float(x) for x in report["metric.w_hat"].split(",")]
                ok = gen.recovery_error(float(report["metric.D_hat"]), w_hat,
                                        self.SIM["D"], self.SIM["w"]) < 0.05
            elif kind == "fit":
                ok = (float(report["metric.train_relative_mse"]) ** 0.5 < 0.002
                      and report["metric.flagged"] == "0")
                with open(os.path.join(self.workdir, self.argv(kind, n)[3])) as fh:
                    parts.append(fh.read())
            elif kind == "check":
                ok = report["metric.checks_passed"] == report["metric.checks_total"]
        except (KeyError, ValueError, OSError):
            ok = False
        finally:
            for leftover in (path, os.path.join(self.workdir, f"sim{n}"),
                             os.path.join(self.workdir, f"fit{n}.eqm")):
                if os.path.isdir(leftover):
                    shutil.rmtree(leftover)
                elif os.path.exists(leftover):
                    os.remove(leftover)
        return ok, _digest(*parts)


WORKLOADS = {w.name: w for w in (Greens(), Cli())}
