"""The eqfield benchmark.

    python3 bench/run.py --workload {greens,cli,all} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the program from
``src/``.  Inputs and reference outputs are made here from the seed; each
workload then runs in fresh worker processes (bench/worker.py), which see
only the generated inputs.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics, with ``--trace 1``
one with the per-layer metrics of a separate traced run.  BENCHMARK.json
at the root lists the metrics; bench/DESIGN.md says what each should move.
"""

from __future__ import annotations

import os

# One client in one process: cap every native thread pool before numpy loads.
THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
WORKER = os.path.join(BENCH, "worker.py")

SETUPS = 3               # fresh worker processes per run; setup_s is their median
RUN_LIMIT_S = 170.0      # a run that has not finished by then is killed

END_TO_END = {"setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB", "ok_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_calls", "count"), (".taps", "count"),
                         ("_per_s", "Mvox/s"), ("_s", "s"), ("mvox", "Mvox"),
                         ("_mb", "MB"), (".mb", "MB"), ("ratio", "ratio"), ("frac", "ratio")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, env: dict, deadline: float) -> tuple:
    """Run a worker; returns (seconds from start to READY, its JSON result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, stdout=subprocess.PIPE,
                            text=True, env=env)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} {argv[-1]} exited with {proc.returncode}")
    return t_ready - t0, json.loads(rest.strip().splitlines()[-1])


def import_seconds(env: dict) -> float:
    """Cumulative `eqfield.cli` import time reported by `python -X importtime`."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eqfield.cli"],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    for line in out.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "eqfield.cli":
            return int(fields[1]) / 1e6
    raise BenchError("no eqfield.cli line in -X importtime output")


def environment() -> dict:
    """Machine, library versions and thread pools, as this run sees them."""
    import ctypes
    import platform

    import numpy
    import scipy
    import scipy.fft
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it has one)

    def read(path, default="unknown"):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return default

    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(os.path.join(base, idx, "level"))
        if level in ("2", "3") and read(os.path.join(base, idx, "type")) != "Instruction":
            caches[f"l{level}"] = read(os.path.join(base, idx, "size"))
    blas_libs = {}
    for line in read("/proc/self/maps", "").splitlines():
        path = line.split()[-1]
        if "openblas" in os.path.basename(path) and path not in blas_libs:
            threads = config = None
            lib = ctypes.CDLL(path)
            for prefix in ("", "scipy_"):
                for suffix in ("", "64_"):
                    fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                    cfg = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                    if fn is not None and cfg is not None:
                        fn.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p
                        threads, config = fn(), cfg().decode()
            blas_libs[path] = {"threads": threads, "config": config}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": THREAD_CAP,
        "blas_libraries": blas_libs,
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def mix_weights(kinds: list, mix: dict) -> list:
    """Weight of each request so that every kind weighs its share of the mix.

    A run ends part-way through a deck, so the kinds it completed are not
    exactly in the mix's proportions; which ones fall in the last deck
    depends on the seed.  Weighting each request by its kind's share of the
    mix over the number of requests of that kind removes that dependence.
    """
    counts = {k: kinds.count(k) for k in set(kinds)}
    total = sum(mix[k] for k in counts)
    return [mix[k] / total / counts[k] for k in kinds]


def percentile(values: list, weights: list, pct: float) -> float:
    """Percentile of a weighted sample, interpolated between weight midpoints."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    mids, acc = [], 0.0
    for _, w in pairs:
        mids.append((acc + w / 2.0) / total)
        acc += w
    q = pct / 100.0
    if q <= mids[0]:
        return pairs[0][0]
    for i in range(1, len(pairs)):
        if q <= mids[i]:
            f = (q - mids[i - 1]) / (mids[i] - mids[i - 1])
            return pairs[i - 1][0] + f * (pairs[i][0] - pairs[i - 1][0])
    return pairs[-1][0]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import calib
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        np.savez(os.path.join(workdir, "inputs.npz"),
                 **wl.generate(np.random.default_rng(seed), workdir))
        if trace:
            imports = [import_seconds(env) for _ in range(SETUPS)]
            _, res = spawn([name, workdir, str(seed), "0", "traced"], env, deadline)
            metrics = dict(res["metrics"], **{"cli.import_s": statistics.median(imports)})
            correct = (res["failed"] == 0 and res["warmup_failed"] == 0 and res["identical"]
                       and not res["leftovers"])
            if not res["identical"]:
                print("traced and untraced outputs differ", file=sys.stderr)
            if res["leftovers"]:
                print(f"wrappers left installed: {res['leftovers']}", file=sys.stderr)
            return {"correct": correct, "attempted": res["attempted"],
                    "failed": res["failed"],
                    "metrics": {k: {"value": v, "unit": layer_unit(k)}
                                for k, v in sorted(metrics.items())}}
        setups, results = [], []
        for _ in range(SETUPS):
            ready_s, res = spawn([name, workdir, str(seed), str(seconds / SETUPS), "timed"],
                                 env, deadline)
            setups.append(res["setup_s"] if res["setup_s"] is not None else ready_s)
            results.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Each worker's times are rescaled to the speed at which the reference
    # task takes calib.REFERENCE_S (bench/calib.py says why).
    scales = [calib.REFERENCE_S / statistics.median(r["calibration"]) for r in results]
    raw = [x for r in results for x in r["latencies"]]
    raw_setup = statistics.median(setups)
    latencies = [x * k for r, k in zip(results, scales) for x in r["latencies"]]
    setups = [s * k for s, k in zip(setups, scales)]
    kinds = [k for r in results for k in r["kinds"]]
    weights = mix_weights(kinds, wl.mix)
    attempted = len(latencies)
    failed = sum(r["failed"] for r in results)
    beyond = attempted * (1.0 - wl.tail_pct / 100.0)
    print(f"# {name}: {attempted} requests, tail is p{wl.tail_pct:g} with "
          f"{beyond:.1f} requests beyond it, fail_frac={failed / attempted:g}", file=sys.stderr)
    per_kind = {k: [x for x, kk in zip(latencies, kinds) if kk == k] for k in wl.mix}
    print(f"# {name}: median ms (count) per kind: " + ", ".join(
        f"{k} {1e3 * statistics.median(v):.4g} ({len(v)})" for k, v in per_kind.items() if v),
        file=sys.stderr)
    print(f"# {name}: time scale per worker {', '.join(f'{k:.4f}' for k in scales)} from "
          f"{sum(len(r['calibration']) for r in results)} calibration samples; unscaled: "
          f"setup {raw_setup:.4g} s, latency p50 {1e3 * percentile(raw, weights, 50.0):.4g} ms, "
          f"requests/s {1.0 / sum(w * x for w, x in zip(weights, raw)):.4g}", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": 1.0 / sum(w * x for w, x in zip(weights, latencies)),
        "latency_p50_ms": 1e3 * percentile(latencies, weights, 50.0),
        "latency_tail_ms": 1e3 * percentile(latencies, weights, wl.tail_pct),
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    correct = failed == 0 and not any(r["warmup_failed"] for r in results)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "eqfield", "__init__.py")):
        print(f"error: no eqfield sources under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, m in results[name]["metrics"].items():
            print(f"{name:7s} {metric:32s} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
