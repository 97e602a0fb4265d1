"""One worker process of the benchmark: set a workload up, then run requests.

    python3 bench/worker.py WORKLOAD WORKDIR SEED SECONDS MODE

MODE ``timed`` runs the closed loop (one client, no think time) for SECONDS,
with the reference task of bench/calib.py sampled between requests.
MODE ``traced`` runs each of the first requests of the schedule twice, plain
and then with timing wrappers installed, and reports the per-layer totals.
The worker prints ``READY`` when set-up is done, then one JSON line.
Inputs come from WORKDIR/inputs.npz, written by bench/run.py.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback

import numpy as np

import calib
import spans
from workloads import WORKLOADS, schedule

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_program():
    import eqfield
    if not os.path.realpath(eqfield.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"eqfield imported from {eqfield.__file__}, not from {SRC}")
    return eqfield


def timed_request(wl, kind, n):
    """(seconds, passed, digest); a raising request counts as failed."""
    t0 = time.perf_counter()
    try:
        out = wl.request(kind, n)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, False, None
    dt = time.perf_counter() - t0
    ok, digest = wl.check(kind, n, out)
    if not ok:
        print(f"request {n} ({kind}) failed its output check", file=sys.stderr)
    return dt, ok, digest


def peak_rss_kb() -> int:
    """Peak resident set of this process image in KiB.

    VmHWM starts from zero at exec.  ru_maxrss would also count the
    parent's resident set at the time of the fork.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def run_timed(wl, eq, data, workdir, seed, seconds):
    """Closed loop; the reference task of bench/calib.py runs between requests."""
    wl.setup(eq, data, workdir)
    print("READY", flush=True)
    latencies, ran, failed = [], [], 0
    kinds = schedule(wl.mix, seed)
    cal = calib.Calibrator()
    t_end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < t_end:
        ran.append(next(kinds))
        dt, ok, _ = timed_request(wl, ran[-1], n)
        latencies.append(dt)
        failed += not ok
        n += 1
        cal.after_request(dt)
    rss_kb = wl.maxrss_kb if eq is None else peak_rss_kb()
    return {"latencies": latencies, "kinds": ran, "failed": failed,
            "warmup_failed": wl.warmup_failed, "maxrss_kb": rss_kb,
            "calibration": cal.samples, "setup_s": getattr(wl, "setup_s", None)}


def run_traced(wl, eq, data, workdir, seed):
    """Set up under the wrappers, then alternate plain and traced requests.

    Each request of the plan runs twice, first plain and then traced, so
    both passes see the same machine conditions.
    """
    rec = spans.Recorder()
    traces = []
    patches = spans.install(rec) if eq is not None else []
    wl.setup(eq, data, workdir)
    spans.uninstall(patches)
    leftovers = spans.leftovers() if eq is not None else []
    print("READY", flush=True)
    kinds = schedule(wl.mix, seed)
    plan = [next(kinds) for _ in range(wl.trace_requests)]
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cliprobe.py")

    window = time.perf_counter_ns()
    plain, traced, covered, startup = [], [], 0, []
    for n, kind in enumerate(plan):
        plain.append(timed_request(wl, kind, n))
        if eq is None:
            wl.probe = probe
            traced.append(timed_request(wl, kind, n))
            wl.probe = None
            path = os.path.join(workdir, f"spans{n}.json")
            with open(path) as fh:
                result = json.load(fh)
            os.remove(path)
            traces.append((result["spans"], 0))
            leftovers += result["leftovers"]
            covered += spans.covered_ns(result["spans"], 0, 1 << 62)
            main_s = sum(s[2] - s[1] for s in result["spans"] if s[0] == "cli.main") / 1e9
            startup.append(plain[-1][0] - main_s)
        else:
            patches = spans.install(rec)
            t0 = time.perf_counter_ns()
            traced.append(timed_request(wl, kind, n))
            covered += spans.covered_ns(rec.spans, t0, time.perf_counter_ns())
            spans.uninstall(patches)
            leftovers += spans.leftovers()
    if eq is not None:
        traces.append((rec.spans, window))

    wall = sum(r[0] for r in traced)
    metrics = spans.layer_metrics(traces)
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics["bench.trace_overhead_frac"] = (statistics.median(r[0] for r in traced)
                                            / statistics.median(r[0] for r in plain) - 1.0)
    metrics["bench.layer_coverage_frac"] = covered / 1e9 / wall
    return {"metrics": metrics,
            "attempted": len(plain) + len(traced),
            "failed": sum(not r[1] for r in plain + traced),
            "warmup_failed": wl.warmup_failed,
            "identical": [r[2] for r in plain] == [r[2] for r in traced],
            "leftovers": leftovers}


def main():
    name, workdir, seed, seconds, mode = sys.argv[1:6]
    wl = WORKLOADS[name]
    with np.load(os.path.join(workdir, "inputs.npz")) as npz:
        data = dict(npz)
    eq = None if name == "cli" else import_program()
    try:
        if mode == "timed":
            result = run_timed(wl, eq, data, workdir, int(seed), float(seconds))
        else:
            result = run_traced(wl, eq, data, workdir, int(seed))
    finally:
        wl.close()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
