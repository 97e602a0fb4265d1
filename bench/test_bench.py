"""Self-tests of the benchmark:  python3 -m pytest -q bench/test_bench.py

They check that the timing wrappers leave no trace once removed, that a
traced pass produces bit-identical outputs to a plain one, that the output
checks reject wrong results, and that BENCHMARK.json names exactly what
bench/run.py prints.
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for _p in (SRC, BENCH):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import eqfield  # noqa: E402
import eqfield.cli  # noqa: E402,F401
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _snapshot():
    """Every binding the wrappers may replace, by identity."""
    state = {}
    for m in spans._package_modules():
        for key, value in vars(m).items():
            state[(m.__name__, key)] = id(value)
            if isinstance(value, type):
                for k2, v2 in vars(value).items():
                    state[(m.__name__, key, k2)] = id(v2)
    for name, fn in eqfield.operators.REGISTRY.items():
        state[("REGISTRY", name)] = id(fn)
    return state


def test_wrappers_are_removed():
    before = _snapshot()
    rec = spans.Recorder()
    patches = spans.install(rec)
    assert "eqfield.convolve.conv_fourier" in spans.leftovers()
    assert "eqfield.cli.read_eqf" in spans.leftovers()
    u = eqfield.TensorField.from_scalar(eqfield.Grid.centered((9, 9, 9)), np.ones((9, 9, 9)))
    eqfield.inverse_laplacian(u)
    spans.uninstall(patches)
    assert spans.leftovers() == []
    assert _snapshot() == before
    names = {s[0] for s in rec.spans}
    assert {"operators.make", "operators.apply", "convolve.fourier", "convolve.fft",
            "fields.construct"} <= names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_identical(name, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC)
    wl = WORKLOADS[name]
    monkeypatch.setattr(wl, "trace_requests", 2)
    data = wl.generate(np.random.default_rng(3), str(tmp_path))
    try:
        res = worker.run_traced(wl, None if name == "cli" else eqfield, data, str(tmp_path), 3)
    finally:
        wl.close()
    assert res["failed"] == 0 and res["warmup_failed"] == 0
    assert res["identical"]
    assert res["leftovers"] == []
    assert set(res["metrics"]) == set(spans.layer_metrics([])) | {
        "cli.startup_s", "bench.trace_overhead_frac", "bench.layer_coverage_frac"}
    assert 0.5 < res["metrics"]["bench.layer_coverage_frac"] <= 1.0


def test_greens_check_rejects_wrong_output(tmp_path):
    wl = WORKLOADS["greens"]
    data = wl.generate(np.random.default_rng(4), str(tmp_path))
    wl.data = data
    ref = data["il48.0.ref"]
    assert wl.check("il48", 0, ref.copy())[0]
    assert not wl.check("il48", 0, ref * (1 + 1e-8))[0]
    assert not wl.check("il48", 1, ref)[0]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = list(spans.layer_metrics([])) + [
        "cli.import_s", "cli.startup_s", "bench.trace_overhead_frac", "bench.layer_coverage_frac"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_mix_weights_fix_the_proportions():
    mix = {"slow": 1, "fast": 3}
    # one run ends with an extra slow request, another with an extra fast one
    a = ["slow"] * 3 + ["fast"] * 6
    b = ["slow"] * 2 + ["fast"] * 7
    lat = {"slow": 4.0, "fast": 1.0}
    for kinds in (a, b):
        w = run.mix_weights(kinds, mix)
        assert abs(sum(w) - 1.0) < 1e-12
        xs = [lat[k] for k in kinds]
        assert abs(1.0 / sum(wi * x for wi, x in zip(w, xs)) - 4.0 / 7.0) < 1e-12
        assert run.percentile(xs, w, 50.0) == 1.0
        assert run.percentile(xs, w, 90.0) == 4.0
    assert run.percentile([3.0, 1.0, 2.0], [1, 1, 1], 50.0) == 2.0
