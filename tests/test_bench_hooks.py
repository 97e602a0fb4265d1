"""The names that the benchmark's tracer wraps must exist in the package.

``bench/spans.py`` wraps package functions, methods, the operator registry
and the FFT module by name; a renamed or deleted entry point would break
``bench/run.py --trace 1``.  Installing and removing the wrappers once
catches that here.
"""

import os

import numpy as np

import eqfield as eq

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_span_hooks_install_and_uninstall_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import eqfield.cli  # noqa: F401  (imports every module that spans wraps)
    import spans
    patches = spans.install(spans.Recorder())
    assert patches
    spans.uninstall(patches)
    assert spans.leftovers() == []


def test_traced_inverse_laplacian_records_fourier_spans(monkeypatch):
    # the cached spectrum must leave the input and inverse FFTs visible to the tracer
    monkeypatch.syspath_prepend(BENCH)
    import spans
    g = eq.Grid.centered((8, 7, 6))
    u = eq.TensorField.random(g, 0, np.random.default_rng(0))
    plain = eq.inverse_laplacian(u)
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        traced = eq.inverse_laplacian(u)
    finally:
        spans.uninstall(patches)
    names = [s[0] for s in rec.spans]
    assert "convolve.fourier" in names and "convolve.fft" in names
    assert np.array_equal(traced.components, plain.components)
    assert spans.leftovers() == []
