"""The names that the benchmark's tracer wraps must exist in the package.

``bench/spans.py`` wraps package functions, methods, the operator registry
and the FFT module by name; a renamed or deleted entry point would break
``bench/run.py --trace 1``.  Installing and removing the wrappers once
catches that here.
"""

import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_span_hooks_install_and_uninstall_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import eqfield.cli  # noqa: F401  (imports every module that spans wraps)
    import spans
    patches = spans.install(spans.Recorder())
    assert patches
    spans.uninstall(patches)
    assert spans.leftovers() == []
