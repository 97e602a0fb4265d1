"""Span recording around eqfield's public entry points, installed from outside.

``install`` replaces each entry point with a timing wrapper wherever the
package holds a reference to it (module attributes, including names that
other modules from-imported, class attributes and the operator REGISTRY)
and returns the patches; ``uninstall`` puts every original back, and
``leftovers`` lists any wrapper still reachable.  Spans stay in memory as
``[name, start_ns, end_ns, parent, attrs]`` until the caller writes them.
"""

from __future__ import annotations

import functools
import math
import sys
import time

SPAN_TAG = "_bench_span"


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()


def _wrap(rec: Recorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if attrs is not None:
            rec.spans[idx][4] = attrs(args, kwargs, out)
        return out
    setattr(traced, SPAN_TAG, name)
    return traced


# attribute extractors: computed from arguments and results, after the span


def _fft_attrs(args, kwargs, out):
    axes = kwargs.get("axes")
    if "s" in kwargs:                       # irfftn(acc, s=work, axes=...)
        vox = math.prod(kwargs["s"])
        return {"inverse": True, "vox": vox, "out_bytes": out.nbytes}
    x = args[0]
    vox = math.prod(x.shape[a] for a in axes) if axes is not None else x.size
    return {"inverse": False, "vox": vox, "out_bytes": out.nbytes, "in_bytes": x.nbytes}


def _direct_attrs(args, kwargs, out):
    import numpy as np
    karr = args[1].field.components
    return {"taps": int(np.count_nonzero(np.any(karr != 0.0, axis=0)))}


def _sample_attrs(args, kwargs, out):
    return {"vox": out.grid.n_voxels}


def _build_attrs(args, kwargs, out):
    return {"kernel_bytes": out.kernel.field.components.nbytes}


def _step_attrs(args, kwargs, out):
    return {"vox": out.grid.n_voxels}


def _write_attrs(args, kwargs, out):
    return {"bytes": args[1].components.nbytes}


def _read_attrs(args, kwargs, out):
    return {"bytes": out[0].components.nbytes}


FUNCTIONS = [  # (module, attribute, span name, attribute extractor)
    ("eqfield.convolve", "conv_direct", "convolve.direct", _direct_attrs),
    ("eqfield.convolve", "conv_fourier", "convolve.fourier", None),
    ("eqfield.kernels", "sample_kernel", "kernels.sample", _sample_attrs),
    ("eqfield.operators", "make_operator", "operators.make", None),
    ("eqfield.learn", "basis_kernels", "learn.basis", None),
    ("eqfield.learn", "fit_least_squares", "learn.fit", None),
    ("eqfield.learn", "loss", "learn.loss", None),
    ("eqfield.sim", "step_euler", "sim.step", _step_attrs),
    ("eqfield.sim", "estimate_parameters", "sim.estimate", None),
    ("eqfield.sim", "save_trajectory", "sim.save", None),
    ("eqfield.sim", "load_trajectory", "sim.load", None),
    ("eqfield.formats", "read_eqf", "formats.read", _read_attrs),
    ("eqfield.formats", "write_eqf", "formats.write", _write_attrs),
    ("eqfield.checks", "run_checks", "checks.run", None),
    ("eqfield.cli", "main", "cli.main", None),
]

METHODS = [  # (module, class, method, span name)
    ("eqfield.operators", "EquivariantOp", "apply", "operators.apply"),
    ("eqfield.learn", "NeuralOp", "kernel", "learn.kernel"),
    ("eqfield.fields", "TensorField", "__post_init__", "fields.construct"),
]


class _FFTProxy:
    """Stands in for the scipy.fft namespace inside eqfield.convolve only."""

    def __init__(self, module, rfftn, irfftn):
        self._module = module
        self.rfftn = rfftn
        self.irfftn = irfftn

    def __getattr__(self, name):
        return getattr(self._module, name)


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "eqfield" or n.startswith("eqfield."))]


def install(rec: Recorder) -> list:
    """Wrap every entry point; returns (owner, key, original, is_item) patches."""
    mods = {m.__name__: m for m in _package_modules()}
    patches = []

    def set_attr(owner, key, value):
        patches.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                        else getattr(owner, key), False))
        setattr(owner, key, value)

    def rebind(original, wrapper):
        for m in mods.values():
            for key, value in list(vars(m).items()):
                if value is original:
                    set_attr(m, key, wrapper)

    for modname, attr, span, attrs in FUNCTIONS:
        if modname in mods:
            original = getattr(mods[modname], attr)
            rebind(original, _wrap(rec, span, original, attrs))
    for modname, clsname, meth, span in METHODS:
        cls = getattr(mods[modname], clsname)
        set_attr(cls, meth, _wrap(rec, span, cls.__dict__[meth]))
    registry = mods["eqfield.operators"].REGISTRY
    for name, original in list(registry.items()):
        wrapper = _wrap(rec, "operators.build", original, _build_attrs)
        patches.append((registry, name, original, True))
        registry[name] = wrapper
        rebind(original, wrapper)
    conv = mods["eqfield.convolve"]
    fft = conv.sfft
    set_attr(conv, "sfft", _FFTProxy(fft, _wrap(rec, "convolve.fft", fft.rfftn, _fft_attrs),
                                     _wrap(rec, "convolve.fft", fft.irfftn, _fft_attrs)))
    return patches


def uninstall(patches: list) -> None:
    for owner, key, original, is_item in reversed(patches):
        if is_item:
            owner[key] = original
        else:
            setattr(owner, key, original)
    patches.clear()


def leftovers() -> list:
    """Names through which a wrapper is still reachable (empty when clean)."""
    found = []
    for m in _package_modules():
        for key, value in vars(m).items():
            if hasattr(value, SPAN_TAG) or isinstance(value, _FFTProxy):
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type):
                for k2, v2 in vars(value).items():
                    if hasattr(v2, SPAN_TAG):
                        found.append(f"{m.__name__}.{key}.{k2}")
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    if hasattr(v2, SPAN_TAG):
                        found.append(f"{m.__name__}.{key}[{k2!r}]")
    return sorted(set(found))


# ------------------------------------------------------------ aggregation

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list) -> dict:
    """Per-layer totals over traced processes.

    ``traces`` holds one ``(spans, window_start_ns)`` per process.  Counts
    and times cover every span; the two cache ratios cover only spans that
    start at or after the window start (the timed requests, not set-up).
    Self time is a span's duration minus its direct children's.
    """
    calls, busy, selft = {}, {}, {}
    fft_calls = fft_ns = fft_vox = 0
    taps = sample_vox = step_vox = 0
    write_b = read_b = 0
    work_peak = cached_peak = 0
    makes = misses = basis = basis_miss = 0
    for spans, window in traces:
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        cached = 0
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            attrs = attrs or {}          # None when the wrapped call raised
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + dur
            selft[name] = selft.get(name, 0) + dur - sum(
                spans[c][2] - spans[c][1] for c in children[i])
            in_window = t0 >= window
            if name == "convolve.fft":
                fft_calls += 1
                fft_ns += dur
                fft_vox += attrs.get("vox", 0)
            elif name == "convolve.fourier":
                ffts = [spans[c][4] for c in children[i]
                        if spans[c][0] == "convolve.fft" and spans[c][4]]
                spectra = sum(a["out_bytes"] for a in ffts if not a["inverse"])
                real = max([a.get("in_bytes", 0) for a in ffts]
                           + [a["out_bytes"] for a in ffts if a["inverse"]], default=0)
                work_peak = max(work_peak, spectra + real)
            elif name == "convolve.direct":
                taps += attrs.get("taps", 0)
            elif name == "kernels.sample":
                sample_vox += attrs.get("vox", 0)
            elif name == "sim.step":
                step_vox += attrs.get("vox", 0)
            elif name == "formats.write":
                write_b += attrs.get("bytes", 0)
            elif name == "formats.read":
                read_b += attrs.get("bytes", 0)
            elif name == "operators.make":
                built = [c for c in children[i] if spans[c][0] == "operators.build"]
                cached += sum((spans[c][4] or {}).get("kernel_bytes", 0) for c in built)
                if in_window:
                    makes += 1
                    misses += bool(built)
            elif name == "learn.basis" and in_window:
                basis += 1
                basis_miss += any(spans[c][0] == "kernels.sample" for c in children[i])
        cached_peak = max(cached_peak, cached)

    def n(name):
        return calls.get(name, 0)

    def sec(table, name):
        return table.get(name, 0) / 1e9

    return {
        "convolve.fourier.calls": n("convolve.fourier"),
        "convolve.fourier.busy_s": sec(busy, "convolve.fourier"),
        "convolve.fourier.fft_calls": fft_calls,
        "convolve.fourier.fft_s": fft_ns / 1e9,
        "convolve.fourier.fft_mvox": fft_vox / 1e6,
        "convolve.fourier.other_s": sec(busy, "convolve.fourier") - fft_ns / 1e9,
        "convolve.fourier.work_mb": work_peak / 1e6,
        "convolve.direct.calls": n("convolve.direct"),
        "convolve.direct.busy_s": sec(busy, "convolve.direct"),
        "convolve.direct.taps": taps,
        "fields.construct.calls": n("fields.construct"),
        "fields.construct.busy_s": sec(busy, "fields.construct"),
        "sim.step.calls": n("sim.step"),
        "sim.step.self_s": sec(selft, "sim.step"),
        "sim.step.mvox_per_s": _ratio(step_vox / 1e6, sec(busy, "sim.step")),
        "sim.estimate.calls": n("sim.estimate"),
        "sim.estimate.self_s": sec(selft, "sim.estimate"),
        "kernels.sample.calls": n("kernels.sample"),
        "kernels.sample.busy_s": sec(busy, "kernels.sample"),
        "kernels.sample.mvox": sample_vox / 1e6,
        "operators.make.calls": n("operators.make"),
        "operators.build.calls": n("operators.build"),
        "operators.cache_hit_ratio": _ratio(makes - misses, makes),
        "operators.build.busy_s": sec(busy, "operators.build"),
        "operators.apply.calls": n("operators.apply"),
        "operators.apply.self_s": sec(selft, "operators.apply"),
        "operators.cached_kernel_mb": cached_peak / 1e6,
        "learn.basis.calls": n("learn.basis"),
        "learn.basis.hit_ratio": _ratio(basis - basis_miss, basis),
        "learn.basis.busy_s": sec(busy, "learn.basis"),
        "learn.kernel.calls": n("learn.kernel"),
        "learn.kernel.busy_s": sec(busy, "learn.kernel"),
        "learn.fit.calls": n("learn.fit"),
        "learn.fit.self_s": sec(selft, "learn.fit"),
        "learn.loss.calls": n("learn.loss"),
        "learn.loss.busy_s": sec(busy, "learn.loss"),
        "formats.write.calls": n("formats.write"),
        "formats.write.busy_s": sec(busy, "formats.write"),
        "formats.write.mb": write_b / 1e6,
        "formats.read.calls": n("formats.read"),
        "formats.read.busy_s": sec(busy, "formats.read"),
        "formats.read.mb": read_b / 1e6,
        "checks.run.calls": n("checks.run"),
        "checks.run.busy_s": sec(busy, "checks.run"),
        "cli.main.busy_s": sec(busy, "cli.main"),
    }


def covered_ns(spans: list, start: int, end: int) -> int:
    """Time inside [start, end] that some top-level span covers.

    Calls are single-threaded, so top-level spans never overlap.
    """
    total = 0
    for _, t0, t1, parent, _ in spans:
        if parent < 0:
            total += max(0, min(t1, end) - max(t0, start))
    return total
