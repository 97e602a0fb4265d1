"""Shared fixtures."""

import pytest

import eqfield.convolve


class _RecordingFFT:
    """Stands in for ``convolve.sfft`` and the two pruned transforms; records
    the work shape of every forward and inverse transform: the kernel's full
    ``rfftn`` in ``kernel_spectrum``, the input's ``_rfftn_padded`` and each
    output component's ``_irfftn_cropped``.  The 1-d passes that the pruned
    transforms make are not recorded on their own."""

    def __init__(self, conv):
        self._fft = conv.sfft
        self._padded = conv._rfftn_padded
        self._cropped = conv._irfftn_cropped
        self._pruning = False
        self.forward = []
        self.inverse = []

    def rfftn(self, x, axes, out):
        if not self._pruning:
            self.forward.append(tuple(x.shape[a] for a in axes))
        return self._fft.rfftn(x, axes=axes, out=out)

    def _pruned(self, transform, *args):
        self._pruning = True
        try:
            return transform(*args)
        finally:
            self._pruning = False

    def rfftn_padded(self, x, work):
        self.forward.append(tuple(work))
        return self._pruned(self._padded, x, work)

    def irfftn_cropped(self, acc, work, shape):
        self.inverse.append(tuple(work))
        return self._pruned(self._cropped, acc, work, shape)

    def __getattr__(self, name):
        return getattr(self._fft, name)


@pytest.fixture
def fft_calls(monkeypatch):
    conv = eqfield.convolve
    recorder = _RecordingFFT(conv)
    monkeypatch.setattr(conv, "sfft", recorder)
    monkeypatch.setattr(conv, "_rfftn_padded", recorder.rfftn_padded)
    monkeypatch.setattr(conv, "_irfftn_cropped", recorder.irfftn_cropped)
    return recorder
