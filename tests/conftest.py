"""Shared fixtures."""

import pytest

import eqfield.convolve


class _RecordingFFT:
    """Stands in for the two pruned transforms, through which every forward
    and inverse transform goes; records the work shape of each: a kernel's
    or an input's ``_rfftn_padded`` and each output component's
    ``_irfftn_cropped``.  The 1-d passes they make are not recorded."""

    def __init__(self, conv):
        self._padded = conv._rfftn_padded
        self._cropped = conv._irfftn_cropped
        self.forward = []
        self.inverse = []

    def rfftn_padded(self, x, work, out=None):
        self.forward.append(tuple(work))
        return self._padded(x, work, out)

    def irfftn_cropped(self, acc, work, shape):
        self.inverse.append(tuple(work))
        return self._cropped(acc, work, shape)


@pytest.fixture
def fft_calls(monkeypatch):
    conv = eqfield.convolve
    recorder = _RecordingFFT(conv)
    monkeypatch.setattr(conv, "_rfftn_padded", recorder.rfftn_padded)
    monkeypatch.setattr(conv, "_irfftn_cropped", recorder.irfftn_cropped)
    return recorder
