"""Shared fixtures."""

import pytest

import eqfield.convolve


class _RecordingFFT:
    """Stands in for ``convolve.sfft``; records the real-space shape of every
    forward and inverse transform."""

    def __init__(self, fft):
        self._fft = fft
        self.forward = []
        self.inverse = []

    def rfftn(self, x, axes, out=None):
        self.forward.append(tuple(x.shape[a] for a in axes))
        return self._fft.rfftn(x, axes=axes, out=out)

    def irfftn(self, x, s, axes):
        self.inverse.append(tuple(s))
        return self._fft.irfftn(x, s=s, axes=axes)

    def __getattr__(self, name):
        return getattr(self._fft, name)


@pytest.fixture
def fft_calls(monkeypatch):
    recorder = _RecordingFFT(eqfield.convolve.sfft)
    monkeypatch.setattr(eqfield.convolve, "sfft", recorder)
    return recorder
