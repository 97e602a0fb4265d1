"""Seeded inputs, independent reference results and a minimal EQF reader/writer.

Nothing in this module imports eqfield.  The references re-derive every
checked output from the definitions in the README (sampled analytic kernel
times voxel volume, convolved with ``scipy.signal.fftconvolve``; explicit
Euler with central-difference stencils), so a defect in the program cannot
also hide in its own check.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy import signal

GREENS_TOL = 1e-10      # the program's own direct/FFT path tolerance


# --------------------------------------------------------------- inputs


def centered_origin(shape, spacing):
    return tuple(-(n - 1) / 2.0 * spacing for n in shape)


def band_limited(rng: np.random.Generator, shape, sigma: float = 1.0) -> np.ndarray:
    """White noise low-passed by a Gaussian of width sigma voxels (periodic)."""
    spectrum = np.fft.rfftn(rng.standard_normal(shape))
    k2 = sum(np.square(2 * np.pi * f) for f in np.meshgrid(
        *[np.fft.fftfreq(n) for n in shape[:-1]], np.fft.rfftfreq(shape[-1]),
        indexing="ij", sparse=True))
    return np.fft.irfftn(spectrum * np.exp(-0.5 * sigma ** 2 * k2), s=shape,
                         axes=tuple(range(len(shape))))


def dipole(shape, axis: int, sign: float, half_sep: int = 2) -> np.ndarray:
    """+sign and -sign unit charges half_sep voxels either side of the centre."""
    rho = np.zeros(shape)
    c = [(n - 1) // 2 for n in shape]
    hi, lo = list(c), list(c)
    hi[axis] += half_sep
    lo[axis] -= half_sep
    rho[tuple(hi)] = sign
    rho[tuple(lo)] = -sign
    return rho


def point_source(shape, rate: float = 1.0) -> np.ndarray:
    """One voxel at the centre (rounded down on even axes) emitting `rate`."""
    s = np.zeros(shape)
    s[tuple((n - 1) // 2 for n in shape)] = rate
    return s


# ----------------------------------------------------------- references


def _offsets(field_shape, spacing):
    """Displacement vectors of the (2N-1)-wide kernel grid, axis leading."""
    axes = [(np.arange(2 * n - 1) - (n - 1)) * spacing for n in field_shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"))


def greens_kernel(name: str, field_shape, spacing: float, **params) -> np.ndarray:
    """Sampled analytic kernel, component axis leading, on the 2N-1 grid."""
    pos = _offsets(field_shape, spacing)
    r = np.sqrt(np.sum(pos ** 2, axis=0))
    safe = np.where(r == 0.0, 1.0, r)
    at0 = r == 0.0
    if name == "inverse_r":
        k = np.where(at0, 0.0, 1.0 / (4.0 * math.pi * safe))[None]
    elif name == "log_r":
        k = np.where(at0, 0.0, -np.log(safe) / (2.0 * math.pi))[None]
    elif name == "inverse_r2":
        radial = np.where(at0, 0.0, 1.0 / (4.0 * math.pi * safe ** 2))
        k = radial[None] * np.where(at0, 0.0, pos / safe)
    elif name == "heat":
        D, t = params["D"], params["t"]
        dim = len(field_shape)
        k = ((4.0 * math.pi * D * t) ** (-dim / 2.0) * np.exp(-r ** 2 / (4.0 * D * t)))[None]
        k = k / (k.sum() * spacing ** dim)
    else:
        raise ValueError(f"unknown kernel {name!r}")
    return k


def free_space(u: np.ndarray, kernel: np.ndarray, spacing: float) -> np.ndarray:
    """Open-space convolution of a scalar field with each kernel component."""
    vol = spacing ** u.ndim
    crop = tuple(slice(n - 1, 2 * n - 1) for n in u.shape)
    return np.stack([signal.fftconvolve(u, k, mode="full")[crop] * vol for k in kernel])


def grad_zero(u: np.ndarray, spacing: float) -> np.ndarray:
    """Central differences with zeros outside the domain."""
    p = np.pad(u, 1)
    out = []
    for a in range(u.ndim):
        hi = tuple(slice(2, None) if b == a else slice(1, -1) for b in range(u.ndim))
        lo = tuple(slice(None, -2) if b == a else slice(1, -1) for b in range(u.ndim))
        out.append((p[hi] - p[lo]) / (2.0 * spacing))
    return np.stack(out)


def simulate_periodic(source: np.ndarray, spacing: float, D: float, w, dt: float,
                      steps: int) -> list:
    """Explicit Euler on a periodic grid from u0 = 0.

    Laplacian with double-step differences (the composition of two central
    differences), gradient with central differences.
    """
    u = np.zeros_like(source)
    frames = [u]
    for _ in range(steps):
        lap = np.zeros_like(u)
        adv = np.zeros_like(u)
        for a in range(u.ndim):
            lap += (np.roll(u, -2, a) + np.roll(u, 2, a) - 2.0 * u) / (2.0 * spacing) ** 2
            adv += w[a] * (np.roll(u, -1, a) - np.roll(u, 1, a)) / (2.0 * spacing)
        u = u + (source + D * lap - adv) * dt
        frames.append(u)
    return frames


def noise_like(rng: np.random.Generator, frames: list, level: float) -> np.ndarray:
    """Gaussian noise scaled to `level` times each frame's RMS."""
    out = np.empty((len(frames),) + frames[0].shape)
    for k, f in enumerate(frames):
        out[k] = level * math.sqrt(float(np.mean(f ** 2))) * rng.standard_normal(f.shape)
    return out


def max_rel(a: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - ref))) / scale


def rel_rms(a: np.ndarray, ref: np.ndarray) -> float:
    return math.sqrt(float(np.sum((np.asarray(a) - ref) ** 2)) / float(np.sum(ref ** 2)))


def recovery_error(D_hat, w_hat, D, w) -> float:
    """Acceptance criterion 4's error: worst of D and w, w relative to max|w|."""
    w = np.asarray(w, dtype=float)
    return max(abs(D_hat - D) / D,
               float(np.max(np.abs(np.asarray(w_hat) - w))) / float(np.max(np.abs(w))))


# ------------------------------------------------------------ EQF files


def _f17(x) -> str:
    return f"{float(x):.17g}"


def write_eqf(path, comps: np.ndarray, l: int, spacing: float, boundary: str = "zero") -> None:
    """EQF1 per the README: one ASCII header line, then little-endian f8."""
    shape = comps.shape[1:]
    header = " ".join([
        "EQF1", f"dim={len(shape)}", f"l={l}",
        "shape=" + ",".join(str(n) for n in shape),
        "spacing=" + ",".join(_f17(spacing) for _ in shape),
        "origin=" + ",".join(_f17(o) for o in centered_origin(shape, spacing)),
        f"boundary={boundary}"]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(comps, dtype="<f8").tobytes())


def read_eqf(path) -> np.ndarray:
    """Component array of an EQF file, shape (C, *grid)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, payload = blob.partition(b"\n")
    tokens = dict(t.split("=", 1) for t in head.decode("ascii").split()[1:])
    shape = tuple(int(n) for n in tokens["shape"].split(","))
    data = np.frombuffer(payload, dtype="<f8")
    return data.reshape((-1,) + shape)


def write_trajectory(dirpath, frames: list, source: np.ndarray, spacing: float,
                     D: float, w, dt: float) -> None:
    """Frame files plus the key=value manifest that `eqfield estimate` reads."""
    os.makedirs(dirpath, exist_ok=True)
    for k, f in enumerate(frames):
        write_eqf(os.path.join(dirpath, f"frame_{k:05d}.eqf"), f[None], 0, spacing, "periodic")
    write_eqf(os.path.join(dirpath, "source.eqf"), source[None], 0, spacing, "periodic")
    lines = ["model=eqfield-trajectory-v1", f"n_frames={len(frames)}", f"dt={_f17(dt)}",
             f"D={_f17(D)}", "w=" + ",".join(_f17(x) for x in w), "source=source.eqf",
             "boundary=periodic"]
    with open(os.path.join(dirpath, "trajectory.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
