"""Diffusion-advection simulation and parameter estimation.

The model is du/dt = D lap(u) - w . grad(u) + source, stepped with explicit
Euler.  Estimation inverts the same linear structure: the per-frame finite
differences (u_{k+1} - u_k)/dt against the features {lap(u_k), -grad(u_k)}
recover (D, w) by least squares, folded one frame at a time into a small
triangular factor (``learn._reduce_rows``).  The same stencils are used
for simulation and estimation, so noiseless recovery is exact up to
rounding (an inverse crime; fine for consistency checks, not a field test
of the discretization).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .fields import FieldError, TensorField, rotate_field, rotate_vector
from .formats import (FormatError, fmt_value, manifest_values, parse_list, read_eqf,
                      read_keyvalues, write_eqf, write_keyvalues)
from .grid import Grid
from .learn import _reduce_rows
from .operators import diffusion as _diffusion
from .operators import grad as _grad
from .operators import laplacian as _laplacian


class StabilityError(ValueError):
    """Time step violates the CFL-style guard."""


class SimulationError(RuntimeError):
    """Numerical blow-up (non-finite values) during stepping."""


class EstimationError(ValueError):
    """Too few frames or rank-deficient features; parameters are not identifiable."""


def max_stable_dt(grid: Grid, D: float, w) -> float:
    """Largest admissible Euler step: 0.5 * min(h^2/(2 dim D), h/|w|)."""
    h = min(grid.spacing)
    bound = np.inf
    if D > 0:
        bound = min(bound, h * h / (2.0 * grid.dim * D))
    speed = float(np.linalg.norm(np.asarray(w, dtype=float)))
    if speed > 0:
        bound = min(bound, h / speed)
    return 0.5 * bound


@dataclass(frozen=True)
class DiffusionAdvectionModel:
    """Frozen, ``w`` an owned read-only copy: no value can be re-set past the
    checks below, the stability guard among them."""

    grid: Grid
    D: float
    w: np.ndarray
    dt: float
    source: TensorField | None = None

    def __post_init__(self):
        set_value = functools.partial(object.__setattr__, self)
        set_value("D", float(self.D))
        set_value("w", np.array(self.w, dtype=float))
        self.w.setflags(write=False)
        set_value("dt", float(self.dt))
        if not np.all(np.isfinite(np.append(self.w, (self.D, self.dt)))):
            raise ValueError("D, w and dt must be finite")
        if self.D < 0:
            raise ValueError("diffusivity must be >= 0")
        if self.w.shape != (self.grid.dim,):
            raise ValueError(f"wind must be a {self.grid.dim}-vector")
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.source is None:
            set_value("source", TensorField.zeros(self.grid, 0))
        if self.source.grid != self.grid or self.source.l != 0:
            raise ValueError("source must be a scalar field on the model grid")
        limit = max_stable_dt(self.grid, self.D, self.w)
        if self.dt > limit:
            raise StabilityError(
                f"dt={self.dt:g} exceeds the stability guard {limit:g} "
                f"for D={self.D:g}, |w|={np.linalg.norm(self.w):g}; "
                f"largest stable dt = {fmt_value(limit)}")

    def rotated(self, rot) -> "DiffusionAdvectionModel":
        """The same model in a rotated frame: w as l=1, source as a field."""
        return DiffusionAdvectionModel(self.grid, self.D, rotate_vector(self.w, rot),
                                       self.dt, rotate_field(self.source, rot))


def time_derivative(model: DiffusionAdvectionModel, u: TensorField) -> TensorField:
    if u.grid != model.grid or u.l != 0:
        raise ValueError("state must be a scalar field on the model grid")
    out = model.source.components.copy()
    if model.D != 0.0:
        out = out + model.D * _laplacian(u).components
    if np.any(model.w != 0.0):
        g = _grad(u).components
        out = out - np.einsum("a,a...->...", model.w, g)[None]
    return TensorField(model.grid, 0, out)


def step_euler(model: DiffusionAdvectionModel, u: TensorField) -> TensorField:
    return u + time_derivative(model, u) * model.dt


def simulate(model: DiffusionAdvectionModel, u0: TensorField, n_steps: int) -> list:
    """Explicit Euler trajectory [u0, u1, ..., u_n]; aborts on non-finite state."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    traj = [u0]
    u = u0
    for k in range(n_steps):
        # field construction rejects non-finite components, so an overflow
        # inside the step surfaces as FieldError; report the step instead
        try:
            u = step_euler(model, u)
        except FieldError as exc:
            raise SimulationError(f"non-finite state at step {k + 1}") from exc
        traj.append(u)
    return traj


@dataclass
class EstimateResult:
    D: float
    w: np.ndarray
    residual: float      # relative MSE of the fitted time derivatives
    condition: float


def estimate_parameters(trajectory: list, dt: float,
                        source: TensorField | None = None,
                        smooth_sigma: float = 0.0) -> EstimateResult:
    """Least-squares recovery of (D, w) from consecutive frames.

    Solves (u_{k+1}-u_k)/dt - source = D lap(u_k) - w . grad(u_k) over all
    transitions, folded in one frame at a time; frames and source must be
    scalar fields on one grid.  Raises EstimationError on fewer than two
    frames and when the features do not span (constant or zero trajectories).

    smooth_sigma > 0 prefilters frames and source with a unit-mass Gaussian
    of that width, each frame once.  The filter commutes with the model's
    operators (exactly so under the periodic boundary), so noiseless
    recovery stays exact while the noise-correlation bias in the Laplacian
    feature is suppressed; a width near 2 voxels works well at the 1% noise
    level.
    """
    if len(trajectory) < 2:
        raise EstimationError("need at least two frames")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0.0 <= smooth_sigma < math.inf:
        raise ValueError(f"smooth_sigma must be finite and >= 0, got {smooth_sigma}")
    try:
        t = smooth_sigma ** 2 / 4.0
    except OverflowError:
        raise ValueError(f"smooth_sigma {smooth_sigma:g} makes sigma^2/4 overflow") from None
    grid, dim = trajectory[0].grid, trajectory[0].grid.dim
    checked = list(trajectory) + ([] if source is None else [source])
    if any(u.grid != grid or u.l != 0 for u in checked):
        raise ValueError("trajectory frames must be scalar fields on one grid")
    smooth = (lambda u: _diffusion(u, 1.0, t)) if smooth_sigma > 0 else (lambda u: u)
    src = 0.0 if source is None else smooth(source).components

    def blocks():
        u = smooth(trajectory[0])
        for nxt in map(smooth, trajectory[1:]):
            y = (nxt.components - u.components) / dt - src
            yield np.column_stack([_laplacian(u).components.ravel(),
                                   *-_grad(u).components.reshape(dim, -1), y.ravel()])
            u = nxt

    Rx, c, rho2, norm = _reduce_rows(blocks(), dim + 2)
    rows = (len(trajectory) - 1) * math.prod(grid.shape)
    theta, _, rank, svals = np.linalg.lstsq(Rx, c, rcond=np.finfo(float).eps * max(rows, dim + 1))
    if rank < dim + 1:
        raise EstimationError(
            f"feature rank {rank} < {dim + 1}; trajectory does not identify (D, w)")
    condition = float(svals[0] / svals[-1])
    residual = (float(np.sum((Rx @ theta - c) ** 2)) + rho2) / norm if norm > 0 else 0.0
    return EstimateResult(float(theta[0]), theta[1:].copy(), residual, condition)


def point_source(grid: Grid, rate: float = 1.0, index=None) -> TensorField:
    """Single-voxel emitter: rate is the density at that voxel per unit time.

    Default placement is the voxel nearest the domain center (rounded down
    on even axes, where the center falls between voxels).
    """
    values = np.zeros(grid.shape)
    if index is None:
        index = tuple(int(c) for c in grid.center_index())
    values[tuple(index)] = rate
    return TensorField.from_scalar(grid, values)


def save_trajectory(dirpath, trajectory: list, model: DiffusionAdvectionModel) -> None:
    """Numbered EQF frames plus a key=value manifest in one directory."""
    os.makedirs(dirpath, exist_ok=True)
    for k, u in enumerate(trajectory):
        write_eqf(os.path.join(dirpath, f"frame_{k:05d}.eqf"), u)
    write_eqf(os.path.join(dirpath, "source.eqf"), model.source)
    write_keyvalues(os.path.join(dirpath, "trajectory.txt"), {
        "model": "eqfield-trajectory-v1",
        "n_frames": len(trajectory),
        "dt": model.dt,
        "D": model.D,
        "w": list(model.w),
        "source": "source.eqf",
        "boundary": model.grid.boundary,
    })


def load_trajectory(dirpath) -> tuple:
    """Returns (frames, model) as written by save_trajectory."""
    kv = read_keyvalues(os.path.join(dirpath, "trajectory.txt"))
    if kv.get("model") != "eqfield-trajectory-v1":
        raise FormatError(f"{dirpath}: not a trajectory manifest")
    with manifest_values(dirpath):
        n = int(kv["n_frames"])
        source_name = kv["source"]
        D, dt = float(kv["D"]), float(kv["dt"])
        w = parse_list(kv["w"], float)
        boundary = kv["boundary"]
    if n < 1:
        raise FormatError(f"{dirpath}: a trajectory needs at least one frame, got n_frames={n}")
    frames = []
    for k in range(n):
        u, _ = read_eqf(os.path.join(dirpath, f"frame_{k:05d}.eqf"))
        frames.append(u)
    if boundary != frames[0].grid.boundary:
        raise FormatError(f"{dirpath}: manifest boundary {boundary!r} does not match "
                          f"the frames' {frames[0].grid.boundary!r}")
    source, _ = read_eqf(os.path.join(dirpath, source_name))
    with manifest_values(dirpath):   # bad D, w or dt, including an unstable dt
        model = DiffusionAdvectionModel(frames[0].grid, D, w, dt, source)
    return frames, model
