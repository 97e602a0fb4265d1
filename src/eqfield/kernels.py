"""Radially symmetric kernel fields h = R(r) Y_l(rhat).

Two kinds of kernel: ``sampled`` kernels evaluate a radial profile on a
centered odd-extent grid, ``stencil`` kernels carry finite-difference
weights on a compact (<= 5 voxels per axis) grid.  The kind alone picks the
convolution path: stencils go direct, sampled kernels through the FFT.
Stencil weights are stored pre-divided by the voxel volume so that the
volume-scaled discrete convolution reproduces the finite difference
exactly; the delta stencil's 1/volume center weight is the defining case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import FieldError, TensorField, unit_harmonic
from .formats import read_eqf, write_eqf
from .grid import Grid

SAMPLED = "sampled"
STENCIL = "stencil"


class KernelError(ValueError):
    pass


@dataclass
class RadialProfile:
    """Scalar radial function R(r), a function of |r| only.

    ``origin_value`` replaces R(0) when the profile is singular there;
    None means sampling at r=0 is an error.  The default of zero excludes
    the self-interaction term, which is how the singular Green's function
    profiles stay finite on a grid.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    support_radius: float = math.inf
    singular_at_origin: bool = False
    origin_value: float | None = 0.0

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        at_origin = r == 0.0
        if self.singular_at_origin:
            if self.origin_value is None and np.any(at_origin):
                raise KernelError(f"profile {self.name!r} is singular at r=0 "
                                  "and has no origin value rule")
            safe = np.where(at_origin, 1.0, r)
            out = np.asarray(self.fn(safe), dtype=float)
            out = np.where(at_origin, self.origin_value if self.origin_value is not None
                           else np.nan, out)
        else:
            out = np.asarray(self.fn(r), dtype=float)
        if math.isfinite(self.support_radius):
            out = np.where(r > self.support_radius, 0.0, out)
        return out


def gaussian(sigma: float) -> RadialProfile:
    """exp(-r^2 / sigma^2), value 1 at the origin."""
    if sigma <= 0:
        raise KernelError("gaussian width must be positive")
    return RadialProfile(lambda r: np.exp(-(r / sigma) ** 2), name=f"gaussian({sigma:g})")


def inverse_r() -> RadialProfile:
    """1/(4 pi r): the 3d Coulomb potential profile, with d^2 v = -u convention."""
    return RadialProfile(lambda r: 1.0 / (4.0 * math.pi * r), name="inverse_r",
                         singular_at_origin=True)


def inverse_r2() -> RadialProfile:
    """1/(4 pi r^2): the 3d Coulomb field magnitude."""
    return RadialProfile(lambda r: 1.0 / (4.0 * math.pi * r ** 2), name="inverse_r2",
                         singular_at_origin=True)


def log_r() -> RadialProfile:
    """-ln(r)/(2 pi): the 2d Poisson Green's function."""
    return RadialProfile(lambda r: -np.log(r) / (2.0 * math.pi), name="log_r",
                         singular_at_origin=True)


def gaussian_diffusion(D: float, t: float, dim: int) -> RadialProfile:
    """Heat kernel (4 pi D t)^(-dim/2) exp(-r^2/(4 D t)); integrates to 1."""
    if not (D > 0 and t > 0):
        raise KernelError("gaussian_diffusion needs D > 0 and t > 0")
    norm = (4.0 * math.pi * D * t) ** (-dim / 2.0)
    return RadialProfile(lambda r: norm * np.exp(-r ** 2 / (4.0 * D * t)),
                         name=f"gaussian_diffusion({D:g},{t:g})")


_PROFILE_LIBRARY = {
    "gaussian": gaussian,
    "inverse_r": inverse_r,
    "inverse_r2": inverse_r2,
    "log_r": log_r,
    "gaussian_diffusion": gaussian_diffusion,
}


def named_profile(name: str, **params) -> RadialProfile:
    """Look up a profile from the library by name."""
    if name not in _PROFILE_LIBRARY:
        raise KernelError(f"unknown profile {name!r}; library: "
                          f"{sorted(_PROFILE_LIBRARY)}")
    return _PROFILE_LIBRARY[name](**params)


@dataclass(frozen=True)
class KernelField:
    """A tensor field serving as a convolution kernel.

    Its component array is made read-only: operators and bases are cached
    and share their kernels, so a write would change every later result.
    """

    field: TensorField
    l_h: int
    kind: str
    profile: RadialProfile | None = None

    def __post_init__(self):
        if self.kind not in (SAMPLED, STENCIL):
            raise KernelError(f"kernel kind must be sampled|stencil, got {self.kind!r}")
        if self.l_h != self.field.l:
            raise KernelError("kernel l_h does not match its field")
        if self.kind == STENCIL and any(n > 5 for n in self.field.grid.shape):
            raise KernelError("stencil kernels must be <= 5 voxels per axis")
        for n in self.field.grid.shape:
            if n % 2 == 0:
                raise KernelError("kernel grids need odd extent per axis")
        self.field.components.setflags(write=False)

    @property
    def grid(self) -> Grid:
        return self.field.grid

    def scaled(self, factor: float) -> "KernelField":
        return KernelField(TensorField(self.grid, self.l_h,
                                       self.field.components * float(factor)),
                           self.l_h, self.kind, self.profile)


def _check_centered(grid: Grid):
    center = grid.center_index()
    for a in range(grid.dim):
        if grid.shape[a] % 2 == 0:
            raise KernelError("kernel grids need odd extent per axis")
        pos = grid.origin[a] + center[a] * grid.spacing[a]
        if abs(pos) > 1e-9 * grid.spacing[a]:
            raise KernelError("kernel grid must be centered (a voxel at r=0)")


def kernel_grid(shape, spacing, boundary="zero") -> Grid:
    """Convenience: a centered, odd-extent grid suitable for kernels."""
    shape = tuple(shape)
    if any(n % 2 == 0 for n in shape):
        raise KernelError(f"kernel grids need odd extent per axis, got {shape}")
    return Grid.centered(shape, spacing, boundary)


def free_space_kernel_grid(grid: Grid) -> Grid:
    """Centered kernel grid spanning every displacement between voxels of ``grid``."""
    return kernel_grid(tuple(2 * n - 1 for n in grid.shape), grid.spacing)


def sample_kernel(grid: Grid, profile: RadialProfile, l_h: int) -> KernelField:
    """Sample R(|r|) Y_l(rhat) on a centered grid.

    For l_h >= 1 the value at r=0 is the zero tensor (the direction is
    undefined there); for l_h = 0 the profile's origin rule applies.
    """
    _check_centered(grid)
    center = grid.center_index()
    offsets = [(np.arange(n) - c) * s for n, c, s in zip(grid.shape, center, grid.spacing)]
    mesh = np.meshgrid(*offsets, indexing="ij")
    pos = np.stack(mesh)
    r = np.sqrt(np.sum(pos ** 2, axis=0))
    if l_h == 0:
        values = profile(r)[None]
    else:
        rhat = np.where(r == 0.0, 0.0, pos / np.where(r == 0.0, 1.0, r))
        radial = np.where(r == 0.0, 0.0, profile(np.where(r == 0.0, 1.0, r)))
        values = radial[None] * unit_harmonic(l_h, rhat)
    tf = TensorField(grid, l_h, values)
    return KernelField(tf, l_h, SAMPLED, profile)


def delta_stencil(grid: Grid) -> KernelField:
    """Identity kernel: one center voxel of weight 1/voxel_volume, l_h = 0."""
    kgrid = kernel_grid((3,) * grid.dim, grid.spacing)
    arr = np.zeros((1,) + kgrid.shape)
    arr[(0,) + (1,) * grid.dim] = 1.0 / grid.voxel_volume
    return KernelField(TensorField(kgrid, 0, arr), 0, STENCIL)


def gradient_stencil(grid: Grid) -> KernelField:
    """Central-difference gradient kernel, l_h = 1.

    Component a carries +1/(2 h_a) at offset -e_a and -1/(2 h_a) at +e_a
    (weights stored over voxel volume), so convolution returns the forward
    central difference: exact on linear and quadratic fields.
    """
    kgrid = kernel_grid((3,) * grid.dim, grid.spacing)
    vol = grid.voxel_volume
    arr = np.zeros((grid.dim,) + kgrid.shape)
    for a in range(grid.dim):
        w = 1.0 / (2.0 * grid.spacing[a] * vol)
        minus = [1] * grid.dim
        minus[a] = 0
        plus = [1] * grid.dim
        plus[a] = 2
        arr[(a, *minus)] = +w
        arr[(a, *plus)] = -w
    return KernelField(TensorField(kgrid, 1, arr), 1, STENCIL)


def laplacian_stencil(grid: Grid) -> KernelField:
    """(2 dim + 1)-point Laplacian kernel matching div(grad(.)) exactly.

    Central-difference grad followed by central-difference div doubles the
    step, so the weights sit at offsets +-2 e_a with step 2 h_a (still
    O(h^2) truncation).
    """
    kgrid = kernel_grid((5,) * grid.dim, grid.spacing)
    vol = grid.voxel_volume
    arr = np.zeros((1,) + kgrid.shape)
    center = (0,) + (2,) * grid.dim
    for a in range(grid.dim):
        w = 1.0 / ((2.0 * grid.spacing[a]) ** 2 * vol)
        lo = [2] * grid.dim
        lo[a] = 0
        hi = [2] * grid.dim
        hi[a] = 4
        arr[(0, *lo)] += w
        arr[(0, *hi)] += w
        arr[center] -= 2.0 * w
    return KernelField(TensorField(kgrid, 0, arr), 0, STENCIL)


def save_kernel(path, kernel: KernelField) -> None:
    write_eqf(path, kernel.field, extra={"kind": kernel.kind})


def load_kernel(path) -> KernelField:
    tf, extra = read_eqf(path)
    kind = extra.get("kind")
    if kind not in (SAMPLED, STENCIL):
        raise KernelError(f"{path}: missing or invalid kernel kind token")
    return KernelField(tf, tf.l, kind)
