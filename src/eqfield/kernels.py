"""Radially symmetric kernel fields h = R(r) Y_l(rhat).

A kernel is a tensor field on a centered odd-extent grid and nothing more:
``sample_kernel`` evaluates a radial profile on it, and the finite-difference
stencils carry their weights on a 3- or 5-wide grid.  An operator picks the
convolution path from the kernel's extent alone.  Stencil weights are stored
pre-divided by the voxel volume so that the volume-scaled discrete
convolution reproduces the finite difference exactly; the delta stencil's
1/volume center weight is the defining case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import FieldError, TensorField, components_for, unit_harmonic
from .formats import read_eqf, write_eqf
from .grid import Grid

class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class RadialProfile:
    """Scalar radial function R(r), a function of |r| only.

    A profile singular at the origin reads 0 there.  That excludes the
    self-interaction term, which is how the singular Green's function
    profiles stay finite on a grid.  A profile reads exactly 0 beyond its
    ``support`` radius, so a kernel needs no voxel farther out than that.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    singular_at_origin: bool = False
    support: float = math.inf

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.singular_at_origin:
            at_origin = r == 0.0
            out = np.asarray(self.fn(np.where(at_origin, 1.0, r)), dtype=float)
            out = np.where(at_origin, 0.0, out)
        else:
            out = np.asarray(self.fn(r), dtype=float)
        return out if self.support == math.inf else np.where(r <= self.support, out, 0.0)


def gaussian(sigma: float) -> RadialProfile:
    """exp(-r^2 / sigma^2), value 1 at the origin."""
    if not 0 < sigma < math.inf:
        raise KernelError(f"gaussian width must be positive and finite, got {sigma}")
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


HEAT_SUPPORT_SIGMAS = 10   # heat-kernel support radius, in widths sqrt(2 D t)


def gaussian_diffusion(D: float, t: float, dim: int) -> RadialProfile:
    """Heat kernel (4 pi D t)^(-dim/2) exp(-r^2/(4 D t)); integrates to 1.

    It reads exactly 0 beyond ``HEAT_SUPPORT_SIGMAS`` widths sigma =
    sqrt(2 D t).  At 10 sigma the profile is below exp(-50) of its peak,
    and the mass left outside is below 2e-21 of the total in 2d and 3d:
    far under float64's unit roundoff.
    """
    if not (0 < D < math.inf and 0 < t < math.inf):
        raise KernelError("gaussian_diffusion needs finite D > 0 and t > 0")
    try:
        norm = (4.0 * math.pi * D * t) ** (-dim / 2.0)
    except (ZeroDivisionError, OverflowError) as exc:
        raise KernelError(f"heat kernel for D={D:g}, t={t:g} is out of float range") from exc
    return RadialProfile(lambda r: norm * np.exp(-r ** 2 / (4.0 * D * t)),
                         name=f"gaussian_diffusion({D:g},{t:g})",
                         support=HEAT_SUPPORT_SIGMAS * math.sqrt(2.0 * D * t))


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

    def __post_init__(self):
        if self.l_h != self.field.l:
            raise KernelError("kernel l_h does not match its field")
        if any(n % 2 == 0 for n in self.field.grid.shape):
            raise KernelError("kernel grids need odd extent per axis")
        self.field.components.setflags(write=False)

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def nbytes(self) -> int:
        return self.field.components.nbytes

    def scaled(self, factor: float) -> "KernelField":
        return KernelField(TensorField(self.grid, self.l_h,
                                       self.field.components * float(factor)),
                           self.l_h)


def _check_centered(grid: Grid):
    center = grid.center_index()
    for a in range(grid.dim):
        pos = grid.origin[a] + center[a] * grid.spacing[a]
        if abs(pos) > 1e-9 * grid.spacing[a]:
            raise KernelError("kernel grid must be centered (a voxel at r=0)")


def kernel_grid(shape, spacing) -> Grid:
    """Convenience: a centered, odd-extent grid suitable for kernels."""
    shape = tuple(shape)
    if any(n % 2 == 0 for n in shape):
        raise KernelError(f"kernel grids need odd extent per axis, got {shape}")
    return Grid.centered(shape, spacing)


def free_space_kernel_grid(grid: Grid, reach: float = math.inf) -> Grid:
    """Centered kernel grid spanning every displacement between voxels of
    ``grid`` that is at most ``reach`` long on each axis: half-width
    min(N - 1, ceil(reach / h)) voxels per axis."""
    # clipped before ceil, which an infinite reach would overflow
    half = [n - 1 if reach / h >= n - 1 else math.ceil(reach / h)
            for n, h in zip(grid.shape, grid.spacing)]
    return kernel_grid(tuple(2 * c + 1 for c in half), grid.spacing)


SAMPLE_SLAB_VOXELS = 2**12   # voxel cap of the block of rows that sample_kernel evaluates at once


def sample_kernel(grid: Grid, profile: RadialProfile, l_h: int, out=None):
    """Sample R(|r|) Y_l(rhat) on a centered grid, from per-axis offsets that broadcast.

    The profile is evaluated one slab at a time, a block of rows along axis
    0 of at most ``SAMPLE_SLAB_VOXELS`` voxels (one row if a row is larger),
    so the temporaries are slab-sized; for l_h = 1 the unit directions are
    written into the slab and scaled there.  The profile alone sets r=0,
    where rhat is 0, so Y_l vanishes there for l_h >= 1; a singular profile
    reads 0 there, and a non-finite one fails.

    Each slab goes into one KernelField's array; or, given ``out``, a
    ``convolve.KernelLayout`` that ``out.open`` readies for this kernel,
    straight into its circular place there, and ``out`` is returned, so no
    kernel-sized array is made.  A kernel that ``out`` does not open is
    sampled into a KernelField as without it.
    """
    _check_centered(grid)
    axes = [((np.arange(n) - c) * s).reshape((n,) + (1,) * (grid.dim - 1 - a))
            for a, (n, c, s) in enumerate(zip(grid.shape, grid.center_index(), grid.spacing))]
    squares = [x ** 2 for x in axes]
    shape = (components_for(l_h, grid.dim),) + grid.shape
    laid = out is not None and out.open(grid, l_h)
    values = None if laid else np.zeros(shape)
    rows = max(1, SAMPLE_SLAB_VOXELS // math.prod(grid.shape[1:]))
    for start in range(0, grid.shape[0], rows):
        slab = slice(start, start + rows)
        r = np.sqrt(sum([squares[0][slab], *squares[1:]]))
        if l_h == 0:
            block = profile(r)[None]
        else:
            block = np.zeros(shape[:1] + r.shape) if laid else values[:, slab]
            rhat = block if l_h == 1 else np.zeros((grid.dim,) + r.shape)
            for x, o in zip([axes[0][slab], *axes[1:]], rhat):
                np.divide(x, r, out=o, where=r != 0.0)
            np.multiply(unit_harmonic(l_h, rhat), profile(r), out=block)
        if laid:
            out.add(start, block)
        elif l_h == 0:
            values[:, slab] = block
        del block   # freed before the next slab's temporaries are made
    return out if laid else KernelField(TensorField(grid, l_h, values), l_h)


def delta_stencil(grid: Grid) -> KernelField:
    """Identity kernel: one center voxel of weight 1/voxel_volume, l_h = 0."""
    kgrid = kernel_grid((3,) * grid.dim, grid.spacing)
    arr = np.zeros((1,) + kgrid.shape)
    arr[(0,) + (1,) * grid.dim] = 1.0 / grid.voxel_volume
    return KernelField(TensorField(kgrid, 0, arr), 0)


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
    return KernelField(TensorField(kgrid, 1, arr), 1)


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
    return KernelField(TensorField(kgrid, 0, arr), 0)


def save_kernel(path, kernel: KernelField) -> None:
    write_eqf(path, kernel.field)


def load_kernel(path) -> KernelField:
    """Read a kernel file; a legacy ``kind=`` header token is ignored."""
    tf, _ = read_eqf(path)
    return KernelField(tf, tf.l)
