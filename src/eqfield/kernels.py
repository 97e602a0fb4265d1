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
from typing import Callable

import numpy as np

from .fields import FieldError, TensorField, components_for, unit_harmonic
from .formats import read_eqf, write_eqf
from .grid import Frozen, Grid

class KernelError(ValueError):
    pass


class RadialProfile(Frozen):
    """Scalar radial function R(r), a function of |r| only.

    A profile singular at the origin reads 0 there.  That excludes the
    self-interaction term, which is how the singular Green's function
    profiles stay finite on a grid.  A profile reads exactly 0 beyond its
    ``support`` radius, so a kernel needs no voxel farther out than that.
    """

    _fields = ("fn", "name", "singular_at_origin", "support")

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], name: str = "custom",
                 singular_at_origin: bool = False, support: float = math.inf):
        self._set(fn=fn, name=name, singular_at_origin=singular_at_origin, support=support)

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


class KernelField(Frozen):
    """A tensor field serving as a convolution kernel.

    Its component array is made read-only: operators and bases are cached
    and share their kernels, so a write would change every later result.
    """

    _fields = ("field", "l_h")

    def __init__(self, field: TensorField, l_h: int):
        if l_h != field.l:
            raise KernelError("kernel l_h does not match its field")
        if any(n % 2 == 0 for n in field.grid.shape):
            raise KernelError("kernel grids need odd extent per axis")
        field.components.setflags(write=False)
        self._set(field=field, l_h=l_h)

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
    reads 0 there.  A non-finite value fails: a FieldError in a KernelField,
    a KernelError from ``out.spectrum`` before it transforms anything.

    The slabs fill one KernelField's array; or, given ``out``, a
    ``convolve.KernelLayout`` that ``out.open`` readies, its real view, at
    the circular offsets of a work length W: i for i <= c, the center index,
    and i - W past it, with -0.0 read as +0.0 and the offsets past the
    kernel's reach zeroed, as laying out the whole kernel leaves them.  Then
    ``out`` is returned, and no kernel-sized array is made; a kernel that
    ``out`` does not open is sampled into a KernelField as without it.
    """
    _check_centered(grid)
    laid = out is not None and out.open(grid, l_h)
    values = out.view if laid else np.zeros((components_for(l_h, grid.dim),) + grid.shape)
    center = [(n - 1) // 2 for n in grid.shape]
    axes = np.ix_(*[(np.where(i <= c, i, i - len(i)) if laid else i - c) * s
                    for i, c, s in zip(map(np.arange, values.shape[1:]), center, grid.spacing)])
    squares = [x ** 2 for x in axes]
    rows = max(1, SAMPLE_SLAB_VOXELS // math.prod(values.shape[2:]))
    for start in range(0, values.shape[1], rows):
        slab = slice(start, start + rows)
        r = np.sqrt(sum([squares[0][slab], *squares[1:]]))
        block = values[:, slab]
        if l_h == 0:
            block[0] = profile(r)
        else:
            rhat = block if l_h == 1 else np.zeros((grid.dim,) + r.shape)
            for x, o in zip([axes[0][slab], *axes[1:]], rhat):
                np.divide(x, r, out=o, where=r != 0.0)
            np.multiply(unit_harmonic(l_h, rhat), profile(r), out=block)
        del block, r   # freed before the next slab's temporaries are made
    if laid:   # -0.0 reads +0.0, as an add into the zeroed view leaves it; 0 past the reach
        values += 0.0
        for a, (w, c) in enumerate(zip(values.shape[1:], center)):
            values[(slice(None),) * (a + 1) + (slice(c + 1, w - c),)] = 0.0
    return out if laid else KernelField(TensorField(grid, l_h, values), l_h)


def _stencil(grid: Grid, l_h: int, width: int, taps) -> KernelField:
    """A stencil of order ``l_h``, ``width`` voxels wide per axis, on a centered
    grid of ``grid``'s spacing.  Each tap ``(component, axis, shift, d)`` in turn
    adds the weight 1/d to its component at the center shifted by ``shift``
    along ``axis`` (None: the center).  A weight that is not finite and non-zero,
    which a spacing too fine or too coarse for its d makes, is refused with a
    KernelError that names the spacing."""
    arr = np.zeros((components_for(l_h, grid.dim),) + (width,) * grid.dim)
    for component, axis, shift, d in taps:
        w = 1.0 / d if d else math.inf
        if not (math.isfinite(w) and w):
            raise KernelError(f"spacing {grid.spacing} puts a stencil weight past the float range")
        arr[(component, *[width // 2 + shift * (i == axis) for i in range(grid.dim)])] += w
    return KernelField(TensorField(kernel_grid(arr.shape[1:], grid.spacing), l_h, arr), l_h)


def delta_stencil(grid: Grid) -> KernelField:
    """Identity kernel: one center voxel of weight 1/voxel_volume, l_h = 0."""
    return _stencil(grid, 0, 3, [(0, None, 0, grid.voxel_volume)])


def gradient_stencil(grid: Grid) -> KernelField:
    """Central-difference gradient kernel, l_h = 1.

    Component a carries +1/(2 h_a) at offset -e_a and -1/(2 h_a) at +e_a
    (weights stored over voxel volume), so convolution returns the forward
    central difference: exact on linear and quadratic fields.
    """
    vol = grid.voxel_volume
    return _stencil(grid, 1, 3, [(a, a, s, -s * 2.0 * h * vol)
                                 for a, h in enumerate(grid.spacing) for s in (-1, 1)])


def laplacian_stencil(grid: Grid) -> KernelField:
    """(2 dim + 1)-point Laplacian kernel matching div(grad(.)) exactly.

    Central-difference grad followed by central-difference div doubles the
    step, so the weights 1/(2 h_a)^2 sit at offsets +-2 e_a, with step 2 h_a
    (still O(h^2) truncation), and the center sums -2/(2 h_a)^2 in axis order.
    """
    vol = grid.voxel_volume
    taps = []
    for a, h in enumerate(grid.spacing):
        d = (2.0 * h) * (2.0 * h) * vol
        taps += [(0, a, -2, d), (0, a, 2, d), (0, None, 0, -d / 2)]
    return _stencil(grid, 0, 5, taps)


def save_kernel(path, kernel: KernelField) -> None:
    write_eqf(path, kernel.field)


def load_kernel(path) -> KernelField:
    """Read a kernel file; a legacy ``kind=`` header token is ignored."""
    tf, _ = read_eqf(path)
    return KernelField(tf, tf.l)
