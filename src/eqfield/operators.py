"""Named equivariant operators: differential stencils, Green's functions,
and the diffusion smoother.

Sign and unit conventions (Gaussian units, eps0 = 1):

* ``inverse_laplacian(u)`` returns v with lap(v) = -u, the potential of a
  charge density; its kernel is 1/(4 pi r) in 3d and -ln(r)/(2 pi) in 2d.
* ``gauss_law(u)`` returns the outward Coulomb field of the density, equal
  to -grad(inverse_laplacian(u)) up to discretization error.  Divergence
  has a null space, so this is the curl-free representative.
* Green's-function operators always use the zero (free-space) boundary;
  differential stencils and diffusion follow the grid's boundary mode.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .convolve import FOURIER, conv, default_path, kernel_spectrum
from .fields import FieldError, RuleError, TensorField, product_rule
from .grid import ZERO, Grid
from .kernels import (KernelError, KernelField, delta_stencil, free_space_kernel_grid,
                      gaussian_diffusion, gradient_stencil, inverse_r, inverse_r2,
                      laplacian_stencil, log_r, sample_kernel)


@dataclass(frozen=True)
class EquivariantOp:
    """A kernel bundled with its product rule, built for one grid together
    with everything it applies with: an operator whose default path is
    Fourier computes its read-only kernel spectrum when it is built, and a
    stencil operator holds none.  Nothing in it changes on apply."""

    name: str
    grid: Grid
    kernel: KernelField
    kind: str
    boundary: str | None = None   # None: the grid's boundary
    input_l: int | None = None    # None: any order the rule accepts
    spectrum: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.boundary is None:
            object.__setattr__(self, "boundary", self.grid.boundary)
        fourier = default_path(self.kernel) == FOURIER
        object.__setattr__(self, "spectrum", kernel_spectrum(
            self.kernel, self.grid.shape, self.boundary) if fourier else None)

    @property
    def nbytes(self) -> int:
        """Bytes of the kernel plus those of the spectrum the operator holds."""
        held = 0 if self.spectrum is None else self.spectrum.nbytes
        return self.kernel.field.components.nbytes + held

    def apply(self, u: TensorField, path: str | None = None) -> TensorField:
        """Convolve u with the kernel; ``path`` forces a path for this call."""
        if u.grid != self.grid:
            raise FieldError(f"operator {self.name!r} was built for another grid")
        if self.input_l is not None and u.l != self.input_l:
            raise RuleError(f"operator {self.name!r} expects l={self.input_l} input, "
                            f"got l={u.l}")
        rule = product_rule(self.kind, u.l, self.kernel.l_h, u.grid.dim)
        return conv(u, self.kernel, rule, path=path, boundary=self.boundary,
                    spectrum=self.spectrum)


def identity_op(grid: Grid) -> EquivariantOp:
    return EquivariantOp("identity", grid, delta_stencil(grid), "scalar")


def grad_op(grid: Grid) -> EquivariantOp:
    return EquivariantOp("grad", grid, gradient_stencil(grid), "scalar", input_l=0)


def div_op(grid: Grid) -> EquivariantOp:
    return EquivariantOp("div", grid, gradient_stencil(grid), "dot", input_l=1)


def curl_op(grid: Grid) -> EquivariantOp:
    # conv(u, h, cross) contracts u x h, which is the negative of curl for
    # the central-difference kernel; flip the stencil so curl(u) = nabla x u.
    stencil = gradient_stencil(grid).scaled(-1.0)
    return EquivariantOp("curl", grid, stencil, "cross", input_l=1)


def laplacian_op(grid: Grid) -> EquivariantOp:
    return EquivariantOp("laplacian", grid, laplacian_stencil(grid), "scalar",
                         input_l=0)


def inverse_laplacian_op(grid: Grid) -> EquivariantOp:
    profile = inverse_r() if grid.dim == 3 else log_r()
    kernel = sample_kernel(free_space_kernel_grid(grid), profile, 0)
    return EquivariantOp("inverse_laplacian", grid, kernel, "scalar",
                         boundary=ZERO, input_l=0)


def gauss_law_op(grid: Grid) -> EquivariantOp:
    if grid.dim != 3:
        raise RuleError("gauss_law is defined for 3d grids only")
    kernel = sample_kernel(free_space_kernel_grid(grid), inverse_r2(), 1)
    return EquivariantOp("gauss_law", grid, kernel, "scalar",
                         boundary=ZERO, input_l=0)


def diffusion_op(grid: Grid, D: float, t: float) -> EquivariantOp:
    """Smoothing by the heat kernel for diffusivity D over time t.

    The sampled kernel is renormalized to unit discrete mass (sum times
    voxel volume), so total mass is conserved exactly under the periodic
    boundary; the renormalization is the voxel-quadrature factor and tends
    to 1 as the kernel width grows past the spacing.
    """
    profile = gaussian_diffusion(D, t, grid.dim)
    kernel = sample_kernel(free_space_kernel_grid(grid), profile, 0)
    mass = float(np.sum(kernel.field.components)) * grid.voxel_volume
    if not 0.0 < mass < math.inf:
        raise KernelError(f"diffusion kernel for D={D:g}, t={t:g} has discrete mass "
                          f"{mass:g} on this grid")
    kernel = kernel.scaled(1.0 / mass)
    return EquivariantOp("diffusion", grid, kernel, "scalar")


REGISTRY = {
    "identity": identity_op,
    "grad": grad_op,
    "div": div_op,
    "curl": curl_op,
    "laplacian": laplacian_op,
    "inverse_laplacian": inverse_laplacian_op,
    "gauss_law": gauss_law_op,
    "diffusion": diffusion_op,
}


CACHE_BYTES = 256 * 2**20   # budget of each ByteLRU: operators, neural bases


class ByteLRU:
    """Values evicted least recently used first once their bytes pass
    ``CACHE_BYTES``; the newest value always stays, however large."""

    def __init__(self, nbytes):
        self._nbytes = nbytes          # value -> its size in bytes
        self._entries = OrderedDict()  # key -> (value, size)
        self.total = 0

    def get(self, key, build):
        """The value cached under ``key``, built by ``build()`` on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key][0]
        value = build()
        size = self._nbytes(value)
        self._entries[key] = (value, size)
        self.total += size
        while self.total > CACHE_BYTES and len(self._entries) > 1:
            self.total -= self._entries.popitem(last=False)[1][1]
        return value


_op_cache = ByteLRU(lambda op: op.nbytes)


def make_operator(name: str, grid: Grid, **params) -> EquivariantOp:
    """Build a registered operator for a grid; diffusion takes D and t.

    Instances are cached per (name, grid, params): operators are frozen, and
    Green's-function kernels and the spectra built with them are expensive
    enough to be worth reusing.  The cache holds at most ``CACHE_BYTES`` of
    operators, each counted by its ``nbytes`` once it is built.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown operator {name!r}; registry: {sorted(REGISTRY)}")
    key = (name, grid, tuple(sorted(params.items())))
    return _op_cache.get(key, lambda: REGISTRY[name](grid, **params))


def grad(u: TensorField) -> TensorField:
    return make_operator("grad", u.grid).apply(u)


def div(u: TensorField) -> TensorField:
    return make_operator("div", u.grid).apply(u)


def curl(u: TensorField) -> TensorField:
    return make_operator("curl", u.grid).apply(u)


def laplacian(u: TensorField) -> TensorField:
    return make_operator("laplacian", u.grid).apply(u)


def inverse_laplacian(u: TensorField) -> TensorField:
    return make_operator("inverse_laplacian", u.grid).apply(u)


def gauss_law(u: TensorField) -> TensorField:
    return make_operator("gauss_law", u.grid).apply(u)


def diffusion(u: TensorField, D: float, t: float) -> TensorField:
    return make_operator("diffusion", u.grid, D=float(D), t=float(t)).apply(u)
