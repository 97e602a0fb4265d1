"""Equivariant operators, the one front door to convolution.

``EquivariantOp.apply`` is the one place that picks a convolution path;
``conv`` is an operator built for one call.  The named operators are the
differential stencils, the Green's functions and the diffusion smoother;
``held`` is the one cache of every operator the package builds.

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
from typing import Callable

import numpy as np

from .convolve import (DIRECT, FOURIER, KernelLayout, conv_direct, conv_fourier,
                       default_path, kernel_spectrum)
from .fields import FieldError, ProductRule, RuleError, TensorField, product_rule
from .grid import ZERO, Frozen, Grid, check_boundary
from .kernels import (KernelError, KernelField, delta_stencil, free_space_kernel_grid,
                      gaussian_diffusion, gradient_stencil, inverse_r, inverse_r2,
                      laplacian_stencil, log_r, sample_kernel)


class EquivariantOp(Frozen):
    """A kernel bundled with its product rule, built for one grid together
    with everything it applies with.  ``kernel`` is a KernelField, or a
    recipe that samples one: a callable that, given a ``KernelLayout``, may
    sample straight into it and return it (``sample_kernel``'s ``out``), and
    otherwise returns a KernelField; it runs once here.  An operator whose
    default path is Fourier computes its read-only kernel spectrum when it
    is built, in that layout, and applies with that alone.  For a sampled
    radial kernel, which has exact inversion and first-axis parity, that is
    one float64 part per component, of rows 0 ... W0//2 of the first axis,
    with each component's first-axis sign in ``signs`` (``KernelLayout``).
    Built from a recipe, it keeps the recipe in place of the kernel, which
    is gone before the layout is transformed, or was never made whole, so
    ``kernel`` and a forced direct apply sample it again, to the same bits;
    a recipe looks its sampler up when it runs.  A stencil operator, or one
    built from a KernelField, keeps the array.  Nothing in it changes on
    apply.  ``input_l`` None takes any order the rule accepts.  ``==`` and
    ``hash`` leave out the spectrum and signs, which follow from the rest;
    ``repr`` leaves out the recipe too."""

    _fields = ("name", "grid", "kind", "boundary", "input_l", "kernel_grid", "l_h", "recipe")
    _unshown = ("recipe",)

    def __init__(self, name: str, grid: Grid, kernel: KernelField | Callable[..., KernelField],
                 kind: str, boundary: str | None = None, input_l: int | None = None):
        boundary = check_boundary(grid.boundary if boundary is None else boundary)
        layout = KernelLayout(grid.shape, boundary)
        sampled = kernel if isinstance(kernel, KernelField) else kernel(layout)
        if sampled.grid.dim != grid.dim:
            raise FieldError("field and kernel dimensions differ")
        for a, (hu, hk) in enumerate(zip(grid.spacing, sampled.grid.spacing)):
            if abs(hu - hk) > 1e-12 * max(hu, hk):
                raise FieldError(f"field and kernel spacing differ on axis {a}: {hu} vs {hk}")
        fourier = default_path(sampled) == FOURIER
        held = dict(name=name, grid=grid, kind=kind, boundary=boundary, input_l=input_l,
                    kernel_grid=sampled.grid, l_h=sampled.l_h,
                    recipe=kernel if fourier else sampled, spectrum=None, signs=None)
        if fourier:
            if sampled is not layout:
                layout.lay(sampled)
            del sampled   # a recipe's sample is gone before its layout is transformed
            held["spectrum"], held["signs"] = layout.spectrum()
        self._set(**held)

    @property
    def kernel(self) -> KernelField:
        """The held kernel, or a fresh sample of the recipe."""
        return self.recipe if isinstance(self.recipe, KernelField) else self.recipe()

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the operator holds: its spectrum, and its
        kernel unless a recipe stands in for it.  The first-axis signs are a
        tuple of C floats, not an array, and are not counted."""
        kernel = self.recipe.nbytes if isinstance(self.recipe, KernelField) else 0
        return kernel + (0 if self.spectrum is None else self.spectrum.nbytes)

    def apply(self, u: TensorField, path: str | None = None) -> TensorField:
        """Convolve u with the kernel: on the Fourier path with the held
        spectrum if there is one, direct otherwise.  ``path`` forces a path
        for this call only; a forced Fourier apply of an operator without a
        spectrum computes one and keeps nothing."""
        if u.grid != self.grid:
            raise FieldError(f"operator {self.name!r} was built for another grid")
        if self.input_l is not None and u.l != self.input_l:
            raise RuleError(f"operator {self.name!r} expects l={self.input_l} input, "
                            f"got l={u.l}")
        if path is None:
            path = DIRECT if self.spectrum is None else FOURIER
        rule = product_rule(self.kind, u.l, self.l_h, u.grid.dim)
        if path == DIRECT:
            return conv_direct(u, self.kernel, rule, self.boundary)
        if path != FOURIER:
            raise ValueError(f"path must be direct|fourier, got {path!r}")
        spectrum, signs = ((self.spectrum, self.signs) if self.spectrum is not None
                           else kernel_spectrum(self.kernel, self.grid.shape, self.boundary))
        return conv_fourier(u, self.kernel_grid.shape, rule, self.boundary, spectrum, signs)


def conv(u: TensorField, kernel: KernelField, rule: ProductRule,
         path: str | None = None, boundary: str | None = None) -> TensorField:
    """Tensor-field convolution of u with a kernel under ``rule``: an
    ``EquivariantOp`` built for this one call and held nowhere, so a wide
    kernel's spectrum is computed here and dropped.  ``path`` forces a path;
    ``boundary`` defaults to the field's, and one not in ``grid.BOUNDARIES``
    raises GridError."""
    if rule.l_u != u.l:
        raise RuleError(f"rule expects input order {rule.l_u}, field has l={u.l}")
    if rule.l_h != kernel.l_h:
        raise RuleError(f"rule expects kernel order {rule.l_h}, kernel has l={kernel.l_h}")
    return EquivariantOp("conv", u.grid, kernel, rule.kind, boundary, rule.l_u).apply(u, path)


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
    kgrid = free_space_kernel_grid(grid)
    return EquivariantOp("inverse_laplacian", grid,
                         lambda out=None: sample_kernel(kgrid, profile, 0, out),
                         "scalar", boundary=ZERO, input_l=0)


def gauss_law_op(grid: Grid) -> EquivariantOp:
    if grid.dim != 3:
        raise RuleError("gauss_law is defined for 3d grids only")
    kgrid, profile = free_space_kernel_grid(grid), inverse_r2()
    return EquivariantOp("gauss_law", grid,
                         lambda out=None: sample_kernel(kgrid, profile, 1, out),
                         "scalar", boundary=ZERO, input_l=0)


def diffusion_op(grid: Grid, D: float, t: float) -> EquivariantOp:
    """Smoothing by the heat kernel for diffusivity D over time t.

    The kernel is sampled on its support, the ball of radius 10 sqrt(2 D t)
    (``gaussian_diffusion``), inside the smallest centered box that holds
    it, clipped per axis to the free-space extent 2N - 1.  For
    D t <= 0.02 h^2, h the smallest spacing, that box is at most 5 voxels
    wide, so the kernel goes direct, with taps only inside the ball.  The
    sampled kernel is renormalized to unit discrete mass (sum times voxel
    volume), so total mass is conserved exactly under the periodic
    boundary; the renormalization is the voxel-quadrature factor and tends
    to 1 as the kernel width grows past the spacing.
    """
    profile = gaussian_diffusion(D, t, grid.dim)
    kgrid = free_space_kernel_grid(grid, profile.support)

    def kernel(out=None) -> KernelField:   # sampled whole for its mass, then laid out
        raw = sample_kernel(kgrid, profile, 0)
        mass = float(np.sum(raw.field.components)) * grid.voxel_volume
        if not 0.0 < mass < math.inf:
            raise KernelError(f"diffusion kernel for D={D:g}, t={t:g} has discrete mass "
                              f"{mass:g} on this grid")
        return raw.scaled(1.0 / mass)

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


CACHE_BYTES = 256 * 2**20   # budget of the one cache: operators and learned bases

_held = OrderedDict()   # key -> operator or tuple of operators, least recently used first


def _nbytes(value) -> int:
    return sum(k.nbytes for k in value) if isinstance(value, tuple) else value.nbytes


def held(key, build):
    """The value held under ``key``, built by ``build()`` on a miss: the one cache
    of every frozen operator and learned basis (a tuple of operators).  Values go
    least recently used first once their ``nbytes`` sum past ``CACHE_BYTES``; the
    newest always stays."""
    if key in _held:
        _held.move_to_end(key)
        return _held[key]
    value = _held[key] = build()
    while len(_held) > 1 and sum(map(_nbytes, _held.values())) > CACHE_BYTES:
        _held.popitem(last=False)
    return value


def make_operator(name: str, grid: Grid, **params) -> EquivariantOp:
    """Build a registered operator for a grid; diffusion takes D and t.

    Instances are held per (name, grid, params): operators are frozen, and
    Green's-function kernels and the spectra built with them are expensive
    enough to be worth reusing.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown operator {name!r}; registry: {sorted(REGISTRY)}")
    return held((name, grid, tuple(sorted(params.items()))),
                lambda: REGISTRY[name](grid, **params))


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
