"""Tensor fields over regular grids, their pointwise algebra and the
product rules that define every tensor product.

A tensor field stores one real array per component with the component axis
leading, so shape is (C, *grid.shape).  Rotation order l fixes C:

    l = 0   scalar          C = 1
    l = 1   vector          C = dim
    l = 2   traceless symmetric matrix (3d only), C = 5

The l = 2 basis is five traceless symmetric matrices of equal Frobenius
norm sqrt(2) (see ``l2_basis``), so the component tuple's Euclidean norm is
rotation invariant and component extraction is <M, B_k> / 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .grid import Grid


class FieldError(ValueError):
    pass


class RuleError(ValueError):
    """Unsupported tensor product for the requested orders/dimension."""
    pass


_SQRT3 = math.sqrt(3.0)

# Traceless symmetric basis: xx-yy, (2zz-xx-yy)/sqrt(3), xy, xz, yz.
_L2_BASIS = np.array([
    [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
    [[-1.0 / _SQRT3, 0.0, 0.0], [0.0, -1.0 / _SQRT3, 0.0], [0.0, 0.0, 2.0 / _SQRT3]],
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
])
_L2_BASIS.setflags(write=False)


def l2_basis() -> np.ndarray:
    """The five order-2 basis matrices, shape (5, 3, 3)."""
    return _L2_BASIS


def matrix_from_l2(c: np.ndarray) -> np.ndarray:
    """Reconstruct the 3x3 traceless symmetric matrix from 5 components."""
    return np.einsum("k...,kij->ij...", c, _L2_BASIS)


def l2_from_matrix(m: np.ndarray) -> np.ndarray:
    """Extract the 5 components of a traceless symmetric matrix."""
    return np.einsum("ij...,kij->k...", m, _L2_BASIS) / 2.0


def components_for(l: int, dim: int) -> int:
    """Number of stored components for rotation order l in dimension dim."""
    if l == 0:
        return 1
    if l == 1:
        return dim
    if l == 2:
        if dim != 3:
            raise FieldError("l=2 fields are supported in 3d only")
        return 5
    raise FieldError(f"rotation order {l} unsupported (l <= 2)")


def unit_harmonic(l: int, rhat: np.ndarray) -> np.ndarray:
    """Angular tensor Y_l of unit directions.

    rhat has the direction axis leading, shape (dim, ...); the result has
    the component axis leading, shape (C, ...).  Y_0 = 1, Y_1 = rhat itself
    (no copy), Y_2 = 3 rhat rhat^T - I in the l=2 component basis.
    """
    rhat = np.asarray(rhat, dtype=float)
    dim = rhat.shape[0]
    if l == 0:
        return np.ones((1,) + rhat.shape[1:])
    if l == 1:
        return rhat
    if l == 2 and dim == 3:
        m = 3.0 * np.einsum("i...,j...->ij...", rhat, rhat)
        for i in range(3):
            m[i, i] -= 1.0
        return l2_from_matrix(m)
    raise FieldError(f"unit harmonic l={l} unsupported in {dim}d")


class NormalGenerator:
    """Seeded standard normal draws from the standard library's
    ``random.Random``, behind the one ``Generator`` method that
    ``TensorField.random`` calls, so a caller need not import
    ``numpy.random``.  The same seed gives the same draws, which are not
    numpy's; a negative seed, which ``random.Random`` would take as its
    absolute value, is refused."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self._random = random.Random(seed)

    def standard_normal(self, shape: tuple) -> np.ndarray:
        n = math.prod(shape)
        return np.fromiter((self._random.gauss(0.0, 1.0) for _ in range(n)), float,
                           count=n).reshape(shape)


@dataclass(frozen=True)
class TensorField:
    """Rotation order plus per-voxel component array over a grid.  Frozen, so a
    held kernel cannot be swapped out; the array stays writable unless a
    ``KernelField`` holds it."""

    grid: Grid
    l: int
    components: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float)
        want = (components_for(self.l, self.grid.dim),) + self.grid.shape
        if arr.shape != want:
            raise FieldError(f"component array shape {arr.shape} != expected {want}")
        # a finite sum means every value is finite, so the exact mask is built
        # only for a sum that is not: one holding inf or nan, or one that overflows
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.sum(arr)
        if not np.isfinite(total) and not np.all(np.isfinite(arr)):
            raise FieldError("field contains non-finite values")
        object.__setattr__(self, "components", arr)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @classmethod
    def zeros(cls, grid: Grid, l: int) -> "TensorField":
        c = components_for(l, grid.dim)
        return cls(grid, l, np.zeros((c,) + grid.shape))

    @classmethod
    def from_scalar(cls, grid: Grid, values: np.ndarray) -> "TensorField":
        return cls(grid, 0, np.asarray(values, dtype=float)[None])

    @classmethod
    def random(cls, grid: Grid, l: int, rng) -> "TensorField":
        """Standard normal components drawn from ``rng``: a numpy
        ``Generator`` or a ``NormalGenerator``."""
        c = components_for(l, grid.dim)
        return cls(grid, l, rng.standard_normal((c,) + grid.shape))

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_same(other)
        return TensorField(self.grid, self.l, self.components + other.components)

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_same(other)
        return TensorField(self.grid, self.l, self.components - other.components)

    def __mul__(self, scalar: float) -> "TensorField":
        return TensorField(self.grid, self.l, self.components * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "TensorField":
        return TensorField(self.grid, self.l, -self.components)

    def _check_same(self, other: "TensorField"):
        if self.grid != other.grid or self.l != other.l:
            raise FieldError("fields differ in grid or rotation order")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))


@dataclass(frozen=True)
class ProductRule:
    """A tensor product (l_u, l_h) -> l_v, keyed by kind.

    The kind disambiguates signatures that collide in 2d: (1,1)->0 is the
    dot product as kind="dot" and the pseudo-scalar cross as kind="cross".
    """

    kind: str
    l_u: int
    l_h: int
    l_v: int

    def __str__(self) -> str:
        return f"{self.kind}({self.l_u},{self.l_h})->{self.l_v}"


def supported_rules(dim: int) -> list[ProductRule]:
    rules = []
    max_l = 2 if dim == 3 else 1
    for l in range(max_l + 1):
        rules.append(ProductRule("scalar", 0, l, l))
        if l > 0:
            rules.append(ProductRule("scalar", l, 0, l))
    rules.append(ProductRule("dot", 1, 1, 0))
    if dim == 3:
        rules.append(ProductRule("dot", 2, 2, 0))
        rules.append(ProductRule("cross", 1, 1, 1))
        rules.append(ProductRule("matvec", 2, 1, 1))
    else:
        rules.append(ProductRule("cross", 1, 1, 0))
    return rules


def product_rule(kind: str, l_u: int, l_h: int, dim: int) -> ProductRule:
    """Resolve and validate a product rule for the given orders and dimension."""
    for rule in supported_rules(dim):
        if rule.kind == kind and rule.l_u == l_u and rule.l_h == l_h:
            return rule
    listing = ", ".join(str(r) for r in supported_rules(dim))
    raise RuleError(
        f"no product {kind!r} for (l_u={l_u}, l_h={l_h}) in {dim}d; supported: {listing}")


def rule_coefficients(rule: ProductRule, dim: int) -> np.ndarray:
    """Expansion coefficients C_mnp with (u (x) h)[p] = sum C_mnp u[m] h[n].

    This table is the one definition of what each product rule computes:
    the pointwise product and both convolution paths read it.
    """
    c_u = components_for(rule.l_u, dim)
    c_h = components_for(rule.l_h, dim)
    c_v = components_for(rule.l_v, dim)
    coeff = np.zeros((c_u, c_h, c_v))
    if rule.kind == "scalar":
        if rule.l_u == 0:
            coeff[0] = np.eye(c_h)
        else:
            coeff[:, 0, :] = np.eye(c_u)
    elif rule.kind == "dot":
        # the l=2 dot is the Frobenius product of the matrices, which is
        # 2 * (component dot) in the equal-norm basis
        scale = 2.0 if rule.l_u == 2 else 1.0
        coeff[:, :, 0] = scale * np.eye(c_u)
    elif rule.kind == "cross" and rule.l_v == 0:
        coeff[0, 1, 0] = 1.0
        coeff[1, 0, 0] = -1.0
    elif rule.kind == "cross":
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k] = 1.0
            eps[i, k, j] = -1.0
        coeff = eps
    elif rule.kind == "matvec":
        # v_p = sum_m c_m (B_m h)_p = sum_{m,n} c_m B_m[p,n] h_n
        coeff = np.transpose(l2_basis(), (0, 2, 1))
    else:
        raise RuleError(f"unknown product kind {rule.kind!r}")
    return coeff


def pointwise_product(u: TensorField, w: TensorField, rule: ProductRule) -> TensorField:
    """Apply the tensor product voxel by voxel: v[p] = sum C_mnp u[m] w[n]."""
    if u.grid != w.grid:
        raise FieldError("pointwise product requires identical grids")
    if rule.l_u != u.l or rule.l_h != w.l:
        raise RuleError(f"rule expects orders ({rule.l_u},{rule.l_h}), "
                        f"fields have ({u.l},{w.l})")
    values = np.einsum("mnp,m...,n...->p...", rule_coefficients(rule, u.grid.dim),
                       u.components, w.components)
    return TensorField(u.grid, rule.l_v, values)


def field_norm(u: TensorField) -> TensorField:
    """Per-voxel Euclidean norm of the component tuple (an l=0 field)."""
    return TensorField(u.grid, 0, np.sqrt(np.sum(u.components ** 2, axis=0))[None])


def rotate_field(u: TensorField, rot) -> TensorField:
    """Rotate a field about the domain center: out(i) = D_l(g) u(g^-1 i).

    A lattice rotation moves voxels by transposing the grid axes and
    reversing some of them (``LatticeRotation.axis_map``), so positions move
    exactly; tensor values transform in their order-l representation.
    """
    if rot.dim != u.grid.dim:
        raise FieldError("rotation dimension does not match the grid")
    moved = rot.axis_map(u.grid.shape)
    if moved is None:
        raise FieldError("rotation incompatible with grid shape (non-square/cube domain)")
    axes, flipped = moved
    permuted = np.flip(np.transpose(u.components, (0, *(axes + 1))),
                       tuple(np.flatnonzero(flipped) + 1))
    # C order: np.sum over a transposed layout would add the voxels in another order
    rotated = np.einsum("ab,b...->a...", rot.representation(u.l), permuted, order="C")
    return TensorField(u.grid, u.l, rotated)


def rotate_vector(v, rot) -> np.ndarray:
    """Rotate a plain dim-vector (e.g. a wind velocity) as an l=1 quantity."""
    return rot.matrix.astype(float) @ np.asarray(v, dtype=float)
