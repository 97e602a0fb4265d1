"""Lattice rotations and their action on tensor components.

Only rotations that map the sampling lattice onto itself are supported:
multiples of 90 degrees in 2d, the 24 proper rotations of the cube in 3d.
These are exactly the rotations under which equivariance can be tested to
machine precision without interpolation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import l2_basis
from .grid import Frozen


class LatticeRotation(Frozen):
    """A signed-permutation rotation matrix with determinant +1, frozen and
    read-only, so its hash cannot change while it sits in a set."""

    _fields = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=int)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise ValueError("rotation matrix must be 2x2 or 3x3")
        if not np.array_equal(m @ m.T, np.eye(m.shape[0], dtype=int)):
            raise ValueError("matrix is not a signed permutation (not orthogonal)")
        if round(float(np.linalg.det(m))) != 1:
            raise ValueError("improper rotation (det != +1); reflections unsupported")
        m.setflags(write=False)
        self._set(matrix=m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "LatticeRotation":
        return LatticeRotation(self.matrix.T)

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __repr__(self):
        return f"LatticeRotation({self.matrix.tolist()})"

    def axis_map(self, grid) -> tuple[np.ndarray, np.ndarray] | None:
        """(axes, flipped): output axis b reads input axis axes[b], the nonzero
        column of row b, reversed where that entry is -1.  None unless each axis
        b has the length and spacing of the axis axes[b] it reads, i.e. the
        rotation maps the grid's lattice onto itself."""
        axes = np.argmax(np.abs(self.matrix), axis=1)
        if any(grid.shape[a] != grid.shape[b] or grid.spacing[a] != grid.spacing[b]
               for b, a in enumerate(axes)):
            return None
        return axes, self.matrix[range(self.dim), axes] < 0

    def representation(self, l: int) -> np.ndarray:
        """Matrix acting on the component tuple of an order-l tensor."""
        if l == 0:
            return np.ones((1, 1))
        if l == 1:
            return self.matrix.astype(float)
        if l == 2 and self.dim == 3:
            basis = l2_basis()
            g = self.matrix.astype(float)
            rotated = np.einsum("ia,kab,jb->kij", g, basis, g)
            # components of g B_k g^T in the basis (each basis norm^2 is 2)
            return np.einsum("kij,lij->lk", rotated, basis) / 2.0
        raise ValueError(f"no order-{l} representation in {self.dim}d")


def rotation_2d(quarter_turns: int) -> LatticeRotation:
    """Counterclockwise rotation by quarter_turns * 90 degrees."""
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][quarter_turns % 4]
    return LatticeRotation([[c, -s], [s, c]])


def axis_rotation(axis: int, quarter_turns: int) -> LatticeRotation:
    """3d rotation by quarter_turns * 90 degrees about a coordinate axis."""
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][quarter_turns % 4]
    m = np.eye(3, dtype=int)
    a, b = [(1, 2), (2, 0), (0, 1)][axis]
    m[a, a] = c
    m[a, b] = -s
    m[b, a] = s
    m[b, b] = c
    return LatticeRotation(m)


def all_rotations(dim: int) -> list[LatticeRotation]:
    """Every lattice rotation, the signed permutations of determinant +1: 4 in
    2d, the 24 octahedral rotations in 3d, ordered by permutation, then signs."""
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            m = np.zeros((dim, dim), dtype=int)
            m[range(dim), perm] = signs
            if round(float(np.linalg.det(m))) == 1:
                out.append(LatticeRotation(m))
    return out
