"""Regular 2d/3d sampling lattices."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np

ZERO = "zero"
PERIODIC = "periodic"
BOUNDARIES = (ZERO, PERIODIC)


class GridError(ValueError):
    pass


def check_boundary(boundary: str) -> str:
    """``boundary`` itself if it is one of ``BOUNDARIES``; GridError otherwise."""
    if boundary not in BOUNDARIES:
        raise GridError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    return boundary


class Frozen:
    """A value over ``_fields``, the attributes that ``__init__`` stores once
    with ``_set``; assigning or deleting any attribute then raises
    ``FrozenInstanceError``.  ``==`` compares the fields in order, arrays by
    value, when both sides are of one class; ``hash`` goes by the fields, so
    it raises ``TypeError`` for a value that holds an array, list or dict;
    ``repr`` shows the fields less those in ``_unshown``."""

    _fields = ()
    _unshown = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for a, b in zip(self._values(), other._values()):
            arrays = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            if a is not b and not (np.array_equal(a, b) if arrays else a == b):
                return False
        return True

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields
                          if name not in self._unshown)
        return f"{type(self).__qualname__}({shown})"


class Grid(Frozen):
    """Geometry of a regular orthogonal voxel lattice.

    ``origin`` is the world coordinate of voxel index (0, ..., 0); voxel i
    sits at origin + i * spacing.  ``boundary`` selects how operators treat
    values outside the domain: "zero" (implicit zeros) or "periodic".
    """

    _fields = ("shape", "spacing", "origin", "boundary")

    def __init__(self, shape: tuple[int, ...], spacing: tuple[float, ...],
                 origin: tuple[float, ...], boundary: str = ZERO):
        shape = tuple(int(n) for n in shape)
        spacing = tuple(float(s) for s in spacing)
        origin = tuple(float(o) for o in origin)
        if len(shape) not in (2, 3):
            raise GridError(f"grid must be 2d or 3d, got {len(shape)} axes")
        if not (len(shape) == len(spacing) == len(origin)):
            raise GridError("shape, spacing and origin must have matching length")
        if any(n < 3 for n in shape):
            raise GridError(f"every axis needs >= 3 voxels, got shape {shape}")
        if not all(0 < s < np.inf for s in spacing):
            raise GridError(f"spacing must be positive and finite, got {spacing}")
        if not all(np.isfinite(origin)):
            raise GridError(f"origin must be finite, got {origin}")
        self._set(shape=shape, spacing=spacing, origin=origin,
                  boundary=check_boundary(boundary))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def voxel_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.shape))

    @classmethod
    def centered(cls, shape, spacing=1.0, boundary=ZERO) -> "Grid":
        """Grid whose world coordinates are symmetric about 0.

        With odd extents a voxel sits exactly at the origin, which is what
        kernel grids require.
        """
        shape = tuple(shape)
        d = len(shape)
        if np.isscalar(spacing):
            spacing = (float(spacing),) * d
        origin = tuple(-(n - 1) / 2.0 * s for n, s in zip(shape, spacing))
        return cls(shape, tuple(spacing), origin, boundary)

    def with_boundary(self, boundary: str) -> "Grid":
        return Grid(self.shape, self.spacing, self.origin, boundary)

    def axis_coords(self, axis: int) -> np.ndarray:
        """World coordinates along one axis."""
        return self.origin[axis] + np.arange(self.shape[axis]) * self.spacing[axis]

    def coords(self) -> list[np.ndarray]:
        """Per-axis world coordinate arrays, broadcastable over the grid."""
        return list(np.meshgrid(*(self.axis_coords(a) for a in range(self.dim)),
                                indexing="ij"))

    def world(self, index) -> np.ndarray:
        """World coordinate of a voxel index (exact: origin + i*spacing)."""
        idx = np.asarray(index, dtype=float)
        return np.asarray(self.origin) + idx * np.asarray(self.spacing)

    def center_index(self) -> np.ndarray:
        """Index-space center of the domain ((n-1)/2 per axis; may be half-integer)."""
        return (np.asarray(self.shape, dtype=float) - 1.0) / 2.0
