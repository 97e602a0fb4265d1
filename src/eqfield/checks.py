"""Runtime property checks: equivariance, linearity, path equivalence,
calculus identities.  Used by the CLI check command and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolve import DIRECT, FOURIER
from .fields import NormalGenerator, TensorField, rotate_field, supported_rules
from .grid import PERIODIC, ZERO, Grid, GridError
from .kernels import KernelField, gaussian, kernel_grid, sample_kernel
from .operators import EquivariantOp, curl, div, grad, laplacian
from .rotations import all_rotations

EQUIVARIANCE_TOL = 1e-10
LINEARITY_TOL = 1e-10
PATH_TOL = 1e-10
CALCULUS_TOL = 1e-10
CALCULUS_MARGIN = 2   # voxels left out at every face by the calculus identities


@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} deviation={self.deviation:.3e} tol={self.tolerance:.1e}"


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def _relative(diff: TensorField, ref: TensorField) -> float:
    scale = ref.max_abs()
    if scale == 0.0:
        return diff.max_abs()
    return diff.max_abs() / scale


def compatible_rotations(grid: Grid) -> list:
    """The lattice rotations that map the grid's index box onto itself (``axis_map``)."""
    return [rot for rot in all_rotations(grid.dim) if rot.axis_map(grid.shape) is not None]


def _check_kernel(grid: Grid, l_h: int) -> KernelField:
    """Smooth test kernel for property checks, capped at 9 voxels per axis."""
    kshape = tuple(min(2 * n - 1, 9) for n in grid.shape)
    return sample_kernel(kernel_grid(kshape, grid.spacing),
                         gaussian(2.0 * min(grid.spacing)), l_h)


def _corrupted(kern: KernelField) -> KernelField:
    """The kernel with one off-center voxel bumped, which breaks its symmetry."""
    comps = kern.field.components.copy()
    comps[(0,) + (1,) * kern.grid.dim] += 0.1 * max(np.max(np.abs(comps)), 1.0)
    return KernelField(TensorField(kern.grid, kern.l_h, comps), kern.l_h)


def check_rules(u: TensorField, rng, corrupt: bool = False) -> list:
    """Equivariance, linearity and path equivalence of conv(u, h) for every
    rule that takes u: all equivariance results, then linearity, then paths.
    Each rule's kernel makes one operator per boundary, applied on both
    paths; the one for u's boundary is checked for the other two properties.

    Equivariance: rot(conv(u, h)) = conv(rot u, h) for every compatible
    rotation.  The kernel is the same on both sides: a radial profile times
    a solid harmonic is exactly steerable, so rotating it reproduces itself.
    A kernel without that symmetry (the corrupt control) must fail there.
    """
    rots = compatible_rotations(u.grid)
    v = TensorField.random(u.grid, u.l, rng)
    alpha, beta = 0.7, -1.3
    equivariance, linearity, paths = [], [], []
    for rule in supported_rules(u.grid.dim):
        if rule.l_u != u.l:
            continue
        kern = _check_kernel(u.grid, rule.l_h)
        ops = {b: EquivariantOp("check", u.grid, kern, rule.kind, b) for b in (ZERO, PERIODIC)}
        op = ops[u.grid.boundary]
        eq_op = EquivariantOp("check", u.grid, _corrupted(kern), rule.kind) if corrupt else op
        ref = eq_op.apply(u)
        worst = 0.0
        for rot in rots:
            left = rotate_field(ref, rot)
            right = eq_op.apply(rotate_field(u, rot))
            worst = max(worst, _relative(left - right, ref))
        equivariance.append(CheckResult(
            f"equivariance {rule} [{len(rots)} rotations]", worst, EQUIVARIANCE_TOL))

        combined = op.apply(u * alpha + v * beta)
        separate = op.apply(u) * alpha + op.apply(v) * beta
        linearity.append(CheckResult(f"linearity {rule}",
                                     _relative(combined - separate, combined),
                                     LINEARITY_TOL))

        worst = 0.0
        for each in ops.values():
            d, f = each.apply(u, DIRECT), each.apply(u, FOURIER)
            worst = max(worst, _relative(d - f, d))
        paths.append(CheckResult(f"path_equivalence {rule}", worst, PATH_TOL))
    return equivariance + linearity + paths


def _check_extent(grid: Grid) -> None:
    """GridError unless every axis keeps an interior past the calculus margin."""
    least = 2 * CALCULUS_MARGIN + 1
    if min(grid.shape) < least:
        raise GridError(f"check needs at least {least} voxels per axis, got shape {grid.shape}")


def check_calculus(grid: Grid, rng) -> list:
    """curl(grad f) = 0, div(curl v) = 0 (3d), div(grad f) = laplacian f,
    each over the interior, ``CALCULUS_MARGIN`` voxels in from every face."""
    _check_extent(grid)
    f = TensorField.random(grid, 0, rng)
    g = grad(f)
    lap = laplacian(f)
    interior = (slice(None),) + (slice(CALCULUS_MARGIN, -CALCULUS_MARGIN),) * grid.dim
    identities = [("div(grad f) = laplacian f", div(g) - lap,
                   np.max(np.abs(lap.components[interior]))),
                  ("curl(grad f) = 0", curl(g), g.max_abs() / min(grid.spacing))]
    if grid.dim == 3:
        v = TensorField.random(grid, 1, rng)
        identities.append(("div(curl v) = 0", div(curl(v)), v.max_abs() / min(grid.spacing) ** 2))
    return [CheckResult(f"{name} (interior)",
                        np.max(np.abs(dev.components[interior])) / max(scale, 1e-300),
                        CALCULUS_TOL)
            for name, dev, scale in identities]


def run_checks(u: TensorField, rng=None, corrupt: bool = False) -> list:
    """Full property suite on one field; corrupt=True is the negative
    control that breaks the radial symmetry of the equivariance kernels.
    ``rng`` draws the other fields: a numpy ``Generator`` or a
    ``NormalGenerator``, by default ``NormalGenerator(0)``.  A grid too
    small for ``check_calculus`` raises GridError up front."""
    _check_extent(u.grid)
    if rng is None:
        rng = NormalGenerator(0)
    return check_rules(u, rng, corrupt) + check_calculus(u.grid, rng)
