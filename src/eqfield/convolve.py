"""Tensor-field convolution: direct path for compact kernels, Fourier path
for long-range ones.

A tensor convolution decomposes into scalar convolutions of component
fields weighted by the product-expansion coefficients C_mnp:

    v[p] = sum_{m,n} C_mnp (u[m] * h[n]) * voxel_volume

where * is the discrete convolution (kernel indexed by r - r~) and the
voxel-volume factor makes the sum approximate the continuum integral.
The coefficients come from ``fields.rule_coefficients``, the same table
that defines the pointwise product.

The Fourier path runs on ``numpy.fft``.  It transforms the zero-boundary
case at the Hockney size, N + min(kernel radius, N - 1) per axis rounded up
to the next 11-smooth length, and the periodic case at the field's own
size.  ``kernel_spectrum`` is the kernel's half of that product; an
operator computes it when it is built and keeps it.  The input and output
transforms are pruned: one axis pass at a time, in place, the forward pass
skips the lines that are all zero padding and the inverse pass skips the
lines that fall outside the kept crop, so no line is transformed only to
be thrown away.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy import fft as sfft

from .fields import (FieldError, ProductRule, RuleError, TensorField,
                     rule_coefficients)
from .grid import PERIODIC, ZERO
from .kernels import KernelField

DIRECT = "direct"
FOURIER = "fourier"
DIRECT_MAX_EXTENT = 5   # widest kernel axis (voxels) that conv takes direct


def default_path(kernel: KernelField) -> str:
    """The path ``conv`` takes unless told otherwise: direct for kernels at
    most ``DIRECT_MAX_EXTENT`` voxels wide on every axis, Fourier otherwise."""
    return DIRECT if max(kernel.grid.shape) <= DIRECT_MAX_EXTENT else FOURIER


def conv(u: TensorField, kernel: KernelField, rule: ProductRule,
         path: str | None = None, boundary: str | None = None,
         spectrum=None) -> TensorField:
    """Tensor-field convolution; the one place a convolution path is chosen.

    ``default_path`` sends the finite-difference stencils through the direct
    path and wider kernels through the Fourier path.  ``path`` forces a path
    for this call only, so the two can be checked against each other;
    ``boundary`` defaults to the field's.  ``spectrum``, if given, is the
    kernel's ``kernel_spectrum`` for this field shape and boundary, which the
    Fourier path uses instead of transforming the kernel again.
    """
    dim = u.grid.dim
    if kernel.grid.dim != dim:
        raise FieldError("field and kernel dimensions differ")
    for a in range(dim):
        hu, hk = u.grid.spacing[a], kernel.grid.spacing[a]
        if abs(hu - hk) > 1e-12 * max(hu, hk):
            raise FieldError(f"field and kernel spacing differ on axis {a}: {hu} vs {hk}")
    if rule.l_u != u.l:
        raise RuleError(f"rule expects input order {rule.l_u}, field has l={u.l}")
    if rule.l_h != kernel.l_h:
        raise RuleError(f"rule expects kernel order {rule.l_h}, kernel has l={kernel.l_h}")
    if path is None:
        path = default_path(kernel)
    if boundary is None:
        boundary = u.grid.boundary
    if path == DIRECT:
        return conv_direct(u, kernel, rule, boundary)
    if path == FOURIER:
        return conv_fourier(u, kernel, rule, boundary, spectrum)
    raise ValueError(f"path must be direct|fourier, got {path!r}")


def conv_direct(u: TensorField, kernel: KernelField, rule: ProductRule,
                boundary: str) -> TensorField:
    """Direct-space convolution, O(N * kernel support).

    The input is padded once by the kernel radius (zeros, or its periodic
    wrap); each tap then reads a shifted window of the padded input.
    """
    karr = kernel.field.components
    coeff = rule_coefficients(rule, u.grid.dim)
    kshape, ushape = kernel.grid.shape, u.grid.shape
    mode = "wrap" if boundary == PERIODIC else "constant"
    upad = np.pad(u.components, [(0, 0)] + [(k // 2, (k - 1) // 2) for k in kshape],
                  mode=mode)
    out = np.zeros((coeff.shape[2],) + ushape)
    for idx in np.argwhere(np.any(karr != 0.0, axis=0)):
        mix = np.einsum("mnp,n->mp", coeff, karr[(slice(None),) + tuple(idx)])
        # the tap at idx reads u[r - (idx - center)], which is upad[r + k - 1 - idx]
        window = upad[(slice(None),) + tuple(slice(k - 1 - i, k - 1 - i + n)
                                             for k, i, n in zip(kshape, idx, ushape))]
        for m, p in np.argwhere(mix):
            out[p] += mix[m, p] * window[m]
    out *= u.grid.voxel_volume
    return TensorField(u.grid, rule.l_v, out)


def _circular_kernel(karr_n: np.ndarray, target_shape) -> np.ndarray:
    """Lay one kernel component out circularly (center at index 0).

    Index i lands on (i - center) mod w; one sliced add per combination of
    per-axis runs with contiguous targets, in kernel-index order, sums aliased
    offsets in ``np.add.at``'s order: the image sum of a narrow periodic domain.
    """
    runs = []
    for k, w in zip(karr_n.shape, target_shape):
        c = (k - 1) // 2
        cuts = [0, *range(c % w or w, k, w), k]
        runs.append([(slice((a - c) % w, (a - c) % w + b - a), slice(a, b))
                     for a, b in zip(cuts, cuts[1:])])
    out = np.zeros(target_shape)
    for pairs in itertools.product(*runs):
        dst, src = zip(*pairs)
        out[dst] += karr_n[src]
    return out


def _fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n (factors 2, 3, 5, 7, 11 only)."""
    while True:
        r = n
        for f in (2, 3, 5, 7, 11):
            while r % f == 0:
                r //= f
        if r == 1:
            return n
        n += 1


def work_shape(ushape, kshape, boundary: str) -> tuple:
    """FFT size per axis for a field of ``ushape`` and a kernel of ``kshape``.

    Periodic boundary: the field's own size.  Zero boundary: N + c rounded
    up to the next 11-smooth length (``_fast_len``), where c = min(kernel
    radius, N - 1) is the farthest offset that reaches the kept crop [0, N);
    no wrapped-around product lands in that crop (Hockney-Eastwood
    free-space doubling).
    """
    if boundary == PERIODIC:
        return tuple(ushape)
    return tuple(_fast_len(n + min((k - 1) // 2, n - 1))
                 for n, k in zip(ushape, kshape))


def kernel_spectrum(kernel: KernelField, ushape, boundary: str) -> np.ndarray:
    """rfftn of each kernel component laid out on the work shape, read-only.

    For the zero boundary the kernel is first cropped to offsets within
    N - 1 of its center; the periodic layout sums aliased offsets.
    """
    work = work_shape(ushape, kernel.grid.shape, boundary)
    karr = kernel.field.components
    if boundary == ZERO:
        kshape = kernel.grid.shape
        reach = [min((k - 1) // 2, n - 1) for n, k in zip(ushape, kshape)]
        karr = karr[(slice(None),) + tuple(slice((k - 1) // 2 - c, (k + 1) // 2 + c)
                                           for k, c in zip(kshape, reach))]
    axes = tuple(range(len(work)))
    spectrum = np.empty((len(karr),) + work[:-1] + (work[-1] // 2 + 1,), complex)
    for k, out in zip(karr, spectrum):
        sfft.rfftn(_circular_kernel(k, work), axes=axes, out=out)
    spectrum.flags.writeable = False
    return spectrum


def _rfftn_padded(x: np.ndarray, work) -> np.ndarray:
    """``rfftn`` of ``x`` zero-padded to ``work``, without transforming the
    lines that are all padding.

    The real-axis pass runs only on the rows of ``x``; the pass on a leading
    axis a then runs in place on the rows whose earlier axes lie below N,
    from the last leading axis to the first, as ``rfftn`` orders them.
    """
    d = x.ndim
    buf = np.zeros(x.shape[:-1] + (work[-1],))
    buf[..., :x.shape[-1]] = x
    out = np.zeros(tuple(work[:-1]) + (work[-1] // 2 + 1,), complex)
    sfft.rfftn(buf, axes=(d - 1,), out=out[tuple(slice(0, n) for n in x.shape[:-1])])
    for a in range(d - 2, -1, -1):
        rows = out[tuple(slice(0, n) for n in x.shape[:a])]
        sfft.fft(rows, axis=a, out=rows)
    return out


def _irfftn_cropped(acc: np.ndarray, work, shape) -> np.ndarray:
    """``irfftn(acc, s=work)`` cropped to ``shape``, overwriting ``acc``.

    The pass on leading axis a runs in place on the rows whose earlier axes
    lie inside the crop, in ``irfftn``'s order; the real-axis pass then runs
    only on the kept rows.
    """
    d = acc.ndim
    for a in range(d - 1):
        rows = acc[tuple(slice(0, n) for n in shape[:a])]
        sfft.ifft(rows, axis=a, out=rows)
    rows = acc[tuple(slice(0, n) for n in shape[:-1])]
    return sfft.irfftn(rows, s=(work[-1],), axes=(d - 1,))[..., :shape[-1]]


def conv_fourier(u: TensorField, kernel: KernelField, rule: ProductRule,
                 boundary: str, spectrum: np.ndarray | None = None) -> TensorField:
    """FFT-path convolution via the tensor convolution theorem.

    Transforms at ``work_shape``: the field's own size for the periodic
    boundary, the Hockney size for the zero boundary.  ``spectrum`` is
    ``kernel_spectrum(kernel, u.grid.shape, boundary)`` when the caller keeps
    one; otherwise it is computed here and not kept.
    """
    coeff = rule_coefficients(rule, u.grid.dim)
    ushape = u.grid.shape
    if spectrum is None:
        spectrum = kernel_spectrum(kernel, ushape, boundary)
    work = work_shape(ushape, kernel.grid.shape, boundary)
    mnp = np.argwhere(coeff != 0)
    u_hat = {m: _rfftn_padded(u.components[m], work) for m in set(mnp[:, 0])}
    v_hat = {}
    for i, (m, n, p) in enumerate(mnp):
        term = np.multiply(u_hat[m], coeff[m, n, p], out=None if m in mnp[i + 1:, 0] else u_hat[m])
        term *= spectrum[n]
        if p in v_hat:
            v_hat[p] += term
        else:
            v_hat[p] = term
    out = np.zeros((coeff.shape[2],) + ushape)
    for p, acc in v_hat.items():
        out[p] = _irfftn_cropped(acc, work, ushape)
    out *= u.grid.voxel_volume
    return TensorField(u.grid, rule.l_v, out)
