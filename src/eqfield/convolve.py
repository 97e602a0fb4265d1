"""The two convolution paths and the kernel spectrum: direct for compact
kernels, Fourier for long-range ones.  ``operators.EquivariantOp.apply`` is
the one caller that picks between them; ``eq.conv`` goes through it.

A tensor convolution decomposes into scalar convolutions of component
fields weighted by the product-expansion coefficients C_mnp:

    v[p] = sum_{m,n} C_mnp (u[m] * h[n]) * voxel_volume

where * is the discrete convolution (kernel indexed by r - r~) and the
voxel-volume factor makes the sum approximate the continuum integral.
The coefficients come from ``fields.rule_coefficients``, the same table
that defines the pointwise product.

The Fourier path runs on ``numpy.fft``.  It transforms the zero-boundary
case at the Hockney size, N + min(kernel radius, N - 1) per axis rounded up
to the next 11-smooth length on the leading axes and 5-smooth on the last
(real) one, and the periodic case at the field's own size.
``kernel_spectrum`` is the kernel's half of that product; an
operator computes it when it is built and keeps it, and ``conv_fourier``
applies it without the kernel.  A sampled radial kernel is exactly even or
odd on the first axis, so its spectrum mirrors there and is held for rows
0 ... W0//2 of the W0 first-axis rows alone, with one sign per component:
8 C (W0//2 + 1) prod(W[1:-1]) (W[-1]//2 + 1) bytes for C components at the
work shape W (``kernel_layout``).  Kernels and inputs
go through one forward transform, ``_rfftn_padded``, and outputs through
``_irfftn_cropped``; both are pruned, one axis pass at a time, in place:
the forward pass pads each real-axis line inside the transform and skips
the lines that are all zero padding, the inverse pass skips the lines
outside the kept crop, so no line is transformed only to be thrown away.
An apply finishes one output component at a time, so it holds the input
transforms and one or two work spectra, not one spectrum per output.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy import fft as sfft

from .fields import ProductRule, TensorField, rule_coefficients
from .grid import PERIODIC, ZERO
from .kernels import SAMPLE_SLAB_VOXELS, KernelField

DIRECT = "direct"
FOURIER = "fourier"
DIRECT_MAX_EXTENT = 5   # widest kernel axis (voxels) that goes direct by default


def default_path(kernel: KernelField) -> str:
    """The path an operator takes unless told otherwise: direct for kernels
    at most ``DIRECT_MAX_EXTENT`` voxels wide on every axis, Fourier otherwise."""
    return DIRECT if max(kernel.grid.shape) <= DIRECT_MAX_EXTENT else FOURIER


def conv_direct(u: TensorField, kernel: KernelField, rule: ProductRule,
                boundary: str) -> TensorField:
    """Direct-space convolution, O(N * kernel support).

    The input is padded once by the kernel radius (zeros, or its periodic
    wrap); each non-zero entry of a tap's mix adds one scaled shifted window
    of the padded input, taps in row-major order, then (m, p).  Each tap's
    window is sliced once, for all of its entries.
    """
    karr = kernel.field.components
    coeff = rule_coefficients(rule, u.grid.dim)
    kshape, ushape = kernel.grid.shape, u.grid.shape
    mode = "wrap" if boundary == PERIODIC else "constant"
    upad = np.pad(u.components, [(0, 0)] + [(k // 2, (k - 1) // 2) for k in kshape],
                  mode=mode)
    mix = np.einsum("mnp,n...->...mp", coeff, karr)
    out = np.zeros((coeff.shape[2],) + ushape)
    live = mix.any(axis=(-2, -1))   # the taps with a non-zero entry
    for idx in zip(*(a.tolist() for a in np.nonzero(live))):
        # the tap at idx reads u[r - (idx - center)], which is upad[r + k - 1 - idx]
        window = tuple(slice(k - 1 - i, k - 1 - i + n) for k, i, n in zip(kshape, idx, ushape))
        tap = mix[idx]
        for m, p in zip(*np.nonzero(tap)):
            out[p] += tap[m, p] * upad[(m,) + window]
    out *= u.grid.voxel_volume
    return TensorField(u.grid, rule.l_v, out)


def _circular_kernel(karr: np.ndarray, target_shape) -> np.ndarray:
    """Lay a kernel out circularly (center at index 0) on its trailing axes,
    carrying any leading (component) axes along.

    Index i lands on (i - center) mod w; one sliced add per combination of
    per-axis runs with contiguous targets, in kernel-index order, sums aliased
    offsets in ``np.add.at``'s order: the image sum of a narrow periodic domain.
    """
    lead = karr.ndim - len(target_shape)
    runs = []
    for k, w in zip(karr.shape[lead:], target_shape):
        c = (k - 1) // 2
        cuts = [0, *range(c % w or w, k, w), k]
        runs.append([(slice((a - c) % w, (a - c) % w + b - a), slice(a, b))
                     for a, b in zip(cuts, cuts[1:])])
    out = np.zeros(karr.shape[:lead] + tuple(target_shape))
    for pairs in itertools.product(*runs):
        dst, src = zip(*pairs)
        out[(Ellipsis, *dst)] += karr[(Ellipsis, *src)]
    return out


def _fast_len(n: int, real: bool = False) -> int:
    """The smallest 11-smooth integer >= n (factors 2, 3, 5, 7, 11 only), or
    5-smooth (2, 3, 5) for a ``real`` transform's axis: scipy's
    ``next_fast_len(n, real)``.  numpy's real transforms have passes of
    radix 2, 3, 4 and 5 only, and factor 7 and 11 with a slow generic pass."""
    factors = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    while True:
        r = n
        for f in factors:
            while r % f == 0:
                r //= f
        if r == 1:
            return n
        n += 1


def work_shape(ushape, kshape, boundary: str) -> tuple:
    """FFT size per axis for a field of ``ushape`` and a kernel of ``kshape``.

    Periodic boundary: the field's own size.  Zero boundary: N + c rounded
    up to the next fast length (``_fast_len``), 11-smooth on the leading
    (complex) axes and 5-smooth on the last (real) one, where
    c = min(kernel radius, N - 1) is the farthest offset that reaches the
    kept crop [0, N); no wrapped-around product lands in that crop
    (Hockney-Eastwood free-space doubling).
    """
    if boundary == PERIODIC:
        return tuple(ushape)
    last = len(ushape) - 1
    return tuple(_fast_len(n + min((k - 1) // 2, n - 1), real=a == last)
                 for a, (n, k) in enumerate(zip(ushape, kshape)))


def kernel_spectrum(kernel: KernelField, ushape, boundary: str) -> tuple:
    """The held spectrum of each kernel component laid out on the work shape,
    read-only, and its first-axis signs: ``layout_spectrum`` of ``kernel_layout``."""
    layout, spectrum, signs = kernel_layout(kernel, ushape, boundary)
    return layout_spectrum(layout, spectrum, kernel.l_h), signs


def _has_parity(k: np.ndarray, sign: float, axes) -> bool:
    """Whether k equals ``sign`` times its reflection through its center on
    ``axes``, exactly.  Compared one block of rows along axis 0 at a time, of
    at most ``SAMPLE_SLAB_VOXELS`` voxels (one row if a row is larger), so
    no temporary is larger than a block."""
    flip = tuple(slice(None, None, -1) if a in axes else slice(None) for a in range(k.ndim))
    w = k.shape[0]
    end = w // 2 + 1 if 0 in axes else w   # a mirrored pair of blocks is compared once
    step = max(1, SAMPLE_SLAB_VOXELS * w // k.size)
    for i in range(0, end, step):
        j = min(i + step, end)
        mirror = (k[w - j:w - i] if 0 in axes else k[i:j])[flip]
        if not np.array_equal(k[i:j], mirror if sign > 0 else -mirror):
            return False
    return True


def kernel_layout(kernel: KernelField, ushape, boundary: str) -> tuple:
    """Every kernel component laid out circularly on the work shape W, one
    (components, *W) array; the empty spectrum that it transforms into; and
    the components' first-axis signs, or None.

    Two exact parity tests on the array laid out shape the spectrum.  A
    kernel whose every component k has a parity on the first axis,
    k(-x, ...) = s k(x, ...), mirrors there: S[W0 - j] = s S[j], so it holds
    rows 0 ... W0//2 alone, and the signs s; any other holds all W0 rows and
    None.  A kernel with inversion parity, h(-r) = (-1)^l_h h(r), has a real
    or imaginary spectrum, so it holds one float64 part; any other a complex
    spectrum.  Every sampled radial kernel passes both, and holds
    8 C (W0//2 + 1) prod(W[1:-1]) (W[-1]//2 + 1) bytes for C components.

    For the zero boundary the kernel is first cropped to offsets within
    N - 1 of its center; the periodic layout sums aliased offsets.  Nothing
    returned refers to the kernel, so a caller that drops it holds only
    these arrays while the layout is transformed.  The spectrum, which
    outlives the build, is allocated while the kernel is still held: under
    glibc's malloc, allocated after the kernel was dropped, it left every
    later 48^3 apply of the greens benchmark faulting about 1,900 pages of
    work arrays in again, against none.
    """
    work = work_shape(ushape, kernel.grid.shape, boundary)
    karr = kernel.field.components
    if boundary == ZERO:
        kshape = kernel.grid.shape
        reach = [min((k - 1) // 2, n - 1) for n, k in zip(ushape, kshape)]
        karr = karr[(slice(None),) + tuple(slice((k - 1) // 2 - c, (k + 1) // 2 + c)
                                           for k, c in zip(kshape, reach))]
    signs = tuple(next((s for s in (1.0, -1.0) if _has_parity(k, s, (0,))), None)
                  for k in karr)
    signs = None if None in signs else signs
    inversion = -1.0 if kernel.l_h % 2 else 1.0
    real = all(_has_parity(k, inversion, range(len(work))) for k in karr)
    rows = work[0] // 2 + 1 if signs else work[0]
    layout = _circular_kernel(karr, work)
    return layout, np.empty((len(karr), rows) + work[1:-1] + (work[-1] // 2 + 1,),
                            float if real else complex), signs


def layout_spectrum(layout: np.ndarray, spectrum: np.ndarray, l_h: int) -> np.ndarray:
    """Fill ``spectrum`` with ``_rfftn_padded`` of each component of a
    ``kernel_layout`` of order ``l_h``, which prunes nothing here: every line
    is live, and return it read-only.  Each whole transform is made, and the
    spectrum keeps its first rows: half of the first axis for a kernel that
    mirrors there, all of it otherwise.  A float64 spectrum keeps one part
    per component, the real one for even l_h and the imaginary one for odd
    l_h (``conv_fourier`` restores the factor i); a complex one keeps both.
    """
    part = (np.imag if l_h % 2 else np.real) if np.isrealobj(spectrum) else np.asarray
    for k, out in zip(layout, spectrum):   # one statement: each transform is freed at once
        out[...] = part(_rfftn_padded(k, layout.shape[1:]))[:len(out)]
    spectrum.flags.writeable = False
    return spectrum


def _rfftn_padded(x: np.ndarray, work) -> np.ndarray:
    """``rfftn`` of ``x`` zero-padded to ``work``, without transforming the
    lines that are all padding; the output is the one array it allocates.

    The real-axis pass runs only on the rows of ``x``, padded inside ``rfft``;
    the pass on a leading axis a then runs in place on the rows whose earlier
    axes lie below N, from the last leading axis to the first, as ``rfftn``
    orders them.
    """
    d = x.ndim
    out = np.zeros(tuple(work[:-1]) + (work[-1] // 2 + 1,), complex)
    sfft.rfft(x, n=work[-1], axis=-1, out=out[tuple(slice(0, n) for n in x.shape[:-1])])
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


def conv_fourier(u: TensorField, kernel_shape, rule: ProductRule, boundary: str,
                 spectrum: np.ndarray, signs: tuple | None) -> TensorField:
    """FFT-path convolution via the tensor convolution theorem.

    ``spectrum, signs`` is ``kernel_spectrum(kernel, u.grid.shape, boundary)``
    of a kernel of ``kernel_shape`` and order ``rule.l_h``; the kernel itself
    is not needed.  Transforms at ``work_shape``: the field's own size for the
    periodic boundary, the Hockney size for the zero boundary.  The factor i
    that an odd-order kernel's real spectrum leaves out multiplies each input
    transform once, and a term is scaled only when its rule coefficient is
    not 1.  A spectrum that holds h = W0//2 + 1 of the W0 first-axis rows
    multiplies rows 0 ... h - 1 against them, and rows h ... W0 - 1 against
    their reversed view ``spectrum[n, W0 - h:0:-1]``, copying nothing; the
    sign of component n joins that block's coefficient.

    Each output component is finished before the next is started: its terms
    are summed in m order in one spectrum-sized buffer, which is inverted,
    and the crop is written into the output and scaled there by the voxel
    volume.  A term that is the last reader of an input transform is formed
    in place there; any other takes the buffer that the previous output was
    summed in, or a new one.  An apply holds the input transforms, one work
    spectrum, and a second only while a term is added to a partial sum,
    however many outputs it has.
    """
    coeff = rule_coefficients(rule, u.grid.dim)
    ushape = u.grid.shape
    work = work_shape(ushape, kernel_shape, boundary)
    h = spectrum.shape[1]
    mnp = np.argwhere(coeff != 0)
    mnp = mnp[np.argsort(mnp[:, 2], kind="stable")]   # output by output, each in m order
    u_hat = {m: _rfftn_padded(u.components[m], work) for m in set(mnp[:, 0])}
    if rule.l_h % 2 and np.isrealobj(spectrum):
        for x in u_hat.values():
            x *= 1j
    out = spare = acc = None   # spare: a free spectrum-sized buffer for a later term
    for i, (m, n, p) in enumerate(mnp):
        if m in mnp[i + 1:, 0]:
            x = u_hat[m]
            term = spare if spare is not None else np.empty_like(x)
            spare = None
        else:   # the last reader of u_hat[m] forms its term in place
            x = term = u_hat.pop(m)
        blocks = [(slice(0, h), spectrum[n], 1.0)]
        if h < work[0]:
            blocks.append((slice(h, None), spectrum[n, work[0] - h:0:-1], signs[n]))
        for rows, held, sign in blocks:
            np.multiply(x[rows], held, out=term[rows])
            c = coeff[m, n, p] * sign
            if c != 1:
                term[rows] *= c
        if acc is None:
            acc = term
        else:
            acc += term
        del x, term   # a scratch term or a spent input transform is freed here
        if i + 1 == len(mnp) or mnp[i + 1, 2] != p:
            if out is None:   # made once the first output's product buffers are freed
                out = np.zeros((coeff.shape[2],) + ushape)
            out[p] = _irfftn_cropped(acc, work, ushape)
            out[p] *= u.grid.voxel_volume
            # kept if more terms remain than inputs: one of them is not a last reader
            spare = acc if len(u_hat) < len(mnp) - i - 1 else None
            acc = None
    return TensorField(u.grid, rule.l_v, out)
