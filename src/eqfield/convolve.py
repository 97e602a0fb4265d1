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
The kernel's half of that product is built in a ``KernelLayout``: the
kernel is laid out circularly in the real view of the half-complex work
array that then transforms it in place, slab by slab as it is sampled when
it comes from a recipe.  An operator builds it once and keeps it, and
``conv_fourier`` applies it without the kernel.  A sampled radial kernel is
exactly even or odd on the first axis, so its spectrum mirrors there and is
held for rows 0 ... W0//2 of the W0 first-axis rows alone, with one sign per
component: 8 C (W0//2 + 1) prod(W[1:-1]) (W[-1]//2 + 1) bytes for C
components at the work shape W.  Kernels and inputs go through one forward
transform, ``_rfftn_padded``, and outputs through ``_irfftn_cropped``; both
are pruned, one axis pass at a time, in place: the forward pass pads each
real-axis line inside the transform and skips the lines that are all zero
padding, the inverse pass skips the lines outside the kept crop, so no line
is transformed only to be thrown away.  An apply finishes one output
component at a time, so it holds the input transforms and one or two work
spectra, not one spectrum per output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy import fft as sfft

from .fields import ProductRule, TensorField, components_for, rule_coefficients
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


def _circular_kernel(karr: np.ndarray, out: np.ndarray, first: int = 0,
                     extent: int | None = None) -> np.ndarray:
    """Add a kernel into ``out``, laid out circularly (center at index 0) on
    every axis after the first, which (the components) is carried along,
    and return ``out``.

    Index i lands on (i - center) mod w; one sliced add per combination of
    per-axis runs with contiguous targets, in kernel-index order, sums aliased
    offsets in ``np.add.at``'s order: the image sum of a narrow periodic domain.
    ``karr`` may be a slab, rows ``first`` ... of a kernel ``extent`` rows
    long on the first laid-out axis; slabs added in row order sum as the
    whole kernel does.
    """
    runs = []
    for a, (n, w) in enumerate(zip(karr.shape[1:], out.shape[1:])):
        lo, k = (first, n if extent is None else extent) if a == 0 else (0, n)
        c = (k - 1) // 2
        cuts = [0, *range((c - lo) % w or w, n, w), n]   # where the target wraps
        runs.append([(slice((lo + i - c) % w, (lo + i - c) % w + j - i), slice(i, j))
                     for i, j in zip(cuts, cuts[1:])])
    for pairs in itertools.product(*runs):
        dst, src = zip(*pairs)
        out[(slice(None), *dst)] += karr[(slice(None), *src)]
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
    """The held spectrum of each kernel component on the work shape,
    read-only, and its first-axis signs: the kernel laid out whole in a
    ``KernelLayout`` and transformed there."""
    layout = KernelLayout(ushape, boundary)
    layout.lay(kernel)
    return layout.spectrum()


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


def _circular_parity(k: np.ndarray, sign: float, axes) -> bool:
    """``_has_parity`` of a circular layout, reflected through index 0: i to
    -i mod W on ``axes``.  There index 0 maps to itself and 1 ... W - 1
    reflect through their own center, so each such block is tested alone."""
    blocks = (k[sel] for sel in itertools.product(
        *[(slice(0, 1), slice(1, None)) if a in axes else (slice(None),)
          for a in range(k.ndim)]))
    return all(_has_parity(b, sign, axes) for b in blocks if b.size)


def _parities(comps, l_h: int, has_parity) -> tuple:
    """The first-axis sign of every component in ``comps``, or None unless
    each has one, and whether all have inversion parity (-1)^l_h, by the
    exact test ``has_parity``."""
    signs = tuple(next((s for s in (1.0, -1.0) if has_parity(k, s, (0,))), None)
                  for k in comps)
    inversion = -1.0 if l_h % 2 else 1.0
    return (None if None in signs else signs,
            all(has_parity(k, inversion, range(k.ndim)) for k in comps))


class KernelLayout:
    """The work array that one kernel spectrum is built in, for a field of
    ``ushape`` under ``boundary``: one zeroed half-complex array per kernel
    component, C x W0 x ... x (W[-1]//2 + 1) at the work shape W.  The kernel
    is laid out circularly in its real view, C x W, and each component is
    then transformed in place, so no other kernel- or work-sized array is
    made.  ``sample_kernel`` lays its samples out here slab by slab when
    ``open`` takes them; ``lay`` lays out a whole kernel.

    Two exact parity tests shape the held spectrum.  A kernel whose every
    component k has a parity on the first axis, k(-x, ...) = s k(x, ...),
    mirrors there: S[W0 - j] = s S[j], so it holds rows 0 ... W0//2 alone,
    and the signs s; any other holds all W0 rows and None.  A kernel with
    inversion parity, h(-r) = (-1)^l_h h(r), has a real or imaginary
    spectrum, so it holds one float64 part; any other a complex spectrum.
    Every sampled radial kernel passes both, and holds
    8 C (W0//2 + 1) prod(W[1:-1]) (W[-1]//2 + 1) bytes.  A kernel laid out
    in slabs, which never aliases, is tested on its layout, one block at a
    time; a whole one on its own array, since a periodic layout that aliases
    sums mirrored offsets in different orders, so is not exactly symmetric.
    """

    def __init__(self, ushape, boundary: str):
        self.ushape, self.boundary = tuple(ushape), boundary
        self.grid = self.l_h = self.work = self.arrays = self.parity = None

    def _allocate(self, grid, l_h: int) -> None:
        self.grid, self.l_h = grid, l_h
        self.work = work_shape(self.ushape, grid.shape, self.boundary)
        self.arrays = np.zeros((components_for(l_h, grid.dim),) + self.work[:-1]
                               + (self.work[-1] // 2 + 1,), complex)

    @property
    def view(self) -> np.ndarray:
        """The real view, C x W, that the kernel is laid out in."""
        return self.arrays.view(float)[..., :self.work[-1]]

    def open(self, grid, l_h: int) -> bool:
        """Allocate the work array for a kernel of order ``l_h`` on ``grid``,
        to be laid out slab by slab with ``add``, and return True.  Return
        False, allocating nothing, for a kernel of another dimension, one
        that goes direct by default, or one that on some axis is wider than
        the periodic field or than 2N - 1, so would alias or be cropped: it
        is sampled whole instead."""
        span = [n if self.boundary == PERIODIC else 2 * n - 1 for n in self.ushape]
        if (grid.dim != len(span) or max(grid.shape) <= DIRECT_MAX_EXTENT
                or any(k > s for k, s in zip(grid.shape, span))):
            return False
        self._allocate(grid, l_h)
        return True

    def add(self, first: int, block: np.ndarray) -> None:
        """Lay out kernel rows ``first`` ... on the first axis, held by
        ``block`` for every component; slabs are added in row order."""
        _circular_kernel(block, self.view, first, self.grid.shape[0])

    def lay(self, kernel: KernelField) -> None:
        """Lay out a whole kernel.  For the zero boundary it is first cropped
        to offsets within N - 1 of its center; the periodic layout sums
        aliased offsets."""
        karr = kernel.field.components
        if self.boundary == ZERO:
            kshape = kernel.grid.shape
            reach = [min((k - 1) // 2, n - 1) for n, k in zip(self.ushape, kshape)]
            karr = karr[(slice(None),) + tuple(slice((k - 1) // 2 - c, (k + 1) // 2 + c)
                                               for k, c in zip(kshape, reach))]
        self.parity = _parities(karr, kernel.l_h, _has_parity)
        self._allocate(kernel.grid, kernel.l_h)
        _circular_kernel(karr, self.view)

    def spectrum(self) -> tuple:
        """Transform the laid-out kernel in place, one component at a time, by
        ``_rfftn_padded``, which prunes nothing here: every line is live.
        Returns the held spectrum, read-only, and the first-axis signs, and
        lets go of the work array.  A float64 spectrum keeps one part per
        component, the real one for even l_h and the imaginary one for odd
        l_h (``conv_fourier`` restores the factor i); a complex one keeps both.

        The held spectrum, which outlives the build, is allocated while the
        work array is alive: under glibc's malloc, allocated after the sampled
        kernel was dropped, it once left every later 48^3 apply of the greens
        benchmark faulting about 1,900 pages of work arrays in again, against
        none.
        """
        signs, real = self.parity or _parities(self.view, self.l_h, _circular_parity)
        rows = self.work[0] // 2 + 1 if signs else self.work[0]
        spectrum = np.empty((len(self.arrays), rows) + self.arrays.shape[2:],
                            float if real else complex)
        part = (np.imag if self.l_h % 2 else np.real) if real else np.asarray
        for array, laid, held in zip(self.arrays, self.view, spectrum):
            held[...] = part(_rfftn_padded(laid, self.work, array))[:rows]
        self.arrays = None
        spectrum.flags.writeable = False
        return spectrum, signs


def _rfftn_padded(x: np.ndarray, work, out: np.ndarray | None = None) -> np.ndarray:
    """``rfftn`` of ``x`` zero-padded to ``work``, without transforming the
    lines that are all padding; the output is the one array it allocates.

    The real-axis pass runs only on the rows of ``x``, padded inside ``rfft``;
    the pass on a leading axis a then runs in place on the rows whose earlier
    axes lie below N, from the last leading axis to the first, as ``rfftn``
    orders them.  Given ``out``, ``x`` is the work-shaped real view of it (a
    ``KernelLayout``'s), transformed in place: the real-axis pass runs on
    blocks of lines of at most ``SAMPLE_SLAB_VOXELS`` voxels (one line if a
    line is longer), and numpy copies each block, which its output
    overlaps; nothing else is allocated.
    """
    d = x.ndim
    if out is None:
        out = np.zeros(tuple(work[:-1]) + (work[-1] // 2 + 1,), complex)
        sfft.rfft(x, n=work[-1], axis=-1, out=out[tuple(slice(0, n) for n in x.shape[:-1])])
    else:
        lines = np.reshape(x, (-1, work[-1]), copy=False)
        spectra = np.reshape(out, (-1, out.shape[-1]), copy=False)
        step = max(1, SAMPLE_SLAB_VOXELS // work[-1])
        for i in range(0, len(lines), step):
            sfft.rfft(lines[i:i + step], axis=-1, out=spectra[i:i + step])
    for a in range(d - 2, -1, -1):
        rows = out[tuple(slice(0, n) for n in x.shape[:a])]
        sfft.fft(rows, axis=a, out=rows)
    return out


def _irfftn_cropped(acc: np.ndarray, work, shape) -> np.ndarray:
    """``irfftn(acc, s=work)`` cropped to ``shape``, overwriting ``acc``.

    The pass on leading axis a runs in place on the rows whose earlier axes
    lie inside the crop, in ``irfftn``'s order; the real-axis pass then runs
    only on the kept rows.  It writes its N0 x ... x W[-1] float64s into rows
    N0 ... W0 - 1 of ``acc``, which lie outside the crop, when they can hold
    them, and into a new array when they cannot (periodic, or a kernel much
    narrower than the field).
    """
    d = acc.ndim
    for a in range(d - 1):
        rows = acc[tuple(slice(0, n) for n in shape[:a])]
        sfft.ifft(rows, axis=a, out=rows)
    rows = acc[tuple(slice(0, n) for n in shape[:-1])]
    block = tuple(shape[:-1]) + (work[-1],)
    spare = acc[shape[0]:].view(float).reshape(-1)
    out = spare[:math.prod(block)].reshape(block) if spare.size >= math.prod(block) else None
    return sfft.irfftn(rows, s=(work[-1],), axes=(d - 1,), out=out)[..., :shape[-1]]


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
