"""Learnable equivariant operators.

A NeuralOp is a convolution whose kernel samples one radial function,
``ParamRadial.evaluate``, a weighted sum of fixed basis shapes (Gaussian
bumps, inverse power laws), and adds compact difference stencils.  The
output is linear in the amplitudes, so fitting is one linear least-squares
problem; gradient descent is provided alongside for the same objective.
The norm nonlinearity and pairwise attention layers act voxel-by-voxel and
are equivariant by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .convolve import _circular_kernel
from .fields import (FieldError, ProductRule, RuleError, TensorField, field_norm,
                     pointwise_product, product_rule, supported_rules)
from .formats import (FormatError, grid_entries, grid_from_entries, manifest_values,
                      parse_list, read_keyvalues, write_keyvalues)
from .grid import ZERO, Frozen, Grid
from .kernels import (KernelField, RadialProfile, delta_stencil,
                      free_space_kernel_grid, gaussian, gradient_stencil,
                      sample_kernel)
from .operators import EquivariantOp, held

RELU = "relu"
IDENTITY = "identity"


def _exponent(k) -> int:
    """A power-law exponent as an int; a fractional or non-positive one is refused."""
    if not (float(k).is_integer() and k > 0):
        raise ValueError(f"power-law exponent must be a positive integer, got {k}")
    return int(k)


def power_profile(exponent: int, r_min: float) -> RadialProfile:
    """r^(-exponent) outside r_min, zero inside (regularized power law)."""
    k = _exponent(exponent)
    if not 0 < r_min < math.inf:
        raise ValueError(f"power-law inner cutoff must be positive and finite, got {r_min}")

    def fn(r):
        safe = np.where(r >= r_min, r, 1.0)
        return np.where(r >= r_min, safe ** (-float(k)), 0.0)

    return RadialProfile(fn, name=f"power({k})")


class EmptyBasisError(ValueError):
    """A learnable operator needs at least one basis term."""


class ParamRadial(Frozen):
    """Radial function linear in its amplitudes; amplitudes must be finite.

    gaussians: (amplitude, width) pairs, R += A exp(-r^2/sigma^2)
    powers:    (amplitude, exponent, r_min), R += B r^-k for r >= r_min
    stencils:  (amplitude, order), realized as compact difference kernels
               rather than smooth radial terms; order 0 is the delta
               (valid for l_h = 0), order 1 the gradient stencil (l_h = 1)
    """

    _fields = ("gaussians", "powers", "stencils")

    def __init__(self, gaussians: tuple = (), powers: tuple = (), stencils: tuple = ()):
        self._set(gaussians=tuple((float(a), float(s)) for a, s in gaussians),
                  powers=tuple((float(a), _exponent(k), float(r)) for a, k, r in powers),
                  stencils=tuple((float(a), int(o)) for a, o in stencils))
        bad = [a for a in self.amplitudes if not math.isfinite(a)]
        if bad:
            raise ValueError(f"amplitudes must be finite, got {bad[0]}")
        self.smooth_profiles()   # rejects non-positive or non-finite widths and cutoffs
        for _, o in self.stencils:
            if o not in (0, 1):
                raise ValueError("stencil order must be 0 or 1")

    @property
    def n_params(self) -> int:
        return len(self.gaussians) + len(self.powers) + len(self.stencils)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.gaussians]
                        + [a for a, _, _ in self.powers]
                        + [a for a, _ in self.stencils])

    def with_amplitudes(self, p) -> "ParamRadial":
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} amplitudes, got {p.shape}")
        ng, npw = len(self.gaussians), len(self.powers)
        return ParamRadial(
            tuple((p[i], s) for i, (_, s) in enumerate(self.gaussians)),
            tuple((p[ng + i], k, r) for i, (_, k, r) in enumerate(self.powers)),
            tuple((p[ng + npw + i], o) for i, (_, o) in enumerate(self.stencils)))

    def hyper_key(self) -> tuple:
        """Hashable identity of the basis shapes (amplitudes excluded)."""
        return (tuple(s for _, s in self.gaussians),
                tuple((k, r) for _, k, r in self.powers),
                tuple(o for _, o in self.stencils))

    def smooth_profiles(self) -> list:
        """The Gaussian and power-law shapes, in amplitude order."""
        return ([gaussian(s) for _, s in self.gaussians]
                + [power_profile(k, r_min) for _, k, r_min in self.powers])

    def evaluate(self, r) -> np.ndarray:
        """The smooth part R(r), which the kernel samples and ``fit --csv`` writes."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for a, profile in zip(self.amplitudes, self.smooth_profiles()):
            out += a * profile(r)
        return out


def default_param_radial(grid: Grid, l_h: int, n_gaussians: int = 8) -> ParamRadial:
    """Default basis: log-spaced Gaussians over [spacing, extent/4], power
    laws r^-1 and r^-2 cut off inside one spacing, and the compact stencil
    matching l_h (delta for scalars, gradient for vectors).  Amplitudes
    start at zero."""
    if n_gaussians < 0:
        raise ValueError(f"n_gaussians must be >= 0, got {n_gaussians}")
    h = min(grid.spacing)
    extent = min(n * s for n, s in zip(grid.shape, grid.spacing))
    widths = np.geomspace(h, extent / 4.0, n_gaussians)
    gaussians = tuple((0.0, float(w)) for w in widths)
    powers = tuple((0.0, k, h) for k in (1, 2))
    if l_h == 0:
        stencils = ((0.0, 0),)
    elif l_h == 1:
        stencils = ((0.0, 1),)
    else:
        stencils = ()
    return ParamRadial(gaussians, powers, stencils)


class NeuralOp(Frozen):
    """Learnable convolution: kernel = sum of amplitude-weighted basis kernels.

    Applies with the free-space (zero) boundary; the kernel grid spans every
    displacement between field voxels, so nothing is truncated.
    """

    _fields = ("param", "rule", "grid")

    def __init__(self, param: ParamRadial, rule: ProductRule, grid: Grid):
        if param.n_params == 0:
            raise EmptyBasisError("operator has an empty basis: no Gaussian, power or "
                                  "stencil term")
        for _, order in param.stencils:
            if order != rule.l_h:
                raise RuleError(f"order-{order} stencil cannot serve an "
                                f"l_h={rule.l_h} kernel")
        self._set(param=param, rule=rule, grid=grid)

    @property
    def l_h(self) -> int:
        return self.rule.l_h

    def with_params(self, amplitudes) -> "NeuralOp":
        return NeuralOp(self.param.with_amplitudes(amplitudes), self.rule, self.grid)

    @property
    def operator(self) -> EquivariantOp:
        """The ``EquivariantOp`` with ``kernel`` as its recipe, held under this
        frozen recipe: built on first use, shared by equal recipes, never stale."""
        return held(self, lambda: EquivariantOp("neural", self.grid,
                                                lambda out=None: self.kernel(out),
                                                self.rule.kind, boundary=ZERO,
                                                input_l=self.rule.l_u))

    def apply(self, u: TensorField, path: str | None = None) -> TensorField:
        """Convolve u with the kernel; ``path`` forces a path for this call.  A
        field on another grid is refused before the operator is built."""
        if u.grid != self.grid:
            raise FieldError("operator 'neural' was built for another grid")
        return self.operator.apply(u, path=path)

    def kernel(self, out=None) -> KernelField:
        """R(r) Y_l(rhat) of ``param.evaluate``, sampled once; stencils added at the
        centre, the circular one of a ``KernelLayout`` ``out`` that it samples into."""
        kgrid = free_space_kernel_grid(self.grid)
        sampled = sample_kernel(kgrid, RadialProfile(self.param.evaluate), self.l_h, out)
        laid = sampled is out
        comps = out.view if laid else sampled.field.components
        comps.setflags(write=True)   # a fresh sample, held nowhere else
        for a, order in self.param.stencils:
            term = a * _stencil(self.grid, order).field.components
            if laid:
                _circular_kernel(term, comps)
            else:
                comps[tuple(slice((n - k) // 2, (n + k) // 2)
                            for n, k in zip(comps.shape, term.shape))] += term
        return out if laid else KernelField(TensorField(kgrid, self.l_h, comps), self.l_h)


def make_neural_op(grid: Grid, kind: str = "scalar", l_u: int = 0, l_h: int = 0,
                   param: ParamRadial | None = None) -> NeuralOp:
    rule = product_rule(kind, l_u, l_h, grid.dim)
    if param is None:
        param = default_param_radial(grid, l_h)
    return NeuralOp(param, rule, grid)


def _stencil(grid: Grid, order: int) -> KernelField:
    """A stencil term's kernel: the delta (order 0) or the gradient."""
    return (delta_stencil if order == 0 else gradient_stencil)(grid)


def basis_kernels(op: NeuralOp) -> tuple:
    """One ``EquivariantOp`` per amplitude, in amplitude order, held per basis and
    shared.  Its recipe looks its sampler up when it runs: a smooth term holds
    its spectrum alone, sampled into its layout; a stencil its 3-wide kernel."""
    kgrid = free_space_kernel_grid(op.grid)
    recipes = ([lambda out=None, p=p: sample_kernel(kgrid, p, op.l_h, out)
                for p in op.param.smooth_profiles()]
               + [lambda out=None, o=o: _stencil(op.grid, o) for _, o in op.param.stencils])
    return held(("basis", op.grid, op.rule, op.param.hyper_key()),
                lambda: tuple(EquivariantOp("basis", op.grid, recipe, op.rule.kind,
                                            boundary=ZERO, input_l=op.rule.l_u)
                              for recipe in recipes))


def _check_dataset(op: NeuralOp, dataset) -> None:
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    for u, v in dataset:
        if u.grid != op.grid or v.grid != op.grid:
            raise ValueError("dataset fields must live on the operator grid")
        if u.l != op.rule.l_u or v.l != op.rule.l_v:
            raise RuleError("dataset orders do not match the operator rule")


def _reduce_rows(blocks, width: int) -> tuple:
    """Fold row blocks [X_k | y_k] of ``width`` columns one at a time into the
    R factor of their stack (sequential TSQR), so the stack never exists.  R
    starts as a zero square and stays square when a block has fewer rows
    than columns.  Returns (Rx, c, rho2, norm) with |X p - y|^2 =
    |Rx p - c|^2 + rho2 and norm = |y|^2 = |c|^2 + rho2."""
    R = np.zeros((width, width))
    for block in blocks:
        R = np.linalg.qr(np.vstack([R, block]), mode="r")
    return R[:-1, :-1], R[:-1, -1], float(R[-1, -1] ** 2), float(R[:, -1] @ R[:, -1])


def _reduce_dataset(op: NeuralOp, dataset) -> tuple:
    """``_reduce_rows`` of one block [basis_0.apply(u) ... | v] per sample."""
    _check_dataset(op, dataset)
    basis = basis_kernels(op)
    blocks = (np.column_stack([b.apply(u).components.ravel() for b in basis]
                              + [v.components.ravel()]) for u, v in dataset)
    reduced = _reduce_rows(blocks, len(basis) + 1)
    if reduced[-1] == 0.0:
        raise ValueError("dataset target is identically zero; relative loss undefined")
    return reduced


def loss(op: NeuralOp, dataset) -> float:
    """Relative mean squared error: sum |v - v_target|^2 / sum |v_target|^2."""
    _check_dataset(op, dataset)
    num = 0.0
    den = 0.0
    for u, v in dataset:
        pred = op.apply(u)
        num += float(np.sum((pred.components - v.components) ** 2))
        den += float(np.sum(v.components ** 2))
    if den == 0.0:
        raise ValueError("dataset target is identically zero; relative loss undefined")
    return num / den


def grad_params(op: NeuralOp, dataset) -> np.ndarray:
    """Analytic gradient of loss over the amplitude vector.

    By linearity dv/dp_i = basis_i.apply(u), so the gradient 2 X^T (X p - y)
    / normalizer over the stacked responses X is 2 Rx^T (Rx p - c) / normalizer.
    """
    Rx, c, _, norm = _reduce_dataset(op, dataset)
    return 2.0 * (Rx.T @ (Rx @ op.param.amplitudes - c)) / norm


class FitResult(Frozen):
    """Fitted amplitudes and how well they fit: the relative MSE, the condition
    number of the (regularized) normal matrix, a flag for ill-conditioned
    beyond the ridge or diverged, and the loss per gradient-descent step."""

    _fields = ("amplitudes", "residual", "condition", "flagged", "trace")

    def __init__(self, amplitudes: np.ndarray, residual: float, condition: float,
                 flagged: bool, trace: list | None = None):
        self._set(amplitudes=amplitudes, residual=residual, condition=condition,
                  flagged=flagged, trace=[] if trace is None else trace)


def fit_least_squares(op: NeuralOp, dataset, ridge: float = 1e-10) -> FitResult:
    """Minimize |X p - y|^2 + lam |p|^2 over all amplitudes as one ``lstsq`` of
    [Rx; sqrt(lam) I] against [c; 0], with the samples folded one at a time
    into Rx and c, so X^T X is never formed and cond(X) is not squared.

    lam = ridge |Rx|_F^2 / n makes the default 1e-10 dimensionless; with
    lam = 0 the result is the minimum-norm solution.  A condition of
    X^T X + lam I above 1e12 flags the result.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    Rx, c, rho2, norm = _reduce_dataset(op, dataset)
    n = Rx.shape[1]
    s = np.linalg.svd(Rx, compute_uv=False)
    scale = float(s @ s)
    lam = ridge * (scale / n if scale > 0 else 1.0)
    p, *_ = np.linalg.lstsq(np.vstack([Rx, math.sqrt(lam) * np.eye(n)]),
                            np.concatenate([c, np.zeros(n)]), rcond=None)
    low = float(s[-1]) ** 2 + lam   # cond(X^T X + lam I), infinite when singular
    condition = (float(s[0]) ** 2 + lam) / low if low > 0.0 else math.inf
    residual = (float(np.sum((Rx @ p - c) ** 2)) + rho2) / norm
    return FitResult(p, residual, condition, not condition <= 1e12)


def fit_gradient_descent(op: NeuralOp, dataset, steps: int = 500,
                         step_size: float | None = None) -> FitResult:
    """Plain gradient descent on the same relative-MSE objective.

    step_size None picks 1/L from the largest singular value of Rx, which
    guarantees descent on this quadratic.  Divergence (loss above 1e6
    times the initial value) aborts with the trace recorded.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    Rx, c, rho2, norm = _reduce_dataset(op, dataset)
    s = np.linalg.svd(Rx, compute_uv=False)
    if step_size is None:
        if s[0] <= 0:
            raise ValueError("basis responses vanish on this dataset")
        step_size = norm / (2.0 * float(s[0]) ** 2)
    elif step_size <= 0:
        raise ValueError("step_size must be positive")
    p = op.param.amplitudes.copy()
    r = Rx @ p - c
    trace = [(float(r @ r) + rho2) / norm]
    flagged = False
    for _ in range(steps):
        p -= step_size * (2.0 * (Rx.T @ r) / norm)
        r = Rx @ p - c
        trace.append((float(r @ r) + rho2) / norm)
        if not math.isfinite(trace[-1]) or trace[-1] > 1e6 * max(trace[0], 1e-300):
            flagged = True
            break
    low = float(s[-1]) ** 2
    condition = float(s[0]) ** 2 / low if low > 0.0 else math.inf
    return FitResult(p, trace[-1], condition, flagged, trace)


class NonlinearLayer(Frozen):
    """Norm nonlinearity: u -> act(a |u| + b) * u/|u| per channel and voxel."""

    _fields = ("a", "b", "activation")

    def __init__(self, a: np.ndarray, b: np.ndarray, activation: str = RELU):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise ValueError("a and b must have one value per channel")
        if activation not in (RELU, IDENTITY):
            raise ValueError(f"activation must be relu|identity, got {activation!r}")
        self._set(a=a, b=b, activation=activation)


def apply_nonlinear(layer: NonlinearLayer, fields: list) -> list:
    if len(fields) != len(layer.a):
        raise ValueError(f"layer has {len(layer.a)} channels, got {len(fields)} fields")
    out = []
    for j, u in enumerate(fields):
        n = field_norm(u).components[0]
        s = layer.a[j] * n + layer.b[j]
        if layer.activation == RELU:
            s = np.maximum(s, 0.0)
        scale = np.where(n > 0.0, s / np.where(n > 0.0, n, 1.0), 0.0)
        out.append(TensorField(u.grid, u.l, u.components * scale[None]))
    return out


class AttentionLayer(Frozen):
    """Pairwise products of channels, weighted per output channel.

    Channel index len(input_l) is an implicit identity scalar field (all
    ones), so a pair (a, identity) passes channel a through.  Every stored
    pair carries a valid rule for the dimension; weights into an output
    channel whose order differs from the pair's product order must be zero.
    """

    _fields = ("input_l", "output_l", "dim", "pairs", "weights")

    def __init__(self, input_l: tuple, output_l: tuple, dim: int, pairs: list,
                 weights: np.ndarray):
        input_l = tuple(int(l) for l in input_l)
        output_l = tuple(int(l) for l in output_l)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(output_l), len(pairs)):
            raise ValueError("weights must be (n_output_channels, n_pairs)")
        orders = input_l + (0,)
        for j, lo in enumerate(output_l):
            for k, (a, b, kind) in enumerate(pairs):
                rule = product_rule(kind, orders[a], orders[b], dim)
                if weights[j, k] != 0.0 and rule.l_v != lo:
                    raise RuleError(
                        f"pair {rule} cannot feed output channel {j} of order {lo}")
        self._set(input_l=input_l, output_l=output_l, dim=dim, pairs=pairs, weights=weights)

    @classmethod
    def create(cls, input_l, output_l, dim: int) -> "AttentionLayer":
        """Enumerate every valid ordered pair (identity channel included);
        weights start at zero."""
        input_l = tuple(int(l) for l in input_l)
        orders = input_l + (0,)
        pairs = []
        for a in range(len(orders)):
            for b in range(len(orders)):
                for rule in supported_rules(dim):
                    if rule.l_u == orders[a] and rule.l_h == orders[b]:
                        pairs.append((a, b, rule.kind))
        weights = np.zeros((len(output_l), len(pairs)))
        return cls(input_l, tuple(int(l) for l in output_l), dim, pairs, weights)

    def pair_index(self, a: int, b: int, kind: str) -> int:
        return self.pairs.index((a, b, kind))

    @property
    def identity_channel(self) -> int:
        return len(self.input_l)


def apply_attention(layer: AttentionLayer, fields: list) -> list:
    if len(fields) != len(layer.input_l):
        raise ValueError(f"layer has {len(layer.input_l)} input channels, "
                         f"got {len(fields)} fields")
    for u, l in zip(fields, layer.input_l):
        if u.l != l:
            raise RuleError("field orders do not match the layer's input channels")
    grid = fields[0].grid if fields else None
    if grid is None:
        raise ValueError("attention needs at least one input field")
    ones = TensorField.from_scalar(grid, np.ones(grid.shape))
    chans = list(fields) + [ones]
    orders = layer.input_l + (0,)
    out = []
    for j, lo in enumerate(layer.output_l):
        acc = TensorField.zeros(grid, lo)
        for k, (a, b, kind) in enumerate(layer.pairs):
            w = layer.weights[j, k]
            if w == 0.0:
                continue
            rule = product_rule(kind, orders[a], orders[b], layer.dim)
            acc = acc + pointwise_product(chans[a], chans[b], rule) * w
        out.append(acc)
    return out


def save_model(path, op: NeuralOp) -> None:
    """Text manifest: grid header, rule, basis hyperparameters, amplitudes."""
    p = op.param
    entries = {
        "model": "eqfield-neural-v1",
        **grid_entries(op.grid),
        "kind": op.rule.kind,
        "l_u": op.rule.l_u,
        "l_h": op.rule.l_h,
        "gaussian_widths": [s for _, s in p.gaussians],
        "gaussian_amps": [a for a, _ in p.gaussians],
        "power_exponents": [k for _, k, _ in p.powers],
        "power_rmins": [r for _, _, r in p.powers],
        "power_amps": [a for a, _, _ in p.powers],
        "stencil_orders": [o for _, o in p.stencils],
        "stencil_amps": [a for a, _ in p.stencils],
    }
    write_keyvalues(path, entries)


def _per_term(kv: dict, **kinds) -> tuple:
    """Zip the per-term lists under the given keys, which must be equally long;
    an item that does not parse is reported with its key."""
    lists = {}
    for key, kind in kinds.items():
        try:
            lists[key] = parse_list(kv[key], kind)
        except ValueError as exc:
            raise ValueError(f"{key} {exc}") from None
    if len({len(v) for v in lists.values()}) > 1:
        raise ValueError("unequal per-term lists: "
                         + ", ".join(f"{key} has {len(v)}" for key, v in lists.items()))
    return tuple(zip(*lists.values()))


def load_model(path) -> NeuralOp:
    kv = read_keyvalues(path)
    if kv.get("model") != "eqfield-neural-v1":
        raise FormatError(f"{path}: not a neural-operator manifest")
    with manifest_values(path):
        grid = grid_from_entries(kv)
        param = ParamRadial(
            _per_term(kv, gaussian_amps=float, gaussian_widths=float),
            _per_term(kv, power_amps=float, power_exponents=int, power_rmins=float),
            _per_term(kv, stencil_amps=float, stencil_orders=int))
        rule = product_rule(kv["kind"], int(kv["l_u"]), int(kv["l_h"]), grid.dim)
        return NeuralOp(param, rule, grid)   # legacy path= and trainable= keys are ignored
