"""Value semantics of the package's sixteen record classes, one table row
each: construction by position and by keyword, defaults (fresh per
instance where they are containers), frozen attributes, ``==``, ``hash``
and the exact ``repr``."""

import copy
import dataclasses
import math

import numpy as np
import pytest

import eqfield as eq
from eqfield.cli import RunReport

FROZEN = dataclasses.FrozenInstanceError
G = ("Grid(shape=(3, 3), spacing=(1.0, 0.5), origin=(0.0, 0.0), "
     "boundary='zero')")
RAMP = "array([[[0., 1., 2.],\n        [3., 4., 5.],\n        [6., 7., 8.]]])"


def _grid(shape=(3, 3)):
    return eq.Grid(shape, (1.0,) + (0.5,) * (len(shape) - 1), (0.0,) * len(shape))


def _ramp():
    return eq.TensorField(_grid(), 0, np.arange(9.0).reshape(1, 3, 3))


def _wide_kernel():
    return eq.sample_kernel(eq.kernel_grid((7, 7), (1.0, 0.5)), eq.gaussian(1.0), 0)


_WIDE = _wide_kernel()


def _wide_recipe(out=None):
    return _WIDE


def _case(cls, make, fields, defaults, unequal, hashable, text, id=None):
    """One class's row.  ``make()`` gives every ``__init__`` argument in order,
    none at its default; ``defaults`` the trailing ones' defaults; ``unequal``
    overrides that make a value compare unequal, only its array where it
    holds one; ``hashable`` is True or the exception ``hash`` raises."""
    return pytest.param(cls, make, fields, defaults, unequal, hashable, text,
                        id=id or cls.__name__)


CASES = [
    _case(eq.Grid,
          lambda: dict(shape=[3, 4], spacing=(1, 0.5), origin=(0.0, 1.0), boundary="periodic"),
          ("shape", "spacing", "origin", "boundary"), dict(boundary="zero"),
          dict(origin=(0.0, 2.0)), True,
          "Grid(shape=(3, 4), spacing=(1.0, 0.5), origin=(0.0, 1.0), boundary='periodic')"),
    _case(eq.TensorField,
          lambda: dict(grid=_grid(), l=0, components=np.arange(9.0).reshape(1, 3, 3)),
          ("grid", "l", "components"), {}, dict(components=np.zeros((1, 3, 3))),
          TypeError,
          f"TensorField(grid={G}, l=0, components={RAMP})"),
    _case(eq.ProductRule,
          lambda: dict(kind="dot", l_u=1, l_h=1, l_v=0),
          ("kind", "l_u", "l_h", "l_v"), {}, dict(kind="cross"), True,
          "ProductRule(kind='dot', l_u=1, l_h=1, l_v=0)"),
    _case(eq.RadialProfile,
          lambda: dict(fn=np.exp, name="e", singular_at_origin=True, support=2.0),
          ("fn", "name", "singular_at_origin", "support"),
          dict(name="custom", singular_at_origin=False, support=math.inf),
          dict(support=3.0), True,
          "RadialProfile(fn=<ufunc 'exp'>, name='e', singular_at_origin=True, support=2.0)"),
    _case(eq.KernelField,
          lambda: dict(field=eq.TensorField(eq.kernel_grid((3, 3), (1.0, 0.5)), 0,
                                            np.arange(9.0).reshape(1, 3, 3)), l_h=0),
          ("field", "l_h"), {},
          dict(field=eq.TensorField(eq.kernel_grid((3, 3), (1.0, 0.5)), 0, np.zeros((1, 3, 3)))),
          TypeError,
          "KernelField(field=TensorField(grid=Grid(shape=(3, 3), spacing=(1.0, 0.5), "
          f"origin=(-1.0, -0.5), boundary='zero'), l=0, components={RAMP}), l_h=0)"),
    _case(eq.EquivariantOp,
          lambda: dict(name="delta", grid=_grid(), kernel=eq.delta_stencil(_grid()),
                       kind="scalar", boundary="periodic", input_l=0),
          ("name", "grid", "kind", "boundary", "input_l", "kernel_grid", "l_h", "recipe",
           "spectrum", "signs"),
          dict(boundary=None, input_l=None), dict(kernel=eq.laplacian_stencil(_grid())),
          TypeError,
          f"EquivariantOp(name='delta', grid={G}, kind='scalar', boundary='periodic', "
          "input_l=0, kernel_grid=Grid(shape=(3, 3), spacing=(1.0, 0.5), "
          "origin=(-1.0, -0.5), boundary='zero'), l_h=0)", id="EquivariantOp-stencil"),
    # the held spectrum and signs stay out of == and hash: two builds from one
    # recipe are equal, though each holds its own spectrum
    _case(eq.EquivariantOp,
          lambda: dict(name="wide", grid=_grid((4, 4)), kernel=_wide_recipe, kind="scalar",
                       boundary="periodic", input_l=0),
          ("name", "grid", "kind", "boundary", "input_l", "kernel_grid", "l_h", "recipe",
           "spectrum", "signs"),
          dict(boundary=None, input_l=None), dict(input_l=None), True,
          "EquivariantOp(name='wide', grid=Grid(shape=(4, 4), spacing=(1.0, 0.5), "
          "origin=(0.0, 0.0), boundary='zero'), kind='scalar', boundary='periodic', "
          "input_l=0, kernel_grid=Grid(shape=(7, 7), spacing=(1.0, 0.5), "
          "origin=(-3.0, -1.5), boundary='zero'), l_h=0)", id="EquivariantOp-recipe"),
    _case(eq.LatticeRotation,
          lambda: dict(matrix=[[0, -1], [1, 0]]), ("matrix",), {},
          dict(matrix=[[0, 1], [-1, 0]]), True,
          "LatticeRotation([[0, -1], [1, 0]])"),
    _case(eq.CheckResult,
          lambda: dict(name="linearity", deviation=0.5, tolerance=1e-10),
          ("name", "deviation", "tolerance"), {}, dict(deviation=0.25), True,
          "CheckResult(name='linearity', deviation=0.5, tolerance=1e-10)"),
    _case(eq.ParamRadial,
          lambda: dict(gaussians=[(1, 2)], powers=[(0.5, 1.0, 1)], stencils=[(0.25, 0)]),
          ("gaussians", "powers", "stencils"), dict(gaussians=(), powers=(), stencils=()),
          dict(stencils=[(0.5, 0)]), True,
          "ParamRadial(gaussians=((1.0, 2.0),), powers=((0.5, 1, 1.0),), "
          "stencils=((0.25, 0),))"),
    _case(eq.NeuralOp,
          lambda: dict(param=eq.ParamRadial([(1.0, 2.0)]),
                       rule=eq.product_rule("scalar", 0, 0, 2), grid=_grid()),
          ("param", "rule", "grid"), {}, dict(param=eq.ParamRadial([(2.0, 2.0)])), True,
          "NeuralOp(param=ParamRadial(gaussians=((1.0, 2.0),), powers=(), stencils=()), "
          f"rule=ProductRule(kind='scalar', l_u=0, l_h=0, l_v=0), grid={G})"),
    _case(eq.FitResult,
          lambda: dict(amplitudes=np.array([1.0, 2.0]), residual=0.1, condition=10.0,
                       flagged=False, trace=[0.5, 0.1]),
          ("amplitudes", "residual", "condition", "flagged", "trace"), dict(trace=[]),
          dict(amplitudes=np.array([1.0, 3.0])), TypeError,
          "FitResult(amplitudes=array([1., 2.]), residual=0.1, condition=10.0, "
          "flagged=False, trace=[0.5, 0.1])"),
    _case(eq.NonlinearLayer,
          lambda: dict(a=[1.0, 2.0], b=[0.0, -0.5], activation="identity"),
          ("a", "b", "activation"), dict(activation="relu"), dict(b=[0.0, 0.5]), TypeError,
          "NonlinearLayer(a=array([1., 2.]), b=array([ 0. , -0.5]), activation='identity')"),
    _case(eq.AttentionLayer,
          lambda: dict(input_l=[0], output_l=[0], dim=2, pairs=[(0, 1, "scalar")],
                       weights=[[1.5]]),
          ("input_l", "output_l", "dim", "pairs", "weights"), {},
          dict(weights=[[2.5]]), TypeError,
          "AttentionLayer(input_l=(0,), output_l=(0,), dim=2, pairs=[(0, 1, 'scalar')], "
          "weights=array([[1.5]]))"),
    _case(eq.DiffusionAdvectionModel,
          lambda: dict(grid=_grid(), D=0.1, w=[0.25, 0.0], dt=0.125, source=_ramp()),
          ("grid", "D", "w", "dt", "source"), dict(source=None), dict(w=[0.0, 0.25]),
          TypeError,
          f"DiffusionAdvectionModel(grid={G}, D=0.1, w=array([0.25, 0.  ]), dt=0.125, "
          f"source=TensorField(grid={G}, l=0, components={RAMP}))"),
    _case(eq.EstimateResult,
          lambda: dict(D=0.1, w=np.array([0.25, 0.0]), residual=1e-3, condition=12.0),
          ("D", "w", "residual", "condition"), {}, dict(w=np.array([0.0, 0.25])), TypeError,
          "EstimateResult(D=0.1, w=array([0.25, 0.  ]), residual=0.001, condition=12.0)"),
    _case(RunReport,
          lambda: dict(command="apply", inputs={"field": "in.eqf"}, parameters={"path": "auto"},
                       metrics={"wall_seconds": 0.5}, outputs=["out.eqf"], exit_code=3),
          ("command", "inputs", "parameters", "metrics", "outputs", "exit_code"),
          dict(inputs={}, parameters={}, metrics={}, outputs=[], exit_code=0),
          dict(exit_code=1), TypeError,
          "RunReport(command='apply', inputs={'field': 'in.eqf'}, parameters={'path': 'auto'}, "
          "metrics={'wall_seconds': 0.5}, outputs=['out.eqf'], exit_code=3)"),
]


@pytest.mark.parametrize("cls, make, fields, defaults, unequal, hashable, text", CASES)
def test_value_semantics(cls, make, fields, defaults, unequal, hashable, text):
    by_position = cls(*make().values())
    by_keyword = cls(**make())
    assert repr(by_position) == repr(by_keyword) == text
    assert set(vars(by_position)) == set(fields)

    # trailing defaults, by position and by keyword
    required = [v for k, v in make().items() if k not in defaults]
    with_defaults = cls(*required)
    assert repr(with_defaults) == repr(cls(**{**make(), **defaults}))
    again = cls(*required)
    for name, value in defaults.items():
        if isinstance(value, (list, dict)):
            assert getattr(with_defaults, name) == value
            assert getattr(with_defaults, name) is not getattr(again, name)

    # == and hash: against itself, a deep copy and a value that differs
    twin = cls(**copy.deepcopy(make()))
    assert by_position == by_position and not by_position != by_position
    assert (by_position == object()) is False and by_position != object()
    assert (by_position == twin) is True and not by_position != twin
    if hashable is True:
        assert hash(by_position) == hash(twin) == hash(by_keyword)
    else:
        with pytest.raises(hashable):
            hash(by_position)
    other = cls(**{**make(), **unequal})
    assert (by_position == other) is False and by_position != other
    if hashable is True:
        assert len({by_position, twin, other}) == 2

    # frozen: no attribute can be set or deleted, a field or not
    for name in fields + ("extra",):
        with pytest.raises(FROZEN) as err:
            setattr(by_position, name, None)
        assert str(err.value) == f"cannot assign to field {name!r}"
        with pytest.raises(FROZEN) as err:
            delattr(by_position, name)
        assert str(err.value) == f"cannot delete field {name!r}"
    assert repr(by_position) == text
