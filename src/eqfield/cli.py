"""Command-line interface: apply/fit/simulate/estimate/check over EQF files.

Each subcommand maps its parsed arguments to a ``RunReport``; ``main`` prints
and writes that report and exits with its code.  Exit codes: 0 success,
1 property-check failure, 2 input/format error, 3 shape/rule mismatch or a
shape too large to allocate, 4 numerical guard (instability, blow-up,
unidentifiable parameters).  All numbers print at 17 significant digits.
``entry`` is the process entry of ``python -m eqfield.cli`` and of the
``eqfield`` script; ``main`` is the in-process call.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

import numpy as np

from .checks import all_passed, run_checks
from .convolve import DIRECT, FOURIER
from .fields import NormalGenerator, TensorField, field_norm
from .formats import (FormatError, fmt_value, format_keyvalues, manifest_lines,
                      parse_list, read_eqf, write_eqf, write_keyvalues)
from .grid import BOUNDARIES, Frozen, Grid
from .kernels import named_profile
from .learn import (default_param_radial, fit_least_squares, load_model, loss,
                    make_neural_op, save_model)
from .operators import REGISTRY, make_operator
from .sim import (DiffusionAdvectionModel, EstimationError, SimulationError,
                  StabilityError, estimate_parameters, load_trajectory,
                  save_trajectory, simulate)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_FORMAT = 2
EXIT_RULE = 3
EXIT_NUMERIC = 4


class RunReport(Frozen):
    """What one command read, set, measured and wrote, and its exit code."""

    _fields = ("command", "inputs", "parameters", "metrics", "outputs", "exit_code")

    def __init__(self, command: str, inputs: dict | None = None,
                 parameters: dict | None = None, metrics: dict | None = None,
                 outputs: list | None = None, exit_code: int = EXIT_OK):
        self._set(command=command, inputs={} if inputs is None else inputs,
                  parameters={} if parameters is None else parameters,
                  metrics={} if metrics is None else metrics,
                  outputs=[] if outputs is None else outputs, exit_code=exit_code)

    def keyvalues(self) -> dict:
        kv = {"command": self.command}
        sections = {"input": self.inputs, "param": self.parameters,
                    "metric": self.metrics, "output": dict(enumerate(self.outputs))}
        for section, entries in sections.items():
            kv.update({f"{section}.{k}": fmt_value(v) for k, v in entries.items()})
        return kv

    def text(self) -> str:
        labels = {"input": "input", "param": "parameter", "metric": "metric"}
        lines = [f"command: {self.command}"]
        for key, v in list(self.keyvalues().items())[1:]:   # after "command"
            section, _, name = key.partition(".")
            lines.append(f"  output    {v}" if section == "output"
                         else f"  {labels[section]:<9} {name} = {v}")
        return "\n".join(lines)


def _emit(report: RunReport, report_path: str | None) -> None:
    print(report.text())
    print(format_keyvalues(report.keyvalues()), end="")
    if report_path:
        write_keyvalues(report_path, report.keyvalues())


def _norm_stats(u: TensorField) -> tuple:
    norms = field_norm(u).components[0]
    idx = np.unravel_index(int(np.argmax(norms)), norms.shape)
    return float(norms[idx]), [int(i) for i in idx]


def _read_field(path, boundary: str | None) -> TensorField:
    """The field in an EQF file, moved onto ``boundary`` if one is given."""
    u, _ = read_eqf(path)
    return TensorField(u.grid.with_boundary(boundary), u.l, u.components) if boundary else u


def cmd_apply(args) -> RunReport:
    if args.boundary and args.operator not in REGISTRY:
        raise FormatError("--boundary applies to named operators only; "
                          "a model applies on the grid it was fitted on")
    if args.operator != "diffusion" and (args.D is not None or args.t is not None):
        raise FormatError("--D and --t apply to the diffusion operator only")
    u = _read_field(args.input, args.boundary)
    t0 = time.perf_counter()
    if args.operator in REGISTRY:
        params = {}
        if args.operator == "diffusion":
            if args.D is None or args.t is None:
                raise FormatError("apply diffusion requires --D and --t")
            params = {"D": args.D, "t": args.t}
        op = make_operator(args.operator, u.grid, **params)
        op_label = args.operator
    elif os.path.exists(args.operator):
        op = load_model(args.operator)
        op_label = f"model:{args.operator}"
    else:
        raise FormatError(f"unknown operator {args.operator!r}; available: "
                          f"{', '.join(sorted(REGISTRY))} (or a model manifest path)")
    v = op.apply(u, path=args.path)
    elapsed = time.perf_counter() - t0
    write_eqf(args.output, v)
    in_max, _ = _norm_stats(u)
    out_max, out_idx = _norm_stats(v)
    return RunReport(
        "apply",
        inputs={"field": args.input, "l": u.l, "shape": list(u.grid.shape)},
        parameters={"operator": op_label, "path": args.path or "auto",
                    "boundary": u.grid.boundary},
        metrics={"input_max_norm": in_max, "output_max_norm": out_max,
                 "output_max_norm_voxel": out_idx, "wall_seconds": elapsed},
        outputs=[args.output])


def _read_pair_manifest(path) -> list:
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    for line in manifest_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}: expected 'input.eqf output.eqf', got {line!r}")
        paths = [p if os.path.isabs(p) else os.path.join(base, p) for p in parts]
        pairs.append((read_eqf(paths[0])[0], read_eqf(paths[1])[0]))
    if not pairs:
        raise FormatError(f"{path}: manifest has no field pairs")
    return pairs


def _write_radial_csv(path, param, grid, reference: str | None) -> None:
    h = min(grid.spacing)
    r_max = min(n * s for n, s in zip(grid.shape, grid.spacing)) / 2.0
    radii = np.arange(0.5 * h, r_max, 0.25 * h)
    fitted = param.evaluate(radii)
    columns = ["r", "R_fitted"]
    rows = [radii, fitted]
    if reference:
        columns.append("R_reference")
        rows.append(named_profile(reference)(radii))
    with open(path, "w") as fh:
        fh.writelines(fmt_value(line) + "\n" for line in [columns, *zip(*rows)])


def cmd_fit(args) -> RunReport:
    if args.reference and not args.csv:
        raise FormatError("--reference adds a column to the --csv file; give --csv too")
    dataset = _read_pair_manifest(args.manifest)
    grid = dataset[0][0].grid
    l_u = dataset[0][0].l
    t0 = time.perf_counter()
    param = default_param_radial(grid, args.l_h, n_gaussians=args.gaussians)
    op = make_neural_op(grid, kind=args.kind, l_u=l_u, l_h=args.l_h, param=param)
    result = fit_least_squares(op, dataset, ridge=args.ridge)
    fitted = op.with_params(result.amplitudes)
    elapsed = time.perf_counter() - t0
    metrics = {"train_relative_mse": result.residual,
               "condition": result.condition,
               "flagged": int(result.flagged),
               "wall_seconds": elapsed}
    if args.test:
        test_pairs = _read_pair_manifest(args.test)
        metrics["test_relative_mse"] = loss(fitted, test_pairs)
    save_model(args.model, fitted)
    outputs = [args.model]
    if args.csv:
        _write_radial_csv(args.csv, fitted.param, grid, args.reference)
        outputs.append(args.csv)
    return RunReport(
        "fit",
        inputs={"manifest": args.manifest, "pairs": len(dataset),
                "shape": list(grid.shape), "l_u": l_u},
        parameters={"kind": args.kind, "l_h": args.l_h,
                    "gaussians": args.gaussians, "ridge": args.ridge},
        metrics=metrics,
        outputs=outputs)


def cmd_simulate(args) -> RunReport:
    u0 = _read_field(args.u0, args.boundary)
    grid = u0.grid
    source = None if args.source == "none" else _read_field(args.source, grid.boundary)
    w = [args.wx, args.wy]
    if grid.dim == 3:
        if args.wz is None:
            raise ValueError("3d simulation needs --wz")
        w.append(args.wz)
    elif args.wz is not None:
        raise ValueError("--wz given for a 2d grid")
    model = DiffusionAdvectionModel(grid, args.D, w, args.dt, source)
    t0 = time.perf_counter()
    traj = simulate(model, u0, args.steps)
    elapsed = time.perf_counter() - t0
    save_trajectory(args.outdir, traj, model)
    vol = grid.voxel_volume
    mass0 = float(np.sum(traj[0].components)) * vol
    mass1 = float(np.sum(traj[-1].components)) * vol
    injected = float(np.sum(model.source.components)) * vol * model.dt * args.steps
    drift = abs(mass1 - mass0 - injected) / max(abs(mass0), abs(mass1), 1e-300)
    return RunReport(
        "simulate",
        inputs={"u0": args.u0, "source": args.source, "shape": list(grid.shape)},
        parameters={"D": args.D, "w": w, "dt": args.dt, "steps": args.steps,
                    "boundary": grid.boundary},
        metrics={"initial_mass": mass0, "final_mass": mass1,
                 "injected_mass": injected, "mass_drift_relative": drift,
                 "wall_seconds": elapsed},
        outputs=[args.outdir])


def cmd_estimate(args) -> RunReport:
    frames, model = load_trajectory(args.trajdir)
    t0 = time.perf_counter()
    result = estimate_parameters(frames, model.dt, model.source,
                                 smooth_sigma=args.smooth)
    elapsed = time.perf_counter() - t0
    metrics = {"D_hat": result.D, "w_hat": list(result.w),
               "residual_relative_mse": result.residual, "condition": result.condition,
               "wall_seconds": elapsed, "D_true": model.D, "w_true": list(model.w)}
    if model.D != 0:
        metrics["D_relative_error"] = abs(result.D - model.D) / abs(model.D)
    wnorm = float(np.linalg.norm(model.w))
    if wnorm > 0:
        metrics["w_relative_error"] = float(np.linalg.norm(result.w - model.w)) / wnorm
    return RunReport(
        "estimate",
        inputs={"trajectory": args.trajdir, "frames": len(frames), "dt": model.dt},
        parameters={"smooth": args.smooth},
        metrics=metrics)


def cmd_check(args) -> RunReport:
    if args.input and args.random:
        raise FormatError("check takes an input file or --random SHAPE, not both")
    if args.input and args.l is not None:
        raise FormatError("--l sets the order of a --random field; an input file has its own")
    rng = NormalGenerator(args.seed)
    if args.input:
        u = _read_field(args.input, args.boundary)
        source = args.input
    elif args.random:
        shape = parse_list(args.random, int)
        grid = Grid.centered(shape, 1.0, boundary=args.boundary or "zero")
        l = args.l or 0
        u = TensorField.random(grid, l, rng)
        source = f"random shape={args.random} l={l} seed={args.seed}"
    else:
        raise FormatError("check needs an input file or --random SHAPE")
    results = run_checks(u, rng, corrupt=args.corrupt)
    for r in results:
        print(r.line())
    metrics = {r.name.replace(" ", "_").replace("(", "").replace(")", ""): r.deviation
               for r in results}
    metrics["checks_passed"] = sum(r.passed for r in results)
    metrics["checks_total"] = len(results)
    return RunReport(
        "check",
        inputs={"field": source, "l": u.l, "shape": list(u.grid.shape)},
        parameters={"corrupt": int(args.corrupt), "boundary": u.grid.boundary},
        metrics=metrics,
        exit_code=EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqfield",
        description="Rotation-equivariant tensor-field operators on regular grids.")
    p.add_argument("--seed", type=int, default=0, help="seed for generated fields")
    sub = p.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", help="write the key=value report here")
    bounded = argparse.ArgumentParser(add_help=False, parents=[report])
    bounded.add_argument("--boundary", choices=BOUNDARIES,
                         help="move the input field onto this boundary")

    a = sub.add_parser("apply", parents=[bounded], help="apply a named operator or fitted model")
    a.add_argument("operator", help="registry name or model manifest path")
    a.add_argument("input", help="input EQF field")
    a.add_argument("output", help="output EQF field")
    a.add_argument("--path", choices=(DIRECT, FOURIER))
    a.add_argument("--D", type=float, help="diffusivity (diffusion operator)")
    a.add_argument("--t", type=float, help="time (diffusion operator)")
    a.set_defaults(func=cmd_apply)

    f = sub.add_parser("fit", parents=[report], help="fit a neural operator to field pairs")
    f.add_argument("manifest", help="text file: one 'input.eqf target.eqf' per line")
    f.add_argument("--model", required=True, help="output model manifest")
    f.add_argument("--kind", default="scalar",
                   choices=("scalar", "dot", "cross", "matvec"))
    f.add_argument("--l-h", dest="l_h", type=int, default=0, help="kernel order")
    f.add_argument("--gaussians", type=int, default=8, help="Gaussian basis size")
    f.add_argument("--ridge", type=float, default=1e-10)
    f.add_argument("--test", help="held-out pair manifest for test error")
    f.add_argument("--csv", help="write fitted R(r) samples here")
    f.add_argument("--reference", choices=("inverse_r", "inverse_r2", "log_r"),
                   help="analytic reference column for the CSV")
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("simulate", parents=[bounded], help="explicit-Euler diffusion-advection run")
    s.add_argument("source", help="source EQF field, or 'none'")
    s.add_argument("u0", help="initial state EQF field")
    s.add_argument("outdir", help="trajectory output directory")
    s.add_argument("--D", type=float, required=True)
    s.add_argument("--wx", type=float, required=True)
    s.add_argument("--wy", type=float, required=True)
    s.add_argument("--wz", type=float, default=None)
    s.add_argument("--dt", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("estimate", parents=[report], help="recover D and w from a trajectory")
    e.add_argument("trajdir", help="directory written by simulate")
    e.add_argument("--smooth", type=float, default=0.0,
                   help="Gaussian prefilter width for noisy frames (length units)")
    e.set_defaults(func=cmd_estimate)

    c = sub.add_parser("check", parents=[bounded],
                       help="equivariance/linearity/calculus property suite")
    c.add_argument("input", nargs="?", help="EQF field to check")
    c.add_argument("--random", help="generate a field: comma-separated shape, e.g. 9,9,9")
    c.add_argument("--l", type=int, help="order of the generated field (default 0)")
    c.add_argument("--corrupt", action="store_true",
                   help="negative control: breaks kernel symmetry on purpose")
    c.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):   # a non-finite value is refused where its field is built
            report = args.func(args)
        _emit(report, args.report)   # so an unwritable --report path exits 2
        return report.exit_code
    except (OSError, SimulationError, ValueError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (OSError, FormatError)):
            return EXIT_FORMAT
        if isinstance(exc, (StabilityError, SimulationError, EstimationError)):
            return EXIT_NUMERIC
        # RuleError, FieldError, GridError, KernelError, other ValueErrors, MemoryError,
        # and, as a guard, arithmetic beyond float64's range that no command refuses first
        return EXIT_RULE


def entry(argv=None) -> int:
    """Run one command as a whole process: freeze, then ``main(argv)``.

    ``gc.freeze()`` moves every object that the imports of numpy and eqfield
    created into the collector's permanent generation, so neither a
    collection during the command nor the one at interpreter exit walks
    them again.  ``main`` never freezes: a caller in a long-lived process
    keeps its collector as it was.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(entry())
