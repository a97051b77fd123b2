"""Command-line front end: validate, simulate, certify, emit examples.

Exit codes: 0 pass, 1 check/validation failure, 2 usage or parse error,
3 solver (Newton) failure.  Output is deterministic for fixed inputs.
"""

import json
import re
import sys as _sys
import warnings

import click
import numpy as np

from .catalog import EXAMPLE_NAMES, make_example
from .errors import NewtonError, StructureError
from .fileio import (
    FileFormatError,
    load_trajectory,
    parse_system_dict,
    save_trajectory,
    system_to_dict,
    trajectory_csv_blocks,
)
from .integrate import SchemeConfig, simulate
from .system import PortSignal, assemble, validate_components
from .verify import energy_report, strong_trajectory_audit, weak_residual

_STEP_RE = re.compile(r"^step\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)$")

# check's certificate blocks, in the order they run:
# block -> (audit, the as_dict figure it gates, the option bounding that figure)
_BLOCKS = {
    "weak": (weak_residual, "max_residual", "tol"),
    "strong": (strong_trajectory_audit, "max_normalized", "strong_tol"),
    "energy": (energy_report, "max_abs_gap_normalized", "tol"),
}


def _echo_json(doc):
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise FileFormatError(f"invalid JSON in {path}: {exc}") from exc


def _load_system(path, tol=1e-10, report=False):
    """Parse and validate a system file; exit 2 on a parse error, 1 on a failed validation.

    ``tol`` gates the Dirac check and, floored at 1e-12, the passivity check.
    Returns the assembled system; with ``report`` it prints the validation
    report instead and exits 0 when every check passed.
    """
    try:
        parts = parse_system_dict(_load_doc(path))
    except FileFormatError as exc:
        click.echo(f"parse error: {exc}", err=True)
        _sys.exit(2)
    components = (parts["dirac"], parts["ham"], parts["res"], parts["causality"])
    tols = {"dirac_tol": tol, "resistive_tol": max(tol, 1e-12)}
    if report:
        doc, problems = validate_components(*components, **tols)
        _echo_json(doc)
        _sys.exit(1 if problems else 0)
    try:
        return assemble(*components, **tols)
    except StructureError as exc:
        click.echo(f"validation error: {exc}", err=True)
        _sys.exit(1)


def _parse_signal(expr):
    """Input expression: a float constant, step(t0,v), or csv:<path>."""
    expr = expr.strip()
    match = _STEP_RE.match(expr)
    if match:
        t0, v = float(match.group(1)), float(match.group(2))
        return lambda t: v if t >= t0 else 0.0
    if expr.startswith("csv:") or expr.endswith(".csv"):
        path = expr[4:] if expr.startswith("csv:") else expr
        with warnings.catch_warnings():
            # an empty table is refused by the shape check below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        if table.shape[0] < 1 or table.shape[1] != 2:
            raise ValueError(f"{path} must hold at least one row of two columns "
                             f"(time, value), got shape {table.shape}")
        times, values = table.T
        order = np.argsort(times)
        times, values = times[order], values[order]

        def hold(t):
            idx = int(np.searchsorted(times, t, side="right")) - 1
            return float(values[max(idx, 0)])

        return hold
    return float(expr)


def _positive(ctx, param, value):
    """Click callback: a tolerance or a step must be finite and positive."""
    if not (np.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be finite and positive, got {value}")
    return value


def _parse_x0(text, n_s):
    if text is None:
        return np.zeros(n_s)
    try:
        values = [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    except ValueError as exc:
        raise click.UsageError(f"--x0 needs comma-separated numbers: {exc}") from exc
    if len(values) != n_s:
        raise click.UsageError(f"--x0 needs {n_s} comma-separated values, got {len(values)}")
    return np.array(values)


@click.group()
def main():
    """Port-Hamiltonian DAE toolkit: model, simulate, certify."""


@main.command("validate")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", default=1e-10, show_default=True, callback=_positive,
              help="Skew-defect tolerance.")
def cmd_validate(system_file, tol):
    """Validate a system file; exit 0 iff all structure checks pass."""
    _load_system(system_file, tol, report=True)


@main.command("simulate")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x0", default=None, help="Comma-separated initial state (default zeros).")
@click.option("--t0", default=0.0, show_default=True)
@click.option("--t1", default=1.0, show_default=True)
@click.option("--dt", default=1e-3, show_default=True, callback=_positive)
@click.option("--scheme", type=click.Choice(["implicit_midpoint", "discrete_gradient"]),
              default="implicit_midpoint", show_default=True)
@click.option("--newton-tol", default=1e-12, show_default=True)
@click.option("--input", "inputs", multiple=True, metavar="CH=EXPR",
              help="Prescribed input for port channel CH: float, step(t0,v), or csv:<path>.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the trajectory CSV here instead of stdout.")
def cmd_simulate(system_file, x0, t0, t1, dt, scheme, newton_tol, inputs, out):
    """Integrate a system and emit the trajectory CSV."""
    if t1 <= t0:
        raise click.UsageError("--t1 must exceed --t0")
    sys_obj = _load_system(system_file)
    signals = {}
    for item in inputs:
        if "=" not in item:
            raise click.UsageError(f"--input must look like CH=EXPR, got {item!r}")
        channel, expr = item.split("=", 1)
        try:
            signals[int(channel)] = _parse_signal(expr)
        except (ValueError, OSError) as exc:
            raise click.UsageError(f"bad input expression {expr!r}: {exc}") from exc
    try:
        x0_vec = _parse_x0(x0, sys_obj.n_s)
        traj = simulate(
            sys_obj, x0_vec, PortSignal(signals), (t0, t1),
            SchemeConfig(scheme=scheme, dt=dt, newton_tol=newton_tol),
        )
    except NewtonError as exc:
        click.echo(f"solver failure: {exc}", err=True)
        _sys.exit(3)
    except StructureError as exc:
        click.echo(f"error: {exc}", err=True)
        _sys.exit(2)
    if out:
        save_trajectory(traj, out)
    else:
        for block in trajectory_csv_blocks(traj):
            click.echo(block, nl=False)


@main.command("check")
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("trajectory_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice([*_BLOCKS, "all"]), default="all", show_default=True)
@click.option("--tol", default=1e-6, show_default=True, callback=_positive,
              help="Normalized tolerance for the weak residual and the energy gap.")
@click.option("--strong-tol", default=2e-2, show_default=True, callback=_positive,
              help="Normalized tolerance for the pointwise (classical) audit; "
                   "piecewise-constant channel data sits at O(dt), kinks at O(jump).")
def cmd_check(system_file, trajectory_file, mode, **bounds):
    """Certify a trajectory against a system; exit 0 iff all requested checks pass."""
    sys_obj = _load_system(system_file)
    try:
        traj = load_trajectory(trajectory_file)
    except FileFormatError as exc:
        click.echo(f"parse error: {exc}", err=True)
        _sys.exit(2)
    for name in ("x", "f_r", "e_r", "f_p", "e_p"):
        if not np.isfinite(getattr(traj, name)).all():  # the audits would print NaN, not JSON
            click.echo(f"error: trajectory {name} holds a sample that is not finite", err=True)
            _sys.exit(2)
    report = {"mode": mode, **bounds, "passed": True}
    for block, (audit, figure, bound) in _BLOCKS.items():
        if mode not in (block, "all"):
            continue
        try:
            doc = audit(sys_obj, traj).as_dict()
        except StructureError as exc:  # widths that differ from the system's, or too few steps
            click.echo(f"error: {exc}", err=True)
            _sys.exit(2)
        doc["passed"] = doc[figure] <= bounds[bound]
        report[block] = doc
        report["passed"] &= doc["passed"]
    _echo_json(report)
    _sys.exit(0 if report["passed"] else 1)


@main.command("example")
@click.argument("name", type=click.Choice(list(EXAMPLE_NAMES)))
@click.option("--n", "--N", "n_cells", default=8, show_default=True,
              help="Cell count for string/diffusion.")
@click.option("--force", default="linear", show_default=True,
              help="Restoring-force kind for the string: linear or tanh.")
@click.option("--scale", default=1.0, show_default=True, help="Force scale for the string.")
@click.option("--damping", default=1.0, show_default=True, help="Damped-oscillator coefficient.")
@click.option("--a-coeff", default=1.0, show_default=True, help="Diffusion coefficient.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_example(name, n_cells, force, scale, damping, a_coeff, out):
    """Emit a built-in example as a system file (stdout or --out)."""
    try:
        sys_obj, info = make_example(
            name, N=n_cells, force=force, scale=scale, damping=damping, a_coeff=a_coeff,
        )
    except StructureError as exc:
        click.echo(f"error: {exc}", err=True)
        _sys.exit(2)
    doc = system_to_dict(sys_obj, metadata={"example": name, **info})
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
