"""The benchmark's workloads: seeded inputs, set-up, one operation and its checks.

Every input is drawn from the seed; the library receives only the generated
arrays and callables.  Each operation returns the failures of its checks
against the verdicts pinned here.  ``sweep`` calls, once per traced run,
every layer that an operation bypasses, on the workload's own system, so each
traced run reports every layer.  LAYERS.md says why each workload exists and
which metrics a change to each layer should move.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

import phs_kit as pk
from phs_kit.fileio import parse_system_dict

DT = 1e-3
# Pinned verdict tolerances.  The energy and pointwise ones are the CLI's
# defaults (`check --tol`, `--strong-tol`); the weak tolerance is set per
# workload above its measured residual, which is O(dt^2) for smooth data and
# larger next to a kink or a steep string profile.
ENERGY_TOL = 1e-6
STRONG_TOL = 2e-2
CLI_TIMEOUT_S = 150


@dataclass
class OpResult:
    """What one operation did: time steps, seconds inside simulate, failed checks.

    ``extra_s`` is the time of the traced-only 1-step simulate, which the
    trace-overhead figure leaves out.
    """

    steps: int
    sim_s: float
    failures: list
    extra_s: float = 0.0


@dataclass
class Case:
    """A system with its start, inputs and time grid, for the library and the CLI."""

    example: str
    params: dict  # make_example keywords; each is also the `example` flag --<key>
    sys: object
    x0: np.ndarray
    signals: dict
    scheme: str
    steps: int

    @property
    def cfg(self):
        return pk.SchemeConfig(scheme=self.scheme, dt=DT)

    @property
    def t_end(self):
        return self.steps * DT


class CallCounter:
    """Calls into a Hamiltonian's value and gradient."""

    def __init__(self):
        self.value = 0
        self.grad = 0


def counted(system, counter):
    """The same system with a Hamiltonian whose calls go through ``counter``.

    A general Hamiltonian is rebuilt through its public constructor around
    wrapped callables; a quadratic one becomes a subclass instance, so the
    library keeps its vectorized quadratic paths.
    """
    ham = system.ham
    if isinstance(ham, pk.GeneralHamiltonian):
        def value_fn(x):
            counter.value += 1
            return ham.value_fn(x)

        def gradient_fn(x):
            counter.grad += 1
            return ham.gradient_fn(x)

        wrapped = pk.GeneralHamiltonian(value_fn=value_fn, gradient_fn=gradient_fn,
                                        dim=ham.dim, domain=ham.domain)
    else:
        class CountedQuadratic(pk.QuadraticHamiltonian):
            def value(self, x):
                counter.value += 1
                return super().value(x)

            def gradient(self, x):
                counter.grad += 1
                return super().gradient(x)

        wrapped = CountedQuadratic(H=ham.H, b=ham.b, c=ham.c)
    return replace(system, ham=wrapped)


def simulate(case, tr, traced):
    """Integrate the case; a traced call first times a 1-step run and counts calls."""
    system, extra = case.sys, 0.0
    if traced:
        counter = CallCounter()
        system = counted(case.sys, counter)
        t0 = time.perf_counter()
        with tr.span("integrate.first_step"):
            pk.simulate(system, case.x0, case.signals, (0.0, DT), case.cfg)
        extra = time.perf_counter() - t0
        counter.value = counter.grad = 0
    t0 = time.perf_counter()
    with tr.span("integrate.simulate"):
        traj = pk.simulate(system, case.x0, case.signals, (0.0, case.t_end), case.cfg)
    sim_s = time.perf_counter() - t0
    if traced:
        tr.value("integrate.step_s", (sim_s - extra) / max(case.steps - 1, 1))
        tr.value("integrate.jacobian_rebuilds", traj.metadata["jacobian_rebuilds"])
        tr.value("integrate.residual_to_tol",
                 traj.metadata["max_step_residual"] / traj.metadata["newton_tol"])
        tr.value("energy.grad_calls_per_step", counter.grad / case.steps)
        tr.value("energy.value_calls_per_step", counter.value / case.steps)
    return traj, sim_s, extra


def audit(system, traj, tr, pointwise):
    """Weak and energy audits, and the pointwise one when asked; normalized certificates."""
    with tr.span("verify.weak"):
        weak = pk.weak_residual(system, traj).max_residual
    with tr.span("verify.energy"):
        gap = pk.energy_report(system, traj).max_abs_gap / (1.0 + traj.channel_magnitude())
    tr.value("verify.weak_max", weak)
    tr.value("verify.energy_gap_max", gap)
    cert = {"weak": weak, "gap": gap}
    if pointwise:
        with tr.span("verify.strong"):
            cert["strong"] = pk.strong_trajectory_audit(system, traj)
        tr.value("verify.strong_max_normalized", cert["strong"].max_normalized)
    return cert


def mollify_and_audit(system, traj, tr):
    """Mollify with a bump of half-width 1/32 (an eighth of a short horizon), then audit pointwise."""
    horizon = traj.t[-1] - traj.t[0]
    cfg = pk.MollifierConfig(n_smooth=max(32, math.ceil(8.0 / horizon)), quad_points=4)
    with tr.span("verify.mollify"):
        smooth = pk.mollify(traj, cfg)
    with tr.span("verify.strong_mollified"):
        return smooth, pk.strong_trajectory_audit(system, smooth)


def verdict_failures(cert, weak_tol):
    """Failures against the pinned verdicts: weak, energy and pointwise audits pass."""
    failures = []
    if not cert["weak"] <= weak_tol:
        failures.append(f"weak residual {cert['weak']:.3e} above {weak_tol:.0e}")
    if not cert["gap"] <= ENERGY_TOL:
        failures.append(f"energy gap {cert['gap']:.3e} above {ENERGY_TOL:.0e}")
    if "strong" in cert and not cert["strong"].max_normalized <= STRONG_TOL:
        failures.append(f"pointwise audit {cert['strong'].max_normalized:.3e} above {STRONG_TOL}")
    return failures


def run_cli(args, work):
    """Run one CLI command to completion; returns its exit code."""
    done = subprocess.run(
        [sys.executable, "-m", "phs_kit.cli", *map(str, args)],
        cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CLI_TIMEOUT_S, check=False,
    )
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
    return done.returncode


def write_input_tables(case, work):
    """Zero-order-hold CSV tables that reproduce each signal's midpoint samples."""
    flags = []
    for channel, signal in sorted(case.signals.items()):
        path = work / f"input_{channel}.csv"
        rows = (f"{k * DT!r},{float(signal((k + 0.5) * DT))!r}" for k in range(case.steps + 1))
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        flags += ["--input", f"{channel}=csv:{path.name}"]
    return flags


def cli_pipeline(case, work, tr):
    """--help, then example -> validate -> simulate -> check, as subprocesses; the exit codes."""
    input_flags = write_input_tables(case, work)
    example_flags = [item for key, value in case.params.items() for item in (f"--{key}", value)]
    x0 = ",".join(repr(float(v)) for v in case.x0)
    commands = (
        ("cli.startup", ["--help"]),
        ("cli.example", ["example", case.example, *example_flags, "--out", "sys.json"]),
        ("cli.validate", ["validate", "sys.json"]),
        ("cli.simulate", ["simulate", "sys.json", "--x0", x0, "--t1", repr(case.t_end),
                          "--dt", repr(DT), "--scheme", case.scheme, *input_flags,
                          "--out", "traj.csv"]),
        ("cli.check", ["check", "sys.json", "traj.csv", "--mode", "all"]),
    )
    codes = []
    for name, args in commands:
        with tr.span(name):
            codes.append(run_cli(args, work))
    return codes


def sweep(case, work, tr):
    """Call every layer once on the case; returns the failures of calls that must succeed."""
    with tr.span("discretize.build"):
        system, _ = pk.make_example(case.example, **case.params)
    with tr.span("system.assemble"):
        pk.assemble(system.dirac, system.ham, system.res, system.causality)
    with tr.span("dirac.validate"):
        pk.validate_kernel(system.dirac)
    path = work / "sweep_system.json"
    with tr.span("fileio.json"):
        pk.save_system(system, path)
        with open(path, encoding="utf-8") as fh:
            parse_system_dict(json.load(fh))
    traj, _, _ = simulate(case, tr, traced=True)
    audit(case.sys, traj, tr, pointwise=True)
    mollify_and_audit(case.sys, traj, tr)
    csv_path = work / "sweep_traj.csv"
    with tr.span("fileio.csv_write"):
        pk.save_trajectory(traj, csv_path)
    with tr.span("fileio.csv_read"):
        pk.load_trajectory(csv_path)
    tr.value("fileio.csv_bytes", 2 * csv_path.stat().st_size)
    codes = cli_pipeline(case, work, tr)
    # check may fail an audit (exit 1); anything else is a broken pipeline
    if codes[:4] != [0, 0, 0, 0] or codes[4] not in (0, 1):
        return [f"sweep: CLI exit codes {codes}"]
    return []


class Workload:
    """Base: seeded generator and the cycle of operation kinds.

    The seed draws phases, positions and signs, never magnitudes: the
    amplitudes set how many Newton iterations a step takes, so seeding them
    would make the work of an operation depend on the seed.
    """

    cycle = 1  # kinds of operation, run in turn

    def __init__(self, seed, work):
        self.rng = np.random.default_rng([seed, NAMES.index(self.name)])
        self.work = work

    def sweep(self, tr):
        return sweep(self.sweep_case(), self.work, tr)


def bump(rng, n_cells, amp, width):
    """Strain amp*exp(-((s-c)/width)^2) on the cell midpoints of [0, 1] at a seeded c; zero momenta."""
    cells = (np.arange(n_cells) + 0.5) / n_cells
    center = rng.uniform(0.35, 0.65)
    strain = amp * np.exp(-(((cells - center) / width) ** 2))
    return np.concatenate([np.zeros(n_cells + 1), strain])


def on_circle(rng, radius):
    angle = rng.uniform(0.0, 2 * math.pi)
    return radius * np.array([math.cos(angle), math.sin(angle)])


class OscStepping(Workload):
    """Damped oscillator (implicit midpoint) and sin-forced oscillator (discrete gradient), in turn."""

    name = "osc_stepping"
    cycle = 2

    def __init__(self, seed, smoke, work):
        super().__init__(seed, work)
        rng = self.rng
        self.x0 = (on_circle(rng, 1.0), on_circle(rng, 1.0))
        phase = rng.uniform(0.0, 2 * math.pi)
        # The force stays below a third of the free motion, which keeps the
        # state away from the force's moving equilibrium, where the discrete
        # gradient hits its roundoff floor (see probe_discrete_gradient).
        self.force = lambda t: 0.3 * math.sin(2.0 * t + phase)
        # A damped step costs about a third of a forced one; three times the
        # steps make both kinds of operation take about as long, so the
        # median does not sit between two clusters of operation times.
        scale = 50 if smoke else 1
        self.steps = (30000 // scale, 10000 // scale)
        self.warmup_steps = 1000 // scale

    def setup(self, tr):
        with tr.span("discretize.build"):
            damped = pk.damped_oscillator()
            forced = pk.forced_oscillator()
        self.cases = (
            Case("damped_oscillator", {}, damped, self.x0[0], {}, "implicit_midpoint", self.steps[0]),
            Case("forced_oscillator", {}, forced, self.x0[1], {0: self.force},
                 "discrete_gradient", self.steps[1]),
        )
        # Building two 3-bond systems takes a fraction of a millisecond, too
        # little to time steadily; a short run of each pays the first-call
        # costs before timing and gives set-up a measurable size.
        for case in self.cases:
            pk.simulate(case.sys, case.x0, case.signals, (0.0, self.warmup_steps * DT), case.cfg)

    def op(self, i, tr, traced):
        case = self.cases[i % 2]
        traj, sim_s, extra = simulate(case, tr, traced)
        cert = audit(case.sys, traj, tr, pointwise=False)
        return OpResult(case.steps, sim_s, verdict_failures(cert, weak_tol=1e-6), extra)

    def sweep_case(self):
        return self.cases[1]


class StringNonlinear(Workload):
    """tanh string at N = 512 from a seeded strain bump, right end shaken, implicit midpoint."""

    name = "string_nonlinear"

    def __init__(self, seed, smoke, work):
        super().__init__(seed, work)
        self.n_cells = 16 if smoke else 512
        self.steps = 20 if smoke else 300
        self.x0 = bump(self.rng, self.n_cells, amp=0.4, width=0.1)
        # 1 - cos starts at zero velocity with zero slope, so no kink travels
        # in from the shaken end.
        self.shake = lambda t: 0.2 * (1.0 - math.cos(2.0 * t))

    def setup(self, tr):
        params = {"N": self.n_cells, "force": "tanh"}
        with tr.span("discretize.build"):
            system, _ = pk.make_example("string", **params)
        self.case = Case("string", params, system, self.x0, {1: self.shake}, "implicit_midpoint",
                         self.steps)

    def op(self, i, tr, traced):
        traj, sim_s, extra = simulate(self.case, tr, traced)
        cert = audit(self.case.sys, traj, tr, pointwise=True)
        return OpResult(self.steps, sim_s, verdict_failures(cert, weak_tol=1e-3), extra)

    def sweep_case(self):
        return self.case


class CertifyLarge(Workload):
    """Read, audit, mollify and write a stored closed-form trajectory of 2e4 steps.

    The forced oscillator q' = p, p' = -q + u under a step force u that
    switches on at a seeded grid node, sampled exactly: states at the nodes,
    the force and the velocity at the interval midpoints.  The kink at the
    switch makes the raw pointwise audit fail there; the mollified data pass.
    """

    name = "certify_large"

    def __init__(self, seed, smoke, work):
        super().__init__(seed, work)
        rng = self.rng
        # 2e4 steps keep an operation near 2 s, so a 30 s run holds a dozen
        # or more; at 1e5 steps a 20 s run held two or three and its median
        # moved by more than a quarter between seeds on a 2-vCPU box.
        self.steps = 2000 if smoke else 20_000
        self.x0 = on_circle(rng, 1.0)
        self.force = float(rng.choice([-1.0, 1.0]))
        self.t_switch = int(rng.integers(self.steps // 5, 4 * self.steps // 5)) * DT
        self.path = work / "stored.csv"
        self.out_path = work / "mollified.csv"

    def exact(self, t):
        q0, p0 = self.x0
        q = q0 * np.cos(t) + p0 * np.sin(t)
        p = -q0 * np.sin(t) + p0 * np.cos(t)
        ts = self.t_switch
        qs = q0 * np.cos(ts) + p0 * np.sin(ts)
        ps = -q0 * np.sin(ts) + p0 * np.cos(ts)
        tau = t - ts
        after = t >= ts
        q = np.where(after, self.force + (qs - self.force) * np.cos(tau) + ps * np.sin(tau), q)
        p = np.where(after, -(qs - self.force) * np.sin(tau) + ps * np.cos(tau), p)
        return q, p

    def setup(self, tr):
        with tr.span("discretize.build"):
            self.sys = pk.forced_oscillator()
        t = DT * np.arange(self.steps + 1)
        mid = DT * (np.arange(self.steps) + 0.5)
        _, p_mid = self.exact(mid)
        self.traj = pk.Trajectory(
            t=t, x=np.column_stack(self.exact(t)), f_r=np.zeros((self.steps, 0)),
            e_r=np.zeros((self.steps, 0)), f_p=np.where(mid >= self.t_switch, self.force, 0.0),
            e_p=p_mid,
        )
        pk.save_trajectory(self.traj, self.path)

    def op(self, i, tr, traced):
        with tr.span("fileio.csv_read"):
            traj = pk.load_trajectory(self.path)
        failures = [f"CSV read-back differs in {name}" for name in ("t", "x", "f_r", "e_r", "f_p", "e_p")
                    if not np.array_equal(getattr(traj, name), getattr(self.traj, name))]
        cert = audit(self.sys, traj, tr, pointwise=True)
        raw = cert.pop("strong")
        failures += verdict_failures(cert, weak_tol=1e-3)
        if not raw.max_normalized > STRONG_TOL:
            failures.append(f"raw pointwise audit passed ({raw.max_normalized:.3e}) across the switch")
        if not abs(raw.argmax_time - self.t_switch) <= DT * (1 + 1e-9):
            failures.append(f"pointwise argmax at t = {raw.argmax_time}, switch at {self.t_switch}")
        smooth, mollified = mollify_and_audit(self.sys, traj, tr)
        if not mollified.max_normalized <= STRONG_TOL:
            failures.append(f"mollified pointwise audit {mollified.max_normalized:.3e} above {STRONG_TOL}")
        with tr.span("fileio.csv_write"):
            pk.save_trajectory(smooth, self.out_path)
        tr.value("fileio.csv_bytes", self.path.stat().st_size + self.out_path.stat().st_size)
        return OpResult(self.steps, None, failures)

    def sweep_case(self):
        signal = {0: lambda t: self.force if t >= self.t_switch else 0.0}
        return Case("forced_oscillator", {}, self.sys, self.x0, signal, "implicit_midpoint",
                    min(self.steps, 2000))


def probe_discrete_gradient(tr):
    """Two fixed discrete-gradient runs that today stop at the roundoff floor.

    The shaken tanh string of demos/04 at N = 512 records whether simulate
    raised NewtonError and at which step (the step count when it completed).
    The forced oscillator passing near the force's moving equilibrium records
    whether it raised.
    """
    system, _ = pk.make_example("string", N=512, force="tanh")
    cells = (np.arange(512) + 0.5) / 512
    x0 = np.concatenate([np.zeros(513), 0.3 * np.sin(np.pi * cells)])
    shake = {1: lambda t: 0.3 * np.sin(2.0 * t)}
    steps = 300
    cfg = pk.SchemeConfig("discrete_gradient", DT)
    try:
        pk.simulate(system, x0, shake, (0.0, steps * DT), cfg)
        failed, step = 0, steps
    except pk.NewtonError as exc:
        failed, step = 1, exc.step
    tr.value("integrate.dg_probe_failed", failed)
    tr.value("integrate.dg_probe_step", step)
    force = {0: lambda t: 0.88 * math.sin(2.5 * t + 1.1)}
    try:
        pk.simulate(pk.forced_oscillator(), [-0.84, 0.21], force, (0.0, 10.0), cfg)
        failed = 0
    except pk.NewtonError:
        failed = 1
    tr.value("integrate.dg_osc_probe_failed", failed)


def probe_inconsistent_start(tr):
    """Two states with the constraint e_2 = 0, started off it at x0 = (1, 0.7).

    Records the weak residual and the raw energy gap of what simulate
    returns; both read 0 if simulate refuses the start.
    """
    dirac = pk.DiracKernelRep(F=[[1.0, 0.0], [0.0, 0.0]], G=[[0.0, 0.0], [0.0, 1.0]], n_s=2)
    system = pk.assemble(dirac, pk.QuadraticHamiltonian(H=np.eye(2)), None, ())
    try:
        traj = pk.simulate(system, [1.0, 0.7], None, (0.0, 1.0), pk.SchemeConfig(dt=1e-2))
        weak = pk.weak_residual(system, traj).max_residual
        gap = pk.energy_report(system, traj).max_abs_gap
    except (pk.NewtonError, pk.StructureError):
        weak = gap = 0.0
    tr.value("verify.inconsistent_start_weak", weak)
    tr.value("verify.inconsistent_start_energy_gap", gap)


WORKLOADS = {w.name: w for w in (OscStepping, StringNonlinear, CertifyLarge)}
NAMES = list(WORKLOADS)
