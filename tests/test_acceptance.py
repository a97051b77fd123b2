"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import time

import numpy as np
import scipy.linalg
from click.testing import CliRunner

import phs_kit as pk
from phs_kit._linalg import dense
from phs_kit.cli import main as cli_main

from conftest import random_dirac


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_generator_dirac_validity():
    start = time.perf_counter()
    worst_skew = 0.0
    rank_ok = True
    for n in (2, 8, 32, 128):
        sys_, _ = pk.string_system(pk.StringSpec(N=n))
        rep = pk.validate_kernel(sys_.dirac, tol=1e-12)
        worst_skew = max(worst_skew, rep.skew_defect)
        rank_ok &= rep.rank == sys_.n
    for n in (3, 16, 64, 256):
        sys_, _ = pk.diffusion_system(pk.DiffusionSpec(N=n))
        rep = pk.validate_kernel(sys_.dirac, tol=1e-12)
        worst_skew = max(worst_skew, rep.skew_defect)
        rank_ok &= rep.rank == sys_.n
    elapsed = time.perf_counter() - start
    ok = worst_skew <= 1e-12 and rank_ok and elapsed < 5.0
    report(1, ok, f"max skew defect {worst_skew:.2e}, exact rank {rank_ok}, {elapsed:.2f}s")


def test_criterion_02_self_orthogonality():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        rep = random_dirac(rng, n)
        assert pk.validate_kernel(rep).passed
        basis = scipy.linalg.null_space(np.hstack([rep.F, rep.G]))
        fs, es = basis[:n], basis[n:]
        gram = fs.T @ es + es.T @ fs  # pairing of all basis pairs at once
        worst = max(worst, float(np.max(np.abs(gram))))
    ok = worst <= 1e-10
    report(2, ok, f"100 random structures (n<=40), max |pairing| {worst:.2e}")


def test_criterion_03_energy_balance():
    start = time.perf_counter()
    cfg = pk.SchemeConfig(scheme="discrete_gradient", dt=1e-3)

    damped = pk.damped_oscillator(1.0)
    traj = pk.simulate(damped, [1.0, 0.0], None, (0.0, 10.0), cfg)
    gap_osc = abs(pk.energy_report(damped, traj).cumulative_gap)
    steps_ok = traj.steps == 10_000

    spec = pk.StringSpec(N=32, force=lambda xi, eps: np.tanh(eps))
    sys_, grid = pk.string_system(spec)
    x0 = np.concatenate([np.zeros(33), 0.3 * np.sin(np.pi * grid["cells"])])
    traj = pk.simulate(sys_, x0, None, (0.0, 10.0), cfg)
    gap_string = abs(pk.energy_report(sys_, traj).cumulative_gap)
    steps_ok &= traj.steps == 10_000

    elapsed = time.perf_counter() - start
    ok = gap_osc <= 1e-8 and gap_string <= 1e-8 and steps_ok and elapsed < 30.0
    report(3, ok, f"cumulative |gap|: oscillator {gap_osc:.2e}, string {gap_string:.2e}, "
                  f"{elapsed:.2f}s")


def test_criterion_04_energy_inequality_diffusion():
    sys_, _ = pk.diffusion_system(pk.DiffusionSpec(N=64))
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(64)
    traj = pk.simulate(sys_, x0, None, (0.0, 1.0), pk.SchemeConfig(dt=1e-4))
    er = pk.energy_report(sys_, traj)
    monotone = bool(np.all(er.dH <= 0.0))
    dissipative = bool(np.all(er.dissipated <= 0.0))
    supplied_zero = er.cumulative_supplied == 0.0
    ok = monotone and dissipative and supplied_zero and traj.steps == 10_000
    report(4, ok, f"10^4 steps: H non-increasing {monotone}, dissipated <= 0 {dissipative}, "
                  f"worst dH {er.dH.max():.2e}")


def test_criterion_05_weak_classical_consistency():
    sys_ = pk.oscillator()
    maxima = []
    for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        traj = pk.simulate(sys_, [1.0, 0.0], None, (0.0, 2 * np.pi), pk.SchemeConfig(dt=dt))
        maxima.append(pk.weak_residual(sys_, traj).max_residual)
    ratios = [maxima[i] / maxima[i + 1] for i in range(3)]
    ok = maxima[0] <= 1e-4 and all(3.5 <= r <= 4.5 for r in ratios)
    report(5, ok, f"max residual {maxima[0]:.2e} at dt=1e-3, halving ratios "
                  + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_06_weak_beyond_classical():
    sys_ = pk.forced_oscillator()
    dt = 1e-3
    t_jump = 0.5 + dt / 3.0
    v = 0.5
    signal = lambda t: v if t >= t_jump else 0.0
    traj = pk.simulate(sys_, [1.0, 0.0], {0: signal}, (0.0, 1.5), pk.SchemeConfig(dt=dt))

    # piecewise closed-form oracle (midpoint sampling turns the input on at
    # the node t = 0.5): rotation, then rotation about the shifted center
    def rotation(t):
        return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])

    t_eff = 0.5
    x_jump = rotation(t_eff) @ np.array([1.0, 0.0])
    center = np.array([v, 0.0])
    x_exact = center + rotation(1.5 - t_eff) @ (x_jump - center)
    oracle_err = float(np.linalg.norm(traj.x[-1] - x_exact))

    weak = pk.weak_residual(sys_, traj).max_residual
    audit = pk.strong_trajectory_audit(sys_, traj)
    jump_defect = audit.max_defect
    near_jump = abs(audit.argmax_time - t_jump) <= 2 * dt
    ok = weak <= 1e-4 and jump_defect > 0.1 and near_jump and oracle_err < 1e-4
    report(6, ok, f"weak {weak:.2e} <= 1e-4 while pointwise defect {jump_defect:.3f} > 0.1 "
                  f"at t={audit.argmax_time:.4f} (closed-form endpoint error {oracle_err:.1e})")


def test_criterion_07_mollification():
    damped = pk.damped_oscillator(1.0)

    def max_distance(dt):
        traj = pk.simulate(damped, [1.0, 0.0], None, (0.0, 2.0), pk.SchemeConfig(dt=dt))
        out = pk.mollify(traj, pk.MollifierConfig(n_smooth=25, quad_points=6))
        h = out.dt
        fr = 0.5 * (out.f_r[:-1] + out.f_r[1:])
        er = 0.5 * (out.e_r[:-1] + out.e_r[1:])
        worst = 0.0
        for k in range(1, out.t.size - 1):
            xdot = (out.x[k + 1] - out.x[k - 1]) / (2 * h)
            f = np.concatenate([-xdot, fr[k - 1]])
            e = np.concatenate([pk.ham_grad(damped.ham, out.x[k]), er[k - 1]])
            worst = max(worst, pk.distance_to_structure(damped.dirac, pk.BondVector(f, e)))
        return worst

    coarse = max_distance(1e-3)
    fine = max_distance(5e-4)
    ok = coarse <= 1e-3 and fine < coarse
    report(7, ok, f"pointwise distance {coarse:.2e} at dt=1e-3, {fine:.2e} at dt=5e-4")


def test_criterion_08_extrapolation_split():
    rng = np.random.default_rng(8)
    worst_proj = 0.0
    dims_ok = True
    for _ in range(100):
        rows = int(rng.integers(1, 31))
        cols = int(rng.integers(1, 31))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        f_s = (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
               if rank else np.zeros((rows, cols)))
        split = pk.extrapolation_split(f_s)
        eye = np.eye(cols)
        p_k, p_c = split.projector_kernel, split.projector_coenergy
        worst_proj = max(
            worst_proj,
            float(np.max(np.abs(p_k + p_c - eye))),
            float(np.max(np.abs(p_k @ p_k - p_k))),
            float(np.max(np.abs(p_c @ p_c - p_c))),
            float(np.max(np.abs(p_k @ p_c))),
            float(np.max(np.abs(p_k - p_k.T))),
        )
        dims_ok &= split.kernel_dim + split.rank == cols
        dims_ok &= split.rank == np.linalg.matrix_rank(f_s)

    systems = [
        pk.oscillator(),
        pk.damped_oscillator(0.5),
        pk.forced_oscillator(),
        pk.string_system(pk.StringSpec(N=6))[0],
        pk.diffusion_system(pk.DiffusionSpec(N=8))[0],
    ]
    for _ in range(10):
        rep = random_dirac(rng, int(rng.integers(2, 12)))
        systems.append(pk.PhsSystem(dirac=rep, ham=None))
    d0_ok = True
    for sys_ in systems:
        rep = sys_.dirac
        d0 = pk.substructure_D0(rep).shape[1]
        d0_ok &= d0 + np.linalg.matrix_rank(dense(rep.F_s)) == rep.n
    ok = worst_proj <= 1e-12 and dims_ok and d0_ok
    report(8, ok, f"projector defect {worst_proj:.2e}, rank identities exact {dims_ok}, "
                  f"dim D0 + rank(F_s) = n on assembled systems {d0_ok}")


def test_criterion_09_integrator_order():
    sys_ = pk.oscillator()
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = pk.simulate(sys_, [1.0, 0.0], None, (0.0, 2 * np.pi), pk.SchemeConfig(dt=dt))
        errs.append(float(np.linalg.norm(traj.x[-1] - [1.0, 0.0])))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(9, ok, "endpoint errors " + ", ".join(f"{e:.2e}" for e in errs)
           + "; ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_10_pipeline():
    start = time.perf_counter()
    runner = CliRunner()
    string_cells = (np.arange(8) + 0.5) / 8.0
    string_x0 = np.concatenate([np.zeros(9), 0.05 * np.sin(np.pi * string_cells)])
    diff_cells = (np.arange(16) + 0.5) / 16.0
    diff_x0 = 0.1 * np.cos(np.pi * diff_cells)
    cases = {
        "oscillator": (["example", "oscillator"], "1,0", "1.0", "5e-4"),
        "damped_oscillator": (["example", "damped_oscillator"], "1,0", "1.0", "5e-4"),
        "string": (["example", "string", "--n", "8"],
                   ",".join(format(v, ".17g") for v in string_x0), "0.25", "2.5e-4"),
        "diffusion": (["example", "diffusion", "--n", "16"],
                      ",".join(format(v, ".17g") for v in diff_x0), "0.1", "5e-5"),
    }
    all_ok = True
    details = []
    with runner.isolated_filesystem():
        for name, (example_args, x0, t1, dt) in cases.items():
            sys_file = f"{name}.json"
            traj_file = f"{name}.csv"
            r1 = runner.invoke(cli_main, example_args + ["--out", sys_file])
            r2 = runner.invoke(cli_main, ["validate", sys_file])
            r3 = runner.invoke(cli_main, ["simulate", sys_file, "--x0", x0,
                                          "--t1", t1, "--dt", dt, "--out", traj_file])
            r4 = runner.invoke(cli_main, ["check", sys_file, traj_file, "--mode", "all"])
            codes = (r1.exit_code, r2.exit_code, r3.exit_code, r4.exit_code)
            all_ok &= codes == (0, 0, 0, 0)
            weak = json.loads(r4.output)["weak"]["max_residual"] if r4.exit_code == 0 else None
            details.append(f"{name} exits {codes}" + (f" weak {weak:.1e}" if weak else ""))
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 60.0
    report(10, ok, "; ".join(details) + f"; total {elapsed:.2f}s")
