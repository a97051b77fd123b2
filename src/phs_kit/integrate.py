"""Structure-preserving implicit time stepping for port-Hamiltonian DAEs.

Each step solves the square system

    F (-(x1 - x0)/dt; f_R; f_P) + G (g; e_R; e_P) = 0

for the next state, the resistive unknowns and the free port halves, where g
is grad H at the interval midpoint (implicit_midpoint) or the averaged vector
field between the endpoint states (discrete_gradient, ``energy.discrete_gradient``).
The latter makes the per-step energy balance an identity: to roundoff for
polynomial energies up to degree 12, to a quadrature error otherwise.
A residual fills one bond vector w = (flows; efforts) in place and takes one
product with the stacked [F | G] (``DiracKernelRep.stacked``).

The residual is linear in the auxiliary unknowns v = (v_R, v_P), through
C(x) = [F_r A + G_r B, F_p D_m + G_p (I - D_m)] (``_aux_block``); only g is
nonlinear, so every step Jacobian is [-F_s/dt + G_s dg/dx1, C], with dg/dx1
from the energy's ``hessian`` (``_StepMap``).  With a constant Hessian
(``hessian()`` not None) and a relation that is absent or linear and
state-independent (``linear_maps()`` not None) the step map is affine:
g = H (x0 + x1)/2 + b, and the exact Jacobian is factored once.  Its steps
form a linear recurrence, advanced a chunk at a time by a prefix scan
(``_StepMap.run``); Newton's own test (``SchemeConfig``) certifies every step
in batches, and a step that fails it is Newton-solved from its predictor
before the recurrence resumes.  A certified step counts as one Newton
iteration.  Other systems solve every step by Newton.

Both step maps factor by one rule, ``DiracKernelRep.sparse_linalg``: a large
sparse structure's CSC Jacobian goes to SuperLU, whose solves give the
condition estimate through ``onenormest`` with t=1 (no random vectors); any
other Jacobian is dense and inverted once by numpy, with its exact 1-norm
condition.  ``scipy.sparse`` is imported on first use, so a structure stored
dense that the rule keeps dense loads no scipy module here.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import EPS, _fd_jacobian, dense, issparse
from .dirac import _algebraic_basis
from .energy import _AVF_NODES, _AVF_WEIGHTS, discrete_gradient, ham_grad
from .errors import NewtonError, StructureError
from .system import PortSignal, Trajectory, _bond_residual, _row_blocks

__all__ = [
    "SchemeConfig",
    "ConsistencyReport",
    "consistent_init",
    "simulate",
]

SCHEMES = ("implicit_midpoint", "discrete_gradient")
# Affine chunks start at _CHUNK steps, double after a clean one up to
# _CHUNK_CELLS // n steps and halve after a failure.  A scan level costs L n_s^2
# flops on L steps and halves the L / 2^d window carries, calls worth about
# _CALL_FLOPS flops each (one BLAS thread): depth d is the largest with 2^(d+1) n_s^2 <= it.
_CHUNK, _CHUNK_CELLS, _CALL_FLOPS = 128, 1 << 16, 1 << 16


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping configuration.

    ``newton_tol`` sets Newton's test, which every step must pass: the 2-norm
    of its residual is finite and at most newton_tol * (1 + r0), with r0 the
    norm at the predictor.  ``_NewtonSolver.tolerance`` is its one home.
    """

    scheme: str = "implicit_midpoint"
    dt: float = 1e-3
    newton_tol: float = 1e-12
    newton_max_iter: int = 30

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise StructureError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise StructureError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise StructureError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        if type(self.newton_max_iter) is not int or self.newton_max_iter < 1:
            raise StructureError(f"newton_max_iter must be an int >= 1, got {self.newton_max_iter!r}")


def _channels(sys, v, x, prescribed):
    """Resolve (f_R, e_R, f_P, e_P) at state x from the auxiliary unknowns.

    ``v`` holds the relation's n_aux unknowns followed by the free half of
    each port channel; ``prescribed`` holds the other halves.  All three may
    be batches with one row per step.
    """
    n_aux = v.shape[-1] - sys.n_p
    if sys.res is None:
        f_r = e_r = np.zeros(v.shape[:-1] + (0,))
    else:
        f_r, e_r = sys.res.pair(v[..., :n_aux], x)
    v_p = v[..., n_aux:]
    f_p = np.where(sys.effort_prescribed, v_p, prescribed)
    e_p = np.where(sys.effort_prescribed, prescribed, v_p)
    return f_r, e_r, f_p, e_p


def _aux_count(sys):
    """Auxiliary unknowns of a step besides the state: relation, then free port halves."""
    return (0 if sys.res is None else sys.res.n_aux) + sys.n_p


def _state(sys, x, name):
    """A finite state vector of length n_s, else StructureError."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (sys.n_s,):
        raise StructureError(f"{name} must have length {sys.n_s}")
    if not np.all(np.isfinite(x)):
        raise StructureError(f"{name} must be finite, got {x.tolist()}")
    return x


def _aux_block(sys, x):
    """C(x) = [F_r A + G_r B, F_p D_m + G_p (I - D_m)]: the exact map v -> residual.

    (A, B) = ``res.at(x).linear_maps()`` and D_m masks the effort-prescribed
    channels, whose free half is the flow.  C is dense, n x n_aux, and so are
    the blocks it is formed from.
    """
    f_r, g_r, f_p, g_p = (dense(block) for block in (sys.dirac.F_r, sys.dirac.G_r,
                                                     sys.dirac.F_p, sys.dirac.G_p))
    a, b = (np.zeros((0, 0)),) * 2 if sys.res is None else sys.res.at(x).linear_maps()
    m = sys.effort_prescribed.astype(float)
    return np.hstack([f_r @ a + g_r @ b, f_p * m + g_p * (1.0 - m)])


class _StepMap:
    """Residual F (-(x1 - x0)/dt; f_R; f_P) + G (g; e_R; e_P) of a step, and its Jacobian.

    z = (x1, v).  The Jacobian is [-F_s/dt + G_s J_g, C(x_mid)], with J_g =
    dg/dx1 from the energy's Hessian: Hess(x_mid)/2 (implicit midpoint, or any
    affine gradient), else the AVF's ∫_0^1 s Hess(x0 + s (x1 - x0)) ds on its
    6 nodes.  For a Modulated relation it leaves out how C varies with the
    state: Newton then converges linearly, to the same root, because the
    residual itself is exact.  ``run`` steps the whole grid.
    """

    def __init__(self, sys, use_dg, dt, prescribed):
        self.sys, self.use_dg, self.dt, self.prescribed = sys, use_dg, dt, prescribed
        self.hessian = sys.ham.hessian()
        self.bonds = np.empty(2 * sys.n)  # (flows; efforts), refilled by every residual
        self.bond_parts = np.split(self.bonds, np.cumsum([sys.n_s, sys.n_r, sys.n_p, sys.n_s, sys.n_r]))
        linear = sys.res is None or sys.res.linear_maps() is not None
        self.name = "affine" if self.hessian is not None and linear else "newton"

    def start(self, k, x_k):
        self.x0, self.u = x_k, self.prescribed[k]

    def gradient_jacobian(self, x1):
        """J_g = dg/dx1 (class docstring)."""
        ham, x0 = self.sys.ham, self.x0
        if not self.use_dg or self.hessian is not None:
            return 0.5 * ham.hessian(0.5 * (x0 + x1))
        return sum(w * s * ham.hessian(x0 + s * (x1 - x0)) for s, w in zip(_AVF_NODES, _AVF_WEIGHTS))

    def residual(self, z):
        """[F | G] w for the bond vector w = (flows; efforts) at z = (x1, v), filled in place."""
        sys, x0 = self.sys, self.x0
        x1 = z[: x0.size]
        x_mid = 0.5 * (x0 + x1)
        flow_s, f_r, f_p, g, e_r, e_p = self.bond_parts
        np.divide(np.subtract(x0, x1, out=flow_s), self.dt, out=flow_s)  # x0 - x1 first, then / dt
        f_r[:], e_r[:], f_p[:], e_p[:] = _channels(sys, z[x0.size:], x_mid, self.u)
        g[:] = discrete_gradient(sys.ham, x0, x1) if self.use_dg else ham_grad(sys.ham, x_mid)
        return sys.dirac.stacked @ self.bonds

    def jacobian(self, z):
        """The step Jacobian at z: CSC if the structure's ``sparse_linalg`` holds, else dense."""
        d, n_s, x1 = self.sys.dirac, self.x0.size, z[: self.x0.size]
        (F, G), j_g = d._product_blocks, self.gradient_jacobian(x1)
        aux = _aux_block(self.sys, 0.5 * (self.x0 + x1))
        if not d.sparse_linalg:
            return np.hstack([-F[:, :n_s] / self.dt + G[:, :n_s] @ dense(j_g), aux])
        import scipy.sparse

        return scipy.sparse.hstack([-F[:, :n_s] / self.dt + G[:, :n_s] @ scipy.sparse.csr_array(j_g),
                                    aux], format="csc")

    def run(self, solver, x, v):
        """Fill x[1:] and v[1:] (see ``_NewtonSolver.solve_steps``); the solver counts.

        A Newton map solves each step in turn.  An affine map's step k has the
        residual K z + L x_k + P u_k + c with K = [-F_s/dt + G_s H/2, C] (``jacobian``
        at any z), L = F_s/dt + G_s H/2, P = F_p (I - D_m) + G_p D_m and c = G_s grad
        H(0).  With y_k = (x_k; u_k; 1) and K S = [L, P, c], step k's exact solution
        is z_{k+1} = -S y_k: x_{k+1} = A x_k + w_k with (A, W) = -S_x and
        w_k = W (u_k; 1).  A chunk from x_k folds A x_k into w_k and takes the
        prefix scan x_{k+i+1} = sum_j A^(i-j) w_{k+j}: doubling levels (Hillis &
        Steele 1986) to the depth d that ``_CALL_FLOPS`` sets, then a carry
        across windows of 2^d rows.  Newton's test certifies the chunk; its
        first failing step is Newton-solved.
        """
        n_steps, n_s = len(self.prescribed), x.shape[1]
        if self.name == "newton":
            solver.solve_steps(self, x, v, 0, n_steps)
            return
        d, m = self.sys.dirac, self.sys.effort_prescribed.astype(float)
        f_s, g_s, f_p, g_p = (dense(block) for block in (d.F_s, d.G_s, d.F_p, d.G_p))
        half_gh = 0.5 * (g_s @ self.hessian)
        maps = np.hstack([f_s / self.dt + half_gh, f_p * (1.0 - m) + g_p * m,
                          (g_s @ self.sys.ham.gradient(np.zeros(n_s)))[:, None]])
        self.start(0, x[0])
        k_mat = self.jacobian(np.concatenate([x[0], v[0]]))
        try:
            # K is factored once: condition, singular and non-finite checks
            solver.factor(k_mat)
            # Fortran order makes the transposed blocks the scan multiplies by C-contiguous
            minus_s = np.asfortranarray(-solver.apply_inverse(maps))
        except NewtonError as exc:
            exc.step = 0
            raise
        if not np.all(np.isfinite(minus_s)):
            raise NewtonError("singular step Jacobian: the step transition is not finite", step=0)
        forcing_map, aux_map = minus_s[:n_s, n_s:].T, minus_s[n_s:].T

        squares = [minus_s[:n_s, :n_s].T]  # (A^T)^(2^j), extended as the chunks grow
        depth = max(0, (_CALL_FLOPS // max(1, n_s * n_s)).bit_length() - 2)
        cap, k_mat = max(1, _CHUNK_CELLS // self.sys.n), dense(k_mat)  # the certificate's K
        k_x, k_v, maps_t = k_mat[:, :n_s].T, k_mat[:, n_s:].T, maps.T
        k, length = 0, min(_CHUNK, cap)
        while k < n_steps:
            end = min(k + length, n_steps)
            y = np.empty((end - k, maps.shape[1]))
            y[:, n_s:-1] = self.prescribed[k:end]
            y[:, -1] = 1.0
            # a non-finite step fails its certificate and goes to Newton, which reports it
            with np.errstate(over="ignore", invalid="ignore"):
                xs = x[k + 1 : end + 1]
                xs[:] = y[:, n_s:] @ forcing_map
                xs[0] += x[k] @ squares[0]
                # Hillis-Steele: after level j, row i sums its last 2^(j+1) terms.  A chunk
                # shrunk by a failure steps row by row (d = 0): scanned rows come from
                # separate rounding chains, and more of them fail at the roundoff floor
                levels = min(depth, (end - k - 1).bit_length()) if length >= min(_CHUNK, cap) else 0
                while len(squares) <= levels:
                    squares.append(squares[-1] @ squares[-1])
                for j in range(levels):
                    xs[1 << j :] += xs[: -(1 << j)] @ squares[j]
                # then carry the final row i - 2^levels into row i, a window at a time
                w = 1 << levels
                for first in range(w, end - k, w):
                    xs[first : first + w] += xs[first - w : min(first, end - k - w)] @ squares[levels]
                y[:, :n_s] = x[k:end]
                v[k + 1 : end + 1] = y @ aux_map
                # row j is K (x[k+j]; v[k+j]): step k+j-1's solution, step k+j's predictor
                kz = x[k : end + 1] @ k_x + v[k : end + 1] @ k_v
                rhs = y @ maps_t
                r, r0 = kz[1:] + rhs, kz[:-1] + rhs
                norm = np.sqrt(np.einsum("ij,ij->i", r, r))
                norm0 = np.sqrt(np.einsum("ij,ij->i", r0, r0))
                failed = np.flatnonzero(~(np.isfinite(norm) & (norm <= solver.tolerance(norm0))))
            certified = int(failed[0]) if failed.size else end - k
            solver.max_residual = max(solver.max_residual, float(norm[:certified].max(initial=0.0)))
            solver.iterations += certified
            k += certified
            length = min(2 * length, cap) if k == end else max(1, length // 2)
            if k < end:
                solver.solve_steps(self, x, v, k, k + 1)
                k += 1


class _NewtonSolver:
    """Newton iteration with a Jacobian factorization cached across steps.

    The step map supplies the residual and its Jacobian.  SuperLU factors a
    sparse one; a dense one is inverted once, so that each solve is one
    product with the inverse (Higham 2002, ch. 14: the forward error of an LU
    solve, though not its backward error, which Newton's own test checks on
    every step).  The factorization is rebuilt when progress stalls; for
    affine problems the first one is exact and reused.  It keeps the run's
    counters, from Newton iterations to the largest accepted step residual.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.apply_inverse = self.condition = None
        self.rebuilds = self.iterations = self.solved_steps = 0
        self.max_residual = 0.0

    def tolerance(self, norm0):
        """Newton's test (``SchemeConfig``) passes a finite norm at most this; norm0 at the predictor."""
        return self.cfg.newton_tol * (1.0 + norm0)

    def solve_steps(self, step_map, x, v, first, last):
        """Newton-solve steps first..last-1 in turn, each from its predictor (x_k, v_k).

        ``x[k]`` is the state at node k and ``v[k + 1]`` step k's auxiliaries;
        ``v[0]`` seeds the first predictor.  A NewtonError carries the failed step.
        """
        n_s = x.shape[1]
        # an overflowing residual is refused by ``solve``'s finiteness test, not by a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(first, last):
                step_map.start(k, x[k])
                try:
                    z, norm = self.solve(step_map, np.concatenate([x[k], v[k]]), step=k)
                except NewtonError as exc:
                    exc.step = k
                    raise
                x[k + 1], v[k + 1] = z[:n_s], z[n_s:]
                self.max_residual = max(self.max_residual, norm)
                self.solved_steps += 1

    def factor(self, jac):
        sparse = issparse(jac)
        if not np.all(np.isfinite(jac.data if sparse else jac)):
            raise NewtonError("non-finite step Jacobian")
        if sparse:  # a dense Jacobian never loads scipy.sparse
            from scipy.sparse.linalg import LinearOperator, norm, onenormest, splu
        try:
            inverse = splu(jac) if sparse else np.linalg.inv(jac)
        except (RuntimeError, np.linalg.LinAlgError) as exc:  # an exactly zero pivot
            raise NewtonError(f"singular step Jacobian: {exc}") from None
        self.apply_inverse = inverse.solve if sparse else inverse.__matmul__
        if self.condition is None and sparse:
            # t=1 draws no random vectors: deterministic, global RNG untouched
            op = LinearOperator(jac.shape, inverse.solve, lambda r: inverse.solve(r, "T"), dtype=float)
            self.condition = float(norm(jac, 1) * onenormest(op, t=1))
        elif self.condition is None:
            self.condition = float(np.linalg.norm(jac, 1) * np.linalg.norm(inverse, 1))
        self.rebuilds += 1

    def solve(self, step_map, z, step):
        cfg = self.cfg
        residual = step_map.residual
        r = residual(z)
        norm = math.sqrt(r @ r)
        tol = self.tolerance(norm)
        for _ in range(cfg.newton_max_iter):
            if not math.isfinite(norm):
                raise NewtonError("step residual is not finite", step=step, residual=norm)
            if norm <= tol:
                return z, norm
            refreshed = self.apply_inverse is None
            if refreshed:
                self.factor(step_map.jacobian(z))
            z_new = z - self.apply_inverse(r)
            r_new = residual(z_new)
            norm_new = math.sqrt(r_new @ r_new)
            if (not norm_new <= 0.5 * norm) and norm_new > tol and not refreshed:
                # stale cached Jacobian: rebuild at the current iterate and retry
                self.factor(step_map.jacobian(z))
                refreshed = True
                z_new = z - self.apply_inverse(r)
                r_new = residual(z_new)
                norm_new = math.sqrt(r_new @ r_new)
            if refreshed and norm_new > tol and norm_new >= 0.9 * norm:
                raise NewtonError(
                    f"Newton stalled at residual {norm_new:.3e} with a fresh Jacobian "
                    f"(tolerance {tol:.3e}); the requested newton_tol may be below the "
                    "roundoff floor of this step", step=step, residual=norm_new)
            z, r, norm = z_new, r_new, norm_new
            self.iterations += 1
        if norm <= tol:
            return z, norm
        raise NewtonError(
            f"Newton did not reach tol {tol:.3e} within "
            f"{cfg.newton_max_iter} iterations (residual {norm:.3e}, step {step})",
            step=step, residual=norm)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the algebraic-consistency projection of initial data."""

    distance: float
    algebraic_dim: int
    initial_residual: float
    final_residual: float
    projected: bool
    converged: bool
    violated_row: Optional[int] = None


def consistent_init(sys, x_guess, inputs=None, t0=0.0, tol=1e-10, max_iter=50):
    """Project initial data onto the algebraic constraints of the DAE.

    The constraint directions are ker(F_s^T): rows of the step system with no
    state-derivative content.  Auxiliary (resistive and free-port) variables
    are free; if the algebraic residual at ``x_guess`` (minimized over them)
    exceeds ``tol``, the nearest consistent state is computed by a Newton
    iteration on the first-order optimality system and returned together with
    the projection distance.  The constraint is linear in the auxiliaries,
    with the exact map W^T C(x) of the step Jacobian (``_aux_block``); only
    its derivative in x is differenced.

    Returns
    -------
    x0 : ndarray
    report : ConsistencyReport
    """
    x_guess = _state(sys, x_guess, "x_guess")
    inputs = PortSignal.coerce(inputs)
    inputs.validate_channels(sys)
    w = _algebraic_basis(sys.dirac)
    m = w.shape[1]
    if m == 0:
        return x_guess.copy(), ConsistencyReport(0.0, 0, 0.0, 0.0, False, True)

    prescribed = np.array([inputs.value(i, t0) for i in range(sys.n_p)], dtype=float)
    n_aux = _aux_count(sys)

    def constraint(x, v):
        f_r, e_r, f_p, e_p = _channels(sys, v, x, prescribed)
        return w.T @ _bond_residual(sys, np.zeros(sys.n_s), f_r, f_p, ham_grad(sys.ham, x), e_r, e_p)

    def aux_jacobian(x):
        return w.T @ _aux_block(sys, x)

    # the true algebraic residual at x_guess is the least-squares minimum over
    # the auxiliaries: one solve, since the constraint is linear in them
    c = constraint(x_guess, np.zeros(n_aux))
    v = np.linalg.lstsq(aux_jacobian(x_guess), -c, rcond=None)[0]
    initial_residual = float(np.linalg.norm(constraint(x_guess, v)))
    if initial_residual <= tol:
        return x_guess.copy(), ConsistencyReport(0.0, m, initial_residual,
                                                 initial_residual, False, True)

    # Newton on the optimality system of min ||x - x_guess|| s.t. c(x, v) = 0
    x = x_guess.copy()
    mu = np.zeros(m)
    opt_tol = max(tol, 1e-9 * (1.0 + float(np.linalg.norm(x_guess))))
    for _ in range(max_iter):
        c = constraint(x, v)
        cx, cv = _fd_jacobian(lambda y: constraint(y, v), x), aux_jacobian(x)
        r1, r2 = x - x_guess + cx.T @ mu, cv.T @ mu
        final = float(np.linalg.norm(c))
        if final <= tol and max(np.linalg.norm(r1), np.linalg.norm(r2)) <= opt_tol:
            dist = float(np.linalg.norm(x - x_guess))
            return x, ConsistencyReport(dist, m, initial_residual, final, True, True)
        kkt = np.block([
            [np.eye(sys.n_s), np.zeros((sys.n_s, n_aux)), cx.T],
            [np.zeros((n_aux, sys.n_s)), np.zeros((n_aux, n_aux)), cv.T],
            [cx, cv, np.zeros((m, m))],
        ])
        step = np.linalg.lstsq(kkt, -np.concatenate([r1, r2, c]), rcond=None)[0]
        if np.linalg.norm(step) <= 1e2 * EPS * (1.0 + np.linalg.norm(x) + np.linalg.norm(v)):
            break
        dx, dv, dmu = np.split(step, [sys.n_s, sys.n_s + n_aux])
        x, v, mu = x + dx, v + dv, mu + dmu
    c = constraint(x, v)
    violated = int(np.argmax(np.abs(c)))
    raise NewtonError(
        "consistency projection did not converge; most-violated algebraic row "
        f"{violated} with residual {np.abs(c)[violated]:.3e} (prescribed inputs may "
        "contradict a constraint)",
        residual=float(np.linalg.norm(c)),
    )


def simulate(sys, x0, port_inputs=None, t_span=(0.0, 1.0), cfg=None):
    """Integrate the system over ``t_span`` and return the Trajectory.

    Per-step channel samples are interval (midpoint) values: prescribed port
    halves are sampled at the interval midpoints t0 + (k + 1/2) dt, one pass
    over each channel's signal, so discontinuous inputs are handled without
    event detection.  Every step must pass Newton's test (``SchemeConfig``), with
    the previous state and auxiliaries as its predictor.  An affine step map
    advances as a scanned linear recurrence and certifies its steps with that
    test in batches; a step that fails it is Newton-solved (module docstring).

    The metadata records the step map ("affine" or "newton"), the Newton
    iterations summed over all steps (a certified affine step counts one),
    the steps Newton solved (every step of a Newton map, the certificate
    fallbacks of an affine one), the largest step residual, the Jacobian factorizations, and the first
    Jacobian's 1-norm condition: exact, ||K||_1 ||K^-1||_1, for a dense
    Jacobian, or SuperLU's ``onenormest`` with t=1 for a sparse one, which
    draws no random vectors (deterministic).

    Raises
    ------
    NewtonError
        With the failing step index if a step's residual is not finite or Newton fails on it.
    """
    cfg = cfg or SchemeConfig()
    x0 = _state(sys, x0, "x0")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise StructureError(f"t_span must be finite, got ({t0}, {t1})")
    if t1 <= t0:
        raise StructureError("t_span must satisfy t1 > t0")
    # land exactly on t1: round to the nearest whole number of uniform steps
    steps = (t1 - t0) / cfg.dt
    if not math.isfinite(steps):
        raise StructureError(f"(t1 - t0)/dt = {steps} is not a finite step count")
    n_steps = max(1, int(round(steps)))
    dt = (t1 - t0) / n_steps
    inputs = PortSignal.coerce(port_inputs)
    inputs.validate_channels(sys)

    n_s, n_p = sys.n_s, sys.n_p
    n_aux = _aux_count(sys)
    if n_s + n_aux != sys.n:
        raise StructureError(f"the resistive relation needs n_aux = n_r for time stepping (the "
                             f"step system has {n_s + n_aux} unknowns for n = {sys.n} equations)")
    prescribed = np.empty((n_steps, n_p))
    for i in range(n_p):
        prescribed[:, i] = inputs.samples(i, t0 + (np.arange(n_steps) + 0.5) * dt)
    step_map = _StepMap(sys, cfg.scheme == "discrete_gradient", dt, prescribed)
    solver = _NewtonSolver(cfg)

    t = t0 + dt * np.arange(n_steps + 1)
    x = np.empty((n_steps + 1, n_s))
    v = np.empty((n_steps + 1, n_aux))  # v[0] seeds the first predictor
    x[0], v[0] = x0, 0.0
    step_map.run(solver, x, v)
    v, e_r, f_p, e_p = v[1:], *(np.empty((n_steps, w)) for w in (n_aux - n_p, n_p, n_p))
    f_r = v[:, :n_aux - n_p]  # f_R overwrites the relation's own unknowns (n_aux = n_r)
    for rows in _row_blocks(n_steps, sys.n):  # no temporary grows with the run
        x_mid = 0.5 * (x[rows] + x[rows.start + 1 : rows.stop + 1])
        f_r[rows], e_r[rows], f_p[rows], e_p[rows] = _channels(sys, v[rows], x_mid, prescribed[rows])

    metadata = {
        "scheme": cfg.scheme,
        "dt": dt,
        "dt_requested": cfg.dt,
        "newton_tol": cfg.newton_tol,
        "step_map": step_map.name,
        "newton_iterations": solver.iterations,
        "newton_solved_steps": solver.solved_steps,
        "max_step_residual": solver.max_residual,
        "jacobian_rebuilds": solver.rebuilds,
        "jacobian_condition": solver.condition,
    }
    return Trajectory(t=t, x=x, f_r=f_r, e_r=e_r, f_p=f_p, e_p=e_p, metadata=metadata)
