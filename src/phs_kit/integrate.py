"""Structure-preserving implicit time stepping for port-Hamiltonian DAEs.

Each step solves the square system

    F (-(x1 - x0)/dt; f_R; f_P) + G (g; e_R; e_P) = 0

for the next state, the resistive unknowns and the free port halves, where g
is grad H at the interval midpoint (implicit_midpoint) or the averaged vector
field between the endpoint states (discrete_gradient, ``energy.discrete_gradient``).
The latter makes the per-step energy balance an identity: to roundoff for
polynomial energies up to degree 12, to a quadrature error otherwise.

The residual is linear in the auxiliary unknowns v = (v_R, v_P), through
C(x) = [F_r A + G_r B, F_p D_m + G_p (I - D_m)] (``_aux_block``); only g is
nonlinear, so every step Jacobian is [-F_s/dt + G_s dg/dx1, C].  With a
quadratic Hamiltonian (``linear_gradient()`` not None) and a relation that is
absent or linear and state-independent (``linear_maps()`` not None) the step
map is affine: g = H (x0 + x1)/2 + b, the Jacobian is exact and built once,
and Newton takes one iteration per step; its small dense Jacobian keeps
LAPACK's LU.  Other systems apply the sparse view of the Dirac blocks,
difference only the scheme's gradient map x1 -> g (n_s gradient calls per
Jacobian) and factor their CSC Jacobian with SuperLU, whose solves give the
condition estimate through ``onenormest`` with t=1: no random vectors.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgecon, dgetrs
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from ._linalg import EPS, null_space_basis
from .energy import discrete_gradient, ham_grad
from .errors import NewtonError, StructureError
from .system import PortSignal, Trajectory

__all__ = [
    "SchemeConfig",
    "ConsistencyReport",
    "consistent_init",
    "simulate",
]

SCHEMES = ("implicit_midpoint", "discrete_gradient")
_W_ROWS = 64  # steps of the affine P u_k + c per pass: O(n) memory, not O(n_steps n)


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping configuration.

    ``newton_tol`` bounds the per-step residual relative to the step's own
    scale: convergence requires ||residual||_2 <= newton_tol * (1 + r0) with
    r0 the residual norm at the predictor.
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


def _channels(sys, effort_prescribed, v, x, prescribed):
    """Resolve (f_R, e_R, f_P, e_P) at state x from the auxiliary unknowns.

    ``v`` holds the relation's n_aux unknowns followed by the free half of
    each port channel; ``prescribed`` holds the other halves.  All three may
    be batches with one row per step.
    """
    n_aux = v.shape[-1] - effort_prescribed.size
    if sys.res is None:
        f_r = e_r = np.zeros(v.shape[:-1] + (0,))
    else:
        f_r, e_r = sys.res.pair(v[..., :n_aux], x)
    v_p = v[..., n_aux:]
    f_p = np.where(effort_prescribed, v_p, prescribed)
    e_p = np.where(effort_prescribed, prescribed, v_p)
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


def _fd_jacobian(fn, y):
    """Forward-difference Jacobian of ``fn`` at y, step sqrt(eps)*(1+||y||)."""
    f0 = fn(y)
    jac = np.empty((f0.size, y.size))
    h = np.sqrt(EPS) * (1.0 + float(np.linalg.norm(y)))
    for j in range(y.size):
        yp = y.copy()
        yp[j] += h
        jac[:, j] = (fn(yp) - f0) / h
    return jac


def _aux_block(sys, effort_prescribed, x):
    """C(x) = [F_r A + G_r B, F_p D_m + G_p (I - D_m)]: the exact map v -> residual.

    (A, B) = ``res.at(x).linear_maps()`` and D_m masks the effort-prescribed
    channels, whose free half is the flow.
    """
    d = sys.dirac
    a, b = (np.zeros((0, 0)),) * 2 if sys.res is None else sys.res.at(x).linear_maps()
    m = effort_prescribed.astype(float)
    return np.hstack([d.F_r @ a + d.G_r @ b, d.F_p * m + d.G_p * (1.0 - m)])


class _AffineStep:
    """Step residual r(z) = K z + L x_k + P u_k + c of an affine step map.

    z = (x_{k+1}, v).  With g = H (x_k + x_{k+1})/2 + b:
    K = [-F_s/dt + G_s H/2, C], L = F_s/dt + G_s H/2,
    P = F_p (I - D_m) + G_p D_m and c = G_s b.  ``start`` must visit the
    steps in order.
    """

    name = "affine"

    def __init__(self, sys, linear_gradient, effort_prescribed, dt, prescribed):
        d = sys.dirac
        h, b = linear_gradient
        m = effort_prescribed.astype(float)
        half_gh = 0.5 * (d.G_s @ h)
        # the relation does not depend on the state, so any state resolves it
        self.K = np.hstack([-d.F_s / dt + half_gh, _aux_block(sys, effort_prescribed, None)])
        self.L = d.F_s / dt + half_gh
        self.P, self.c = d.F_p * (1.0 - m) + d.G_p * m, d.G_s @ b
        self.prescribed = prescribed
        self.w = self.rhs = None

    def start(self, k, x_k):
        if k % _W_ROWS == 0:
            self.w = self.prescribed[k : k + _W_ROWS] @ self.P.T + self.c
        self.rhs = self.L @ x_k + self.w[k % _W_ROWS]

    def residual(self, z):
        return self.K @ z + self.rhs

    def jacobian(self, z):
        return self.K


class _NewtonStep:
    """Step residual of any other system, with the Jacobian [-F_s/dt + G_s dg/dx1, C(x_mid)].

    Only the scheme's gradient map x1 -> g(x_k, x1) is differenced; the
    auxiliary block C is exact.  For a Modulated relation the Jacobian leaves
    out how C varies with the state: Newton then converges linearly, to the
    same root, because the residual itself is exact.
    """

    name = "newton"

    def __init__(self, sys, use_dg, effort_prescribed, dt, prescribed):
        self.sys, self.use_dg, self.effort_prescribed = sys, use_dg, effort_prescribed
        self.dt, self.prescribed, (self.F, self.G) = dt, prescribed, sys.dirac.csr
        self.x0 = self.u = None

    def start(self, k, x_k):
        self.x0, self.u = x_k, self.prescribed[k]

    def gradient(self, x1):
        """The scheme's co-energy g(x_k, x1)."""
        if self.use_dg:
            return discrete_gradient(self.sys.ham, self.x0, x1)
        return ham_grad(self.sys.ham, 0.5 * (self.x0 + x1))

    def residual(self, z):
        sys, x0 = self.sys, self.x0
        x1 = z[: x0.size]
        f_r, e_r, f_p, e_p = _channels(sys, self.effort_prescribed, z[x0.size:],
                                       0.5 * (x0 + x1), self.u)
        flows = np.concatenate([-(x1 - x0) / self.dt, f_r, f_p])
        efforts = np.concatenate([self.gradient(x1), e_r, e_p])
        return self.F @ flows + self.G @ efforts

    def jacobian(self, z):
        n_s, x1 = self.x0.size, z[: self.x0.size]
        j_g = scipy.sparse.csr_array(_fd_jacobian(self.gradient, x1))
        return scipy.sparse.hstack([-self.F[:, :n_s] / self.dt + self.G[:, :n_s] @ j_g, _aux_block(
            self.sys, self.effort_prescribed, 0.5 * (self.x0 + x1))], format="csc")


class _NewtonSolver:
    """Newton iteration with a Jacobian (LU) cached across steps.

    The step map supplies the residual and its Jacobian (SuperLU factors a
    sparse one, LAPACK a dense one).  The factorization is rebuilt when
    progress stalls; for affine problems the first one is exact and reused.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.lu = self.lu_solve = self.condition = None
        self.rebuilds = self.iterations = 0

    def _refresh(self, step_map, z):
        jac = step_map.jacobian(z)
        sparse = scipy.sparse.issparse(jac)
        try:
            if sparse and not np.all(np.isfinite(jac.data)):
                raise ValueError("array must not contain infs or NaNs")
            with warnings.catch_warnings():
                # a LAPACK zero pivot surfaces as a non-finite iterate handled below
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                self.lu = lu = splu(jac) if sparse else scipy.linalg.lu_factor(jac)
        except (ValueError, RuntimeError, scipy.linalg.LinAlgError) as exc:
            raise NewtonError(f"singular or non-finite step Jacobian: {exc}") from exc
        self.lu_solve = lu.solve if sparse else self._getrs
        if self.condition is None and sparse:
            # t=1 draws no random vectors: deterministic, global RNG untouched
            inverse = LinearOperator(jac.shape, lu.solve, lambda r: lu.solve(r, "T"), dtype=float)
            self.condition = float(scipy.sparse.linalg.norm(jac, 1) * onenormest(inverse, t=1))
        elif self.condition is None:
            # 1-norm estimate from the factors: O(n^2), where cond's SVD is O(n^3)
            rcond, _ = dgecon(lu[0], np.linalg.norm(jac, 1))
            self.condition = 1.0 / rcond if rcond > 0 else math.inf
        self.rebuilds += 1

    def _getrs(self, r):
        # scipy.linalg.lu_solve without its per-call checks; r is checked finite first
        dz, info = dgetrs(*self.lu, r)
        if info != 0:
            raise NewtonError(f"LU solve failed (LAPACK getrs info {info})")
        return dz

    def solve(self, step_map, z0, step):
        cfg = self.cfg
        residual = step_map.residual
        z = np.array(z0, dtype=float)
        r = residual(z)
        norm = math.sqrt(r @ r)
        # tolerance relative to the step's own residual scale so the roundoff
        # floor of the 1/dt term cannot sit above an absolute newton_tol
        tol = cfg.newton_tol * (1.0 + norm)
        for _ in range(cfg.newton_max_iter):
            if norm <= tol:
                return z, norm
            if not math.isfinite(norm):
                raise NewtonError("step residual is not finite", step=step, residual=norm)
            refreshed = self.lu is None
            if refreshed:
                self._refresh(step_map, z)
            z_new = z - self.lu_solve(r)
            r_new = residual(z_new)
            norm_new = math.sqrt(r_new @ r_new)
            if (not norm_new <= 0.5 * norm) and norm_new > tol and not refreshed:
                # stale cached Jacobian: rebuild at the current iterate and retry
                self._refresh(step_map, z)
                refreshed = True
                z_new = z - self.lu_solve(r)
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
    d = sys.dirac
    w = null_space_basis(d.F_s.T)
    m = w.shape[1]
    if m == 0:
        return x_guess.copy(), ConsistencyReport(0.0, 0, 0.0, 0.0, False, True)

    effort_prescribed = np.array([c == "effort" for c in sys.causality], dtype=bool)
    prescribed = np.array([inputs.value(i, t0) for i in range(sys.n_p)], dtype=float)
    n_aux = _aux_count(sys)

    def constraint(x, v):
        f_r, e_r, f_p, e_p = _channels(sys, effort_prescribed, v, x, prescribed)
        return w.T @ (d.F_r @ f_r + d.F_p @ f_p + d.G_s @ ham_grad(sys.ham, x)
                      + d.G_r @ e_r + d.G_p @ e_p)

    def aux_jacobian(x):
        return w.T @ _aux_block(sys, effort_prescribed, x)

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
    halves are sampled at the interval midpoint, so discontinuous inputs are
    handled without event detection.  Newton must reach ``cfg.newton_tol``
    (2-norm of the step residual) on every step.

    The metadata records the step map ("affine" or "newton", see the module
    docstring), the Newton iterations summed over all steps, the largest
    converged step residual, the Jacobian rebuilds, and the first Jacobian's
    1-norm condition estimate: ``dgecon``, or on the Newton path SuperLU's
    ``onenormest`` with t=1, which draws no random vectors (deterministic).

    Raises
    ------
    NewtonError
        With the failing step index if an implicit solve does not converge.
    """
    cfg = cfg or SchemeConfig()
    x0 = _state(sys, x0, "x0")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise StructureError(f"t_span must be finite, got ({t0}, {t1})")
    if t1 <= t0:
        raise StructureError("t_span must satisfy t1 > t0")
    # land exactly on t1: round to the nearest whole number of uniform steps
    n_steps = max(1, int(round((t1 - t0) / cfg.dt)))
    dt = (t1 - t0) / n_steps
    inputs = PortSignal.coerce(port_inputs)
    inputs.validate_channels(sys)

    n_s, n_p = sys.n_s, sys.n_p
    n_aux = _aux_count(sys)
    if n_s + n_aux != sys.n:
        raise StructureError(f"the resistive relation needs n_aux = n_r for time stepping (the "
                             f"step system has {n_s + n_aux} unknowns for n = {sys.n} equations)")
    effort_prescribed = np.array([c == "effort" for c in sys.causality], dtype=bool)
    prescribed = np.empty((n_steps, n_p))
    for i in range(n_p):
        prescribed[:, i] = np.fromiter(
            (inputs.value(i, t0 + (k + 0.5) * dt) for k in range(n_steps)), float, n_steps)
    linear_gradient = sys.ham.linear_gradient()
    if linear_gradient is None or (sys.res is not None and sys.res.linear_maps() is None):
        step_map = _NewtonStep(sys, cfg.scheme == "discrete_gradient", effort_prescribed, dt,
                               prescribed)
    else:
        step_map = _AffineStep(sys, linear_gradient, effort_prescribed, dt, prescribed)
    solver = _NewtonSolver(cfg)

    t = t0 + dt * np.arange(n_steps + 1)
    x = np.empty((n_steps + 1, n_s))
    v = np.empty((n_steps, n_aux))
    x[0] = x0

    z = np.concatenate([x0, np.zeros(n_aux)])
    max_residual = 0.0
    for k in range(n_steps):
        step_map.start(k, x[k])
        z[:n_s] = x[k]  # predictor: previous state, previous auxiliaries
        try:
            z, res_norm = solver.solve(step_map, z, step=k)
        except NewtonError as exc:
            exc.step = k
            raise
        x[k + 1] = z[:n_s]
        v[k] = z[n_s:]
        max_residual = max(max_residual, res_norm)
    x_mid = x[:-1] + x[1:]
    x_mid *= 0.5
    f_r, e_r, f_p, e_p = _channels(sys, effort_prescribed, v, x_mid, prescribed)

    metadata = {
        "scheme": cfg.scheme,
        "dt": dt,
        "dt_requested": cfg.dt,
        "newton_tol": cfg.newton_tol,
        "step_map": step_map.name,
        "newton_iterations": solver.iterations,
        "max_step_residual": max_residual,
        "jacobian_rebuilds": solver.rebuilds,
        "jacobian_condition": solver.condition,
    }
    return Trajectory(t=t, x=x, f_r=f_r, e_r=e_r, f_p=f_p, e_p=e_p, metadata=metadata)
