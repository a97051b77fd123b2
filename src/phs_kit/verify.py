"""Trajectory certification: weak residual, mollification, energy audit.

A weak solution's tested bond pair (∫ psidot x, ∫ psi f_R, ∫ psi f_P;
∫ psi grad H(x), ∫ psi e_R, ∫ psi e_P) lies in ker[F, G] for every test
function psi, and each interior-node audit is one time test of it plus a
reduction: ``_interior_blocks`` checks the data, the test turns each row block
into bond pairs, and ``system._bond_residual`` applies F f + G e to them.
``weak_residual`` tests with the hat at each interior node (states piecewise
linear, channels piecewise constant) and reports per unit hat mass, divided by
(1 + max channel magnitude): scale-free, and second-order small for
trajectories produced by the integrator.  ``strong_trajectory_audit`` tests
with the node itself, xdot by a centred difference.

The weak, energy and pointwise audits walk the trajectory in blocks of time
rows (``system._row_blocks``) and write each block's rows into tables
allocated once, so no temporary grows with the trajectory; a row's value does
not depend on the block it falls in.  ``mollify`` takes its exact taps from
one Gauss-Legendre rule that numpy evaluates for all of them at once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructureError
from .system import Trajectory, _abs_max, _bond_residual, _inclusion_defects, _row_blocks

__all__ = [
    "WeakReport",
    "EnergyReport",
    "MollifierConfig",
    "StrongAudit",
    "weak_residual",
    "energy_report",
    "mollify",
    "strong_trajectory_audit",
    "bump_constant",
]

_GAUSS_LO = 0.5 - 0.5 / np.sqrt(3.0)
_GAUSS_HI = 0.5 + 0.5 / np.sqrt(3.0)


def _interior_blocks(sys, traj, refusal):
    """Row blocks over the interior nodes; StructureError on a width mismatch or one step."""
    traj.check_shapes(sys)
    if traj.steps < 2:
        raise StructureError(refusal)
    return _row_blocks(traj.steps - 1, sys.n)


@dataclass(frozen=True)
class WeakReport:
    """Weak-residual table over interior grid nodes and coordinate directions.

    ``residuals[k-1, j]`` is the normalized residual of the hat at interior
    node k (time ``t[k-1]``) paired with basis direction j; ``max_residual``
    is the table max, and ``as_dict`` locates its first occurrence.
    """

    max_residual: float
    residuals: np.ndarray
    normalization: float
    t: np.ndarray

    def as_dict(self):
        node, direction = np.unravel_index(int(np.argmax(self.residuals)), self.residuals.shape)
        return {
            "max_residual": float(self.max_residual),
            "normalization": float(self.normalization),
            "rows": int(self.residuals.shape[0]),
            "cols": int(self.residuals.shape[1]),
            "argmax_time": float(self.t[node]),
            "argmax_direction": int(direction),
        }


def weak_residual(sys, traj):
    """Residual of the trajectory against the hat-function weak form.

    Row k-1 is F f + G e of the pair tested with the hat psi_k at interior
    node k, which rises over interval k-1 and falls over interval k:

        f = (x̄_{k-1} - x̄_k, ∫ psi_k f_R, ∫ psi_k f_P),
        e = (∫ psi_k grad H(x), ∫ psi_k e_R, ∫ psi_k e_P),

    with x̄_j the midpoint state of interval j, ∫ psi_k c = dt/2 (c_{k-1} + c_k)
    for a channel and per-interval 2-point Gauss quadrature for grad H (exact
    for the piecewise polynomial parts).  Reported values are
    |r_kj| / (dt (1 + max channel)).
    """
    blocks = _interior_blocks(sys, traj,
                              "weak residual needs at least two steps (one interior node)")
    half_dt = 0.5 * traj.dt
    normalization = 1.0 + traj.channel_magnitude()
    residuals = np.empty((traj.steps - 1, sys.n))
    for rows in blocks:
        lo, hi = rows.start, rows.stop
        x = traj.x[lo : hi + 2]  # the nodes of intervals lo..hi, which the hats of these rows span

        # gradients at the two Gauss points of every interval, weighted by the hat
        # rising over it (next node's hat) and falling over it (this node's hat)
        grad_lo = sys.ham.gradient((1.0 - _GAUSS_LO) * x[:-1] + _GAUSS_LO * x[1:])
        grad_hi = sys.ham.gradient((1.0 - _GAUSS_HI) * x[:-1] + _GAUSS_HI * x[1:])
        rising = _GAUSS_LO * grad_lo + _GAUSS_HI * grad_hi
        falling = (1.0 - _GAUSS_LO) * grad_lo + (1.0 - _GAUSS_HI) * grad_hi
        x_mid = 0.5 * (x[:-1] + x[1:])
        f_r, e_r, f_p, e_p = (half_dt * (c[lo:hi] + c[lo + 1 : hi + 1])
                              for c in (traj.f_r, traj.e_r, traj.f_p, traj.e_p))
        raw = _bond_residual(sys, x_mid[:-1] - x_mid[1:], f_r, f_p,
                             half_dt * (rising[:-1] + falling[1:]), e_r, e_p)
        np.divide(np.abs(raw), traj.dt * normalization, out=residuals[rows])
    return WeakReport(
        max_residual=float(residuals.max()),
        residuals=residuals,
        normalization=normalization,
        t=traj.t[1:-1],
    )


@dataclass(frozen=True)
class EnergyReport:
    """Per-interval energy bookkeeping and the balance gap.

    gap[k] = H(x_{k+1}) - H(x_k) - dissipated[k] - supplied[k], where
    dissipated and supplied are the interval quadratures dt*<f_R, e_R> and
    dt*<f_P, e_P>.  ``ineq_defect`` is max_k (dH[k] - supplied[k]), the
    per-interval defect of the passivity inequality (<= 0 for passive runs up
    to solver tolerance); cumulative counterparts cover [t_0, t_M].  ``as_dict``
    gives the largest |gap| divided by ``normalization`` (1 + max channel
    magnitude) and the start time of the first interval with the largest |gap|.
    """

    t: np.ndarray
    dH: np.ndarray
    dissipated: np.ndarray
    supplied: np.ndarray
    gap: np.ndarray
    energy: np.ndarray
    max_abs_gap: float
    cumulative_gap: float
    cumulative_dH: float
    cumulative_dissipated: float
    cumulative_supplied: float
    ineq_defect: float
    cumulative_ineq_defect: float
    normalization: float

    def as_dict(self):
        return {
            "max_abs_gap": float(self.max_abs_gap),
            "max_abs_gap_normalized": float(self.max_abs_gap / self.normalization),
            "cumulative_gap": float(self.cumulative_gap),
            "cumulative_dH": float(self.cumulative_dH),
            "cumulative_dissipated": float(self.cumulative_dissipated),
            "cumulative_supplied": float(self.cumulative_supplied),
            "ineq_defect": float(self.ineq_defect),
            "cumulative_ineq_defect": float(self.cumulative_ineq_defect),
            "intervals": int(self.gap.shape[0]),
            "argmax_time": float(self.t[int(np.argmax(np.abs(self.gap)))]),
        }


def energy_report(sys, traj):
    """Audit the discrete energy balance of a trajectory.

    Uses the same interval quadrature as the integrator (piecewise-constant
    channel values times dt), so discrete-gradient trajectories close the
    balance to solver tolerance, plus the averaged vector field's quadrature
    error for an energy that is not a polynomial of degree <= 12.
    """
    traj.check_shapes(sys)
    dt = traj.dt
    h = np.empty(traj.steps + 1)
    for rows in _row_blocks(traj.steps + 1, sys.n_s):
        h[rows] = sys.ham.value(traj.x[rows])
    dh, dissipated, supplied, gap = np.zeros((4, traj.steps))
    np.subtract(h[1:], h[:-1], out=dh)
    ineq = []  # the largest dH - supplied of each block
    for rows in _row_blocks(traj.steps, sys.n_r + sys.n_p):
        if sys.n_r:
            dissipated[rows] = dt * np.einsum("ij,ij->i", traj.f_r[rows], traj.e_r[rows])
        if sys.n_p:
            supplied[rows] = dt * np.einsum("ij,ij->i", traj.f_p[rows], traj.e_p[rows])
        np.subtract(dh[rows], dissipated[rows], out=gap[rows])
        gap[rows] -= supplied[rows]
        ineq.append(np.max(dh[rows] - supplied[rows]))
    return EnergyReport(
        t=traj.t,
        dH=dh,
        dissipated=dissipated,
        supplied=supplied,
        gap=gap,
        energy=h,
        max_abs_gap=_abs_max(gap),
        cumulative_gap=float(np.sum(gap)),
        cumulative_dH=float(h[-1] - h[0]),
        cumulative_dissipated=float(np.sum(dissipated)),
        cumulative_supplied=float(np.sum(supplied)),
        ineq_defect=float(np.max(ineq)),
        cumulative_ineq_defect=float(h[-1] - h[0] - np.sum(supplied)),
        normalization=1.0 + traj.channel_magnitude(),
    )


# --- mollification -----------------------------------------------------------

# 80 nodes give the whole bump to roundoff; 64 leave 1.3e-14 of its mass, 72 about 4e-15
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _bump_integrals(eps, lo, hi, dt=None):
    """∫ exp(-1/(1-(tau/eps)^2)) w(tau) dtau / eps over each [lo_i, hi_i] ∩ [-eps, eps].

    w is 1, or with ``dt`` the rising hat (tau - lo_i) / dt.  With tau = eps tanh u the bump is
    exp(-cosh^2 u) / cosh^2 u, entire and underflowed past |u| = 4 (cosh^2 4 = 745.9): one
    Gauss-Legendre rule on each u-range clipped to [-4, 4], rows in blocks.
    """
    ends = np.arctanh(np.clip(np.array([lo, hi]) / eps, -np.tanh(4.0), np.tanh(4.0)))
    out = np.empty(ends.shape[1])
    for rows in _row_blocks(out.size, _GL_NODES.size):
        half = 0.5 * (ends[1, rows] - ends[0, rows])[:, None]
        u = 0.5 * (ends[0, rows] + ends[1, rows])[:, None] + half * _GL_NODES
        cosh2 = np.cosh(u) ** 2
        g = np.exp(-cosh2) / cosh2 * (half * _GL_WEIGHTS)
        if dt is not None:
            g *= (eps * np.tanh(u) - lo[rows, None]) / dt
        out[rows] = g.sum(axis=1)
    return out


def bump_constant():
    """Normalization 1/∫ exp(-1/(1-s^2)) ds over (-1, 1), by the taps' own rule."""
    return 1.0 / float(_bump_integrals(1.0, np.array([-1.0]), np.array([1.0]))[0])


@dataclass(frozen=True)
class MollifierConfig:
    """Bump half-width eps = 1/n_smooth time units.

    ``quad_points`` must be >= 2 but has no effect: ``mollify`` takes every
    tap from one fixed 80-point rule.  It stays for existing callers.
    """

    n_smooth: int
    quad_points: int = 6

    def __post_init__(self):
        if self.n_smooth < 1:
            raise StructureError("n_smooth must be a positive integer")
        if self.quad_points < 2:
            raise StructureError("quad_points must be >= 2")

    @property
    def eps(self):
        return 1.0 / float(self.n_smooth)


def _apply_stencil(values, lo, rows, taps):
    """out[k] = sum_o taps[o] * values[lo + k + o], one convolution per column."""
    if lo < 0 or lo + taps.size - 1 + rows > values.shape[0]:
        raise StructureError("mollifier stencil reaches outside the sampled data")
    segment = values[lo:lo + taps.size - 1 + rows]
    out = np.empty((rows, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.convolve(segment[:, j], taps[::-1], "valid")
    return out


def mollify(traj, cfg):
    """Convolve every channel with the smooth unit-mass bump.

    Returns a Trajectory on the shrunken grid I_eps = {t : [t-eps, t+eps]
    inside the original interval}: state samples at the surviving nodes,
    channel samples at the surviving interval midpoints.  The mollified data
    of a weakly valid trajectory satisfies the inclusion pointwise up to
    discretization error.

    States are piecewise linear and channels piecewise constant, so the data
    row o rows from the output row gets one fixed, exact tap

        node data:     ∫ delta(tau) hat((tau + o dt) / dt) dtau,
        interval data: C((-o + 1/2) dt) - C((-o - 1/2) dt),

    with hat the unit hat on [-1, 1] and C(a) = ∫_{-eps}^a delta.  One Gauss
    rule gives each interval tap, and each whole step's share of a node tap,
    to double precision (differences of C and of the first moment would lose
    a factor eps/dt), so both stencils sum to 1 to roundoff with no rescaling.
    The rule stops where the bump underflows, within about 7e-4 eps of +-eps,
    and exact zero taps are dropped, so roundoff in dt never widens a stencil.
    """
    eps = cfg.eps
    dt = traj.dt
    t = traj.t
    keep = (t >= t[0] + eps - 1e-12 * dt) & (t <= t[-1] - eps + 1e-12 * dt)
    if int(keep.sum()) < 2:
        raise StructureError(
            f"trajectory too short for half-width eps = {eps}: the shrunken grid "
            "has fewer than two nodes"
        )
    t_out = t[keep]
    steps = int(eps // dt) + 1
    shifts = dt * np.arange(-steps, steps + 1)
    # whole step [a, b] feeds the rising half of the hat at b and the falling
    # half of the hat at a; delta is even, so the falling share of step k is
    # the rising share of step -k-1, and both stencils are exactly symmetric
    up = bump_constant() * _bump_integrals(eps, shifts[:-1], shifts[1:], dt)
    node_taps = np.trim_zeros(np.r_[0.0, up] + np.r_[up[::-1], 0.0])
    edges = dt * (np.arange(steps + 2) - 0.5)  # neighbours share an edge: the pieces tile the bump
    half = bump_constant() * _bump_integrals(eps, edges[:-1], edges[1:])
    interval_taps = np.trim_zeros(np.r_[half[:0:-1], half])
    start = int(np.argmax(keep))
    x_out = _apply_stencil(traj.x, start - node_taps.size // 2, t_out.size, node_taps)
    channels = {
        name: _apply_stencil(getattr(traj, name), start - interval_taps.size // 2,
                             t_out.size - 1, interval_taps)
        for name in ("f_r", "e_r", "f_p", "e_p")
    }
    metadata = {**traj.metadata, "mollified": True, "eps": eps}
    return Trajectory(t=t_out, x=x_out, metadata=metadata, **channels)


# --- pointwise (classical) audit ---------------------------------------------


@dataclass(frozen=True)
class StrongAudit:
    """Pointwise classical-form audit of a stored trajectory.

    At each interior node the state derivative is estimated by the centered
    difference and paired with the node's own stored channel values (the
    preceding interval's samples, exactly as serialized).  Smooth trajectories
    with piecewise-constant channels sit at O(dt); a genuine kink or channel
    jump shows up as O(jump)/2 at the adjacent node.
    """

    t: np.ndarray
    dirac_defects: np.ndarray
    resistive_defects: np.ndarray
    normalization: float

    @cached_property
    def _worst(self):
        return np.maximum(self.dirac_defects, self.resistive_defects)

    @property
    def max_defect(self):
        return float(self._worst.max()) if self._worst.size else 0.0

    @property
    def max_normalized(self):
        return self.max_defect / self.normalization

    @property
    def argmax_time(self):
        """Time of the node with the largest defect of either kind."""
        return float(self.t[int(np.argmax(self._worst))]) if self.t.size else None

    def as_dict(self):
        return {
            "max_defect": float(self.max_defect),
            "max_normalized": float(self.max_normalized),
            "argmax_time": self.argmax_time,
            "nodes": int(self.t.size),
        }


def strong_trajectory_audit(sys, traj):
    """Evaluate the pointwise residual at every interior node of the data."""
    blocks = _interior_blocks(sys, traj, "pointwise audit needs at least two steps")
    x, defects = traj.x, np.empty((2, traj.steps - 1))
    for rows in blocks:
        lo, hi = rows.start, rows.stop
        xdot = (x[lo + 2 : hi + 2] - x[lo:hi]) / (2.0 * traj.dt)
        # each interior node k pairs with the preceding interval's channel values
        channels = (c[rows] for c in (traj.f_r, traj.e_r, traj.f_p, traj.e_p))
        defects[:, rows] = _inclusion_defects(sys, x[lo + 1 : hi + 1], xdot, *channels)
    return StrongAudit(
        t=traj.t[1:-1],
        dirac_defects=defects[0],
        resistive_defects=defects[1],
        normalization=1.0 + traj.channel_magnitude(),
    )
