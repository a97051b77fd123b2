"""Trajectory certification: weak residual, mollification, energy audit.

The weak residual tests sampled data against the time-weak form of the DAE
with piecewise-linear hat test functions: only F_s x is differentiated, the
derivative is moved onto the hat, states are interpolated piecewise-linearly
and channel samples are piecewise constant.  Residuals are reported per unit
test-function mass (each hat integrates to dt) and divided by
(1 + max channel magnitude), which makes the tolerance scale-free and the
report second-order small for trajectories produced by the integrator.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import StructureError
from .system import Trajectory, _inclusion_defects

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

    For each interior node k and each canonical direction j the residual is

        r_kj = ∫ psidot_k (F_s x)_j + ∫ psi_k (G_s grad H(x) + G_r e_R
                + G_p e_P + F_r f_R + F_p f_P)_j

    with per-interval 2-point Gauss quadrature (exact for the piecewise
    polynomial parts).  Reported values are |r_kj| / (dt (1 + max channel)).
    """
    traj.check_shapes(sys)
    m_steps = traj.steps
    if m_steps < 2:
        raise StructureError("weak residual needs at least two steps (one interior node)")
    d = sys.dirac
    dt = traj.dt
    x = traj.x

    # states at the two Gauss points of every interval: (M, 2, n_s)
    x_lo = (1.0 - _GAUSS_LO) * x[:-1] + _GAUSS_LO * x[1:]
    x_hi = (1.0 - _GAUSS_HI) * x[:-1] + _GAUSS_HI * x[1:]

    F_s, G_s = (m[:, : d.n_s] for m in d.csr)
    const = (traj.e_r @ d.G_r.T + traj.e_p @ d.G_p.T
             + traj.f_r @ d.F_r.T + traj.f_p @ d.F_p.T)
    g_lo = (G_s @ sys.ham.gradient(x_lo).T + const.T).T
    g_hi = (G_s @ sys.ham.gradient(x_hi).T + const.T).T
    s_mean = (F_s @ (0.5 * (x_lo + x_hi)).T).T

    # hat at node k: rising over interval k-1, falling over interval k
    rising = _GAUSS_LO * g_lo + _GAUSS_HI * g_hi
    falling = (1.0 - _GAUSS_LO) * g_lo + (1.0 - _GAUSS_HI) * g_hi
    raw = (s_mean[:-1] - s_mean[1:]) + 0.5 * dt * (rising[:-1] + falling[1:])

    normalization = 1.0 + traj.channel_magnitude()
    residuals = np.abs(raw) / (dt * normalization)
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
    gives the start time of the first interval with the largest |gap|.
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

    def as_dict(self):
        return {
            "max_abs_gap": float(self.max_abs_gap),
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
    h = sys.ham.value(traj.x)
    dh = np.diff(h)
    dt = traj.dt
    dissipated = dt * np.einsum("ij,ij->i", traj.f_r, traj.e_r) if sys.n_r else np.zeros(traj.steps)
    supplied = dt * np.einsum("ij,ij->i", traj.f_p, traj.e_p) if sys.n_p else np.zeros(traj.steps)
    gap = dh - dissipated - supplied
    ineq = dh - supplied
    return EnergyReport(
        t=traj.t,
        dH=dh,
        dissipated=dissipated,
        supplied=supplied,
        gap=gap,
        energy=h,
        max_abs_gap=float(np.max(np.abs(gap))),
        cumulative_gap=float(np.sum(gap)),
        cumulative_dH=float(h[-1] - h[0]),
        cumulative_dissipated=float(np.sum(dissipated)),
        cumulative_supplied=float(np.sum(supplied)),
        ineq_defect=float(np.max(ineq)),
        cumulative_ineq_defect=float(h[-1] - h[0] - np.sum(supplied)),
    )


# --- mollification -----------------------------------------------------------

# quad's default epsabs (1.49e-8) would swamp taps that must sum to 1
_QUAD_TOL = {"epsabs": 0.0, "epsrel": 1e-13}

_BUMP_MASS = None


def _bump_shape(s):
    """exp(-1/(1 - s^2)) on (-1, 1) and 0 elsewhere: the bump before normalization."""
    u = 1.0 - s * s
    return math.exp(-1.0 / u) if u > 0.0 else 0.0


def bump_constant():
    """Normalization 1/∫ exp(-1/(1-s^2)) ds over (-1, 1), computed once."""
    global _BUMP_MASS
    if _BUMP_MASS is None:
        _BUMP_MASS, _ = quad(_bump_shape, -1.0, 1.0, **_QUAD_TOL)
    return 1.0 / _BUMP_MASS


@dataclass(frozen=True)
class MollifierConfig:
    """Bump half-width eps = 1/n_smooth time units.

    ``quad_points`` must be >= 2 but has no effect: ``mollify`` takes its taps
    from ``quad``, which needs no fixed order.  It stays for existing callers.
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


def _bump_integral(eps, lo, hi, weight):
    """∫ delta(tau) weight(tau) dtau over [lo, hi] ∩ [-eps, eps], to double precision."""
    lo, hi = max(lo, -eps), min(hi, eps)
    if lo >= hi:
        return 0.0
    value, _ = quad(lambda tau: _bump_shape(tau / eps) * weight(tau), lo, hi, **_QUAD_TOL)
    return bump_constant() / eps * value


def _apply_stencil(values, lo, rows, taps):
    """out[k] = sum_o taps[o] * values[lo + k + o], all columns at once."""
    if lo < 0 or lo + taps.size - 1 + rows > values.shape[0]:
        raise StructureError("mollifier stencil reaches outside the sampled data")
    out = np.zeros((rows, values.shape[1]))
    for o, w in enumerate(taps):
        out += w * values[lo + o:lo + o + rows]
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

    with hat the unit hat on [-1, 1] and C(a) = ∫_{-eps}^a delta.  ``quad``
    gives each interval tap, and each whole step's share of a node tap, to
    double precision (differences of C and of the first moment would lose a
    factor eps/dt), so both stencils sum to 1 to roundoff with no rescaling.
    The bump underflows to 0 within about 7e-4 eps of +-eps and exact zero
    taps are dropped, so roundoff in dt never widens a stencil.
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
    up = np.array([_bump_integral(eps, a, b, lambda tau: (tau - a) / dt)
                   for a, b in zip(shifts[:-1], shifts[1:])])
    node_taps = np.trim_zeros(np.r_[0.0, up] + np.r_[up[::-1], 0.0])
    half = [_bump_integral(eps, s - 0.5 * dt, s + 0.5 * dt, lambda tau: 1.0) for s in shifts[steps:]]
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

    @property
    def max_defect(self):
        worst = np.maximum(self.dirac_defects, self.resistive_defects)
        return float(worst.max()) if worst.size else 0.0

    @property
    def max_normalized(self):
        return self.max_defect / self.normalization

    @property
    def argmax_time(self):
        """Time of the node with the largest defect of either kind."""
        if not self.t.size:
            return None
        worst = np.maximum(self.dirac_defects, self.resistive_defects)
        return float(self.t[int(np.argmax(worst))])

    def as_dict(self):
        return {
            "max_defect": float(self.max_defect),
            "max_normalized": float(self.max_normalized),
            "argmax_time": self.argmax_time,
            "nodes": int(self.t.size),
        }


def strong_trajectory_audit(sys, traj):
    """Evaluate the pointwise residual at every interior node of the data."""
    traj.check_shapes(sys)
    if traj.steps < 2:
        raise StructureError("pointwise audit needs at least two steps")
    xdot = (traj.x[2:] - traj.x[:-2]) / (2.0 * traj.dt)
    # each interior node k pairs with the preceding interval's channel values
    dirac_defects, resistive_defects = _inclusion_defects(
        sys, traj.x[1:-1], xdot, traj.f_r[:-1], traj.e_r[:-1], traj.f_p[:-1], traj.e_p[:-1],
    )
    return StrongAudit(
        t=traj.t[1:-1],
        dirac_defects=dirac_defects,
        resistive_defects=resistive_defects,
        normalization=1.0 + traj.channel_magnitude(),
    )
