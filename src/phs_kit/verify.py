"""Trajectory certification: weak residual, mollification, energy audit.

The weak residual tests sampled data against the time-weak form of the DAE
with piecewise-linear hat test functions: only F_s x is differentiated, the
derivative is moved onto the hat, states are interpolated piecewise-linearly
and channel samples are piecewise constant.  Residuals are reported per unit
test-function mass (each hat integrates to dt) and divided by
(1 + max channel magnitude), which makes the tolerance scale-free and the
report second-order small for trajectories produced by the integrator.
"""

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
    node k paired with basis direction j; ``max_residual`` is the table max.
    """

    max_residual: float
    residuals: np.ndarray
    normalization: float

    def as_dict(self):
        return {
            "max_residual": float(self.max_residual),
            "normalization": float(self.normalization),
            "rows": int(self.residuals.shape[0]),
            "cols": int(self.residuals.shape[1]),
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

    const = (traj.e_r @ d.G_r.T + traj.e_p @ d.G_p.T
             + traj.f_r @ d.F_r.T + traj.f_p @ d.F_p.T)
    g_lo = sys.ham.gradient(x_lo) @ d.G_s.T + const
    g_hi = sys.ham.gradient(x_hi) @ d.G_s.T + const
    s_mean = 0.5 * (x_lo + x_hi) @ d.F_s.T

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
    )


@dataclass(frozen=True)
class EnergyReport:
    """Per-interval energy bookkeeping and the balance gap.

    gap[k] = H(x_{k+1}) - H(x_k) - dissipated[k] - supplied[k], where
    dissipated and supplied are the interval quadratures dt*<f_R, e_R> and
    dt*<f_P, e_P>.  ``ineq_defect`` is max_k (dH[k] - supplied[k]), the
    per-interval defect of the passivity inequality (<= 0 for passive runs up
    to solver tolerance); cumulative counterparts cover [t_0, t_M].
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
        }


def energy_report(sys, traj):
    """Audit the discrete energy balance of a trajectory.

    Uses the same interval quadrature as the integrator (piecewise-constant
    channel values times dt), so discrete-gradient trajectories close the
    balance to solver tolerance.
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

_BUMP_MASS = None


def bump_constant():
    """Normalization 1/∫ exp(-1/(1-s^2)) ds over (-1, 1), computed once."""
    global _BUMP_MASS
    if _BUMP_MASS is None:
        mass, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0)
        _BUMP_MASS = mass
    return 1.0 / _BUMP_MASS


def _bump(tau, eps):
    """Unit-mass smooth bump supported on (-eps, eps)."""
    s = np.asarray(tau, dtype=float) / eps
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return bump_constant() * out / eps


@dataclass(frozen=True)
class MollifierConfig:
    """Smoothing-kernel configuration.

    The bump half-width is 1/n_smooth time units; quad_points Gauss-Legendre
    nodes are used on each quadrature panel (panels are aligned with the
    trajectory grid, so interpolated node data is smooth inside every panel).
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


def _kernel_quadrature(eps, dt, quad_points):
    """Quadrature nodes/weights for ∫ delta(tau) z(t - tau) dtau.

    Panels are the grid-aligned subdivisions of [-eps, eps], split further
    to at most eps/16 so the bump is resolved even on coarse grids.  Node
    data is smooth inside a grid-aligned panel; interval data jumps at its
    centre, which is a node for odd quad_points.  Raw weights must integrate
    the bump to 1 within 1e-8; they are then rescaled to unit mass so
    constant data is preserved to roundoff.
    """
    k_max = int(np.ceil(eps / dt - 1e-12))
    base = np.unique(np.clip(np.arange(-k_max, k_max + 1) * dt, -eps, eps))
    target = eps / 16.0
    pieces = [base[:1]]
    for lo_e, hi_e in zip(base[:-1], base[1:]):
        parts = max(1, int(np.ceil((hi_e - lo_e) / target)))
        pieces.append(np.linspace(lo_e, hi_e, parts + 1)[1:])
    edges = np.concatenate(pieces)
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(quad_points)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * gauss_x[None, :]).ravel()
    weights = (half[:, None] * gauss_w[None, :]).ravel() * _bump(nodes, eps)
    mass = float(weights.sum())
    if abs(mass - 1.0) > 1e-8:
        raise StructureError(
            f"kernel quadrature mass {mass} deviates from 1 by more than 1e-8; "
            "increase quad_points"
        )
    return nodes, weights / mass


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

    The query t_k - tau_q lies s_q = -tau_q/dt steps from every output row,
    so each kind of sample has one fixed stencil: node data gets w_q (1 - l_q)
    and w_q l_q on nodes floor(s_q) and floor(s_q) + 1 (l_q = s_q - floor(s_q));
    interval data gets w_q on interval floor(s_q + 1/2), the same for all rows.
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
    nodes, weights = _kernel_quadrature(eps, dt, cfg.quad_points)
    shift = -nodes / dt
    below = np.floor(shift)
    first = int(below.min())
    lo = int(np.argmax(keep)) + first
    node_taps = np.bincount((np.r_[below, below + 1] - first).astype(int),
                            np.r_[weights * (below + 1.0 - shift), weights * (shift - below)])
    interval_taps = np.bincount((np.floor(shift + 0.5) - first).astype(int), weights)
    x_out = _apply_stencil(traj.x, lo, t_out.size, node_taps)
    channels = {
        name: _apply_stencil(getattr(traj, name), lo, t_out.size - 1, interval_taps)
        for name in ("f_r", "e_r", "f_p", "e_p")
    }
    metadata = dict(traj.metadata)
    metadata.update({"mollified": True, "eps": eps, "quad_points": cfg.quad_points})
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
