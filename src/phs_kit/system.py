"""System assembly, trajectories, and pointwise residuals of the inclusion."""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional

import numpy as np

from .dirac import DiracKernelRep, validate_kernel
from .energy import resistive_check
from .errors import StructureError

__all__ = [
    "PhsSystem",
    "Trajectory",
    "PortSignal",
    "StrongResidual",
    "assemble",
    "strong_residual",
    "validate_components",
]

CAUSALITIES = ("effort", "flow")
# The audits walk a trajectory in blocks of time rows, and every temporary of
# a block holds at most _BLOCK_CELLS floats (as integrate._CHUNK_CELLS bounds an
# affine chunk): a trajectory-sized temporary gets fresh pages from the kernel
# on every call, a block-sized one reuses the allocator's.
_BLOCK_CELLS = 1 << 14


def _row_blocks(rows, width):
    """Slices covering range(rows) in order, each of at most max(1, _BLOCK_CELLS // width) rows.

    Their lengths differ by at most one, so a lone row is a block of its own
    only where the width allows no more.
    """
    count = -(-rows // max(1, _BLOCK_CELLS // max(1, width)))
    bounds = [rows * i // max(1, count) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _abs_max(a):
    """max |a| with no |a| temporary, bit for bit np.max(np.abs(a)) (+ 0.0 turns -0.0 into 0.0)."""
    return float(max(a.max(), -a.min())) + 0.0


@dataclass(frozen=True)
class PhsSystem:
    """An assembled port-Hamiltonian DAE.

    Holds a validated Dirac structure, the Hamiltonian, the resistive
    relation (None when n_r = 0) and the port causality: one entry per port
    channel, "effort" when the effort half is prescribed as input, "flow"
    when the flow half is.
    """

    dirac: DiracKernelRep
    ham: object
    res: object = None
    causality: tuple = ()
    metadata: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.dirac.n

    @property
    def n_s(self):
        return self.dirac.n_s

    @property
    def n_r(self):
        return self.dirac.n_r

    @property
    def n_p(self):
        return self.dirac.n_p

    @cached_property
    def effort_prescribed(self):
        """One bool per port channel, True where its effort half is the prescribed input."""
        return np.array([c == "effort" for c in self.causality], dtype=bool)


def validate_components(dirac, ham, res=None, causality=(), dirac_tol=1e-10,
                        resistive_tol=1e-10, resistive_states=None):
    """Run every component check that ``assemble`` requires.

    A modulated resistive relation is checked at ``resistive_states``
    (defaults to the origin).

    Returns
    -------
    report : dict
        Keys passed, dirac, resistive (the two validation reports as dicts),
        causality_ok and hamiltonian_dim_ok.
    problems : list of str
        One message per failed check; empty iff ``report["passed"]``.
    """
    problems = []
    dirac_report = validate_kernel(dirac, tol=dirac_tol)
    if not dirac_report.passed:
        problems.append(
            f"Dirac validation failed: rank {dirac_report.rank}/{dirac_report.rank_required}, "
            f"skew defect {dirac_report.skew_defect:.3e}"
        )
    ham_ok = ham.dim == dirac.n_s
    if not ham_ok:
        problems.append(f"Hamiltonian dimension {ham.dim} != n_s = {dirac.n_s}")
    res_report = resistive_check(None)
    if dirac.n_r == 0:
        if res is not None and res.n_r != 0:
            problems.append("system has n_r = 0 but a resistive relation was given")
    elif res is None:
        problems.append(f"system has n_r = {dirac.n_r} but no resistive relation")
    else:
        if res.n_r != dirac.n_r:
            problems.append(f"resistive dimension {res.n_r} != n_r = {dirac.n_r}")
        states = [np.zeros(dirac.n_s)] if resistive_states is None else resistive_states
        res_report = resistive_check(res, tol=resistive_tol, states=states)
        if not res_report.passed:
            problems.append(
                f"resistive relation failed the passivity check (min/max sym eig "
                f"{res_report.min_eig:.3e}/{res_report.max_eig:.3e})"
            )
    causality_ok = len(causality) == dirac.n_p and all(c in CAUSALITIES for c in causality)
    if not causality_ok:
        problems.append(
            f"causality needs {dirac.n_p} entries from {CAUSALITIES}, got {tuple(causality)}"
        )
    report = {
        "passed": not problems,
        "dirac": dirac_report.as_dict(),
        "resistive": res_report.as_dict(),
        "causality_ok": causality_ok,
        "hamiltonian_dim_ok": ham_ok,
    }
    return report, problems


def assemble(dirac, ham, res=None, causality=(), dirac_tol=1e-10, resistive_tol=1e-10,
             resistive_states=None):
    """Validate the components and build a PhsSystem.

    All component validations (``validate_components``) are re-run here; the
    tolerances used are recorded in the system metadata.

    Raises
    ------
    StructureError
        On dimension inconsistencies or any failed validation.
    """
    causality = tuple(causality)
    report, problems = validate_components(dirac, ham, res, causality, dirac_tol,
                                           resistive_tol, resistive_states)
    if problems:
        raise StructureError("; ".join(problems))
    metadata = {
        "dirac_tol": dirac_tol,
        "resistive_tol": resistive_tol,
        "dirac_validation": report["dirac"],
        "resistive_validation": report["resistive"],
    }
    res = res if dirac.n_r else None
    return PhsSystem(dirac=dirac, ham=ham, res=res, causality=causality, metadata=metadata)


@dataclass(frozen=True)
class StrongResidual:
    """Pointwise defect of the differential inclusion at given data."""

    dirac_defect: float
    resistive_defect: float


def _bond_residual(sys, flow_s, f_r, f_p, effort_s, e_r, e_p):
    """F (flow_s; f_R; f_P) + G (effort_s; e_R; e_P), the tested bond pair applied to D.

    1-D blocks make one bond vector; 2-D blocks hold one bond per row, stacked
    column-major, which the sparse products read in place.
    """
    return sys.dirac.residual(np.concatenate([flow_s.T, f_r.T, f_p.T]).T,
                              np.concatenate([effort_s.T, e_r.T, e_p.T]).T)


def _inclusion_defects(sys, x, xdot, f_r, e_r, f_p, e_p):
    """The pointwise rule, one point per row: || F (-xdot; f_R; f_P) + G (grad H(x); e_R; e_P) ||
    and the distance of (f_R, e_R) to the relation at x, two arrays of length m.
    """
    bond = _bond_residual(sys, -xdot, f_r, f_p, sys.ham.gradient(x), e_r, e_p)
    resistive = np.zeros(len(x)) if sys.res is None else sys.res.distance(x, f_r, e_r)
    return np.linalg.norm(bond, axis=1), resistive


def strong_residual(sys, x, xdot, f_r=None, e_r=None, f_p=None, e_p=None):
    """Pointwise residual of the inclusion at (x, xdot) and channel values.

    dirac_defect = || F (-xdot; f_R; f_P) + G (grad H(x); e_R; e_P) ||_2,
    resistive_defect = distance of (f_R, e_R) to the relation at x.
    """
    d = sys.dirac
    widths = {"f_R": d.n_r, "e_R": d.n_r, "f_P": d.n_p, "e_P": d.n_p}
    x, xdot = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, xdot))
    channels = [np.zeros(m) if v is None else np.atleast_1d(np.asarray(v, float))
                for v, m in zip((f_r, e_r, f_p, e_p), widths.values())]
    if x.shape != (d.n_s,) or xdot.shape != (d.n_s,):
        raise StructureError(f"x and xdot must have length {d.n_s}")
    for v, (name, m) in zip(channels, widths.items()):
        if v.shape != (m,):
            raise StructureError(f"{name} must have length {m}, got {v.shape}")
    dirac, resistive = _inclusion_defects(sys, *(v[None, :] for v in (x, xdot, *channels)))
    return StrongResidual(dirac_defect=float(dirac[0]), resistive_defect=float(resistive[0]))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution data on a uniform time grid.

    ``x`` holds node samples ((M+1) x n_s); the channel arrays hold one value
    per step interval (M x n_r, M x n_p), to be read as piecewise-constant
    interval values (they may jump between intervals).
    """

    t: np.ndarray
    x: np.ndarray
    f_r: np.ndarray
    e_r: np.ndarray
    f_p: np.ndarray
    e_p: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if t.ndim != 1 or t.size < 2:
            raise StructureError("time grid needs at least two nodes")
        m = t.size - 1
        # NaN and inf pass the comparisons below, so they are refused first
        scale = _abs_max(t)
        if not np.isfinite(scale):
            bad = int(np.flatnonzero(~np.isfinite(t))[0])
            raise StructureError(f"time grid must be finite, got t[{bad}] = {t[bad]}")
        dt = t[1] - t[0]
        # 1e-12*dt plus the float-representation floor of the node values
        tol = 1e-12 * abs(dt) + 8.0 * np.finfo(float).eps * scale
        # the largest deviation of a step from dt, in row blocks
        spread = np.max([_abs_max(np.diff(t[rows.start:rows.stop + 1]) - dt)
                         for rows in _row_blocks(m, 1)])
        if dt <= 0 or spread > tol:
            raise StructureError("time grid must be uniform and increasing (to 1e-12*dt)")
        arrays = {"t": t}
        for name in ("x", "f_r", "e_r", "f_p", "e_p"):
            rows, kind = (m + 1, "node") if name == "x" else (m, "interval")
            a = np.asarray(getattr(self, name), dtype=float)
            a = a[:, None] if a.ndim == 1 else a  # one state or channel; else one row per sample
            a = a if a.size else np.zeros((rows, 0))
            if a.ndim != 2 or a.shape[0] != rows:
                raise StructureError(f"{name} must have {rows} {kind} rows, got shape {a.shape}")
            arrays[name] = a
        for f, e in (("f_r", "e_r"), ("f_p", "e_p")):
            if arrays[f].shape != arrays[e].shape:
                raise StructureError(f"{f} and {e} must have equal shape")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

    @property
    def steps(self):
        return self.t.size - 1

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    @property
    def n_s(self):
        return self.x.shape[1]

    def channel_magnitude(self):
        """Largest absolute sample over all stored channels (for normalization)."""
        return max(_abs_max(a) for a in (self.x, self.f_r, self.e_r, self.f_p, self.e_p) if a.size)

    def check_shapes(self, sys):
        """Raise StructureError if the sample widths do not match the system."""
        for name, width, want in (("n_s", self.n_s, sys.n_s), ("n_r", self.f_r.shape[1], sys.n_r),
                                  ("n_p", self.f_p.shape[1], sys.n_p)):
            if width != want:
                raise StructureError(f"trajectory {name} = {width} != system {name} = {want}")


class PortSignal:
    """Prescribed input signals for port channels.

    Wraps a mapping ``channel index -> (t -> value)``; constants are accepted
    in place of callables.  Channels without an entry default to the constant
    zero signal.  Signals may be discontinuous; they are sampled, never
    integrated.  A non-finite sample raises StructureError.
    """

    def __init__(self, signals: Optional[Dict[int, object]] = None):
        ready: Dict[int, Callable[[float], float]] = {}
        for k, v in (signals or {}).items():
            k = int(k)
            if callable(v):
                ready[k] = v
            else:
                const = float(v)
                ready[k] = (lambda c: (lambda t: c))(const)
        self._signals = ready

    @classmethod
    def coerce(cls, obj):
        if obj is None:
            return cls({})
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, dict):
            return cls(obj)
        raise StructureError("port inputs must be a PortSignal or a dict {channel: signal}")

    def value(self, channel, t):
        return float(self.samples(channel, np.array([t], dtype=float))[0])

    def samples(self, channel, times):
        """The channel's value at each entry of the array ``times``, in one pass over the signal."""
        fn = self._signals.get(int(channel))
        if fn is None:
            return np.zeros(times.size)
        u = np.fromiter(map(fn, times.tolist()), float, times.size)
        bad = np.flatnonzero(~np.isfinite(u))
        if bad.size:
            i = bad[0]
            raise StructureError(
                f"input on port channel {channel} is not finite at t = {times[i]}: {u[i]}")
        return u

    def validate_channels(self, sys):
        prescribed = set(range(sys.n_p))
        extra = [k for k in self._signals if k not in prescribed]
        if extra:
            raise StructureError(f"input given for nonexistent port channels {extra}")
