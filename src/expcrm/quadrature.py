"""Quadrature for improper integrals with power-law endpoint behaviour.

Every integral this package needs has the shape

    integral of f(t) dt over (0, U),   U finite or infinite,

where f is smooth and positive inside the interval but may blow up or vanish
like a power at the endpoints: f(t) ~ c * t^q as t -> 0, and at a finite
upper endpoint f(t) ~ c * (U - t)^p, or f(t) ~ c * t^p as t -> infinity.
Callers declare those powers in an :class:`IntegrandSpec`.  One engine,
:class:`PanelLaw`, sums them all, and the numeric weight samplers invert
its cumulative sums.  It tiles (0, U) with 12-node Gauss-Legendre panels,
graded geometrically from 1e-12 of the scale at each end (in the distance
from a finite top) and marched in quarter-octaves toward infinity; each
panel is bisected until its distance from a 6-node companion rule is within
``rel_tol`` of its mass.  Beyond the outermost knots f is a pure power to
leading order, so those pieces are analytic.  A finite top without an exact
evaluator stops at 1e-6 of the scale, since U - v rounds v to steps of
1.1e-16 * U, and closes with a 24-node Gauss-Jacobi cap in v^p.

:func:`integrate` validates each declared power against a log-log slope
probe (a wrong declaration raises :class:`~expcrm.errors.SingularityMismatch`
instead of silently producing a wrong number), and detects divergent
integrals by direct evidence: the integral over the geometric shells
[T*10^-(k+1), T*10^-k] must decay as the shells approach the endpoint;
contributions that hold steady or grow raise
:class:`~expcrm.errors.DivergenceSuspected`.  This catches both power
divergence (shells grow geometrically) and the marginal logarithmic case
(shells hold constant), which no fixed growth-factor threshold can see.

Evaluators work in log space (``log_f``), and the panels take f relative to
its largest value at their first nodes, so kernels with huge dynamic range
never overflow; :func:`relative_to_peak` does the same for a caller whose
integral itself lies outside floating-point range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import DivergenceSuspected, QuadratureError, SingularityMismatch

# Declared endpoint powers are trusted only after a log-log slope probe
# agrees with them to this absolute tolerance.
SLOPE_TOL = 0.25

# Shell-decay threshold: log contributions of successive decade shells must
# drop by at least log(0.95); anything flatter is treated as divergent.
_DECAY_LOG = math.log(0.95)

_PROBE_OFFSETS = (1e-4, 10**-5.5, 1e-7)
_N_SHELLS = 28

# Endpoint orders this close to the divergence boundary are treated as
# divergent: refined probes carry ~1e-8 noise, so a measured -1 can land
# on either side of it.
_ORDER_EPS = 1e-7


@dataclass(frozen=True)
class IntegrandSpec:
    """A positive integrand on (0, upper) with declared endpoint powers.

    Parameters
    ----------
    log_f : callable
        Vectorized map from an array of interior points to ``log f``.
        Values of ``-inf`` (f == 0) are tolerated, NaN and ``+inf`` are not.
    upper : float
        Right endpoint: any positive finite value, or ``math.inf``.
    lower_order : float
        The power q with f(t) ~ c * t^q as t -> 0+. Declaring q <= -1
        asserts the integral diverges at 0; the integrator then verifies
        that claim and raises ``DivergenceSuspected``.
    upper_order : float or None
        At a finite endpoint, the power p with f ~ c * (upper - t)^p
        (``None`` means f is smooth up to the endpoint). At infinity, the
        power p with f ~ c * t^p (``None`` means faster-than-power decay,
        e.g. exponential). Powers p >= -1 at infinity or p <= -1 at a
        finite endpoint assert divergence there.
    log_f_upper : callable, optional
        Stable evaluator of ``log f(upper - v)`` as a function of the
        distance ``v`` from a finite upper endpoint. Supplying it avoids
        the cancellation in forming ``upper - v`` when f has structure
        like (1 - t)^p and v is tiny. Ignored when ``upper`` is infinite.
    name : str
        Label used in error messages.
    """

    log_f: Callable[[np.ndarray], np.ndarray]
    upper: float
    lower_order: float
    upper_order: float | None = None
    log_f_upper: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "integrand"

    def __post_init__(self):
        if not (self.upper > 0):
            raise QuadratureError(f"{self.name}: upper endpoint must be positive")
        if not np.isfinite(self.lower_order):
            raise QuadratureError(f"{self.name}: lower_order must be finite")
        if self.upper_order is not None and not np.isfinite(self.upper_order):
            raise QuadratureError(f"{self.name}: upper_order must be finite or None")

    def log_f_from_top(self, v) -> np.ndarray:
        """``log f(upper - v)`` at distances ``v`` from a finite top.

        Goes through ``log_f_upper`` when given, else forms ``upper - v``.
        """
        if self.log_f_upper is not None:
            return self.log_f_upper(v)
        return self.log_f(self.upper - np.asarray(v, dtype=float))


@lru_cache(maxsize=2048)
def _gl_rule(n: int):
    return roots_legendre(n)


def _eval_log(log_f, t: np.ndarray, name: str) -> np.ndarray:
    out = np.asarray(log_f(np.asarray(t, dtype=float)), dtype=float)
    if np.isnan(out).any() or np.isposinf(out).any():
        bad = t[np.isnan(out) | np.isposinf(out)]
        raise QuadratureError(f"{name}: evaluator returned NaN/+inf near t={bad[:3]}")
    return out


# --- endpoint declaration checks -------------------------------------------


def _fit_slope(log_t: np.ndarray, log_v: np.ndarray) -> float:
    x = log_t - log_t.mean()
    return float(np.dot(x, log_v - log_v.mean()) / np.dot(x, x))


def _check_power(log_g, points: np.ndarray, declared: float, name: str, where: str) -> None:
    vals = _eval_log(log_g, points, name)
    if not np.isfinite(vals).all():
        raise SingularityMismatch(
            f"{name}: evaluator is zero at the {where} probe points; "
            "cannot verify the declared endpoint power"
        )
    slope = _fit_slope(np.log(points), vals)
    if abs(slope - declared) > SLOPE_TOL:
        raise SingularityMismatch(
            f"{name}: declared {where} power {declared:g} but the probe "
            f"measured {slope:.3f}"
        )


def probe_power(log_f, points) -> float:
    """Least-squares log-log slope of ``f`` over the given probe points.

    Used to infer an endpoint power when no analytic declaration exists.
    Raises QuadratureError when f vanishes at a probe point.
    """
    pts = np.asarray(points, dtype=float)
    vals = _eval_log(log_f, pts, "probe")
    if not np.isfinite(vals).all():
        raise QuadratureError("cannot probe an endpoint power where f is zero")
    return _fit_slope(np.log(pts), vals)


def probe_power_refined(log_f, points, finer: float = 0.1) -> float:
    """Slope probe with one Richardson step in the probe scale.

    A single-scale fit is contaminated by the analytic factor of the
    integrand, linearly in the probe scale; two fits at scales s and
    finer*s cancel that term.  Use finer < 1 toward a finite endpoint
    and finer > 1 toward an infinite one.  Needed when the probed slope
    becomes the *declared* power of an analytic end piece: a mismatch
    delta puts that piece off by about delta / (power + 1) of itself.
    """
    if not finer > 0.0 or finer == 1.0:
        raise QuadratureError(f"probe refinement factor must be positive and != 1, got {finer:g}")
    pts = np.asarray(points, dtype=float)
    q1 = probe_power(log_f, pts)
    q2 = probe_power(log_f, finer * pts)
    # contaminant shrinks by k moving toward the endpoint
    k = finer if finer < 1.0 else 1.0 / finer
    return (q2 - k * q1) / (1.0 - k)


def probed_orders(log_f, upper: float) -> tuple:
    """Measure both endpoint powers of a positive integrand on (0, upper).

    Returns (lower_order, upper_order) in the sense of
    :class:`IntegrandSpec`; an infinite-endpoint slope steeper than any
    reasonable power is reported as ``None`` (faster-than-power decay).
    """
    upper = float(upper)
    if not upper > 0.0:
        raise QuadratureError("probed_orders needs a positive upper endpoint")
    scale = min(upper, 1.0) / 2.0 if math.isfinite(upper) else 0.5
    pts = scale * np.array(_PROBE_OFFSETS)
    low = probe_power_refined(log_f, pts)
    if math.isfinite(upper):
        up = probe_power_refined(lambda v: log_f(upper - np.asarray(v, dtype=float)), pts)
    else:
        up = probe_power_refined(log_f, 1.0 / np.array(_PROBE_OFFSETS), finer=10.0)
        if up < -40.0:
            up = None
    return low, up


# --- divergence screens -----------------------------------------------------


def _log_shell(log_g, lo: float, hi: float, name: str, n: int = 24) -> float:
    """log of the integral of g over [lo, hi], computed in log space."""
    y, w = _gl_rule(n)
    half = 0.5 * (math.log(hi) - math.log(lo))
    s = 0.5 * (math.log(hi) + math.log(lo)) + half * y
    vals = _eval_log(log_g, np.exp(s), name) + s
    m = float(np.max(vals))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.dot(w, np.exp(vals - m)))) + math.log(half)


def _divergence_screen(log_g, hi0: float, outward: bool, name: str, where: str) -> None:
    """Confirm a declared-divergent endpoint by shell evidence.

    Integrates g over geometric shells marching toward the endpoint
    (``outward=True`` marches toward infinity). Raises DivergenceSuspected
    when the contributions hold level or grow, SingularityMismatch when
    they decay (the declaration promised divergence the integrand does not
    deliver).
    """
    logs = []
    for k in range(_N_SHELLS):
        if outward:
            lo, hi = hi0 * 10.0**k, hi0 * 10.0 ** (k + 1)
        else:
            hi = hi0 * 10.0**-k
            lo = hi / 10.0
        logs.append(_log_shell(log_g, lo, hi, name))
        if logs[-1] - logs[0] > 600.0:
            raise DivergenceSuspected(
                f"{name}: shell contributions toward {where} grow without bound",
                endpoint=where,
                evidence=logs,
            )
    deltas = np.diff(np.array(logs))
    tail = deltas[-5:]
    if np.median(tail) >= _DECAY_LOG:
        raise DivergenceSuspected(
            f"{name}: contributions of successive shells toward {where} do not "
            f"decay (median log-ratio {float(np.median(tail)):.4f}); the "
            "integral is divergence-suspected",
            endpoint=where,
            evidence=logs,
        )
    raise SingularityMismatch(
        f"{name}: the declared {where} power asserts divergence but shell "
        "contributions decay; fix the declared order"
    )


# --- the panel law ----------------------------------------------------------

# Gauss-Legendre nodes per panel, and those of the companion rule whose
# distance from it is the panel's error bound
_GL_NODES = 12
_GL_COMPANION = 6
# a panel is refined until its error bound is within rel_tol of its mass, or
# _ABS_TOL of the total; _MAX_PANELS caps the refinement per side
_ABS_TOL = 1e-16
_MAX_PANELS = 4000
_NEWTON_STEPS = 100
# innermost knots, as fractions of the scale: 1e-12 next to 0 or an exactly
# evaluated top; 1e-6 next to a top reached only by forming upper - v, which
# rounds v to steps of 1.1e-16 * upper, so the Jacobi cap covers the rest
_EDGE = 1e-12
_CAP_EDGE = 1e-6
_CAP_NODES = 24
_KNOTS_PER_SIDE = 96
_SIDE_GRID = np.geomspace(_EDGE, 0.5, _KNOTS_PER_SIDE)
_CAP_GRID = np.geomspace(_CAP_EDGE, 0.5, _KNOTS_PER_SIDE)
# quarter-octave knots above 1 toward an infinite top, _MARCH per log-density call
_MARCH_KNOTS = 2.0 ** (0.25 * np.arange(1, 1201))
_MARCH = 60
_INFINITE_START = np.concatenate([np.geomspace(_EDGE, 1.0, _KNOTS_PER_SIDE), _MARCH_KNOTS[:_MARCH]])


def _start_knots(spec: IntegrandSpec) -> list:
    """(log integrand, knots) of each side of a :class:`PanelLaw` over ``spec``, as it starts.

    The lower side runs in t itself; the upper half of a finite domain runs
    in the distance from the top.
    """
    if not math.isfinite(spec.upper):
        return [(spec.log_f, _INFINITE_START)]
    grid = spec.upper * _SIDE_GRID
    top = grid if spec.log_f_upper is not None else spec.upper * _CAP_GRID
    return [(spec.log_f, grid), (spec.log_f_from_top, top)]


def relative_to_peak(spec: IntegrandSpec) -> tuple[IntegrandSpec, float]:
    """``spec`` divided by ``exp(offset)``, and the offset.

    The offset is the largest ``log f`` on the starting knots of a
    :class:`PanelLaw` over ``spec`` (0 where f is zero on all of them), so
    the divided integrand stays in floating-point range near its peak, and
    the log of the integral is that of the divided one plus the offset.
    """
    peak = max(float(np.max(_eval_log(g, k, spec.name))) for g, k in _start_knots(spec))
    offset = peak if math.isfinite(peak) else 0.0
    top = spec.log_f_upper
    divided = replace(
        spec,
        log_f=lambda t: spec.log_f(t) - offset,
        log_f_upper=None if top is None else (lambda v: top(v) - offset),
    )
    return divided, offset


def _rule_points(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The points a + (b - a)(1 + y)/2, one row per interval [a, b]."""
    return a[:, None] + np.multiply.outer(b - a, 0.5 * (1.0 + y))


class _Panels:
    """Gauss-Legendre panels tiling one side of a panel law's domain.

    ``log_g`` is the log integrand in the side's own coordinate: the point
    itself, or, on the upper half of a finite domain, the distance from the
    top.  Values are taken relative to ``exp(shift)``, one offset for the
    whole law, which keeps them in floating-point range.  Once refined,
    ``cum[i]`` is the mass below knot ``i``, counted from the side's outer
    end and starting at the piece beyond it, and ``err`` bounds the error of
    the panel sum.
    """

    def __init__(self, log_g, knots: np.ndarray, name: str):
        self.log_g = log_g
        self.knots = knots
        self.name = name
        self.shift = 0.0
        self.cum = None
        self.err = 0.0

    def log_density(self, x: np.ndarray) -> np.ndarray:
        return _eval_log(self.log_g, x.ravel(), self.name).reshape(x.shape)

    def density(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_density(x) - self.shift)

    def node_logs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """log density at the nodes of both rules on the panels [a, b]."""
        y = np.concatenate([_gl_rule(_GL_NODES)[0], _gl_rule(_GL_COMPANION)[0]])
        return self.log_density(_rule_points(a, b, y))

    def masses(self, logs: np.ndarray, a: np.ndarray, b: np.ndarray):
        """Each panel's mass by the main rule, and its distance from the companion's."""
        f = np.exp(logs - self.shift)
        half = 0.5 * (b - a)
        main = half * (f[:, :_GL_NODES] @ _gl_rule(_GL_NODES)[1])
        companion = half * (f[:, _GL_NODES:] @ _gl_rule(_GL_COMPANION)[1])
        return main, np.abs(main - companion)

    def refine(self, mass, err, base: float, rel_tol: float, floor: float) -> None:
        """Bisect panels until each error bound is within ``rel_tol`` of its mass plus ``floor``.

        Then sets ``knots`` to the refined panels, ``cum`` to ``base`` plus
        their running sums and ``err`` to the sum of their bounds.
        """
        a, b = self.knots[:-1], self.knots[1:]
        while True:
            bad = err > rel_tol * mass + floor
            if not bad.any():
                break
            if a.size + np.count_nonzero(bad) > _MAX_PANELS:
                raise QuadratureError(
                    f"{self.name}: interior refinement budget exhausted on "
                    f"[{self.knots[0]:g}, {self.knots[-1]:g}]"
                )
            mid = 0.5 * (a[bad] + b[bad])
            new_a = np.concatenate([a[bad], mid])
            new_b = np.concatenate([mid, b[bad]])
            new_mass, new_err = self.masses(self.node_logs(new_a, new_b), new_a, new_b)
            keep = ~bad
            a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
            mass = np.concatenate([mass[keep], new_mass])
            err = np.concatenate([err[keep], new_err])
        order = np.argsort(a)
        self.knots = np.append(a[order], b[order[-1]])
        self.cum = base + np.concatenate([[0.0], np.cumsum(mass[order])])
        self.err = float(err.sum())

    def _cum_and_density(self, i: np.ndarray, x: np.ndarray):
        """``cum`` at x inside panel i (the partial panel by the main rule) and the density at x."""
        if not x.size:
            return x.copy(), x.copy()
        y, w = _gl_rule(_GL_NODES)
        a = self.knots[i]
        f = self.density(np.column_stack([_rule_points(a, x, y), x]))
        return self.cum[i] + 0.5 * (x - a) * (f[:, :-1] @ w), f[:, -1]

    def cum_at(self, x: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, self.knots.size - 2)
        return self._cum_and_density(i, x)[0]

    def solve(self, c: np.ndarray) -> np.ndarray:
        """Points x with ``cum_at(x) == c``, by Newton's method inside the panel holding c.

        Each c's panel brackets its root, the bracket shrinks with every
        iterate, and a step that leaves it becomes a bisection step.
        """
        i = np.clip(np.searchsorted(self.cum, c, side="right") - 1, 0, self.knots.size - 2)
        lo, hi = self.knots[i], self.knots[i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (c - self.cum[i]) / (self.cum[i + 1] - self.cum[i])
        x = lo + (hi - lo) * np.clip(np.nan_to_num(frac, nan=0.5), 0.0, 1.0)
        active = np.arange(c.size)
        for _ in range(_NEWTON_STEPS):
            if not active.size:
                break
            xa, la, ha = x[active], lo[active], hi[active]
            g, f = self._cum_and_density(i[active], xa)
            g -= c[active]
            la = np.where(g < 0.0, xa, la)
            ha = np.where(g > 0.0, xa, ha)
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = xa - g / f
            outside = ~((nxt > la) & (nxt < ha))
            nxt[outside] = 0.5 * (la[outside] + ha[outside])
            x[active], lo[active], hi[active] = nxt, la, ha
            active = active[np.abs(nxt - xa) > 1e-14 * nxt]
        return x


def _power_piece(side: _Panels, ends: np.ndarray, power: float) -> tuple[float, float]:
    """Mass of the analytic piece beyond the outermost knot ``ends[0]``, and its error bound.

    There f ~ c x^power, so the piece is f(ends[0]) ends[0] / |power + 1|;
    it is off by at most the log-log slope of f between ``ends`` minus
    ``power``, over |power + 1|, relative to itself.
    """
    logs = side.log_density(ends)
    mass = float(np.exp(logs[0] - side.shift)) * ends[0] / abs(power + 1.0)
    if mass == 0.0:
        return 0.0, 0.0
    slope = (logs[1] - logs[0]) / math.log(ends[1] / ends[0])
    return mass, mass * abs(slope - power) / abs(power + 1.0)


def _jacobi_cap(side: _Panels, p: float, e: float) -> tuple[float, float]:
    """Gauss-Jacobi mass of the side over (0, e], where g ~ c v^p, and its half-rule error bound."""
    masses = []
    for n in (_CAP_NODES, _CAP_NODES // 2):
        y, w = roots_jacobi(n, 0.0, p)
        v = (e / 2.0) * (1.0 + y)
        g = np.exp(side.log_density(v) - side.shift - p * np.log(v))
        masses.append((e / 2.0) ** (p + 1.0) * float(np.dot(w, g)))
    return masses[0], abs(masses[0] - masses[1])


class PanelLaw:
    """Certified panel sums of a positive integrand, with their cdf and its inverse.

    ``low`` and ``up`` are the endpoint powers of ``spec`` in the sense of
    :class:`IntegrandSpec`, both convergent; ``up`` None means a smooth
    finite top, or faster-than-power decay at infinity.  Every panel's error
    bound is held within ``rel_tol`` of its mass (or 1e-16 of the total),
    and a march toward an infinite top closes at 1e-3 * rel_tol.

    After construction ``total`` is the integral and ``err`` bounds its
    error, both in units of ``exp(shift)``, the largest integrand value at
    the first nodes.  ``cdf`` normalizes the cumulative sums; ``invert``
    maps cumulative masses in (0, total) back to points.
    """

    def __init__(self, spec: IntegrandSpec, low: float, up: float | None, rel_tol: float):
        name = spec.name
        self._upper = float(spec.upper)
        self._finite = math.isfinite(self._upper)
        self._low = low
        if self._finite and up is None:
            up = 0.0  # smooth up to the top
        self._up_power = up
        sides = [_Panels(g, knots, name) for g, knots in _start_knots(spec)]
        logs = [s.node_logs(s.knots[:-1], s.knots[1:]) for s in sides]
        self.shift = max(float(np.max(lg)) for lg in logs)
        if self.shift == -math.inf:  # zero at every node: take the integrand as it is
            self.shift = 0.0
        for s in sides:
            s.shift = self.shift
        parts = [s.masses(lg, s.knots[:-1], s.knots[1:]) for s, lg in zip(sides, logs)]
        lower = sides[0]
        mass_below, below_err = _power_piece(lower, lower.knots[:2], low)

        if not self._finite:
            # march in quarter-octaves until a shell stops mattering; shells
            # can grow at first when the mass sits above the initial grid,
            # and a shell closes nothing while no mass has been found.  A
            # declared power tail also closes once the analytic piece above a
            # shell is accurate: its relative error is at most the shell's
            # log-slope deviation from up over -up - 1, and the error it makes
            # must be within rel_tol of the mass below
            mass, err = parts[0]
            n_grid, marched = _KNOTS_PER_SIDE - 1, _MARCH
            if up is not None:
                knot_logs = lower.log_density(lower.knots[n_grid:])
            while True:
                cum = (mass_below + np.cumsum(mass))[n_grid:]
                done = mass[n_grid:] <= 1e-3 * rel_tol * cum
                if up is not None:
                    ends = lower.knots[n_grid:]
                    above = np.exp(knot_logs[1:] - lower.shift) * ends[1:] / (-up - 1.0)
                    with np.errstate(invalid="ignore"):  # underflowed densities close nothing
                        slope = np.diff(knot_logs) / np.diff(np.log(ends))
                        done |= above * np.abs(slope - up) / (-up - 1.0) <= rel_tol * cum
                closed = np.flatnonzero(done & (cum > 0.0))
                if closed.size:
                    n = n_grid + int(closed[0]) + 1
                    lower.knots, parts[0] = lower.knots[: n + 1], (mass[:n], err[:n])
                    break
                if marched == _MARCH_KNOTS.size:
                    raise QuadratureError(
                        f"{name}: tail failed to close after {_MARCH_KNOTS.size} quarter-octaves"
                    )
                b = _MARCH_KNOTS[marched : marched + _MARCH]
                a = np.concatenate([lower.knots[-1:], b[:-1]])
                more_mass, more_err = lower.masses(lower.node_logs(a, b), a, b)
                lower.knots = np.concatenate([lower.knots, b])
                mass, err = np.concatenate([mass, more_mass]), np.concatenate([err, more_err])
                if up is not None:
                    knot_logs = np.concatenate([knot_logs, lower.log_density(b)])
                marched += _MARCH

        if self._finite:
            top = sides[1]
            self._up_edge = top.knots[0]
            if spec.log_f_upper is None:
                mass_above, above_err = _jacobi_cap(top, up, self._up_edge)
            else:
                mass_above, above_err = _power_piece(top, top.knots[:2], up)
        else:
            self._up_edge = lower.knots[-1]
            # faster-than-power decay: the stopping rule already pushed the
            # residual tail below noise, drop it
            mass_above, above_err = 0.0, 0.0
            if up is not None:
                mass_above, above_err = _power_piece(lower, lower.knots[:-3:-1], up)

        total = mass_below + mass_above + sum(float(m.sum()) for m, _ in parts)
        if not math.isfinite(total):
            raise QuadratureError(f"{name}: overflow inside an interior panel")
        for s, (mass, err), base in zip(sides, parts, (mass_below, mass_above)):
            s.refine(mass, err, base, rel_tol, _ABS_TOL * total)
        self._sides = sides
        self._mass_below = mass_below
        self._mass_above = mass_above
        self.total = float(lower.cum[-1] + (sides[1].cum[-1] if self._finite else mass_above))
        self.err = below_err + above_err + sum(s.err for s in sides)

    def cdf(self, t) -> np.ndarray:
        """Normalized cumulative sum at the points ``t``."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        lower = self._sides[0]
        t0, t_end = lower.knots[0], lower.knots[-1]
        below = t <= t0
        above = t >= t_end
        inner = ~(below | above)
        out[below] = self._mass_below * (np.clip(t[below], 0.0, None) / t0) ** (self._low + 1.0)
        out[inner] = lower.cum_at(t[inner])
        if self._finite:
            v = np.clip(self._upper - t[above], 0.0, None)
            top = v <= self._up_edge
            rest = np.empty(v.shape)
            rest[top] = self._mass_above * (v[top] / self._up_edge) ** (self._up_power + 1.0)
            rest[~top] = self._sides[1].cum_at(v[~top])
            out[above] = self.total - rest
        elif self._up_power is not None:
            out[above] = self.total - self._mass_above * (t[above] / self._up_edge) ** (
                self._up_power + 1.0
            )
        else:
            out[above] = self.total
        return np.clip(out / self.total, 0.0, 1.0)

    def invert(self, c: np.ndarray) -> np.ndarray:
        """The points at which the cumulative sum reaches ``c``."""
        out = np.empty(c.shape)
        # strict, so that c = 0 on a law whose mass below the first knot
        # underflowed to 0 is solved in the panels rather than read as 0/0
        below = c < self._mass_below
        frac = c[below] / self._mass_below
        out[below] = self._sides[0].knots[0] * frac ** (1.0 / (self._low + 1.0))
        top = ~below & (self._mass_above > 0.0) & (c >= self.total - self._mass_above)
        if top.any():
            frac = (self.total - c[top]) / self._mass_above
            with np.errstate(divide="ignore", over="ignore"):
                far = self._up_edge * frac ** (1.0 / (self._up_power + 1.0))
            out[top] = self._upper - far if self._finite else far
        rest = ~(below | top)
        if self._finite:
            high = rest & (c >= self._sides[0].cum[-1])
            out[high] = self._upper - self._sides[1].solve(self.total - c[high])
            rest &= ~high
        out[rest] = self._sides[0].solve(c[rest])
        return out


# --- the public entry point -------------------------------------------------


def integrate(spec: IntegrandSpec, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate ``spec`` over its domain with a :class:`PanelLaw`.

    ``rel_tol`` bounds each panel's error relative to the panel's mass.
    Returns ``(value, err_est)`` where ``err_est`` is a conservative
    absolute-error estimate: the panels' companion-rule bounds plus those
    of the end pieces.

    Raises
    ------
    SingularityMismatch
        A declared endpoint power disagrees with the probed behaviour.
    DivergenceSuspected
        A declared-divergent endpoint was confirmed by shell evidence
        (contributions toward the endpoint fail to decay).
    QuadratureError
        Refinement budgets were exhausted, or the error estimate landed
        far above the requested tolerance.
    """
    if not 0.0 < rel_tol < 1.0:
        raise QuadratureError("rel_tol must lie in (0, 1)")
    name = spec.name
    finite = math.isfinite(spec.upper)
    scale = min(spec.upper, 1.0) / 2.0 if finite else 0.5

    log_f_upper = spec.log_f_from_top if finite else None

    # Validate declarations before trusting them.
    _check_power(spec.log_f, scale * np.array(_PROBE_OFFSETS), spec.lower_order, name, "lower")
    if spec.upper_order is not None:
        if finite:
            _check_power(
                log_f_upper, scale * np.array(_PROBE_OFFSETS), spec.upper_order, name, "upper"
            )
        else:
            _check_power(
                spec.log_f, 1.0 / np.array(_PROBE_OFFSETS), spec.upper_order, name, "upper"
            )

    # Declared-divergent endpoints: gather evidence and raise.  Orders
    # within probe noise of the -1 boundary go to the screen too: an
    # analytic end piece divides by the power plus one, and an integral that
    # close to divergent is better reported than summed.
    if spec.lower_order <= -1.0 + _ORDER_EPS:
        _divergence_screen(spec.log_f, scale, outward=False, name=name, where="the lower endpoint")
    if spec.upper_order is not None:
        if finite and spec.upper_order <= -1.0 + _ORDER_EPS:
            _divergence_screen(
                log_f_upper, scale, outward=False, name=name, where="the upper endpoint"
            )
        if not finite and spec.upper_order >= -1.0 - _ORDER_EPS:
            _divergence_screen(spec.log_f, 2.0, outward=True, name=name, where="infinity")

    law = PanelLaw(spec, spec.lower_order, spec.upper_order, rel_tol)
    with np.errstate(over="ignore"):
        unit = float(np.exp(law.shift))
    value, err = law.total * unit, law.err * unit
    if not math.isfinite(value):
        raise QuadratureError(f"{name}: overflow inside an interior panel")
    if err > 50.0 * rel_tol * max(abs(value), 1e-300):
        raise QuadratureError(
            f"{name}: error estimate {err:.3e} is far above the requested "
            f"tolerance for value {value:.6e}"
        )
    return value, err
