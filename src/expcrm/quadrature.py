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

An integrand may have columns: k integrands over the same domain, evaluated
together as an (n, k) matrix at n points, with one declared power per column
and end.  A law over them shares one set of panels: a panel is bisected
while any column's bound exceeds ``rel_tol`` of that column's mass, and the
march toward infinity closes once every column has closed.  A rate row or a
predictive chunk of an exponential family, whose cells are all
``exp(<xi_c, eta(t)> - lam_c A(t))``, is integrated this way in one law.

:func:`integrate` validates each declared power against a log-log slope
probe (a wrong declaration raises :class:`~expcrm.errors.SingularityMismatch`
instead of silently producing a wrong number), and detects divergent
integrals by direct evidence: the integral over the geometric shells
[T*10^-(k+1), T*10^-k] must decay as the shells approach the endpoint;
contributions that hold steady or grow raise
:class:`~expcrm.errors.DivergenceSuspected`.  This catches both power
divergence (shells grow geometrically) and the marginal logarithmic case
(shells hold constant), which no fixed growth-factor threshold can see.
:func:`probed_orders` measures the powers with the same slope rule, so a
probed power always passes the check.

Evaluators work in log space (``log_f``), and the panels take each column
relative to its largest value at their first nodes, raised if a march
toward infinity finds far larger values, so kernels with huge dynamic range
never overflow.  :func:`log_integrate` returns the logs of the integrals,
which may lie outside floating-point range; :func:`relative_to_peak` divides
an integrand by its peak on the starting knots for a caller that keeps the
offset itself.
"""

from __future__ import annotations

import math
import sys
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

_PROBE_OFFSETS = np.array((1e-4, 10**-5.5, 1e-7))
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
        Vectorized map from an array of n interior points to ``log f``:
        shape (n,), or (n, k) for an integrand of k columns.  Values of
        ``-inf`` (f == 0) are tolerated, NaN and ``+inf`` are not.
    upper : float
        Right endpoint: any positive finite value, or ``math.inf``.
    lower_order : float, array or None
        The power q with f(t) ~ c * t^q as t -> 0+, one per column. Declaring
        q <= -1 asserts the integral diverges at 0; the integrator then
        verifies that claim and raises ``DivergenceSuspected``.  ``None``
        declares neither power: the integrator measures both with
        :func:`probed_orders`, and ``upper_order`` must be None too.
    upper_order : float, array or None
        At a finite endpoint, the power p with f ~ c * (upper - t)^p
        (``None`` means f is smooth up to the endpoint). At infinity, the
        power p with f ~ c * t^p (``None`` means faster-than-power decay,
        e.g. exponential). Powers p >= -1 at infinity or p <= -1 at a
        finite endpoint assert divergence there.  With columns, an array
        whose NaN entries stand for ``None``.
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
    lower_order: float | np.ndarray | None
    upper_order: float | np.ndarray | None = None
    log_f_upper: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "integrand"

    def __post_init__(self):
        if not (self.upper > 0):
            raise QuadratureError(f"{self.name}: upper endpoint must be positive")
        up = self.upper_order  # NaN stands for None in a column, not for a whole spec
        if self.lower_order is None:
            if up is not None:
                raise QuadratureError(f"{self.name}: an upper_order needs a lower_order")
        elif not np.isfinite(self.lower_order).all():
            raise QuadratureError(f"{self.name}: lower_order must be finite")
        if up is not None and (np.isinf(up).any() or (np.ndim(up) == 0 and np.isnan(up))):
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
    if not (out < math.inf).all():  # NaN or +inf
        bad = t[~(out < math.inf).reshape(t.size, -1).all(axis=1)]
        raise QuadratureError(f"{name}: evaluator returned NaN/+inf near t={bad[:3]}")
    return out


def _scalar_or_columns(values):
    """A float for a one-column result, else the array of one value per column."""
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


# --- the slope rule ---------------------------------------------------------


def _slope(log_f, points: np.ndarray, finer: float, name: str):
    """Log-log slope of ``f`` at ``points``, refined by one Richardson step.

    A least-squares fit at one scale is contaminated by the analytic factor
    of the integrand, linearly in the probe scale; fits at scales s and
    ``finer`` * s cancel that term.  ``finer`` < 1 probes toward a finite
    endpoint, > 1 toward infinity.  One slope per column of ``log_f``; NaN
    for a column that is zero at a probe point.
    """
    n = points.size
    both = np.concatenate([points, finer * points])
    values = _eval_log(log_f, both, name)
    zero = ~np.isfinite(values).all(axis=0)
    if zero.any():
        values = np.where(zero, 0.0, values)
    fits = []
    for pts, vals in ((both[:n], values[:n]), (both[n:], values[n:])):
        x = np.log(pts)
        x = x - x.mean()
        fits.append(np.dot(x, vals - vals.mean(axis=0)) / np.dot(x, x))
    # contaminant shrinks by k moving toward the endpoint
    k = finer if finer < 1.0 else 1.0 / finer
    return np.where(zero, np.nan, (fits[1] - k * fits[0]) / (1.0 - k))


def _probe_points(upper: float) -> tuple:
    """(points, refinement) of the slope rule at 0 and at the top.

    Probes sit at 1e-4 to 1e-7 of half the scale, refined ten times closer
    to a finite end; toward infinity at 1e4 to 1e7, refined ten times
    farther out.
    """
    if math.isfinite(upper):
        pts = min(upper, 1.0) / 2.0 * _PROBE_OFFSETS
        return (pts, 0.1), (pts, 0.1)
    return (0.5 * _PROBE_OFFSETS, 0.1), (1.0 / _PROBE_OFFSETS, 10.0)


def probed_orders(log_f, upper: float) -> tuple:
    """Measure both endpoint powers of a positive integrand on (0, upper).

    Returns (lower_order, upper_order) in the sense of
    :class:`IntegrandSpec`, one per column of ``log_f``; an
    infinite-endpoint slope steeper than any reasonable power is reported
    as ``None`` (faster-than-power decay), or NaN in a column.
    """
    upper = float(upper)
    if not upper > 0.0:
        raise QuadratureError("probed_orders needs a positive upper endpoint")
    finite = math.isfinite(upper)
    log_top = (lambda v: log_f(upper - np.asarray(v, dtype=float))) if finite else log_f
    at_low, at_top = _probe_points(upper)
    low, up = _slope(log_f, *at_low, "probe"), _slope(log_top, *at_top, "probe")
    if np.isnan(low).any() or np.isnan(up).any():
        raise QuadratureError("cannot probe an endpoint power where f is zero")
    if not finite:
        up = np.where(up < -40.0, np.nan, up)
    up = _scalar_or_columns(up)
    return _scalar_or_columns(low), (None if np.ndim(up) == 0 and math.isnan(up) else up)


def _check_power(slope, declared, name: str, where: str) -> None:
    """Raise unless each declared power (NaN: none declared) matches its probed ``slope``."""
    slope, declared = np.asarray(slope), np.asarray(declared, dtype=float)
    checked = ~np.isnan(declared)
    if np.isnan(slope[checked]).any():
        raise SingularityMismatch(
            f"{name}: evaluator is zero at the {where} probe points; "
            "cannot verify the declared endpoint power"
        )
    off = np.flatnonzero((np.abs(slope - declared) > SLOPE_TOL).ravel())
    if off.size:
        col = "" if declared.ndim == 0 else f" (column {off[0]})"
        raise SingularityMismatch(
            f"{name}: declared {where} power {declared.flat[off[0]]:g}{col} but the probe "
            f"measured {np.ravel(slope)[off[0]]:.3f}"
        )


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
# the largest log whose exp is a finite double
_LOG_MAX = math.log(sys.float_info.max)


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
    top.  Every per-column quantity has a leading axis of one entry per
    column.  Values are taken relative to ``exp(shift)``, one offset per
    column for the whole law, which keeps them in floating-point range.
    Once refined, ``cum[c, i]`` is column c's mass below knot ``i``, counted
    from the side's outer end and starting at the piece beyond it, and
    ``err[c]`` bounds the error of its panel sum.
    """

    def __init__(self, log_g, knots: np.ndarray, name: str):
        self.log_g = log_g
        self.knots = knots
        self.name = name
        self.shift = np.zeros(1)
        self.cum = None
        self.err = None

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """log density at the points x, shape (columns, *x.shape)."""
        out = _eval_log(self.log_g, x.ravel(), self.name)
        cols = out[None] if out.ndim == 1 else out.T
        return cols.reshape(cols.shape[0], *x.shape)

    def node_logs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """log density at the nodes of both rules on the panels [a, b]."""
        y = np.concatenate([_gl_rule(_GL_NODES)[0], _gl_rule(_GL_COMPANION)[0]])
        return self.log_density(_rule_points(a, b, y))

    def masses(self, logs: np.ndarray, a: np.ndarray, b: np.ndarray):
        """Each panel's mass by the main rule, and its distance from the companion's."""
        f = np.exp(logs - self.shift[:, None, None])
        half = 0.5 * (b - a)
        main = half * (f[..., :_GL_NODES] @ _gl_rule(_GL_NODES)[1])
        companion = half * (f[..., _GL_NODES:] @ _gl_rule(_GL_COMPANION)[1])
        return main, np.abs(main - companion)

    def refine(self, mass, err, base, rel_tol: float, floor) -> None:
        """Bisect panels until every column's bound is within ``rel_tol`` of its mass plus ``floor``.

        Then sets ``knots`` to the refined panels, ``cum`` to ``base`` plus
        their running sums and ``err`` to the sum of their bounds.
        """
        a, b = self.knots[:-1], self.knots[1:]
        floor = floor[:, None]
        while True:
            bad = (err > rel_tol * mass + floor).any(axis=0)
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
            mass = np.concatenate([mass[:, keep], new_mass], axis=1)
            err = np.concatenate([err[:, keep], new_err], axis=1)
        order = np.argsort(a)
        self.knots = np.append(a[order], b[order[-1]])
        running = np.cumsum(mass[:, order], axis=1)
        self.cum = base[:, None] + np.concatenate([np.zeros((running.shape[0], 1)), running], axis=1)
        self.err = err.sum(axis=1)

    def _first_cum(self) -> np.ndarray:
        """The running sums of the first column: the inverse belongs to one-column laws."""
        return self.cum.reshape(-1, self.knots.size)[0]

    def _cum_and_density(self, i: np.ndarray, x: np.ndarray, cum: np.ndarray):
        """``cum`` at x inside panel i (the partial panel by the main rule) and the density at x.

        Of the first column, whose running sums are ``cum``.
        """
        if not x.size:
            return x.copy(), x.copy()
        y, w = _gl_rule(_GL_NODES)
        a = self.knots[i]
        pts = np.column_stack([_rule_points(a, x, y), x])
        f = np.exp(self.log_density(pts)[0] - self.shift[0])
        return cum[i] + 0.5 * (x - a) * (f[:, :-1] @ w), f[:, -1]

    def cum_at(self, x: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, self.knots.size - 2)
        return self._cum_and_density(i, x, self._first_cum())[0]

    def solve(self, c: np.ndarray) -> np.ndarray:
        """Points x with ``cum_at(x) == c``, by Newton's method inside the panel holding c.

        Each c's panel brackets its root, the bracket shrinks with every
        iterate, and a step that leaves it becomes a bisection step.
        """
        cum = self._first_cum()
        i = np.clip(np.searchsorted(cum, c, side="right") - 1, 0, self.knots.size - 2)
        lo, hi = self.knots[i], self.knots[i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (c - cum[i]) / (cum[i + 1] - cum[i])
        x = lo + (hi - lo) * np.clip(np.nan_to_num(frac, nan=0.5), 0.0, 1.0)
        active = np.arange(c.size)
        for _ in range(_NEWTON_STEPS):
            if not active.size:
                break
            xa, la, ha = x[active], lo[active], hi[active]
            g, f = self._cum_and_density(i[active], xa, cum)
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


def _power_piece(side: _Panels, ends: np.ndarray, power: np.ndarray):
    """Each column's mass of the analytic piece beyond the outermost knot ``ends[0]``, and its error bound.

    There f ~ c x^power, so the piece is f(ends[0]) ends[0] / |power + 1|;
    it is off by at most the log-log slope of f between ``ends`` minus
    ``power``, over |power + 1|, relative to itself.  A column whose piece
    underflows to 0 has no error either.
    """
    logs = side.log_density(ends)
    mass = np.exp(logs[:, 0] - side.shift) * ends[0] / np.abs(power + 1.0)
    rise = np.subtract(logs[:, 1], logs[:, 0], out=np.zeros(mass.size), where=mass > 0.0)
    return mass, mass * np.abs(rise / math.log(ends[1] / ends[0]) - power) / np.abs(power + 1.0)


def _jacobi_cap(side: _Panels, p: np.ndarray, e: float):
    """Each column's Gauss-Jacobi mass over (0, e], where g ~ c v^p, and its half-rule error bound."""
    mass, err = np.empty(p.size), np.empty(p.size)
    for q in np.unique(p):
        cols = np.flatnonzero(p == q)
        masses = []
        for n in (_CAP_NODES, _CAP_NODES // 2):
            y, w = roots_jacobi(n, 0.0, q)
            v = (e / 2.0) * (1.0 + y)
            logs = side.log_density(v)
            masses.append([
                (e / 2.0) ** (q + 1.0) * float(np.dot(w, np.exp(logs[c] - side.shift[c] - q * np.log(v))))
                for c in cols
            ])
        mass[cols] = masses[0]
        err[cols] = np.abs(np.subtract(*masses))
    return mass, err


class PanelLaw:
    """Certified panel sums of a positive integrand, with their cdf and its inverse.

    ``low`` and ``up`` are the endpoint powers of ``spec`` in the sense of
    :class:`IntegrandSpec`, both convergent: floats for an integrand of one
    column, arrays of one power per column otherwise.  ``up`` None (NaN in
    a column) means a smooth finite top, or faster-than-power decay at
    infinity.  Every panel's error bound is held within ``rel_tol`` of its
    mass (or 1e-16 of the total) in every column, and a march toward an
    infinite top closes at 1e-3 * rel_tol once every column has.

    After construction ``total`` is the integral and ``err`` bounds its
    error, both in units of ``exp(shift)``, the largest integrand value at
    the first nodes (raised where a march toward infinity found values
    that would overflow against it); all three are floats for one column
    and arrays of one entry per column otherwise.  ``cdf`` normalizes the
    cumulative sums of a one-column law; ``invert`` maps cumulative masses
    in (0, total) back to points.
    """

    def __init__(self, spec: IntegrandSpec, low, up, rel_tol: float):
        name = spec.name
        self._upper = float(spec.upper)
        self._finite = math.isfinite(self._upper)
        one_column = np.ndim(low) == 0
        sides = [_Panels(g, knots, name) for g, knots in _start_knots(spec)]
        logs = [s.node_logs(s.knots[:-1], s.knots[1:]) for s in sides]
        k = logs[0].shape[0]
        low = np.full(k, low, dtype=float)
        up = np.full(k, np.nan if up is None else up, dtype=float)
        if self._finite:
            up[np.isnan(up)] = 0.0  # smooth up to the top
        power = ~np.isnan(up)
        any_power = bool(power.any())
        shift = np.max([lg.max(axis=(1, 2)) for lg in logs], axis=0)
        shift[shift == -math.inf] = 0.0  # zero at every node: take the integrand as it is
        for s in sides:
            s.shift = shift
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
            # must be within rel_tol of the mass below.  The march ends at
            # the first shell by which every column has closed
            mass, err = parts[0]
            n_grid, marched = _KNOTS_PER_SIDE - 1, _MARCH
            p = up[:, None]
            if any_power:
                knot_logs = lower.log_density(lower.knots[n_grid:])
            while True:
                cum = (mass_below[:, None] + np.cumsum(mass, axis=1))[:, n_grid:]
                done = mass[:, n_grid:] <= 1e-3 * rel_tol * cum
                if any_power:
                    ends = lower.knots[n_grid:]
                    above = np.exp(knot_logs[:, 1:] - lower.shift[:, None]) * ends[1:] / (-p - 1.0)
                    with np.errstate(invalid="ignore"):  # underflowed densities close nothing
                        slope = np.diff(knot_logs) / np.diff(np.log(ends))
                        done |= above * np.abs(slope - p) / (-p - 1.0) <= rel_tol * cum
                done &= cum > 0.0
                if done.any(axis=1).all():
                    n = n_grid + int(done.argmax(axis=1).max()) + 1
                    lower.knots, parts[0] = lower.knots[: n + 1], (mass[:, :n], err[:, :n])
                    break
                if marched == _MARCH_KNOTS.size:
                    raise QuadratureError(
                        f"{name}: tail failed to close after {_MARCH_KNOTS.size} quarter-octaves"
                    )
                b = _MARCH_KNOTS[marched : marched + _MARCH]
                a = np.concatenate([lower.knots[-1:], b[:-1]])
                new_logs = lower.node_logs(a, b)
                peak = new_logs.max(axis=(1, 2))
                over = peak - lower.shift > _LOG_MAX
                if over.any():
                    # the mass lies far above the nodes that set the shift:
                    # rescale what is summed so far and raise the shift to
                    # the new peak, so the new shells stay in range
                    raised = np.where(over, peak, lower.shift)
                    scale = np.exp(lower.shift - raised)
                    mass, err = mass * scale[:, None], err * scale[:, None]
                    mass_below, below_err = mass_below * scale, below_err * scale
                    lower.shift = raised
                more_mass, more_err = lower.masses(new_logs, a, b)
                lower.knots = np.concatenate([lower.knots, b])
                mass = np.concatenate([mass, more_mass], axis=1)
                err = np.concatenate([err, more_err], axis=1)
                if any_power:
                    knot_logs = np.concatenate([knot_logs, lower.log_density(b)], axis=1)
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
            mass_above, above_err = np.zeros(k), np.zeros(k)
            if any_power:
                piece, piece_err = _power_piece(lower, lower.knots[:-3:-1], up)
                mass_above = np.where(power, piece, 0.0)
                above_err = np.where(power, piece_err, 0.0)

        total = mass_below + mass_above + sum(m.sum(axis=1) for m, _ in parts)
        if not np.isfinite(total).all():
            raise QuadratureError(f"{name}: overflow inside an interior panel")
        for s, (mass, err), base in zip(sides, parts, (mass_below, mass_above)):
            s.refine(mass, err, base, rel_tol, _ABS_TOL * total)
        self._sides = sides
        self._low, self._up_power = low, up
        self._mass_below = mass_below
        self._mass_above = mass_above
        total = lower.cum[:, -1] + (sides[1].cum[:, -1] if self._finite else mass_above)
        err = below_err + above_err + sum(s.err for s in sides)
        if one_column:
            self.shift, self.total, self.err = (float(v[0]) for v in (lower.shift, total, err))
        else:
            self.shift, self.total, self.err = lower.shift, total, err

    def cdf(self, t) -> np.ndarray:
        """Normalized cumulative sum at the points ``t`` (one-column laws)."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        lower = self._sides[0]
        t0, t_end = lower.knots[0], lower.knots[-1]
        below = t <= t0
        above = t >= t_end
        inner = ~(below | above)
        out[below] = self._mass_below[0] * (np.clip(t[below], 0.0, None) / t0) ** (self._low[0] + 1.0)
        out[inner] = lower.cum_at(t[inner])
        up = self._up_power[0]
        if self._finite:
            v = np.clip(self._upper - t[above], 0.0, None)
            top = v <= self._up_edge
            rest = np.empty(v.shape)
            rest[top] = self._mass_above[0] * (v[top] / self._up_edge) ** (up + 1.0)
            rest[~top] = self._sides[1].cum_at(v[~top])
            out[above] = self.total - rest
        elif not np.isnan(up):
            out[above] = self.total - self._mass_above[0] * (t[above] / self._up_edge) ** (up + 1.0)
        else:
            out[above] = self.total
        return np.clip(out / self.total, 0.0, 1.0)

    def invert(self, c: np.ndarray) -> np.ndarray:
        """The points at which the cumulative sum reaches ``c`` (one-column laws)."""
        out = np.empty(c.shape)
        mass_below, mass_above = self._mass_below[0], self._mass_above[0]
        # strict, so that c = 0 on a law whose mass below the first knot
        # underflowed to 0 is solved in the panels rather than read as 0/0
        below = c < mass_below
        frac = c[below] / mass_below
        out[below] = self._sides[0].knots[0] * frac ** (1.0 / (self._low[0] + 1.0))
        top = ~below & (mass_above > 0.0) & (c >= self.total - mass_above)
        if top.any():
            frac = (self.total - c[top]) / mass_above
            with np.errstate(divide="ignore", over="ignore"):
                far = self._up_edge * frac ** (1.0 / (self._up_power[0] + 1.0))
            out[top] = self._upper - far if self._finite else far
        rest = ~(below | top)
        if self._finite:
            high = rest & (c >= self._sides[0]._first_cum()[-1])
            out[high] = self._upper - self._sides[1].solve(self.total - c[high])
            rest &= ~high
        out[rest] = self._sides[0].solve(c[rest])
        return out


# --- the public entry points ------------------------------------------------


def _checked_law(spec: IntegrandSpec, rel_tol: float) -> PanelLaw:
    """The :class:`PanelLaw` of ``spec`` once its declared powers have passed the slope rule.

    Powers ``spec`` leaves undeclared are measured by the same rule.  A
    column divergent at an end goes to the shell screen, which raises
    either way.
    """
    if not 0.0 < rel_tol < 1.0:
        raise QuadratureError("rel_tol must lie in (0, 1)")
    name = spec.name
    finite = math.isfinite(spec.upper)
    scale = min(spec.upper, 1.0) / 2.0 if finite else 0.5
    log_top = spec.log_f_from_top if finite else spec.log_f
    if spec.lower_order is None:
        # nothing declared: the slope rule measures the powers, which need no check
        low, up = probed_orders(spec.log_f, spec.upper)
        spec = replace(spec, lower_order=low, upper_order=up)
    else:
        # validate declarations before trusting them
        at_low, at_top = _probe_points(spec.upper)
        _check_power(_slope(spec.log_f, *at_low, name), spec.lower_order, name, "lower")
        if spec.upper_order is not None and not np.isnan(spec.upper_order).all():
            _check_power(_slope(log_top, *at_top, name), spec.upper_order, name, "upper")

    # Declared-divergent endpoints: gather evidence and raise.  Orders
    # within probe noise of the -1 boundary go to the screen too: an
    # analytic end piece divides by the power plus one, and an integral that
    # close to divergent is better reported than summed.
    def column(log_g, c):
        return log_g if np.ndim(spec.lower_order) == 0 else (lambda t: log_g(t)[:, c])

    for c, q in enumerate(np.atleast_1d(spec.lower_order)):
        if q <= -1.0 + _ORDER_EPS:
            _divergence_screen(
                column(spec.log_f, c), scale, outward=False, name=name, where="the lower endpoint"
            )
    if spec.upper_order is not None:
        for c, p in enumerate(np.atleast_1d(spec.upper_order)):
            if finite and p <= -1.0 + _ORDER_EPS:
                _divergence_screen(
                    column(log_top, c), scale, outward=False, name=name, where="the upper endpoint"
                )
            if not finite and p >= -1.0 - _ORDER_EPS:
                _divergence_screen(
                    column(spec.log_f, c), 2.0, outward=True, name=name, where="infinity"
                )

    return PanelLaw(spec, spec.lower_order, spec.upper_order, rel_tol)


def integrate(spec: IntegrandSpec, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate a one-column ``spec`` over its domain with a :class:`PanelLaw`.

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
    name = spec.name
    law = _checked_law(spec, rel_tol)
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


def log_integrate(spec: IntegrandSpec, rel_tol: float = 1e-10):
    """The log of each column's integral over the domain, from one :class:`PanelLaw`.

    A float for a one-column ``spec``, else an array of one log per column.
    An integral inside floating-point range gives the log of its value; one
    beyond it, the log of the law's total plus its shift, so the result is
    exact either way.  Raises as :func:`integrate` does, and when a column's
    integral vanishes.
    """
    law = _checked_law(spec, rel_tol)
    logs = []
    for total, err, shift in zip(*(np.atleast_1d(v) for v in (law.total, law.err, law.shift))):
        if err > 50.0 * rel_tol * total:
            raise QuadratureError(
                f"{spec.name}: error estimate {err:.3e} is far above the requested "
                f"tolerance for total {total:.6e} (in units of exp({shift:g}))"
            )
        if not total > 0.0:
            raise QuadratureError(f"{spec.name}: the integral vanished")
        with np.errstate(over="ignore"):
            value = total * float(np.exp(shift))
        logs.append(math.log(value) if 0.0 < value < math.inf else math.log(total) + shift)
    return _scalar_or_columns(logs[0] if np.ndim(law.total) == 0 else np.array(logs))
