"""Quadrature for improper integrals with power-law endpoint behaviour.

Every integral this package needs has the shape

    integral of f(t) dt over (0, U),   U finite or infinite,

where f is smooth and positive inside the interval but may blow up or vanish
like a power at the endpoints: f(t) ~ c * t^q as t -> 0, and at a finite
upper endpoint f(t) ~ c * (U - t)^p, or f(t) ~ c * t^p as t -> infinity.
Callers declare those powers in an :class:`IntegrandSpec`.  One engine,
:class:`PanelLaw`, sums them all, and the quadrature family's weight
draws invert its cumulative sums.  It tiles (0, U) with 12-node Gauss-Legendre panels,
graded geometrically from 1e-12 of the scale at each end (in the distance
from a finite top) and marched in quarter-octaves toward infinity until the
tail closes: a law that decays faster than a power marches first to 2^2,
and each later batch doubles the panels marched so far, while a declared
power tail marches 60 panels at a time (to 2^15, 2^30, ...).  Each panel
is bisected until its distance from a 6-node companion rule is within
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

Inversion (:func:`invert`) runs the other way round: many one-column laws,
one per weight law of a draw, each with masses to invert.  Masses inside
the analytic end pieces invert in closed form; all the others, of every
law and either side of a finite domain, share one Newton loop that evaluates
the integrands once per iteration at every point, each point inside its
own law's panel bracket, with its own running sum and shift.  Each point's
arithmetic is the same in a batch of any size, so a law inverted alone
gives the bytes it gives in company.

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
probed power always passes the check.  The probe, the check and the panels
reach a finite top one way, :meth:`IntegrandSpec.log_f_from_top`: through
the spec's stable top evaluator when it has one.

Every law passes one gate, :func:`checked_law`: the slope rule checks the
declared powers or measures the undeclared ones, the shell screens meet
every divergent end, and only then is the :class:`PanelLaw` built.
:func:`integrate` and :func:`log_integrate` certify its totals by one rule,
and weight draws invert its laws uncertified.

Evaluators work in log space (``log_f``), and the panels take each column
relative to its largest value at their first nodes (those of the first
march toward infinity), raised if a later batch of the march finds values
more than half the exponent range above it, so kernels with huge dynamic
range never overflow.  :func:`log_integrate` returns the logs of the
integrals, which may lie outside floating-point range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi

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
        like (1 - t)^p and v is tiny; the probe, the check and the panels
        all use it. Ignored when ``upper`` is infinite.
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


# The Gauss-Legendre rules the engine uses, as scipy.special.roots_legendre
# computes them (the tests pin the bytes): the positive nodes, ascending, and
# their weights.  Computing a rule imports scipy.linalg, about 60 ms of a
# fresh interpreter's first quadrature.
_GL_HALVES = {
    6: (
        (0.23861918608319693, 0.6612093864662645, 0.932469514203152),
        (0.4679139345726912, 0.36076157304813855, 0.17132449237917016),
    ),
    12: (
        (0.12523340851146897, 0.36783149899818013, 0.5873179542866175, 0.7699026741943047,
         0.9041172563704749, 0.9815606342467192),
        (0.2491470458134026, 0.2334925365383547, 0.20316742672306573, 0.16007832854334608,
         0.10693932599531782, 0.04717533638651319),
    ),
    24: (
        (0.06405689286260563, 0.19111886747361626, 0.31504267969616334, 0.4337935076260452,
         0.5454214713888395, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
         0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
        (0.12793819534675197, 0.12583745634682822, 0.12167047292780316, 0.11550566805372539,
         0.10744427011596587, 0.09761865210411405, 0.08619016153195355, 0.07334648141108017,
         0.05929858491543661, 0.04427743881742018, 0.028531388628932657, 0.012341229799988262),
    ),
}


@lru_cache(maxsize=2048)
def _gl_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], for n in ``_GL_HALVES``."""
    y, w = (np.array(v) for v in _GL_HALVES[n])
    return np.concatenate([-y[::-1], y]), np.concatenate([w[::-1], w])


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


def _slope(log_f, probe: tuple, name: str):
    """Log-log slope of ``f`` at a probe of :func:`_probe_points`, refined by one Richardson step.

    A least-squares fit at one scale is contaminated by the analytic factor
    of the integrand, linearly in the probe scale; fits at scales s and
    ``finer`` * s cancel that term.  ``finer`` < 1 probes toward a finite
    endpoint, > 1 toward infinity.  One slope per column of ``log_f``; NaN
    for a column that is zero at a probe point.
    """
    both, scales, finer = probe
    values = _eval_log(log_f, both, name)
    zero = ~np.isfinite(values).all(axis=0)
    if zero.any():
        values = np.where(zero, 0.0, values)
    n = both.size // 2
    fits = [
        np.dot(x, vals - vals.mean(axis=0)) / xx
        for (x, xx), vals in zip(scales, (values[:n], values[n:]))
    ]
    # contaminant shrinks by k moving toward the endpoint
    k = finer if finer < 1.0 else 1.0 / finer
    return np.where(zero, np.nan, (fits[1] - k * fits[0]) / (1.0 - k))


def _probe(points: np.ndarray, finer: float) -> tuple:
    """The slope rule's probe at ``points`` and ``finer`` times them: both sets of points,
    each set's centred log points with their squared norm, and ``finer``."""
    both = np.concatenate([points, finer * points])
    both.flags.writeable = False  # every law with this domain reads these points
    scales = []
    for pts in (both[: points.size], both[points.size :]):
        x = np.log(pts)
        x = x - x.mean()
        scales.append((x, np.dot(x, x)))
    return both, tuple(scales), finer


@lru_cache(maxsize=256)
def _probe_points(upper: float) -> tuple:
    """The probes of the slope rule at 0 and at the top, each from :func:`_probe`.

    Probes sit at 1e-4 to 1e-7 of half the scale, refined ten times closer
    to a finite end; toward infinity at 1e4 to 1e7, refined ten times
    farther out.  Every law over a domain probes the same points.
    """
    if math.isfinite(upper):
        probe = _probe(min(upper, 1.0) / 2.0 * _PROBE_OFFSETS, 0.1)
        return probe, probe
    return _probe(0.5 * _PROBE_OFFSETS, 0.1), _probe(1.0 / _PROBE_OFFSETS, 10.0)


def probed_orders(spec: IntegrandSpec) -> tuple:
    """Measure both endpoint powers of ``spec``'s integrand, whatever it declares.

    Returns (lower_order, upper_order) in the sense of
    :class:`IntegrandSpec`, one per column; an infinite-endpoint slope
    steeper than any reasonable power is reported as ``None``
    (faster-than-power decay), or NaN in a column.  A finite top is probed
    through :meth:`IntegrandSpec.log_f_from_top`, the way the declaration
    check and the panels reach it.
    """
    finite = math.isfinite(spec.upper)
    at_low, at_top = _probe_points(spec.upper)
    low = _slope(spec.log_f, at_low, spec.name)
    up = _slope(spec.log_f_from_top if finite else spec.log_f, at_top, spec.name)
    if np.isnan(low).any() or np.isnan(up).any():
        raise QuadratureError(f"{spec.name}: cannot probe an endpoint power where f is zero")
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
# the nodes of both rules, as every panel evaluates them
_BOTH_RULES = np.concatenate([_gl_rule(_GL_NODES)[0], _gl_rule(_GL_COMPANION)[0]])
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
# quarter-octave knots above 1 toward an infinite top.  A law that decays
# faster than a power starts with the first _MARCH (up to 2^2), and each later
# batch doubles the knots marched so far.  A declared power tail closes only
# once its log-slope has settled, often past 2^30, where doubling from 2^2
# would cost it more passes than it saves, so it marches _POWER_MARCH at a
# time (to 2^15, 2^30, ...)
_MARCH_KNOTS = 2.0 ** (0.25 * np.arange(1, 1201))
_MARCH = 8
_POWER_MARCH = 60
_INFINITE_START = {
    m: np.concatenate([np.geomspace(_EDGE, 1.0, _KNOTS_PER_SIDE), _MARCH_KNOTS[:m]])
    for m in (_MARCH, _POWER_MARCH)
}
# the largest log whose exp is a finite double
_LOG_MAX = math.log(sys.float_info.max)


def _start_knots(spec: IntegrandSpec) -> list:
    """(log integrand, knots) of each side of a :class:`PanelLaw` over ``spec``, as it starts.

    The lower side runs in t itself; the upper half of a finite domain runs
    in the distance from the top.
    """
    if not math.isfinite(spec.upper):
        power = spec.upper_order is not None and not np.isnan(spec.upper_order).all()
        return [(spec.log_f, _INFINITE_START[_POWER_MARCH if power else _MARCH])]
    grid = spec.upper * _SIDE_GRID
    top = grid if spec.log_f_upper is not None else spec.upper * _CAP_GRID
    return [(spec.log_f, grid), (spec.log_f_from_top, top)]


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
        return self.log_density(_rule_points(a, b, _BOTH_RULES))

    def masses(self, logs: np.ndarray, a: np.ndarray, b: np.ndarray):
        """Each panel's mass by the main rule, and its distance from the companion's."""
        f = logs - self.shift[:, None, None]
        np.exp(f, out=f)  # in place: a law of many columns faults in fresh pages for every array
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
        """The running sums of the first column: the cdf and its inverse belong to one-column laws."""
        return self.cum.reshape(-1, self.knots.size)[0]

    def cum_at(self, x: np.ndarray) -> np.ndarray:
        """The first column's running sum at the points x, the partial panel by the main rule."""
        if not x.size:
            return x.copy()
        cum = self._first_cum()
        i = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, self.knots.size - 2)
        y, w = _gl_rule(_GL_NODES)
        a = self.knots[i]
        f = np.exp(self.log_density(_rule_points(a, x, y))[0] - self.shift[0])
        return cum[i] + 0.5 * (x - a) * (f @ w)


def _newton(sides, sizes, c, log_at) -> np.ndarray:
    """Points x with ``cum_at(x) == c`` on one-column sides, by Newton's method, all at once.

    The first ``sizes[0]`` masses of ``c`` belong to ``sides[0]``, the next
    ``sizes[1]`` to ``sides[1]``, and so on; ``log_at(rows, pts)`` is the log
    density of the entries ``rows`` at their points, one row of points per
    entry, and the loop evaluates it once per iteration.  Each entry starts
    in the panel holding its mass, which brackets its root, from a linear
    interpolation of the panel's running sums.  The mass from the panel's
    start to x is the main rule on that interval, and its node sum runs row
    by row (a matrix-vector product would round a row differently with the
    batch around it), so every entry takes the same iterates in a batch of
    any size.  The bracket shrinks with every iterate, and a step that
    leaves it becomes a bisection step.
    """
    if not c.size:
        return np.empty(0)
    cums = [side._first_cum() for side in sides]
    parts = np.split(c, np.cumsum(sizes)[:-1])
    i = np.concatenate([np.searchsorted(cum, part, side="right") for cum, part in zip(cums, parts)])
    # index each entry's panel in the sides' knots laid end to end
    lengths = np.array([cum.size for cum in cums], dtype=np.intp)
    i = np.clip(i - 1, 0, np.repeat(lengths - 2, sizes)) + np.repeat(np.cumsum(lengths) - lengths, sizes)
    knots = np.concatenate([side.knots for side in sides])
    cum = np.concatenate(cums)
    shift = np.repeat([side.shift[0] for side in sides], sizes)
    a, hi, base = knots[i], knots[i + 1], cum[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (c - base) / (cum[i + 1] - base)
    x = a + (hi - a) * np.clip(np.nan_to_num(frac, nan=0.5), 0.0, 1.0)
    lo = a.copy()
    y, w = _gl_rule(_GL_NODES)
    active = np.arange(c.size)
    for _ in range(_NEWTON_STEPS):
        if not active.size:
            break
        xa, la, ha, aa = x[active], lo[active], hi[active], a[active]
        pts = np.column_stack([_rule_points(aa, xa, y), xa])
        f = np.exp(log_at(active, pts) - shift[active, None])
        g = base[active] + 0.5 * (xa - aa) * np.einsum("ij,j->i", f[:, :-1], w) - c[active]
        la = np.where(g < 0.0, xa, la)
        ha = np.where(g > 0.0, xa, ha)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = xa - g / f[:, -1]
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

    ``spec`` declares both endpoint powers, in the sense of
    :class:`IntegrandSpec`, and both are convergent: floats for an
    integrand of one column, arrays of one power per column otherwise.  An
    upper power of None (NaN in a column) means a smooth finite top, or
    faster-than-power decay at infinity; :func:`checked_law` builds every
    law once it has checked or probed the powers.  Every panel's error
    bound is held within ``rel_tol`` of its mass (or 1e-16 of the total)
    in every column, and a march toward an infinite top closes once every
    column has: at a shell within 1e-3 * rel_tol of the mass below it, or,
    for a power tail, once the analytic piece above is within rel_tol / 2
    of it.  Without a power tail, that march starts with the quarter-octave
    panels up to 2^2 and goes on in batches that double the panels marched
    so far (to 2^4, 2^8, 2^16, ...), so a law whose mass lies low evaluates
    no panel far above it; a power tail, which closes only once its
    log-slope has settled, marches 60 panels at a time (to 2^15, 2^30, ...).

    After construction ``total`` is the integral and ``err`` bounds its
    error, both in units of ``exp(shift)``, the largest integrand value at
    the first nodes, those of the first march toward infinity (raised where
    a later batch of the march found values more than half the exponent
    range above it); all three are floats for one column and arrays of one
    entry per column otherwise.  ``cdf`` normalizes the cumulative sums of
    a one-column law; :func:`invert` maps cumulative masses in (0, total)
    of one-column laws back to points.
    """

    def __init__(self, spec: IntegrandSpec, rel_tol: float):
        name, low, up = spec.name, spec.lower_order, spec.upper_order
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
            # march in quarter-octaves, in the batches described at
            # _MARCH_KNOTS, until a shell stops mattering; shells can grow at
            # first when the mass sits above the initial grid, and a shell
            # closes nothing while no mass has been found.  A declared power
            # tail also closes once the analytic piece above a shell is
            # accurate: its relative error is at most the shell's log-slope
            # deviation from up over -up - 1, and the error it makes must be
            # within half of rel_tol of the mass below, which leaves the other
            # half to the panels.  The march ends at the first shell by which
            # every column has closed
            mass, err = parts[0]
            n_grid = _KNOTS_PER_SIDE - 1
            marched = lower.knots.size - _KNOTS_PER_SIDE
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
                        done |= above * np.abs(slope - p) / (-p - 1.0) <= 0.5 * rel_tol * cum
                done &= cum > 0.0
                if done.any(axis=1).all():
                    n = n_grid + int(done.argmax(axis=1).max()) + 1
                    lower.knots, parts[0] = lower.knots[: n + 1], (mass[:, :n], err[:, :n])
                    break
                if marched == _MARCH_KNOTS.size:
                    raise QuadratureError(
                        f"{name}: tail failed to close after {_MARCH_KNOTS.size} quarter-octaves"
                    )
                b = _MARCH_KNOTS[marched : marched + (_POWER_MARCH if any_power else marched)]
                a = np.concatenate([lower.knots[-1:], b[:-1]])
                new_logs = lower.node_logs(a, b)
                peak = new_logs.max(axis=(1, 2))
                over = peak - lower.shift > 0.5 * _LOG_MAX
                if over.any():
                    # the mass lies far above the nodes that set the shift:
                    # rescale what is summed so far and raise the shift to
                    # the new peak.  Half the exponent range is the trigger,
                    # not all of it: the other half holds the panel widths
                    # (at most 2^300) and the sums and tail pieces built on
                    # them, which must stay in range too
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
                marched += b.size

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


def invert(laws, c: np.ndarray, owner: np.ndarray, log_f) -> np.ndarray:
    """The points at which one-column laws' cumulative sums reach the masses ``c``.

    ``c[i]`` lies in (0, total) of ``laws[owner[i]]``, and the laws share one
    domain.  A mass inside an analytic end piece inverts it in closed form;
    every other mass, whatever its law and side, joins one Newton loop,
    :func:`_newton`.  ``log_f(t, who, from_top)`` is the log integrand of law
    ``laws[who[r]]`` at the points of row r of ``t`` (distances from a
    finite top when ``from_top``), one evaluation for all the laws.
    """
    first = laws[0]
    upper, finite = first._upper, first._finite

    def per_point(values) -> np.ndarray:
        return np.array(values, dtype=float)[owner]

    mass_below = per_point([law._mass_below[0] for law in laws])
    mass_above = per_point([law._mass_above[0] for law in laws])
    total = per_point([law.total for law in laws])
    out = np.empty(c.shape)
    # strict, so that c = 0 on a law whose mass below the first knot
    # underflowed to 0 is solved in the panels rather than read as 0/0
    below = c < mass_below
    if below.any():
        low = per_point([law._low[0] for law in laws])[below]
        edge = per_point([law._sides[0].knots[0] for law in laws])[below]
        out[below] = edge * (c[below] / mass_below[below]) ** (1.0 / (low + 1.0))
    top = ~below & (mass_above > 0.0) & (c >= total - mass_above)
    if top.any():
        frac = (total[top] - c[top]) / mass_above[top]
        power = per_point([law._up_power[0] for law in laws])[top]
        with np.errstate(divide="ignore", over="ignore"):
            far = per_point([law._up_edge for law in laws])[top] * frac ** (1.0 / (power + 1.0))
        out[top] = upper - far if finite else far
    # the Newton entries sorted by law and side; masses above a finite
    # lower side are solved from the top
    rest = np.flatnonzero(~(below | top))
    key = 2 * owner[rest]
    if finite:
        key += c[rest] >= per_point([law._sides[0]._first_cum()[-1] for law in laws])[rest]
    order = np.argsort(key, kind="stable")
    rest, key = rest[order], key[order]
    who, from_top = key // 2, key % 2 == 1
    target = np.where(from_top, total[rest] - c[rest], c[rest])
    groups, sizes = np.unique(key, return_counts=True)
    sides = [laws[k // 2]._sides[k % 2] for k in groups.tolist()]

    def log_at(rows, pts):
        logs = np.empty(pts.shape)
        for side in (False, True):
            on = from_top[rows] == side
            if on.any():
                logs[on] = log_f(pts[on], who[rows[on]], side)
        return logs

    x = _newton(sides, sizes, target, log_at)
    out[rest] = np.where(from_top, upper - x, x)
    return out


# --- the public entry points ------------------------------------------------


def checked_law(spec: IntegrandSpec, rel_tol: float) -> PanelLaw:
    """The :class:`PanelLaw` of ``spec`` once its declared powers have passed the slope rule.

    The gate every law passes.  Powers ``spec`` leaves undeclared are
    measured by the same rule.  A column divergent at an end, or within
    probe noise of it, goes to the shell screen, which raises either way.
    The law's totals are not certified here: :func:`integrate` and
    :func:`log_integrate` do that.
    """
    if not 0.0 < rel_tol < 1.0:
        raise QuadratureError("rel_tol must lie in (0, 1)")
    name = spec.name
    finite = math.isfinite(spec.upper)
    scale = min(spec.upper, 1.0) / 2.0 if finite else 0.5
    log_top = spec.log_f_from_top if finite else spec.log_f
    if spec.lower_order is None:
        # nothing declared: the slope rule measures the powers, which need no check
        low, up = probed_orders(spec)
        spec = replace(spec, lower_order=low, upper_order=up)
    else:
        # validate declarations before trusting them
        at_low, at_top = _probe_points(spec.upper)
        _check_power(_slope(spec.log_f, at_low, name), spec.lower_order, name, "lower")
        if spec.upper_order is not None and not np.isnan(spec.upper_order).all():
            _check_power(_slope(log_top, at_top, name), spec.upper_order, name, "upper")

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

    return PanelLaw(spec, rel_tol)


def _certified(law: PanelLaw, rel_tol: float, name: str) -> None:
    """Raise unless every column's error bound is within 50 ``rel_tol`` of its total."""
    total, err, shift = (np.atleast_1d(v) for v in (law.total, law.err, law.shift))
    over = np.flatnonzero(err > 50.0 * rel_tol * total)
    if over.size:
        c = over[0]
        raise QuadratureError(
            f"{name}: error estimate {err[c]:.3e} is far above the requested "
            f"tolerance for total {total[c]:.6e} (in units of exp({shift[c]:g}))"
        )


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
        above 50 ``rel_tol`` of the total.
    """
    law = checked_law(spec, rel_tol)
    _certified(law, rel_tol, spec.name)
    with np.errstate(over="ignore"):
        unit = float(np.exp(law.shift))
    value, err = law.total * unit, law.err * unit
    if not math.isfinite(value):
        raise QuadratureError(f"{spec.name}: overflow inside an interior panel")
    return value, err


def log_integrate(spec: IntegrandSpec, rel_tol: float = 1e-10):
    """The log of each column's integral over the domain, from one :class:`PanelLaw`.

    A float for a one-column ``spec``, else an array of one log per column.
    An integral inside floating-point range gives the log of its value; one
    beyond it, the log of the law's total plus its shift, so the result is
    exact either way.  Raises as :func:`integrate` does, and when a column's
    integral vanishes.
    """
    law = checked_law(spec, rel_tol)
    _certified(law, rel_tol, spec.name)
    totals, shifts = np.atleast_1d(law.total), np.atleast_1d(law.shift)
    if not (totals > 0.0).all():
        raise QuadratureError(f"{spec.name}: the integral vanished")
    with np.errstate(over="ignore"):
        values = totals * np.exp(shifts)
    logs = [
        math.log(value) if 0.0 < value < math.inf else math.log(total) + shift
        for value, total, shift in zip(values.tolist(), totals.tolist(), shifts.tolist())
    ]
    return _scalar_or_columns(logs[0] if np.ndim(law.total) == 0 else np.array(logs))
