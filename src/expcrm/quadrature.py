"""Quadrature for improper integrals with power-law endpoint behaviour.

Every integral this package needs has the shape

    integral of f(t) dt over (0, U),   U finite or infinite,

where f is smooth and positive inside the interval but may blow up or vanish
like a power at the endpoints: f(t) ~ c * t^q as t -> 0, and at a finite
upper endpoint f(t) ~ c * (U - t)^p, or f(t) ~ c * t^p as t -> infinity.
Callers declare those powers in an :class:`IntegrandSpec`. The integrator

* validates each declared power against a log-log slope probe (a wrong
  declaration raises :class:`~expcrm.errors.SingularityMismatch` instead of
  silently producing a wrong number),
* absorbs the endpoint power into a Gauss-Jacobi weight, so the smooth
  remainder is integrated at spectral accuracy even for powers arbitrarily
  close to the divergence boundary,
* maps power tails at infinity through u = t^(-s), s = -(p + 1), which turns
  them into finite integrals with an order-one integrand, and
* detects divergent integrals by direct evidence: the integral over the
  geometric shells [T*10^-(k+1), T*10^-k] must decay as the shells approach
  the endpoint; contributions that hold steady or grow raise
  :class:`~expcrm.errors.DivergenceSuspected`. This catches both power
  divergence (shells grow geometrically) and the marginal logarithmic case
  (shells hold constant), which no fixed growth-factor threshold can see.

Evaluators work in log space (``log_f``), so kernels with huge dynamic range
never overflow before the singular part has been divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@lru_cache(maxsize=2048)
def _jacobi_rule(n: int, alpha: float, beta: float):
    return roots_jacobi(n, alpha, beta)


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
    becomes the *declared* power of an endpoint panel: a mismatch of
    even 1e-5 leaves a t^delta cusp the panel cannot resolve.
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


# --- building blocks --------------------------------------------------------


def _gl_panel_vals(fn_vals, a: float, b: float, n: int) -> float:
    y, w = _gl_rule(n)
    t = 0.5 * (a + b) + 0.5 * (b - a) * y
    v = fn_vals(t)
    out = 0.5 * (b - a) * float(np.dot(w, v))
    if not np.isfinite(out):
        raise QuadratureError("overflow inside an interior panel")
    return out


def _smooth_finite(log_g, a: float, b: float, rel_tol: float, name: str):
    """Globally adaptive Gauss-Legendre on [a, b] for a smooth integrand."""

    def fn_vals(t):
        return np.exp(_eval_log(log_g, t, name))

    rough = abs(_gl_panel_vals(fn_vals, a, b, 48)) + 1e-300
    tol_abs = rel_tol * rough
    total = 0.0
    err = 0.0
    stack = [(a, b)]
    panels = 0
    while stack:
        panels += 1
        if panels > 4000:
            raise QuadratureError(f"{name}: interior refinement budget exhausted on [{a:g}, {b:g}]")
        lo, hi = stack.pop()
        i24 = _gl_panel_vals(fn_vals, lo, hi, 24)
        i48 = _gl_panel_vals(fn_vals, lo, hi, 48)
        d = abs(i48 - i24)
        if d <= tol_abs * (hi - lo) / (b - a) or (hi - lo) <= 1e-14 * (b - a):
            total += i48
            err += d
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total, err


def _jacobi_panel(log_g, q: float, T: float, n: int, name: str) -> float:
    """Gauss-Jacobi value of the integral of g over (0, T], g ~ c t^q at 0."""
    y, w = _jacobi_rule(n, 0.0, q)
    t = (T / 2.0) * (1.0 + y)
    smooth = np.exp(_eval_log(log_g, t, name) - q * np.log(t))
    out = (T / 2.0) ** (q + 1.0) * float(np.dot(w, smooth))
    if not np.isfinite(out):
        raise QuadratureError(f"{name}: overflow in the endpoint panel")
    return out


def _endpoint_panel(log_g, q: float, T0: float, rel_tol: float, name: str):
    """Integral of g over (0, T0] with g ~ c t^q at 0, q > -1.

    The Jacobi weight absorbs t^q exactly; the panel is accepted when the
    48- and 96-node values agree. Otherwise the outer strip [T/2, T] is
    peeled off to the smooth integrator and the panel shrinks toward the
    endpoint, which tames integrands with interior scales (such as steep
    exponential factors).
    """
    total = 0.0
    err = 0.0
    T = T0
    for _ in range(60):
        i48 = _jacobi_panel(log_g, q, T, 48, name)
        i96 = _jacobi_panel(log_g, q, T, 96, name)
        d = abs(i96 - i48)
        if d <= max(rel_tol * abs(i96), 1e-300):
            return total + i96, err + d
        v, e = _smooth_finite(log_g, T / 2.0, T, rel_tol, name)
        total += v
        err += e
        T /= 2.0
    raise QuadratureError(f"{name}: endpoint panel failed to converge after 60 refinements")


def _power_tail(log_f, r: float, T: float, rel_tol: float, name: str):
    """Integral of f over [T, inf) with f ~ c t^r, r < -1.

    Substituting u = t^(-s) with s = -(r + 1) maps the tail to
    (1/s) * integral of g(u) du over (0, T^-s] where g(u) = f(t) * t^(-r)
    tends to a finite limit at u = 0. Geometric Gauss-Legendre panels in u
    resolve the algebraic approach to that limit; the final sliver, inside
    which g is flat to far below double precision, is added in closed form.
    """
    s = -(r + 1.0)

    def g_of_u(u):
        ln_t = -np.log(u) / s
        return np.exp(_eval_log(log_f, np.exp(ln_t), name) - r * ln_t)

    # Depth cap keeps t = u^(-1/s) representable in double precision.
    j_cap = int(min(60.0, math.floor((690.0 - math.log(T)) * s / math.log(2.0))))
    j_cap = max(j_cap, 1)
    u_hi = T**-s
    total = 0.0
    err = 0.0
    small_streak = 0
    for _ in range(j_cap):
        u_lo = u_hi / 2.0
        i24 = _gl_panel_vals(g_of_u, u_lo, u_hi, 24) / s
        i48 = _gl_panel_vals(g_of_u, u_lo, u_hi, 48) / s
        total += i48
        err += abs(i48 - i24)
        u_hi = u_lo
        if abs(i48) <= 1e-16 * abs(total):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    # Remaining sliver (0, u_hi]: g is constant there to within e^(-690/...)
    g_edge = float(g_of_u(np.array([u_hi]))[0])
    g_near = float(g_of_u(np.array([0.75 * u_hi]))[0])
    total += g_edge * u_hi / s
    err += (abs(g_edge - g_near) + 1e-16 * abs(g_edge)) * u_hi / s
    return total, err


def _undeclared_tail(log_f, T: float, rel_tol: float, name: str):
    """Integral of f over [T, inf) when f decays faster than any power.

    Octave shells in log space, stopped once two successive contributions
    fall below 1e-17 of the running total. A tail that has not converged
    after 400 octaves is either a power tail (which must be declared) or
    divergent.
    """
    total = 0.0
    err = 0.0
    lo = T
    small_streak = 0
    for _ in range(400):
        hi = 2.0 * lo
        l16 = _log_shell(log_f, lo, hi, name, n=16)
        l32 = _log_shell(log_f, lo, hi, name, n=32)
        c = 0.0 if l32 == -math.inf else math.exp(l32)
        c16 = 0.0 if l16 == -math.inf else math.exp(l16)
        total += c
        err += abs(c - c16)
        lo = hi
        if c <= max(1e-17 * total, 1e-320):
            small_streak += 1
            if small_streak >= 2:
                return total, err
        else:
            small_streak = 0
    raise QuadratureError(
        f"{name}: tail integral did not converge within 400 octaves; "
        "declare upper_order if the integrand has a power-law tail"
    )


# --- the public entry point -------------------------------------------------


def integrate(spec: IntegrandSpec, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate ``spec`` over its domain.

    Returns ``(value, err_est)`` where ``err_est`` is a conservative
    absolute-error estimate assembled from embedded-rule differences.

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
    # within probe noise of the -1 boundary go to the screen too: the
    # Jacobi weight degenerates there, and an integral that close to
    # divergent is better reported than summed.
    if spec.lower_order <= -1.0 + _ORDER_EPS:
        _divergence_screen(spec.log_f, scale, outward=False, name=name, where="the lower endpoint")
    if spec.upper_order is not None:
        if finite and spec.upper_order <= -1.0 + _ORDER_EPS:
            _divergence_screen(
                log_f_upper, scale, outward=False, name=name, where="the upper endpoint"
            )
        if not finite and spec.upper_order >= -1.0 - _ORDER_EPS:
            _divergence_screen(spec.log_f, 2.0, outward=True, name=name, where="infinity")

    inner_tol = rel_tol / 8.0
    parts: list[tuple[float, float]] = []
    if finite:
        U = spec.upper
        parts.append(_endpoint_panel(spec.log_f, spec.lower_order, U / 2.0, inner_tol, name))
        if spec.upper_order is None:
            parts.append(_smooth_finite(spec.log_f, U / 2.0, U, inner_tol, name))
        else:
            parts.append(
                _endpoint_panel(log_f_upper, spec.upper_order, U / 2.0, inner_tol, name)
            )
    else:
        parts.append(_endpoint_panel(spec.log_f, spec.lower_order, 0.5, inner_tol, name))
        parts.append(_smooth_finite(spec.log_f, 0.5, 2.0, inner_tol, name))
        if spec.upper_order is None:
            parts.append(_undeclared_tail(spec.log_f, 2.0, inner_tol, name))
        else:
            parts.append(_power_tail(spec.log_f, spec.upper_order, 2.0, inner_tol, name))

    value = math.fsum(p[0] for p in parts)
    err = math.fsum(p[1] for p in parts)
    if err > 50.0 * rel_tol * max(abs(value), 1e-300):
        raise QuadratureError(
            f"{name}: error estimate {err:.3e} is far above the requested "
            f"tolerance for value {value:.6e}"
        )
    return value, err
