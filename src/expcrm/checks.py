"""Numeric verification of models and samplers.

Three kinds of evidence, each reported as a :class:`CheckReport`:

* **Assumption checks** interrogate the model by quadrature rather than by
  region algebra: A0 (every fixed atom's weight law normalizes), A1 (the
  ordinary component carries infinite mass, confirmed by divergence
  evidence, not by failing to converge), and A2 (the expected number of
  traits seen at one step is finite).

* **Oracle checks** recompute quantities the package produces through its
  fastest path (closed forms, cached tables, catalog samplers) from their
  literal integral definitions, sharing as little code as possible with
  the primary path: partition values, atom rates, round totals, predictive
  pmfs, and the weight laws behind the rng draws.

* **Equivalence checks** compare the two generative processes, which must
  agree in law: per round n, the joint distribution of (number of new
  atoms, their count sum) under the size-biased sampler against the same
  statistic of the atoms born at the marginal stream's step n.

Nothing here is proof; everything here is loud.  A failed report carries
the statistic, the threshold it broke, and enough detail to reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import chdtrc, smirnov

from .catalog import entry_for, family_of
from .errors import DivergenceSuspected, DomainError, QuadratureError
from .exp_family import (
    ExpCrmPrior,
    QuadratureFamily,
    as_xi,
    log_conjugate_kernel,
    log_partition_B,
    shifted_params,
)
from .marginal import MarginalConfig, MarginalSampler, predictive_logpmf
from .quadrature import IntegrandSpec, integrate
from .rng import RngState
from .size_biased import (
    DEFAULT_EPS_TAIL,
    DEFAULT_X_MAX,
    SizeBiasedConfig,
    SizeBiasedSampler,
    _rate_table,
    rate_M,
    round_total,
    weight_dist_params,
)

__all__ = [
    "CheckReport",
    "SuiteRun",
    "check_assumptions",
    "chi_square_gof",
    "chi_square_two_sample",
    "equivalence_run",
    "kolmogorov_sf",
    "oracle_log_partition",
    "oracle_predictive_pmf",
    "oracle_rate_M",
    "oracle_round_total",
    "oracle_weight_law",
    "run_suite",
]


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Outcome of one verification check.

    ``statistic`` is compared against ``threshold`` in the direction of
    ``comparison`` (``"<="``, ``">="`` or ``"<"``); ``passed`` records the verdict
    so a serialized report stays self-contained.
    """

    name: str
    passed: bool
    statistic: float
    threshold: float
    comparison: str
    detail: str = ""

    def to_jsonable(self) -> dict:
        def num(v):
            v = float(v)
            return v if math.isfinite(v) else repr(v)  # "inf"/"nan" keep the JSON valid

        return {
            "name": self.name,
            "passed": bool(self.passed),
            "statistic": num(self.statistic),
            "threshold": num(self.threshold),
            "comparison": self.comparison,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.name}: statistic {self.statistic:.6g} "
            f"{self.comparison} {self.threshold:.6g}"
            + (f" ({self.detail})" if self.detail else "")
        )


def _report_leq(name, statistic, threshold, detail=""):
    return CheckReport(name, statistic <= threshold, float(statistic), float(threshold), "<=", detail)


def _report_geq(name, statistic, threshold, detail=""):
    return CheckReport(name, statistic >= threshold, float(statistic), float(threshold), ">=", detail)


# --- assumption checks --------------------------------------------------------


def check_assumptions(prior: ExpCrmPrior) -> list[CheckReport]:
    """Numeric evidence for A0, A1, and A2 at the prior's parameters."""
    return [_check_a0(prior), _check_a1(prior), _check_a2(prior)]


def _check_a0(prior: ExpCrmPrior) -> CheckReport:
    like = prior.likelihood
    pieces = []
    ok = 0
    for i, fa in enumerate(prior.fixed_atoms):
        try:
            b = log_partition_B(like, fa.xi, fa.lam)
        except (DomainError, QuadratureError) as err:
            pieces.append(f"atom {i} at {fa.location.value:g}: improper ({err})")
            continue
        ok += 1
        pieces.append(f"atom {i} at {fa.location.value:g}: B = {b:.6g}")
    n = len(prior.fixed_atoms)
    frac = 1.0 if n == 0 else ok / n
    detail = "; ".join(pieces) if pieces else "no fixed atoms"
    return _report_geq("A0: fixed-atom weight laws normalize", frac, 1.0, detail)


def _check_a1(prior: ExpCrmPrior) -> CheckReport:
    name = "A1: ordinary component has infinite mass"
    try:
        b = QuadratureFamily(prior.likelihood).log_B(prior.xi, prior.lam)
    except DivergenceSuspected as err:
        return _report_geq(name, math.inf, math.inf, f"divergence confirmed at {err.endpoint}")
    except QuadratureError as err:
        return CheckReport(
            name, False, math.nan, math.inf, ">=",
            f"quadrature could not classify the kernel mass: {err}",
        )
    return _report_geq(
        name, math.exp(b), math.inf,
        f"kernel mass converged to {math.exp(b):.6g}; the ordinary component is finite",
    )


def _check_a2(prior: ExpCrmPrior) -> CheckReport:
    name = "A2: one step sees finitely many traits"
    try:
        value = _literal_integral(prior.likelihood, prior.xi, prior.lam, 1, None, prior.mass)
    except DivergenceSuspected as err:
        return CheckReport(
            name, False, math.inf, math.inf, "<",
            f"round-1 rate diverges at {err.endpoint}",
        )
    except QuadratureError as err:
        return CheckReport(name, False, math.nan, math.inf, "<", f"quadrature failed: {err}")
    bound = prior.likelihood.support_bound
    xs = np.arange(1, 11 if bound is None else min(10, bound) + 1)
    rates = np.zeros(10)  # M(1, x) = 0 above the support bound
    rates[: xs.size] = family_of(prior.likelihood).rate_rows(prior, [1], xs)[0][0]
    head = ", ".join(f"M(1,{x})={r:.4g}" for x, r in enumerate(rates.tolist(), start=1))
    remainder = max(value - float(np.cumsum(rates)[-1]), 0.0)  # summed in order, from the left
    detail = f"round-1 rate {value:.6g}; {head}; counts above 10 keep {remainder:.3g}"
    return CheckReport(name, math.isfinite(value), float(value), math.inf, "<", detail)


# --- statistical helpers ------------------------------------------------------


def _pearson(observed: np.ndarray, expected: np.ndarray, dof: int) -> tuple[float, float]:
    """Pearson's statistic summed over all cells, and its chi-square(dof) tail."""
    stat = np.sum(((observed - expected) ** 2 / expected).ravel())
    return stat, chdtrc(float(dof), stat)


def _homogeneity(table: np.ndarray) -> tuple[float, float]:
    """Pearson's test of a two-way table against the outer product of its margins."""
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True)
    expected /= table.sum()
    return _pearson(table, expected, (table.shape[0] - 1) * (table.shape[1] - 1))


# Kolmogorov's finite-n distribution, ported from the ``kstwo.sf`` dispatch of
# scipy 1.17.1 (scipy/stats/_ksstats.py, BSD-3-Clause): Simard & L'Ecuyer,
# J. Stat. Softw. 39(11), 2011, choose among the Ruben-Gambino ends, the
# Marsaglia-Tsang-Wang matrix method (J. Stat. Softw. 8(18), 2003), 2 * smirnov
# and Pelz-Good.  Every expression keeps scipy's order of operations, long
# double rescaling included, so each p-value is the same double.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_SQRT3 = np.sqrt(3)
# Stirling coefficients B_2j / (2j) / (2j - 1), j = 8, ..., 1
_STIRLING = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
             -1.9175269175269175269e-3, 8.4175084175084175084e-4,
             -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _kolmogorov_mtw(n: int, d: float):
    """P(D_n <= d) by the MTW matrix power, for 1 < n * d and d < 1/2."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    nn, expnt, Hexpnt = n, 0, 0  # binary powering, H scaled by 2^Hexpnt
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n! / n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _kolmogorov_pelz_good(n: int, x: float):
    """Pelz-Good's small-z form of the Li-Chien/Korolyuk expansion of P(D_n <= x)."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -np.pi**2 / 8 / zsquared
    if qlog < -708:  # q underflows: z below about 0.0417
        return 0.0
    q = np.exp(qlog)
    k1a = -zsquared
    k1b = np.pi**2 / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * np.pi**2 / 4
    k2c = np.pi**4 * (1 - 2 * zsquared) / 16
    k3d = np.pi**6 * (5 - 30 * zsquared) / 64
    k3c = np.pi**4 * (-60 * zsquared + 212 * zfour) / 16
    k3b = np.pi**2 * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):  # Horner in q^8 over the odd m = 2k - 1
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        K0to3 *= np.power(q, 8 * k)
        K0to3 += np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])
    q = np.exp(-np.pi**2 / 2 / zsquared)  # the K2 and K3 sums over all k
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    K0to3[2] += np.sum(ksquared * qpwers) * (np.pi**2 * _SQRT2PI / (-36 * zthree))
    K0to3[3] += np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers) * (
        np.pi**2 * _SQRT2PI / (216 * zsix)
    )
    K0to3 /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(K0to3)


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic of n draws.

    Equals ``scipy.stats.kstwo.sf(d, n)`` bit for bit for n > 140.  For
    n <= 140 the exact MTW method also covers 0.754693 < n d^2 <= 4, where
    scipy runs Pomeranz's exact recursion instead; the two agree to within
    3e-11 relative.
    """
    if n < 1:
        raise DomainError(f"the Kolmogorov distribution needs at least one draw, got n = {n}")
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 1.0:  # Ruben-Gambino: P(D_n <= d) = n!/n^n (2t - 1)^n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            rn = 1.0 / n  # log(n!/n^n) by Stirling, n log n taken out up front
            log_ratio = np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING, rn / n)
            cdf = np.exp(log_ratio + n * np.log(2 * t - 1))
        return float(np.clip(1.0 - cdf, 0.0, 1.0))
    if t >= n - 1:  # Ruben-Gambino at the top
        return float(np.clip(2 * (1.0 - d) ** n, 0.0, 1.0))
    nx2 = t * d
    if n > 140 and d < 0.5 and nx2 >= 370.0:
        return 0.0
    # twice the one-sided tail: exact from d = 1/2 on, where the two tails cannot overlap
    if d >= 0.5 or nx2 > 4.0 or (n > 140 and nx2 >= 2.2):
        return float(np.clip(2 * smirnov(n, d), 0.0, 1.0))
    if n <= 140 or (n <= 100000 and n * d**1.5 <= 1.4):
        cdf = _kolmogorov_mtw(n, d)
    else:
        cdf = _kolmogorov_pelz_good(n, d)
    return float(np.clip(1.0 - cdf, 0.0, 1.0))


def chi_square_gof(
    samples,
    log_pmf,
    alpha: float = 0.01,
    min_expected: float = 5.0,
    name: str = "chi-square goodness of fit",
) -> CheckReport:
    """Pearson test of integer samples against a reference log pmf.

    Cells are pooled greedily from the left until each holds at least
    ``min_expected`` expected points; everything past the largest
    observation forms an open tail cell.
    """
    samples = np.asarray(samples, dtype=np.int64)
    n = samples.size
    if n < 20:
        raise DomainError("goodness of fit needs at least 20 samples")
    hi = int(samples.max())
    xs = np.arange(0, hi + 1)
    probs = np.exp(np.asarray(log_pmf(xs), dtype=float))
    tail = max(1.0 - float(probs.sum()), 0.0)
    counts = np.bincount(samples, minlength=hi + 1)

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, p in zip(counts, probs):
        acc_o += float(o)
        acc_e += float(p) * n
        if acc_e >= min_expected:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    # leftovers plus the open tail form the last cell
    acc_e += tail * n
    if obs_bins and acc_e < min_expected:
        obs_bins[-1] += acc_o
        exp_bins[-1] += acc_e
    else:
        obs_bins.append(acc_o)
        exp_bins.append(acc_e)
    if len(obs_bins) < 2:
        raise DomainError("fewer than two cells after pooling; not enough spread to test")
    obs_arr = np.array(obs_bins)
    exp_arr = np.array(exp_bins)
    exp_arr *= obs_arr.sum() / exp_arr.sum()
    stat, p = _pearson(obs_arr, exp_arr, len(obs_bins) - 1)
    return _report_geq(name, p, alpha, f"{len(obs_bins)} cells, n = {n}, chi2 = {stat:.4g}")


def chi_square_two_sample(
    a,
    b,
    alpha: float = 0.01,
    min_total: float = 10.0,
    name: str = "chi-square two-sample",
) -> CheckReport:
    """Homogeneity test for two samples of hashable categories.

    Categories whose combined count falls below ``min_total`` are pooled
    into a single bucket (in sorted category order, so the pooling is
    deterministic), then a 2 x C contingency test without continuity
    correction decides.
    """
    a = list(a)
    b = list(b)
    if not a or not b:
        raise DomainError("two-sample test needs nonempty samples")
    cats = sorted({*a, *b})
    ca = {c: 0 for c in cats}
    cb = {c: 0 for c in cats}
    for v in a:
        ca[v] += 1
    for v in b:
        cb[v] += 1
    row_a: list[float] = []
    row_b: list[float] = []
    pool_a = 0
    pool_b = 0
    for c in cats:
        if ca[c] + cb[c] >= min_total:
            row_a.append(ca[c])
            row_b.append(cb[c])
        else:
            pool_a += ca[c]
            pool_b += cb[c]
    if pool_a + pool_b > 0:
        row_a.append(pool_a)
        row_b.append(pool_b)
    if len(row_a) < 2:
        # all mass in one cell: the samples agree as exactly as this test can see
        return _report_geq(name, 1.0, alpha, "one cell after pooling")
    stat, p = _homogeneity(np.array([row_a, row_b], dtype=float))
    return _report_geq(
        name, p, alpha, f"{len(row_a)} cells, n = {len(a)} vs {len(b)}, chi2 = {stat:.4g}"
    )


# --- oracle checks ------------------------------------------------------------


def _integrand_orders(like, xi, lam: float, m: int, x) -> tuple:
    """Endpoint powers of a rate or round-total integrand, for a catalog family.

    With a count ``x`` the integrand is l(x|theta) l(0|theta)^(m-1)
    kappa(theta; xi, lam), the rate integrand; with ``x = None`` it is
    (1 - l(0|theta)) l(0|theta)^(m-1) kappa(theta; xi, lam), the round
    total.  For a catalog family both follow from conjugacy: the first is
    h(x) h(0)^(m-1) kappa(theta; xi + phi(x) + (m-1) phi(0), lam + m)
    (m = 0 with x = 0 is kappa itself).  Since 1 - l(0|theta) grows like
    theta at 0 and tends to 1 at the top, the second has the powers of the
    first at (m - 1, x = 0), plus one at 0, and :func:`integrate` checks
    both against its slope probes.  Other families get (None, None): the
    powers are left undeclared, for :func:`integrate` to probe.
    """
    entry = entry_for(like)
    if entry is None:
        return None, None
    rounds, counts = ([m - 1], [0]) if x is None else ([m], [x])
    xi_rows, lams = shifted_params(entry, xi, lam, rounds, counts)
    low, up = entry.kernel_orders(xi_rows[0], lams[0])
    return (low + 1.0, up) if x is None else (low, up)


def _literal_integral(
    like, xi, lam: float, m: int, x, mass: float = 1.0, rel_tol: float = 1e-9
) -> float:
    """mass times the integral of l(x|theta) l(0|theta)^(m-1) kappa(theta; xi, lam).

    The integrand is built from the likelihood itself, never from a closed
    form: ``x = None`` puts 1 - l(0|theta) in place of l(x|theta) (the
    round-total integrand), and m = 0 with x = 0 is kappa itself.  Its
    endpoint powers come from :func:`_integrand_orders`, or from the
    quadrature's probe for a family outside the catalog.
    """
    def log_f(th):
        th = np.asarray(th, dtype=float)
        out = log_conjugate_kernel(like, xi, lam, th)
        if m == 0 and x == 0:
            return out
        lp0 = like.log_pmf(0, th)
        if x is None:
            with np.errstate(divide="ignore"):
                out = out + np.log(-np.expm1(lp0))
        else:
            out = out + like.log_pmf(x, th)
        return out + (m - 1) * lp0 if m > 1 else out

    low, up = _integrand_orders(like, xi, lam, m, x)
    factor = "(1 - l(0))" if x is None else f"l({x})"
    spec = IntegrandSpec(
        log_f, upper=like.weight_domain.upper, lower_order=low, upper_order=up,
        name=f"{factor} l(0)^{m - 1} kappa for {like.family}",
    )
    value, _ = integrate(spec, rel_tol=rel_tol)
    return mass * value


def oracle_log_partition(prior: ExpCrmPrior, xi, lam: float) -> CheckReport:
    """Primary log-partition path against quadrature of the kernel."""
    like = prior.likelihood
    xi = as_xi(xi)
    primary = log_partition_B(like, xi, lam)
    numeric = QuadratureFamily(like).log_B(xi, lam, rel_tol=1e-9)
    err = abs(primary - numeric) / max(abs(numeric), 1.0)
    path = "closed form" if entry_for(like) is not None else "same quadrature (no closed form)"
    return _report_leq(
        f"log partition at (xi={xi[0]:g}, lam={lam:g})",
        err,
        1e-7,
        f"{path} {primary:.12g} vs quadrature {numeric:.12g}",
    )


def oracle_rate_M(prior: ExpCrmPrior, m: int, x: int) -> CheckReport:
    """Atom rate against quadrature of the literal product integrand."""
    numeric = _literal_integral(prior.likelihood, prior.xi, prior.lam, m, x, prior.mass)
    primary = rate_M(prior, m, x)
    err = abs(primary - numeric) / max(abs(numeric), 1e-300)
    return _report_leq(
        f"atom rate M({m},{x})", err, 1e-7, f"primary {primary:.12g} vs quadrature {numeric:.12g}"
    )


def oracle_round_total(prior: ExpCrmPrior, m: int) -> CheckReport:
    """Round total against quadrature of mass * kappa * l0^(m-1) * (1 - l0)."""
    numeric = _literal_integral(prior.likelihood, prior.xi, prior.lam, m, None, prior.mass)
    primary = round_total(prior, m)
    err = abs(primary - numeric) / max(abs(numeric), 1e-300)
    return _report_leq(
        f"round total, round {m}", err, 1e-7,
        f"primary {primary:.12g} vs quadrature {numeric:.12g}",
    )


def oracle_predictive_pmf(prior: ExpCrmPrior, xi_eff, lam_eff: float, x_hi: int = 6) -> CheckReport:
    """Predictive pmf against a ratio of literal quadratures.

    Numerator: integral of l(x|theta) kappa(theta; xi_eff, lam_eff);
    denominator: integral of the kernel itself.
    """
    like = prior.likelihood
    xi_eff = as_xi(xi_eff)
    denom = _literal_integral(like, xi_eff, lam_eff, 0, 0)

    bound = like.support_bound
    xs = [x for x in range(0, x_hi + 1) if bound is None or x <= bound]
    worst = 0.0
    rows = []
    primary = np.exp(predictive_logpmf(like, xi_eff, lam_eff, np.array(xs)))
    for x, p in zip(xs, primary):
        numer = _literal_integral(like, xi_eff, lam_eff, 1, x)
        ratio = numer / denom
        err = abs(p - ratio) / max(abs(ratio), 1e-300)
        worst = max(worst, err)
        rows.append(f"x={x}: {p:.9g} vs {ratio:.9g}")
    return _report_leq(
        f"predictive pmf at (xi={xi_eff[0]:g}, lam={lam_eff:g})",
        worst,
        1e-7,
        "; ".join(rows),
    )


def oracle_weight_law(
    prior: ExpCrmPrior,
    xi,
    lam: float,
    reps: int = 4000,
    seed: int = 0,
    alpha: float = 0.01,
) -> CheckReport:
    """KS of the package's weight draws against an independent numeric cdf.

    The reference cdf is summed from the conjugate kernel by composite
    Gauss-Legendre panels, with no knowledge of which named distribution
    the catalog sampler uses; heavy tails are fine because nothing here
    needs moments.  Each panel is bisected until its distance from a
    lower-order companion rule, its error bound, is within 1e-10 of its
    mass, so the reference is off by far less than the smallest D a KS
    test of any feasible size can resolve (about 1e-3 at 10^6 draws), and a
    rejection speaks about the draws, not about the reference.

    The p-value is the tail of the exact finite-n Kolmogorov distribution
    of D, :func:`kolmogorov_sf`: the same double as ``scipy.stats.kstest``
    gives for n > 140, and within 3e-11 relative of it for n <= 140, where
    the band 0.754693 < n D^2 <= 4 is computed by the MTW matrix method
    instead of Pomeranz's recursion.
    """
    if reps < 1:
        raise DomainError(f"the weight-law oracle needs at least one draw, got {reps}")
    like = prior.likelihood
    xi = as_xi(xi)
    gen = RngState(seed, stream=17).generator()
    draws = family_of(like).draw_weights(gen, np.tile(xi, (reps, 1)), np.full(reps, float(lam)))
    cdf = QuadratureFamily(like).weight_law(xi, lam).cdf(np.sort(draws))
    d_plus = np.max(np.arange(1.0, reps + 1) / reps - cdf)
    d_minus = np.max(cdf - np.arange(0.0, reps) / reps)
    d = max(d_plus, d_minus)
    return _report_geq(
        f"weight law at (xi={xi[0]:g}, lam={lam:g})",
        kolmogorov_sf(reps, d),
        alpha,
        f"n = {reps}, D = {d:.4g}",
    )


def _oracle_cells(prior: ExpCrmPrior) -> list[tuple[int, int]]:
    bound = prior.likelihood.support_bound
    cells = [(1, 1), (1, 2), (2, 1), (3, 2)]
    return [(m, x) for m, x in cells if bound is None or x <= bound]


def oracle_suite(prior: ExpCrmPrior, seed: int = 0, reps: int = 4000) -> list[CheckReport]:
    """All oracle checks at deterministic probe points derived from the prior."""
    reports = []
    cells = _oracle_cells(prior)
    for m, x in cells:
        xi_mx, lam_mx = weight_dist_params(prior, m, x)
        reports.append(oracle_log_partition(prior, xi_mx, lam_mx))
    for m, x in cells:
        reports.append(oracle_rate_M(prior, m, x))
    for m in (1, 2, 3):
        reports.append(oracle_round_total(prior, m))
    xi_11, lam_11 = weight_dist_params(prior, 1, 1)
    reports.append(oracle_predictive_pmf(prior, xi_11, lam_11))
    reports.append(oracle_weight_law(prior, xi_11, lam_11, reps=reps, seed=seed))
    return reports


# --- sampler equivalence ------------------------------------------------------


# rounds of the size-biased sampler, and steps of the marginal one, that the
# equivalence suite compares, and the fewest replicates per sampler it takes
EQUIVALENCE_ROUNDS = 3
EQUIVALENCE_MIN_REPS = 100


def _equivalence_reps(reps: int) -> None:
    if reps < EQUIVALENCE_MIN_REPS:
        raise DomainError(f"equivalence needs at least {EQUIVALENCE_MIN_REPS} replicates per sampler")


def equivalence_run(
    prior: ExpCrmPrior,
    n_steps: int = EQUIVALENCE_ROUNDS,
    reps: int = 2000,
    seed: int = 0,
    x_max: int = DEFAULT_X_MAX,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> list[CheckReport]:
    """Compare the two generative processes on their common statistics.

    For each round n <= n_steps, the size-biased sampler's round-n atoms
    and the atoms born at the marginal stream's step n must share the
    joint law of (atom count, count sum); each round gets a two-sample
    chi-square report.  Both samplers run under the same truncation so
    the comparison is exact, not asymptotic.
    """
    _equivalence_reps(reps)
    sb = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=n_steps, x_max=x_max, eps_tail=eps_tail))
    mg = MarginalSampler(prior, MarginalConfig(x_max=x_max, eps_tail=eps_tail))
    sb_stats: list[list] = [[] for _ in range(n_steps)]
    mg_stats: list[list] = [[] for _ in range(n_steps)]
    for r in range(reps):
        labeled = sb.draw_labeled(RngState(seed, stream=2 * r))
        for n in range(1, n_steps + 1):
            mask = labeled.rounds == n
            sb_stats[n - 1].append((int(mask.sum()), int(labeled.counts[mask].sum())))
        steps = islice(mg.stream(RngState(seed, stream=2 * r + 1)), n_steps)
        for stats, (_, _, born) in zip(mg_stats, steps):
            stats.append((born.size, int(born.sum())))
    return [
        chi_square_two_sample(
            sb_stats[n - 1],
            mg_stats[n - 1],
            name=f"size-biased vs marginal, round {n} (atoms, count sum)",
        )
        for n in range(1, n_steps + 1)
    ]


# --- entry point ---------------------------------------------------------------


_SUITES = ("assumptions", "oracle", "equivalence")


@dataclass(frozen=True, slots=True)
class SuiteRun:
    """What :func:`run_suite` ran: its reports, the replicates it drew, and the truncation
    ``policy`` with the ``certificate`` of what it neglected, ``None`` where it truncated nothing."""

    reports: list[CheckReport]
    reps: int
    policy: dict | None = None
    certificate: dict | None = None


def run_suite(
    prior: ExpCrmPrior,
    suite: str,
    seed: int = 0,
    reps: int = 2000,
    x_max: int = DEFAULT_X_MAX,
    eps_tail: float = DEFAULT_EPS_TAIL,
) -> SuiteRun:
    """Run one named verification suite and return what it ran.

    The oracle suite's KS test draws at least 1,000 weights; every other
    suite runs ``reps``.  ``x_max`` and ``eps_tail`` truncate the
    equivalence suite's rounds 1-3, and its certificate holds what each of
    its two samplers neglects over them, read from the one rate table both
    samplers read (held here while they run).
    """
    if suite == "assumptions":
        return SuiteRun(check_assumptions(prior), reps)
    if suite == "oracle":
        reps = max(reps, 1000)
        return SuiteRun(oracle_suite(prior, seed=seed, reps=reps), reps)
    if suite == "equivalence":
        rounds = EQUIVALENCE_ROUNDS
        _equivalence_reps(reps)  # before the table: a refused call builds none
        table = _rate_table(prior, x_max, eps_tail)  # the samplers find it while it is held
        reports = equivalence_run(prior, rounds, reps, seed, x_max, eps_tail)
        policy = {"rounds": rounds, "x_max": x_max, "eps_tail": eps_tail}
        certificate = {
            "size_biased": table.draw_certificate(rounds),
            "marginal": table.stream_certificate(rounds),
        }
        return SuiteRun(reports, reps, policy, certificate)
    raise DomainError(f"unknown suite {suite!r}; choose one of {', '.join(_SUITES)}")
