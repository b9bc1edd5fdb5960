"""The built-in conjugate families.

Four likelihood/prior pairs ship with the package, all with identity
sufficient statistic phi(x) = x and one-dimensional xi:

====================  ===================  ============================================
likelihood            conjugate prior      ordinary-component kernel
====================  ===================  ============================================
poisson               gamma_process        theta^xi * exp(-lam * theta)      on (0, inf)
bernoulli             beta_process         theta^xi * (1-theta)^(lam-xi)     on (0, 1]
odds_bernoulli        beta_prime_process   theta^xi * (1+theta)^(-lam)       on (0, inf)
negative_binomial(r)  beta                 theta^xi * (1-theta)^(lam*r)      on (0, 1)
====================  ===================  ============================================

Each entry carries the analytic log normalizer B, the validity region of
(mass, xi, lam) for which the ordinary component has infinite total mass
(assumption A1) while keeping the expected number of observed atoms finite
(assumption A2), per-round atom-rate closed forms, and a fast weight
sampler. Valid hyperparameters always have xi in (-2, -1]: at xi = -1 the
kernel mass diverges logarithmically at zero, which is the boundary case
(for the beta process this point, xi = -1 with lam = -1, is the classic
Indian buffet process with new-dish rate mass/n).

A family states only its own facts: eta and A, the count support bound and
the weight domain, the stable overrides, B and the kernel orders, its round
totals and weight law, its lam condition and its descriptor lines.
:class:`CatalogEntry` derives the rest once: phi(x) = x, the scalar h from
``log_h_vec``, the weight bound of the draws, the descriptor's ids, counts
and weights, and the xi range (-2, -1].

The beta process additionally exists in its native three-parameter form
(mass, alpha, theta_c). Two maps connect the parametrizations and they are
not the same map:

* :func:`map_bp_params` is the textbook alias xi = alpha - 1,
  lam = theta_c - 2, kept because its arithmetic round-trips exactly;
* the kernel-level correspondence xi = -alpha - 1, lam = theta_c - 2, under
  which the exponential kernel literally equals the classic kernel
  theta^(-alpha-1) * (1-theta)^(theta_c+alpha-1) and the native validity
  region alpha in [0, 1), theta_c > -alpha maps exactly onto the
  exponential-form region. Model construction (:meth:`BernoulliBeta
  .from_native`, and the CLI's alpha/theta configs) uses the kernel-level
  map, since that is the one that preserves the model's distributions.

The two agree at alpha = 0. The same kernel-level convention gives the
negative binomial its native form (Ex.: a draw with alpha in [0, 1) and
theta_c > -alpha has xi = -alpha - 1, lam = (theta_c + alpha - 1) / r).
"""

from __future__ import annotations

import math
import re
from typing import Optional

import numpy as np
from scipy.special import betaln, digamma, gammaln, polygamma

from .errors import DivergenceSuspected, DomainError
from .exp_family import (
    ExpCrmLikelihood,
    ExpCrmPrior,
    FixedAtomParams,
    ValidityResult,
    WeightDomain,
    as_xi,
    entry_for,  # noqa: F401  (re-exported: the catalog's lookup API)
    family_of,  # noqa: F401  (re-exported)
    hyperparam_valid,  # noqa: F401  (re-exported)
)
from .measures import Location, _check_float

_OK = ValidityResult(True)

# catalog entries by likelihood family id; each CatalogEntry adds itself on construction
_ENTRIES: dict = {}


def _xi0(xi) -> float:
    xi = as_xi(xi)
    if len(xi) != 1:
        raise DomainError("catalog families use one-dimensional xi")
    return xi[0]


def _fail(reason: str) -> ValidityResult:
    return ValidityResult(False, reason)


def _check_mass(mass: float) -> ValidityResult:
    if math.isfinite(mass) and mass > 0.0:
        return _OK
    return _fail(f"mass must be positive and finite, got {mass:g}")


class CatalogEntry:
    """One conjugate likelihood/prior pair with its closed forms.

    Subclasses fill in the family specifics; the base class implements
    everything expressible through the log normalizer ``_log_B0`` alone,
    relying on the shared structure phi(x) = x and h(0) = 1 of the catalog.
    """

    likelihood_id: str = ""
    prior_id: str = ""
    # the family's own descriptor lines: valid, native, fixed_atoms
    _descriptor: dict = {}

    def __init__(self):
        self._likelihood: Optional[ExpCrmLikelihood] = None
        _ENTRIES[self.family] = self  # the registry entry_for reads

    # -- identity ----------------------------------------------------------

    @property
    def family(self) -> str:
        return self.likelihood_id

    def make_likelihood(self) -> ExpCrmLikelihood:
        if self._likelihood is None:
            self._likelihood = ExpCrmLikelihood(
                family=self.family,
                log_h=lambda x: float(self.log_h_vec(x)),
                phi=lambda x: (float(x),),  # the identity every closed form below assumes
                **self._likelihood_fields(),
            )
        return self._likelihood

    def _likelihood_fields(self) -> dict:
        """The family's remaining ``ExpCrmLikelihood`` fields."""
        raise NotImplementedError

    def describe(self) -> dict:
        like = self.make_likelihood()
        bound = like.support_bound
        return {
            "likelihood": self.likelihood_id,
            "prior": self.prior_id,
            "counts": "0, 1, 2, ..." if bound is None else ", ".join(map(str, range(bound + 1))),
            "weights": like.weight_domain.label(),
            **self._descriptor,
        }

    # -- closed forms -------------------------------------------------------

    def _log_B0(self, xi0, lam):
        """Vectorized log normalizer in the scalar parametrization."""
        raise NotImplementedError

    def _proper0(self, xi0: float, lam: float) -> bool:
        raise NotImplementedError

    def log_h_vec(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_B(self, xi, lam: float) -> float:
        """B at (xi, lam), DomainError where it is infinite."""
        if not self.proper(xi, lam):
            raise DomainError(
                f"B is infinite at (xi={as_xi(xi)}, lam={lam}) for {self.family}: "
                "the kernel is not normalizable there"
            )
        return float(self._log_B0(_xi0(xi), lam))

    def proper(self, xi, lam: float) -> bool:
        return self._proper0(_xi0(xi), lam)

    def kernel_orders(self, xi, lam: float):
        """Endpoint powers (at 0, at the top) of the kernel at (xi, lam).

        The top power is None for faster-than-power decay.  The orders of
        every rate, total and predictive integrand follow from these by
        conjugacy (see ``expcrm.checks._integrand_orders``).
        """
        raise NotImplementedError

    # -- validity ------------------------------------------------------------

    def hyperparam_valid(self, mass: float, xi, lam: float) -> ValidityResult:
        """A positive finite mass, then the family's (xi, lam) region."""
        xi0 = _xi0(xi)
        res = _check_mass(mass)
        return self._region_valid(xi0, lam) if res.ok else res

    def _region_valid(self, xi0: float, lam: float) -> ValidityResult:
        """The catalog's xi range (-2, -1], then the family's lam condition."""
        if xi0 > -1.0:
            return _fail(f"A1 fails: xi must be <= -1 for infinite ordinary mass, got {xi0:g}")
        if xi0 <= -2.0:
            return _fail(f"A2 fails: xi must exceed -2 for a finite atom rate, got {xi0:g}")
        return self._lam_valid(xi0, lam)

    def _lam_valid(self, xi0: float, lam: float) -> ValidityResult:
        raise NotImplementedError

    def fixed_atom_valid(self, xi, lam: float) -> ValidityResult:
        if self._proper0(_xi0(xi), lam):
            return _OK
        return _fail(
            f"fixed atom parameters (xi={_xi0(xi):g}, lam={lam:g}) do not "
            f"normalize for {self.family}"
        )

    # -- rates and predictive -------------------------------------------------

    chunk = 64  # counts per predictive-walk chunk
    round_block = 1  # rounds per rate_rows block: closed forms tabulate any rounds alike

    def phi_rows(self, xs) -> np.ndarray:
        """phi of the counts ``xs``, one row each: the counts as one float column, phi(x) = x."""
        return np.asarray(xs, dtype=float).reshape(-1, 1)

    def rate_rows(self, prior: ExpCrmPrior, ms, xs) -> tuple[np.ndarray, np.ndarray]:
        """A prior's rates at rounds ``ms`` (rows) and counts ``xs`` (columns), and the round totals."""
        return (
            self.rate_table(prior.mass, prior.xi, prior.lam, ms, xs),
            self.round_totals(prior.mass, prior.xi, prior.lam, np.asarray(ms, dtype=float)),
        )

    def predictive_rows(self, xi: np.ndarray, lam: np.ndarray, xs: np.ndarray, log_h: np.ndarray):
        """:meth:`predictive_logpmf` at ``xs`` of the atoms (xi[i], lam[i]), one row each."""
        return self.predictive_logpmf(xi[:, :1], lam[:, None], xs, log_h=log_h)

    def draw_weights(self, generator, xi: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """One weight per row of the atoms x 1 ``xi`` and entry of ``lam``, in one draw."""
        if not lam.size:
            return np.empty(0)
        return self.sample_weights(generator, xi[:, 0], lam, lam.size)

    def rate_table(self, mass: float, xi, lam: float, m: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Atom rates for rounds ``m`` (rows) and counts ``x`` (columns).

        Entry (i, j) is the expected number of round-m_i atoms observed with
        count x_j: mass * h(0)^(m-1) * h(x) * exp(B(xi + x, lam + m)).
        All catalog families have h(0) = 1 and phi(0) = 0, so the round
        only enters through lam.
        """
        xi0 = _xi0(xi)
        m = np.asarray(m, dtype=float).reshape(-1, 1)
        x = np.asarray(x, dtype=np.int64).reshape(1, -1)
        log_rate = (
            math.log(mass)
            + self.log_h_vec(x)
            + self._log_B0(xi0 + x, lam + m)
        )
        return np.exp(log_rate)

    def round_totals(self, mass: float, xi, lam: float, m: np.ndarray) -> np.ndarray:
        """Expected atoms per round, summed over all positive counts."""
        raise NotImplementedError

    def predictive_logpmf(self, xi0_eff, lam_eff, x: np.ndarray, *, log_h=None) -> np.ndarray:
        """log pmf of the next count at an atom with accumulated (xi, lam).

        ``xi0_eff`` is xi plus the summed counts so far, ``lam_eff`` is lam
        plus the number of completed observations; both are floats, or
        arrays that broadcast against ``x`` (columns of per-atom values give
        one row of pmf values per atom). The normalizer ratio
        B(xi_eff + x, lam_eff + 1) - B(xi_eff, lam_eff) integrates the
        likelihood against the atom's current weight density.  A caller
        that evaluates the same counts many times may pass the ``log_h``
        (``log_h_vec(x)``) it already holds; the sum is the same.
        """
        x = np.asarray(x, dtype=np.int64)
        if log_h is None:
            log_h = self.log_h_vec(x)
        return (
            log_h
            + self._log_B0(xi0_eff + x, lam_eff + 1.0)
            - self._log_B0(xi0_eff, lam_eff)
        )

    def _draw_weights(self, generator, xi0: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """One weight per entry of the equal-length ``xi0``/``lam`` arrays.

        A single broadcast generator call, which consumes the stream exactly
        like one call per entry in order.  Draws may land on the boundary
        of the weight domain.
        """
        raise NotImplementedError

    def sample_weights(self, generator, xi, lam, size: int):
        """``size`` draws of the weight law with hyperparameters (xi, lam).

        ``xi`` is the one-dimensional xi of a single law, or an array of
        xi values with one entry per draw; ``lam`` is a float or such an
        array.  The draw is one generator call; a draw that rounded onto an
        edge of the weight domain is moved inside by
        :meth:`~expcrm.exp_family.WeightDomain.clip`.
        """
        xi0 = np.asarray(xi, dtype=float) if isinstance(xi, np.ndarray) else _xi0(xi)
        xi0 = np.broadcast_to(xi0, size)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), size)
        if not np.all(self._proper0(xi0, lam)):
            raise DomainError("weight draws need proper (xi, lam)")
        return self.make_likelihood().weight_domain.clip(self._draw_weights(generator, xi0, lam))


class _NativeBeta(CatalogEntry):
    """A family that also takes native beta parameters (mass, alpha, theta_c).

    The kernel-level map sets xi = -alpha - 1 and lam by the family's
    ``_native_lam``, so that the native validity region alpha in [0, 1),
    theta_c > -alpha maps onto the exponential one.  A fixed atom with
    native law Beta(rho, sigma) gets xi = rho - 1 and lam by
    ``_native_fixed_lam``.  The two lam maps are all a subclass adds.
    """

    def _native_lam(self, alpha: float, theta_c: float) -> float:
        raise NotImplementedError

    def _native_fixed_lam(self, rho: float, sigma: float) -> float:
        raise NotImplementedError

    def native_valid(self, mass: float, alpha: float, theta_c: float) -> ValidityResult:
        res = _check_mass(mass)
        if not res.ok:
            return res
        if not 0.0 <= alpha < 1.0:
            return _fail(f"native alpha must lie in [0, 1), got {alpha:g}")
        if not theta_c > -alpha:
            return _fail(f"native theta must exceed -alpha, got theta={theta_c:g}")
        return _OK

    def native_params(self, mass: float, alpha: float, theta_c: float) -> tuple:
        """(mass, xi, lam) of native parameters; DomainError outside their region."""
        res = self.native_valid(mass, alpha, theta_c)
        if not res.ok:
            raise DomainError(res.reason)
        return mass, (-alpha - 1.0,), self._native_lam(alpha, theta_c)

    def native_fixed_atom(self, rho: float, sigma: float) -> tuple:
        """Beta(rho, sigma) fixed-atom law in exponential coordinates."""
        if not (rho > 0.0 and sigma > 0.0):
            raise DomainError("native fixed atoms need rho > 0 and sigma > 0")
        return (rho - 1.0,), self._native_fixed_lam(rho, sigma)

    def from_native(self, mass: float, alpha: float, theta_c: float, fixed=()) -> ExpCrmPrior:
        """Prior from native (mass, alpha, theta_c); ``fixed`` holds
        (location, rho, sigma) triples of native fixed-atom laws."""
        mass, xi, lam = self.native_params(mass, alpha, theta_c)
        atoms = tuple(
            FixedAtomParams(Location(loc), *self.native_fixed_atom(rho, sigma))
            for (loc, rho, sigma) in fixed
        )
        return ExpCrmPrior(self.make_likelihood(), mass, xi, lam, atoms)


def _binary_log_h(self, x):
    """log h of the two binary families: h = 1 on the counts 0 and 1."""
    x = np.asarray(x, dtype=np.int64)
    return np.where((x == 0) | (x == 1), 0.0, -np.inf)


# --- poisson / gamma_process --------------------------------------------------


class PoissonGamma(CatalogEntry):
    """Counts are Poisson(theta); weights carry a gamma-shaped kernel."""

    likelihood_id = "poisson"
    prior_id = "gamma_process"
    _descriptor = {
        "valid": "mass > 0, -2 < xi <= -1, lam > 0",
        "fixed_atoms": "xi_fix > -1, lam_fix > 0",
    }

    def _likelihood_fields(self) -> dict:
        return dict(
            eta=lambda th: np.log(th)[:, None],
            A=lambda th: np.asarray(th, dtype=float),
            support_bound=None,
            weight_domain=WeightDomain(math.inf),
            log_pmf_fn=lambda x, th: x * np.log(th) - th - gammaln(x + 1.0),
            log_kernel_fn=lambda xi, lam, th: xi[0] * np.log(th) - lam * th,
            sample_fn=lambda gen, th: gen.poisson(th),
        )

    def log_h_vec(self, x):
        return -gammaln(np.asarray(x, dtype=float) + 1.0)

    def _log_B0(self, xi0, lam):
        return gammaln(xi0 + 1.0) - (xi0 + 1.0) * np.log(lam)

    def _proper0(self, xi0, lam):
        return (xi0 > -1.0) & (lam > 0.0)

    def kernel_orders(self, xi, lam):
        if lam < 0.0:
            raise DivergenceSuspected(
                "gamma kernel grows exponentially at infinity for lam < 0",
                endpoint="infinity",
            )
        return _xi0(xi), (_xi0(xi) if lam == 0.0 else None)

    def _lam_valid(self, xi0, lam):
        if not lam > 0.0:
            return _fail(f"A2 fails: lam must be positive for a finite atom rate, got {lam:g}")
        return _OK

    def round_totals(self, mass, xi, lam, m):
        """mass * Gamma(s) * ((lam+m-1)^-s - (lam+m)^-s), s = xi + 1.

        Written through expm1 so nothing cancels as s -> 0, where the
        correct limit mass * log((lam+m)/(lam+m-1)) takes over exactly.  At
        lam + m - 1 = 0 the total is finite only for s < 0, where
        (lam+m-1)^-s vanishes and -mass * Gamma(s) * (lam+m)^-s is left.
        """
        xi0 = _xi0(xi)
        s = xi0 + 1.0
        m = np.asarray(m, dtype=float)
        a = lam + m - 1.0
        b = lam + m
        edge = a == 0.0
        if np.any(a < 0.0) or (s >= 0.0 and np.any(edge)):
            raise DomainError("round totals need lam + m - 1 > 0, or lam + m - 1 = 0 with xi < -1")
        a = np.where(edge, b, a)  # any positive stand-in: the edge entries are replaced below
        log_ratio = np.log(b / a)
        if s == 0.0:
            return mass * log_ratio
        core = -np.expm1(-s * log_ratio)  # 1 - (a/b)^s, sign-safe for s < 0
        scale = mass * math.exp(gammaln(s + 1.0)) / s
        total = scale * np.exp(-s * np.log(a)) * core
        if edge.any():
            total = np.where(edge, -scale * np.exp(-s * np.log(b)), total)
        return total

    def _draw_weights(self, generator, xi0, lam):
        return generator.gamma(xi0 + 1.0, 1.0 / lam)


# --- bernoulli / beta_process -------------------------------------------------


class BernoulliBeta(_NativeBeta):
    """Binary counts; weights on (0, 1] with a beta-shaped kernel.

    Valid hyperparameters come in two published ranges that disagree off
    the point alpha = 0: the exponential-form region xi in (-2, -1],
    lam > xi - 1 (where A1 genuinely holds for this kernel), and the image
    xi in [-1, 0), lam > -xi - 3 of the native range under the literal
    alias of :func:`map_bp_params`. ``hyperparam_valid`` accepts the union
    and attaches a warning when only the literal-alias range matched,
    because there the kernel's ordinary mass is finite and the numeric A1
    check will disagree.
    """

    likelihood_id = "bernoulli"
    prior_id = "beta_process"
    _descriptor = {
        "valid": "mass > 0, -2 < xi <= -1, lam > xi - 1 "
        "(union with the native alias range xi in [-1, 0), lam > -xi - 3, with a warning)",
        "native": "mass > 0, 0 <= alpha < 1, theta > -alpha",
        "fixed_atoms": "xi_fix > -1, lam_fix > xi_fix - 1",
    }
    log_h_vec = _binary_log_h

    def _likelihood_fields(self) -> dict:
        def log_pmf_fn(x, th):
            # stable at the closed upper boundary theta = 1, where
            # P(0) = 0 comes out as log1p(-1) = -inf
            with np.errstate(divide="ignore"):
                if x == 1:
                    return np.log(th)
                return np.log1p(-th)

        return dict(
            eta=lambda th: (np.log(th) - np.log1p(-th))[:, None],
            A=lambda th: -np.log1p(-th),
            support_bound=1,
            weight_domain=WeightDomain(1.0, closed_upper=True),
            log_pmf_fn=log_pmf_fn,
            log_kernel_fn=lambda xi, lam, th: xi[0] * np.log(th) + (lam - xi[0]) * np.log1p(-th),
            log_kernel_upper_fn=lambda xi, lam, v: xi[0] * np.log1p(-v) + (lam - xi[0]) * np.log(v),
            sample_fn=lambda gen, th: (gen.random(len(th)) < th).astype(np.int64),
        )

    def _log_B0(self, xi0, lam):
        return betaln(xi0 + 1.0, lam - xi0 + 1.0)

    def _proper0(self, xi0, lam):
        return (xi0 > -1.0) & (lam - xi0 > -1.0)

    def kernel_orders(self, xi, lam):
        return _xi0(xi), lam - _xi0(xi)

    def _region_valid(self, xi0, lam):
        if -2.0 < xi0 <= -1.0:
            if lam > xi0 - 1.0:
                return _OK
            return _fail(f"A2 fails: lam must exceed xi - 1, got lam={lam:g}, xi={xi0:g}")
        if -1.0 < xi0 < 0.0:
            if lam > -xi0 - 3.0:
                return ValidityResult(
                    True,
                    warnings=(
                        f"(xi={xi0:g}, lam={lam:g}) is valid only under the literal "
                        "native-parameter alias (xi in [-1, 0), lam > -xi - 3); the "
                        "exponential kernel itself has finite ordinary mass here, so "
                        "the numeric infinite-mass check will fail. The directly "
                        "valid range is xi in (-2, -1], lam > xi - 1.",
                    ),
                )
            return _fail(
                f"invalid in both published ranges: xi={xi0:g} needs lam > {-xi0 - 3.0:g} "
                "under the native alias, and xi in (-2, -1], lam > xi - 1 directly"
            )
        if xi0 >= 0.0:
            return _fail(f"A1 fails: xi must be negative, got {xi0:g}")
        return _fail(f"A2 fails: xi must exceed -2, got {xi0:g}")

    def round_totals(self, mass, xi, lam, m):
        # binary support: the per-round total is the x = 1 rate itself
        xi0 = _xi0(xi)
        m = np.asarray(m, dtype=float)
        return mass * np.exp(betaln(xi0 + 2.0, lam - xi0 + m))

    def _draw_weights(self, generator, xi0, lam):
        return generator.beta(xi0 + 1.0, lam - xi0 + 1.0)

    def _native_lam(self, alpha, theta_c):
        return theta_c - 2.0

    def _native_fixed_lam(self, rho, sigma):
        return rho + sigma - 2.0


# --- odds_bernoulli / beta_prime_process ---------------------------------------


class OddsBernoulliBetaPrime(CatalogEntry):
    """Binary counts with success odds theta; weights on (0, inf)."""

    likelihood_id = "odds_bernoulli"
    prior_id = "beta_prime_process"
    _descriptor = {
        "valid": "mass > 0, -2 < xi <= -1, lam > xi + 1",
        "fixed_atoms": "xi_fix > -1, lam_fix > xi_fix + 1",
    }
    log_h_vec = _binary_log_h

    def _likelihood_fields(self) -> dict:
        def log_pmf_fn(x, th):
            if x == 1:
                return np.log(th) - np.log1p(th)
            return -np.log1p(th)

        return dict(
            eta=lambda th: np.log(th)[:, None],
            A=lambda th: np.log1p(th),
            support_bound=1,
            weight_domain=WeightDomain(math.inf),
            log_pmf_fn=log_pmf_fn,
            log_kernel_fn=lambda xi, lam, th: xi[0] * np.log(th) - lam * np.log1p(th),
            sample_fn=lambda gen, th: (gen.random(len(th)) * (1.0 + th) < th).astype(np.int64),
        )

    def _log_B0(self, xi0, lam):
        return betaln(xi0 + 1.0, lam - xi0 - 1.0)

    def _proper0(self, xi0, lam):
        return (xi0 > -1.0) & (lam - xi0 > 1.0)

    def kernel_orders(self, xi, lam):
        return _xi0(xi), _xi0(xi) - lam

    def _lam_valid(self, xi0, lam):
        if not lam > xi0 + 1.0:
            return _fail(f"A2 fails: lam must exceed xi + 1 for a convergent tail, got {lam:g}")
        return _OK

    def round_totals(self, mass, xi, lam, m):
        xi0 = _xi0(xi)
        m = np.asarray(m, dtype=float)
        return mass * np.exp(betaln(xi0 + 2.0, lam + m - xi0 - 2.0))

    def _draw_weights(self, generator, xi0, lam):
        # the ratio of the two gamma variates of a beta draw, taken in pairs
        # from one call: the odds y / (1 - y) of the beta draw itself lose
        # heavy tails, where much of the mass rounds onto y = 1.  Each
        # variate is clipped inside its own (0, inf) first, so no ratio is 0/0
        shapes = np.column_stack([xi0 + 1.0, lam - xi0 - 1.0]).ravel()
        g = WeightDomain(math.inf).clip(generator.standard_gamma(shapes))
        with np.errstate(over="ignore"):
            return g[0::2] / g[1::2]


# --- negative_binomial(r) / beta -----------------------------------------------


_NB_ID = re.compile(r"^negative_binomial\(([^)]+)\)$")
_NB_SHAPE = "negative binomial shape r"  # a real, not a bool, finite and > 0


def _nb_family(r: float) -> str:
    """The family id of shape ``r``: its %g form when that reads back as ``r``, else its repr."""
    short = format(r, "g")
    return f"negative_binomial({short if float(short) == r else repr(r)})"


def _entry_by_id(family: str) -> CatalogEntry | None:
    """The entry whose family id is ``family``, if any; an id that :func:`_nb_family`
    writes for a valid shape r names the negative binomial at r, built on first use."""
    entry = _ENTRIES.get(family)
    hit = _NB_ID.match(family) if entry is None else None
    try:
        r = float(hit.group(1)) if hit else math.nan
    except ValueError:
        r = math.nan
    if math.isfinite(r) and r > 0.0 and _nb_family(r) == family:
        return get_entry("negative_binomial", r)
    return entry


class NegativeBinomialBeta(_NativeBeta):
    """Counts are NB(r, theta); weights on (0, 1) with kernel exponent lam*r."""

    likelihood_id = "negative_binomial"
    prior_id = "beta"
    _descriptor = {
        "likelihood": "negative_binomial(r)",
        "valid": "mass > 0, -2 < xi <= -1, lam * r > -1, r > 0",
        "native": "mass > 0, 0 <= alpha < 1, theta > -alpha",
        "fixed_atoms": "xi_fix > -1, lam_fix * r > -1",
    }

    def __init__(self, r: float):
        self.r = _check_float(_NB_SHAPE, r, positive=True)
        super().__init__()

    @property
    def family(self) -> str:
        return _nb_family(self.r)

    def _likelihood_fields(self) -> dict:
        r = self.r
        return dict(
            eta=lambda th: np.log(th)[:, None],
            A=lambda th: -r * np.log1p(-th),
            support_bound=None,
            weight_domain=WeightDomain(1.0),
            log_pmf_fn=lambda x, th: self.log_h_vec(x) + x * np.log(th) + r * np.log1p(-th),
            log_kernel_fn=lambda xi, lam, th: xi[0] * np.log(th) + lam * r * np.log1p(-th),
            log_kernel_upper_fn=lambda xi, lam, v: xi[0] * np.log1p(-v) + lam * r * np.log(v),
            sample_fn=lambda gen, th: gen.negative_binomial(r, 1.0 - th),
        )

    def log_h_vec(self, x):
        x = np.asarray(x, dtype=np.float64)
        return gammaln(x + self.r) - gammaln(self.r) - gammaln(x + 1.0)

    def _log_B0(self, xi0, lam):
        return betaln(xi0 + 1.0, lam * self.r + 1.0)

    def _proper0(self, xi0, lam):
        return (xi0 > -1.0) & (lam * self.r > -1.0)

    def kernel_orders(self, xi, lam):
        return _xi0(xi), lam * self.r

    def _lam_valid(self, xi0, lam):
        if not lam * self.r > -1.0:
            return _fail(
                f"A2 fails: lam * r must exceed -1 for a normalizable round weight, "
                f"got lam={lam:g}, r={self.r:g}"
            )
        return _OK

    def round_totals(self, mass, xi, lam, m):
        """mass * (Beta(s, c1) - Beta(s, c2)), s = xi+1, c2 = c1 + r.

        c1 = (lam+m-1)*r + 1. The difference collapses to a digamma
        difference as s -> 0 (the xi = -1 boundary); near zero the
        exponent difference is expanded in polygamma terms so the expm1
        form never cancels.
        """
        xi0 = _xi0(xi)
        s = xi0 + 1.0
        m = np.asarray(m, dtype=float)
        c1 = (lam + m - 1.0) * self.r + 1.0
        c2 = c1 + self.r
        if np.any(c1 <= 0.0):
            raise DomainError("round totals need (lam + m - 1) * r > -1")
        if s == 0.0:
            return mass * (digamma(c2) - digamma(c1))
        sgn_s = 1.0 if s > 0.0 else -1.0
        lead = gammaln(s + 1.0) - math.log(abs(s))
        log_t1 = gammaln(c1) - gammaln(s + c1)
        log_t2 = gammaln(c2) - gammaln(s + c2)
        # gammaln drops the sign of the continued Gamma; with c > 0 and
        # s > -1 the argument s + c only goes negative inside (-1, 0),
        # where Gamma itself is negative.
        sign1 = np.where(s + c1 < 0.0, -1.0, 1.0)
        sign2 = np.where(s + c2 < 0.0, -1.0, 1.0)
        if abs(s) < 1e-4:
            # both continuations stay positive this close to s = 0;
            # expand the exponent of Beta(s,c1)/Beta(s,c2) in polygamma
            # terms so the expm1 form never cancels
            delta = -(
                s * (digamma(c1) - digamma(c2))
                + s * s / 2.0 * (polygamma(1, c1) - polygamma(1, c2))
                + s**3 / 6.0 * (polygamma(2, c1) - polygamma(2, c2))
            )
            return mass * sgn_s * np.exp(lead + log_t2) * np.expm1(delta)
        same = sign1 == sign2
        out = np.empty_like(c1)
        if np.any(same):
            # Beta(s,c1) - Beta(s,c2) = Beta(s,c2) * expm1(delta): the ratio
            # is positive when the continuations share a sign
            delta = (log_t1 - log_t2)[same]
            out[same] = (
                sgn_s
                * sign2[same]
                * np.exp(lead + log_t2[same])
                * np.expm1(delta)
            )
        if np.any(~same):
            # opposite signs add in magnitude, so the direct difference
            # of the two terms is safe
            d = ~same
            out[d] = sgn_s * (
                sign1[d] * np.exp(lead + log_t1[d])
                - sign2[d] * np.exp(lead + log_t2[d])
            )
        return mass * out

    def _draw_weights(self, generator, xi0, lam):
        return generator.beta(xi0 + 1.0, lam * self.r + 1.0)

    def _native_lam(self, alpha, theta_c):
        return (theta_c + alpha - 1.0) / self.r

    def _native_fixed_lam(self, rho, sigma):
        return (sigma - 1.0) / self.r


# --- registry -----------------------------------------------------------------

POISSON_GAMMA = PoissonGamma()
BERNOULLI_BETA = BernoulliBeta()
ODDS_BERNOULLI_BETA_PRIME = OddsBernoulliBetaPrime()


def get_entry(likelihood_id: str, r: float | None = None) -> CatalogEntry:
    """Look up a catalog entry; ``r`` is required for negative_binomial."""
    if likelihood_id == "negative_binomial":
        if r is None:
            raise DomainError("negative_binomial needs the shape parameter r")
        r = _check_float(_NB_SHAPE, r, positive=True)
        return _ENTRIES.get(_nb_family(r)) or NegativeBinomialBeta(r)
    if r is not None:
        raise DomainError(f"family {likelihood_id!r} takes no shape parameter")
    entry = _ENTRIES.get(likelihood_id)
    if entry is None:
        raise DomainError(
            f"unknown family {likelihood_id!r}; catalog ids are "
            "poisson, bernoulli, odds_bernoulli, negative_binomial"
        )
    return entry


def list_entries() -> list[CatalogEntry]:
    """One entry per catalog family in definition order, the negative
    binomial at r = 1."""
    nb = get_entry("negative_binomial", 1.0)
    return [POISSON_GAMMA, BERNOULLI_BETA, ODDS_BERNOULLI_BETA_PRIME, nb]


# --- native beta-process alias --------------------------------------------------


def map_bp_params(mass: float, alpha: float, theta_c: float) -> tuple[float, float, float]:
    """Literal alias from native beta-process parameters to (mass, xi, lam).

    xi = alpha - 1, lam = theta_c - 2. This is the published identification
    kept for interoperability; note it is NOT the kernel-level
    correspondence used to build models from native parameters (see the
    module docstring), and the two agree only at alpha = 0. Raises
    DomainError outside the native validity region.
    """
    res = BERNOULLI_BETA.native_valid(mass, alpha, theta_c)
    if not res.ok:
        raise DomainError(res.reason)
    return float(mass), float(alpha) - 1.0, float(theta_c) - 2.0


def map_bp_params_inverse(mass: float, xi, lam: float) -> tuple[float, float, float]:
    """Inverse of :func:`map_bp_params`: alpha = xi + 1, theta = lam + 2."""
    xi0 = _xi0(xi)
    alpha = xi0 + 1.0
    theta_c = lam + 2.0
    res = BERNOULLI_BETA.native_valid(mass, alpha, theta_c)
    if not res.ok:
        raise DomainError(f"(xi={xi0:g}, lam={lam:g}) maps outside the native region: {res.reason}")
    return float(mass), alpha, theta_c
