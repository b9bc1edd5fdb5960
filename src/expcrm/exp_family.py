"""Exponential-family likelihoods paired with conjugate weight measures.

The generative setup: a latent discrete measure assigns a weight theta to
each of countably many locations, and at every location the observed count x
is drawn from an exponential-family pmf

    l(x | theta) = h(x) * exp( <eta(theta), phi(x)> - A(theta) ),

with h, phi fixed and eta, A smooth functions of the weight. The conjugate
object is a measure over weights built from the matching kernel

    kappa(theta; xi, lam) = exp( <xi, eta(theta)> - lam * A(theta) ),

used twice: improperly (infinite total mass) as the rate of the ordinary
component, and properly (normalizable) as the weight density at fixed
locations. The log normalizer

    B(xi, lam) = log integral of kappa(theta; xi, lam) d theta

is the single special function everything else is written in: posterior
updates shift (xi, lam) by sufficient statistics, and all atom rates and
predictive probabilities are ratios of exponentials of B at shifted
arguments.

This module defines the likelihood and prior containers and the generic
operations on them; closed forms for particular families are registered by
:mod:`expcrm.catalog`, and ``log_partition_B`` falls back to validated
quadrature for families without one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidModelError, QuadratureError
from .measures import Location
from .quadrature import IntegrandSpec, log_integrate, probed_orders, relative_to_peak


def as_xi(xi) -> tuple[float, ...]:
    """Normalize a scalar or sequence to the tuple form used for xi."""
    if isinstance(xi, (int, float, np.floating, np.integer)) and not isinstance(xi, bool):
        return (float(xi),)
    out = tuple(float(v) for v in xi)
    if not out:
        raise DomainError("xi must have at least one component")
    return out


def xi_plus(xi: tuple[float, ...], delta) -> tuple[float, ...]:
    """Componentwise xi + delta, where delta is a phi value or another xi."""
    d = as_xi(delta)
    if len(d) != len(xi):
        raise DomainError(f"dimension mismatch: {len(xi)} vs {len(d)}")
    return tuple(a + b for a, b in zip(xi, d))


@dataclass(frozen=True, slots=True)
class WeightDomain:
    """Interval of admissible weights: (0, upper), or (0, upper] when closed."""

    upper: float
    closed_upper: bool = False

    def __post_init__(self):
        if not self.upper > 0.0:
            raise DomainError(f"weight domain upper bound must be positive, got {self.upper}")
        if self.closed_upper and not math.isfinite(self.upper):
            raise DomainError("an unbounded weight domain cannot be closed above")

    def contains(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        inside = theta > 0.0
        if self.closed_upper:
            return inside & (theta <= self.upper)
        return inside & (theta < self.upper)

    def clip(self, theta) -> np.ndarray:
        """Draws moved from on or past an edge to the nearest double inside.

        A weight that rounded onto 0 becomes the smallest subnormal; one
        that rounded onto an open top becomes the double just below it, and
        an overflow the largest finite double.  This is the one boundary rule
        of every weight draw: a draw is never redrawn, so the law keeps the
        mass that rounds onto an edge and the stream is read forward only.
        """
        if self.closed_upper:
            top = self.upper
        elif math.isfinite(self.upper):
            top = math.nextafter(self.upper, 0.0)
        else:
            top = sys.float_info.max
        return np.clip(theta, 5e-324, top)

    def label(self) -> str:
        hi = "inf" if not math.isfinite(self.upper) else format(self.upper, "g")
        return f"(0, {hi}{']' if self.closed_upper else ')'}"


@dataclass(frozen=True)
class ExpCrmLikelihood:
    """An exponential-family pmf over counts, parametrized by a weight.

    Parameters
    ----------
    family : str
        Identifier used to look up registered closed forms, e.g.
        ``"poisson"`` or ``"negative_binomial(2.5)"``.
    log_h : callable
        ``x -> log h(x)`` for integer ``x >= 0``; ``-inf`` outside the
        support.
    phi : callable
        ``x -> tuple`` of sufficient statistics. ``phi(0)`` defines the
        dimension; 0 must always be in the support (the whole framework
        rests on most locations reporting a zero count).
    eta, A : callable
        Vectorized natural parameter and log partition of the pmf as
        functions of the weight, evaluated on interior points of the
        weight domain. ``eta`` returns shape (n, d), ``A`` shape (n,).
    support_bound : int or None
        Largest count with positive probability, None when unbounded.
    weight_domain : WeightDomain
    log_pmf_fn : callable, optional
        Stable override for ``log l(x | theta)``; required when the weight
        domain is closed above and eta diverges at the boundary.
    log_kernel_fn : callable, optional
        Stable override for ``(xi, lam, theta) -> <xi, eta> - lam * A``.
    log_kernel_upper_fn : callable, optional
        The conjugate kernel as a function of the distance v from a finite
        domain upper bound; lets quadrature evaluate near the boundary
        without cancellation.
    sample_fn : callable, optional
        ``(generator, theta_array) -> counts`` fast sampler of the pmf.
    """

    family: str
    log_h: Callable[[int], float]
    phi: Callable[[int], tuple]
    eta: Callable[[np.ndarray], np.ndarray]
    A: Callable[[np.ndarray], np.ndarray]
    support_bound: Optional[int]
    weight_domain: WeightDomain
    log_pmf_fn: Optional[Callable] = None
    log_kernel_fn: Optional[Callable] = None
    log_kernel_upper_fn: Optional[Callable] = None
    sample_fn: Optional[Callable] = None

    def __post_init__(self):
        if not isinstance(self.weight_domain, WeightDomain):
            raise DomainError("weight_domain must be a WeightDomain")
        if self.support_bound is not None and self.support_bound < 0:
            raise DomainError("support_bound must be None or >= 0")
        phi0 = self.phi(0)
        if not isinstance(phi0, tuple):
            raise DomainError("phi must return a tuple of sufficient statistics")

    @property
    def dim(self) -> int:
        return len(self.phi(0))

    def in_support(self, x: int) -> bool:
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool) or x < 0:
            return False
        return self.support_bound is None or x <= self.support_bound

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.weight_domain.contains(theta).all():
            raise DomainError(
                f"weight outside the domain {self.weight_domain.label()} of {self.family}"
            )
        return theta

    def log_pmf(self, x: int, theta) -> "float | np.ndarray":
        """log l(x | theta); -inf for x outside the support."""
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise DomainError(f"counts are integers, got {x!r}")
        x = int(x)
        if x < 0:
            raise DomainError(f"counts are nonnegative, got {x}")
        scalar = np.isscalar(theta)
        th = self._check_theta(np.atleast_1d(theta))
        if not self.in_support(x):
            out = np.full(th.shape, -np.inf)
            return float(out[0]) if scalar else out
        if self.log_pmf_fn is not None:
            out = np.asarray(self.log_pmf_fn(x, th), dtype=float)
        else:
            e = np.asarray(self.eta(th), dtype=float).reshape(len(th), self.dim)
            p = self.phi(x)
            out = self.log_h(x) + e @ np.asarray(p, dtype=float) - np.asarray(self.A(th))
        return float(out[0]) if scalar else out

    def sample(self, generator: np.random.Generator, theta: np.ndarray) -> np.ndarray:
        """Draw one count per weight. Falls back to an inverse-cdf walk."""
        th = self._check_theta(np.atleast_1d(theta))
        if self.sample_fn is not None:
            return np.asarray(self.sample_fn(generator, th), dtype=np.int64)
        out = np.empty(len(th), dtype=np.int64)
        for i, t in enumerate(th):
            u = generator.random()
            acc = 0.0
            x = 0
            while True:
                acc += math.exp(self.log_pmf(x, float(t)))
                if u <= acc or (self.support_bound is not None and x >= self.support_bound):
                    break
                x += 1
                if x > 10**7:
                    raise QuadratureError("pmf walk failed to accumulate to 1")
            out[i] = x
        return out


def pmf(likelihood: ExpCrmLikelihood, x: int, theta) -> "float | np.ndarray":
    """Probability of count ``x`` given weight ``theta``."""
    return np.exp(likelihood.log_pmf(x, theta))


def log_conjugate_kernel(likelihood: ExpCrmLikelihood, xi, lam: float, theta) -> np.ndarray:
    """log kappa(theta; xi, lam) = <xi, eta(theta)> - lam * A(theta)."""
    xi = as_xi(xi)
    th = likelihood._check_theta(np.atleast_1d(theta))
    if likelihood.log_kernel_fn is not None:
        return np.asarray(likelihood.log_kernel_fn(xi, lam, th), dtype=float)
    e = np.asarray(likelihood.eta(th), dtype=float).reshape(len(th), likelihood.dim)
    return e @ np.asarray(xi, dtype=float) - lam * np.asarray(likelihood.A(th), dtype=float)


# --- registered closed forms -------------------------------------------------

# Catalog entries by likelihood family id.  Each ``expcrm.catalog.CatalogEntry``
# adds itself on construction; an entry supplies ``log_B``/``proper`` (the
# analytic log normalizer and where it is finite), ``kernel_orders`` (the
# kernel's endpoint powers for quadrature), and the validity checks
# ``hyperparam_valid``/``fixed_atom_valid``.
_ENTRIES: dict = {}


def entry_for(likelihood: ExpCrmLikelihood):
    """The registered catalog entry matching a likelihood's family id, if any."""
    return _ENTRIES.get(likelihood.family)


def _kernel_spec(likelihood: ExpCrmLikelihood, xi, lam: float, name: str) -> IntegrandSpec:
    """The conjugate kernel at (xi, lam), with the catalog's endpoint powers or probed ones."""
    def log_k(th):
        return log_conjugate_kernel(likelihood, xi, lam, th)

    entry = entry_for(likelihood)
    if entry is not None:
        low, up = entry.kernel_orders(as_xi(xi), lam)
    else:
        low, up = probed_orders(log_k, likelihood.weight_domain.upper)
    log_f_upper = None
    if likelihood.log_kernel_upper_fn is not None:
        xi_t = as_xi(xi)
        def log_f_upper(v, _xi=xi_t, _lam=lam):
            return likelihood.log_kernel_upper_fn(_xi, _lam, np.asarray(v, dtype=float))
    return IntegrandSpec(
        log_k,
        upper=likelihood.weight_domain.upper,
        lower_order=low,
        upper_order=up,
        log_f_upper=log_f_upper,
        name=name,
    )


# Per-panel tolerance of the column laws: at 1e-10 the power tails of
# beta-prime rate rows close up to 1.5e-10 off their closed forms
_COLUMN_TOL = 1e-11


def _kernel_logs(
    likelihood: ExpCrmLikelihood, xis, lams, name: str, positive: bool = False,
    rel_tol: float = _COLUMN_TOL,
) -> np.ndarray:
    """log of the integral of the conjugate kernel at each pair (xis[c], lams[c]).

    The kernels are the columns of one integrand and one
    :class:`~expcrm.quadrature.PanelLaw`: column c is
    ``exp(<xi_c, eta(theta)> - lam_c A(theta))``, so eta and A are evaluated
    once per point and the columns come from one matrix product.  Near a
    finite top the likelihood's ``log_kernel_upper_fn``, when given,
    evaluates each column in the distance from the top.  ``positive``
    multiplies the last column by 1 - l(0|theta), the chance of a positive
    count.  The quadrature probes the endpoint powers, all columns at once.
    """
    lams = np.asarray(lams, dtype=float)
    xis = np.asarray(xis, dtype=float).reshape(lams.size, likelihood.dim)
    upper = likelihood.weight_domain.upper
    phi0, log_h0 = np.asarray(likelihood.phi(0), dtype=float), likelihood.log_h(0)

    def eta_A(th):
        e = np.asarray(likelihood.eta(th), dtype=float).reshape(th.size, likelihood.dim)
        return e, np.asarray(likelihood.A(th), dtype=float)

    def log_seen(e, a):
        """log(1 - l(0|theta)) from eta and A."""
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(log_h0 + e @ phi0 - a))

    def log_f(th):
        e, a = eta_A(th)
        out = e @ xis.T - np.multiply.outer(a, lams)
        if positive:
            out[:, -1] += log_seen(e, a)
        return out

    log_f_upper = None
    if likelihood.log_kernel_upper_fn is not None:
        def log_f_upper(v):
            v = np.asarray(v, dtype=float)
            out = np.column_stack(
                [likelihood.log_kernel_upper_fn(tuple(x), l, v) for x, l in zip(xis, lams)]
            )
            if positive:
                out[:, -1] += log_seen(*eta_A(upper - v))
            return out

    spec = IntegrandSpec(log_f, upper, lower_order=None, log_f_upper=log_f_upper, name=name)
    return log_integrate(spec, rel_tol)


def log_partition_B(
    likelihood: ExpCrmLikelihood,
    xi,
    lam: float,
    *,
    rel_tol: float = 1e-10,
    force_numeric: bool = False,
) -> float:
    """log of the kernel's normalizer at (xi, lam).

    Uses the registered closed form when one exists; otherwise the log of a
    validated quadrature of the kernel divided by its largest value on the
    quadrature's starting knots, with that offset added back, so a B far
    outside floating-point range (posterior-sized parameters) stays exact.
    Raises DomainError at improper parameters with a registered form, and
    DivergenceSuspected when quadrature finds the improperness itself.
    """
    xi = as_xi(xi)
    entry = entry_for(likelihood)
    if entry is not None and not force_numeric:
        if not entry.proper(xi, lam):
            raise DomainError(
                f"B is infinite at (xi={xi}, lam={lam}) for {likelihood.family}: "
                "the kernel is not normalizable there"
            )
        return float(entry.log_B(xi, lam))
    spec, offset = relative_to_peak(_kernel_spec(likelihood, xi, lam, name=f"B[{likelihood.family}]"))
    return log_integrate(spec, rel_tol=rel_tol) + offset


# --- prior containers --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FixedAtomParams:
    """Hyperparameters (xi, lam) of the weight law at one fixed location."""

    location: Location
    xi: tuple[float, ...]
    lam: float

    def __post_init__(self):
        if not isinstance(self.location, Location):
            object.__setattr__(self, "location", Location(self.location))
        object.__setattr__(self, "xi", as_xi(self.xi))
        if not math.isfinite(self.lam):
            raise DomainError("fixed atom lam must be finite")
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class ExpCrmPrior:
    """A conjugate random-measure prior.

    ``mass`` (called gamma in formulas) scales the improper ordinary-weight
    rate ``mass * kappa(theta; xi, lam)``; each entry of ``fixed_atoms``
    pins a location whose weight has the proper density
    ``kappa(theta; xi_fix, lam_fix) / exp(B(xi_fix, lam_fix))``.
    """

    likelihood: ExpCrmLikelihood
    mass: float
    xi: tuple[float, ...]
    lam: float
    fixed_atoms: tuple[FixedAtomParams, ...] = ()

    def __post_init__(self):
        if not isinstance(self.likelihood, ExpCrmLikelihood):
            raise DomainError("likelihood must be an ExpCrmLikelihood")
        if not (isinstance(self.mass, (int, float)) and math.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "xi", as_xi(self.xi))
        if len(self.xi) != self.likelihood.dim:
            raise DomainError(
                f"xi has {len(self.xi)} components but phi has {self.likelihood.dim}"
            )
        if not math.isfinite(self.lam):
            raise DomainError("lam must be finite")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "fixed_atoms", tuple(self.fixed_atoms))
        for atom in self.fixed_atoms:
            if not isinstance(atom, FixedAtomParams):
                raise DomainError("fixed_atoms must hold FixedAtomParams")
            if len(atom.xi) != self.likelihood.dim:
                raise DomainError("fixed atom xi dimension mismatch")
        locs = [a.location.value for a in self.fixed_atoms]
        if len(set(locs)) != len(locs):
            raise DomainError("fixed atoms must sit at distinct locations")

    @property
    def weight_domain(self) -> WeightDomain:
        return self.likelihood.weight_domain


def weight_rate_density(prior: ExpCrmPrior, theta) -> "float | np.ndarray":
    """Rate density of the ordinary component at weight theta.

    This is mass * kappa(theta; xi, lam): finite at every interior theta
    even though its integral over the domain is infinite for any valid
    prior (that infinite mass is what makes every realization countably
    infinite).
    """
    scalar = np.isscalar(theta)
    out = prior.mass * np.exp(
        log_conjugate_kernel(prior.likelihood, prior.xi, prior.lam, theta)
    )
    return float(out[0]) if scalar else out


def fixed_atom_density(likelihood: ExpCrmLikelihood, xi, lam: float, theta) -> "float | np.ndarray":
    """Proper weight density kappa(theta; xi, lam) / exp(B(xi, lam))."""
    log_B = log_partition_B(likelihood, xi, lam)
    scalar = np.isscalar(theta)
    out = np.exp(log_conjugate_kernel(likelihood, xi, lam, theta) - log_B)
    return float(out[0]) if scalar else out


def hyperparam_valid(prior: ExpCrmPrior) -> "ValidityResult":
    """Validity of a prior's hyperparameters, fixed atoms included.

    For catalog families this checks the analytic region; for unknown
    families only the fixed atoms are checked (numerically) and a warning
    notes that the ordinary-component assumptions need the numeric suite.
    """
    entry = entry_for(prior.likelihood)
    if entry is None:
        for k, atom in enumerate(prior.fixed_atoms):
            try:
                log_partition_B(prior.likelihood, atom.xi, atom.lam, rel_tol=1e-6)
            except Exception as exc:
                return ValidityResult(False, f"fixed atom {k} is not normalizable: {exc}")
        return ValidityResult(
            True,
            warnings=(
                f"family {prior.likelihood.family!r} is not in the catalog; "
                "run the numeric assumption checks to validate the ordinary component",
            ),
        )
    res = entry.hyperparam_valid(prior.mass, prior.xi, prior.lam)
    if not res.ok:
        return res
    for k, atom in enumerate(prior.fixed_atoms):
        fres = entry.fixed_atom_valid(atom.xi, atom.lam)
        if not fres.ok:
            return ValidityResult(False, f"fixed atom {k}: {fres.reason}")
    return ValidityResult(True, warnings=res.warnings)


def auto_conjugate(
    likelihood: ExpCrmLikelihood,
    mass: float,
    xi,
    lam: float,
    fixed_atoms: tuple = (),
) -> ExpCrmPrior:
    """Build the conjugate prior for ``likelihood`` and validate it.

    The returned prior has the kernel structurally matched to the
    likelihood (same eta and A, so posterior updates stay inside the
    family). For registered families the hyperparameters are checked
    against the validity region and rejected with the failing requirement
    named; fixed-atom parameters must make the atom's weight density
    proper in every case.
    """
    prior = ExpCrmPrior(likelihood, mass, xi, lam, tuple(fixed_atoms))
    verdict = hyperparam_valid(prior)
    if not verdict.ok:
        raise InvalidModelError(verdict.reason)
    return prior


@dataclass(frozen=True, slots=True)
class ValidityResult:
    """Outcome of a hyperparameter check: ok flag, reason, warnings."""

    ok: bool
    reason: str = ""
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        # a bare string is a one-warning result, not a tuple of characters
        if isinstance(self.warnings, str):
            object.__setattr__(self, "warnings", (self.warnings,))
        else:
            object.__setattr__(self, "warnings", tuple(self.warnings))

    def __bool__(self) -> bool:
        return self.ok
