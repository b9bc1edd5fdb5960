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
operations on them.  :func:`family_of` gives the object that answers a
family's B, rate rows, predictive pmfs and weight draws: the closed forms
registered by :mod:`expcrm.catalog`, or, for a family without them, a
:class:`QuadratureFamily` that answers the same calls by validated
quadrature of the kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import (
    DivergenceSuspected, DomainError, ExpCrmError, InvalidModelError, QuadratureError,
)
from .measures import Location
from .quadrature import IntegrandSpec, PanelLaw, checked_law, invert, log_integrate


def as_xi(xi) -> tuple[float, ...]:
    """Normalize a scalar or sequence to the tuple form used for xi."""
    if isinstance(xi, (int, float, np.floating, np.integer)) and not isinstance(xi, bool):
        return (float(xi),)
    out = tuple(float(v) for v in xi)
    if not out:
        raise DomainError("xi must have at least one component")
    return out


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
        The components of ``xi`` and ``lam`` are floats, or arrays aligned
        with ``theta`` (one parameter set per point, as the batched weight
        draws pass them).
    log_kernel_upper_fn : callable, optional
        The conjugate kernel as a function of the distance v from a finite
        domain upper bound; lets quadrature evaluate near the boundary
        without cancellation.  Takes its parameters as ``log_kernel_fn``
        does.
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

    def __reduce_ex__(self, protocol):
        # a catalog entry's own likelihood pickles as that entry's make_likelihood(), any
        # other (a replace() clone too) by value, which needs picklable callables
        entry = entry_for(self)
        if entry is not None and entry.make_likelihood() is self:
            return entry.make_likelihood, ()
        return super().__reduce_ex__(protocol)

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
        """Draw one count per weight. Falls back to :func:`walk_counts`."""
        th = self._check_theta(np.atleast_1d(theta))
        if self.sample_fn is not None:
            return np.asarray(self.sample_fn(generator, th), dtype=np.int64)

        def log_pmf(xs, th):
            return np.stack([self.log_pmf(x, th) for x in xs.tolist()], axis=1)

        return walk_counts(generator, log_pmf, family_of(self).chunk, self.support_bound, th)


def walk_counts(gen, log_pmf, chunk: int, bound, *columns) -> np.ndarray:
    """One count per row by inverse-cdf walk: the package's one cdf inversion.

    ``log_pmf(xs, *cols)`` gives each row's log pmf at the counts ``xs``,
    with ``cols`` the ``columns`` narrowed to the rows still walking.  The
    rows take one uniform each, in row order, from one draw (none for no
    rows), and walk ``chunk`` counts at a time; each row sums its own
    chunks, so it gets the first count whose cdf exceeds its uniform, as a
    walk of that row alone would.  A uniform at or above a bounded cdf's
    float total gets ``bound``; QuadratureError past 10^7 counts.
    """
    out = np.empty(len(columns[0]), dtype=np.int64)
    if out.size == 0:
        return out
    u = gen.uniform(size=out.size)[:, None]
    rows, acc, start = np.arange(out.size), 0.0, 0
    while True:
        stop = start + chunk if bound is None else min(start + chunk, bound + 1)
        xs = np.arange(start, stop)
        cum = acc + np.cumsum(np.exp(log_pmf(xs, *columns)), axis=1)
        idx = (cum <= u).sum(axis=1)  # a right-sided searchsorted per row
        out[rows] = start + idx
        if idx.max() < xs.size:
            return out
        going = idx == xs.size
        rows, u, acc, columns = rows[going], u[going], cum[going, -1:], [c[going] for c in columns]
        if bound is not None and stop > bound:
            out[rows] = bound
            return out
        start = stop
        if start > 10**7:
            raise QuadratureError("count walk failed to accumulate to 1")


def _log_kernel(likelihood: ExpCrmLikelihood, xi, lam, t, from_top: bool = False) -> np.ndarray:
    """log kappa(theta; xi, lam) at the points ``t``, which are not checked.

    Each component of ``xi``, and ``lam``, is a float or an array that
    broadcasts against ``t``, as ``log_kernel_fn`` takes them: one parameter
    set for all points, one per row of points, or one per column.
    ``from_top`` takes ``t`` as distances from the finite top of the weight
    domain.  The likelihood's ``log_kernel_upper_fn`` evaluates those when
    given, its ``log_kernel_fn`` the weights, and eta and A whatever no
    override covers; every operation is elementwise, or a sum along one
    point's xi, so a point's value does not depend on the points around it.
    """
    t = np.asarray(t, dtype=float)
    if from_top and likelihood.log_kernel_upper_fn is not None:
        out = likelihood.log_kernel_upper_fn(xi, lam, t)
    else:
        th = likelihood.weight_domain.upper - t if from_top else t
        if likelihood.log_kernel_fn is not None:
            out = likelihood.log_kernel_fn(xi, lam, th)
        else:
            flat = th.ravel()
            e = np.asarray(likelihood.eta(flat), dtype=float).reshape(*th.shape, likelihood.dim)
            a = np.asarray(likelihood.A(flat), dtype=float).reshape(th.shape)
            out = sum(x * e[..., j] for j, x in enumerate(xi)) - lam * a
    return np.asarray(out, dtype=float)


def log_conjugate_kernel(likelihood: ExpCrmLikelihood, xi, lam: float, theta) -> np.ndarray:
    """log kappa(theta; xi, lam) = <xi, eta(theta)> - lam * A(theta), at weights in the domain."""
    return _log_kernel(likelihood, as_xi(xi), lam, likelihood._check_theta(np.atleast_1d(theta)))


# Per-panel tolerance of the column laws.  The power tails of a beta-prime
# clone's rate rows and totals (mass 2, xi -1.3, lam 1.2; 60 rounds of 16
# counts) close at most 6.7e-11 off their closed forms at 1e-10, and 6.2e-12
# at 1e-11
_COLUMN_TOL = 1e-11


def _kernel_spec(
    likelihood: ExpCrmLikelihood, xis, lams, name: str, positive: int = 0
) -> IntegrandSpec:
    """The conjugate kernels at the pairs (xis[c], lams[c]), as the columns of one integrand.

    Column c is ``kappa(theta; xi_c, lam_c)``; one ``xis`` with a float
    ``lams`` gives a one-column integrand.  Every column comes from
    :func:`_log_kernel`, near a finite top in the distance from it when the
    likelihood has ``log_kernel_upper_fn``.  A ``positive`` of k multiplies
    the last column of every k by 1 - l(0|theta), the chance of a positive
    count, where l(0|theta) = h(0) kappa(theta; phi(0), 1).  No powers are
    declared: the quadrature probes them, all columns at once.
    """
    columns = np.ndim(lams) > 0
    if columns:
        lam = np.asarray(lams, dtype=float)
        xi = tuple(np.asarray(xis, dtype=float).reshape(lam.size, likelihood.dim).T)
    else:
        xi, lam = as_xi(xis), float(lams)
    phi0, log_h0 = likelihood.phi(0), likelihood.log_h(0)

    def log_f(t, from_top=False):
        t = np.asarray(t, dtype=float)
        out = _log_kernel(likelihood, xi, lam, t[:, None] if columns else t, from_top)
        if positive:
            log_l0 = log_h0 + _log_kernel(likelihood, phi0, 1.0, t, from_top)
            with np.errstate(divide="ignore"):
                out[:, positive - 1 :: positive] += np.log(-np.expm1(log_l0))[:, None]
        return out

    top = None if likelihood.log_kernel_upper_fn is None else partial(log_f, from_top=True)
    return IntegrandSpec(log_f, likelihood.weight_domain.upper, None, log_f_upper=top, name=name)


def shifted_params(family, xi, lam: float, rounds, counts) -> tuple[np.ndarray, np.ndarray]:
    """(xi + phi(x) + (m - 1) phi(0), lam + m) of each pair (m, x) of ``rounds`` and ``counts``.

    The package's one conjugate shift, to the kernel of l(x|.) l(0|.)^(m-1)
    kappa(.; xi, lam): one xi row and one lam per pair, the terms added in
    that order, with phi from ``family.phi_rows``.
    """
    rounds = np.asarray(rounds, dtype=np.int64)
    xi_rows = np.asarray(xi, dtype=float) + family.phi_rows(counts)
    return xi_rows + (rounds - 1)[:, None] * family.phi_rows([0]), lam + rounds


class QuadratureFamily:
    """The calls a catalog entry answers from closed forms, answered by quadrature.

    Every B, rate, round total and predictive pmf is an integral of the
    conjugate kernel at shifted parameters, so a call integrates what it
    needs as the columns of one :class:`~expcrm.quadrature.PanelLaw`: the
    rates and totals of a block of ``round_block`` rounds, or an atom's base
    B and a predictive chunk's B.  A weight law is one kernel's law, built
    on first use and kept.
    """

    chunk = 8  # counts per predictive-walk chunk; each is one law per atom
    round_block = 4  # rounds per rate-row law

    def __init__(self, likelihood: ExpCrmLikelihood):
        self.likelihood = likelihood
        self._laws: dict = {}  # weight laws by (xi, lam)

    def log_B(self, xi, lam: float, rel_tol: float = 1e-10) -> float:
        """log of a validated quadrature of the kernel, its endpoint powers probed.

        A B far outside floating-point range (posterior-sized parameters)
        stays exact through the law's shift.  DivergenceSuspected when the
        kernel is improper.
        """
        like = self.likelihood
        return log_integrate(_kernel_spec(like, as_xi(xi), lam, f"B[{like.family}]"), rel_tol)

    def hyperparam_valid(self, mass: float, xi, lam: float) -> "ValidityResult":
        """Valid, with a warning: only the numeric checks can speak for the ordinary component."""
        return ValidityResult(True, warnings=(
            f"family {self.likelihood.family!r} is not in the catalog; "
            "run the numeric assumption checks to validate the ordinary component",
        ))

    def fixed_atom_valid(self, xi, lam: float) -> "ValidityResult":
        """Whether the kernel at (xi, lam) normalizes, by quadrature to 1e-6."""
        try:
            self.log_B(xi, lam, rel_tol=1e-6)
        except ExpCrmError as exc:
            return ValidityResult(False, f"the weight law is not normalizable: {exc}")
        return ValidityResult(True)

    def log_h_vec(self, xs) -> np.ndarray:
        """log h at the counts ``xs``, -inf outside the support."""
        like = self.likelihood
        xs = np.asarray(xs, dtype=np.int64)
        logs = [like.log_h(v) if like.in_support(v) else -math.inf for v in xs.reshape(-1).tolist()]
        return np.array(logs, dtype=float).reshape(xs.shape)

    def phi_rows(self, xs) -> np.ndarray:
        """phi of the counts ``xs``, one row each: one ``phi`` call per distinct count."""
        values, where = np.unique(np.asarray(xs, dtype=np.int64).reshape(-1), return_inverse=True)
        rows = [self.likelihood.phi(v) for v in values.tolist()]
        return np.array(rows, dtype=float).reshape(values.size, self.likelihood.dim)[where]

    def _round_rows(self, mass: float, xi, lam: float, ms: list, xs) -> tuple[np.ndarray, np.ndarray]:
        """Rates M(m, x) at the rounds ``ms`` (rows) and counts ``xs``, all in the support, and the
        round totals, in one law.

        The rate integrand l(x) l(0)^(m-1) kappa is h(x) h(0)^(m-1)
        kappa(.; xi + phi(x) + (m-1) phi(0), lam + m), and the total's
        (1 - l(0)) l(0)^(m-1) kappa is h(0)^(m-1) (1 - l(0))
        kappa(.; xi + (m-1) phi(0), lam + m - 1): conjugate kernels, one
        column each, the total's times the chance of a positive count.
        Each round's columns are its rates, then its total.
        """
        like = self.likelihood
        xs = np.asarray(xs, dtype=np.int64)
        # each round's rates at (m, x), then its total at (m - 1, 0)
        rounds, counts = np.repeat(ms, xs.size + 1), np.tile(np.append(xs, 0), len(ms))
        rounds[xs.size :: xs.size + 1] -= 1
        name = f"round {ms[0]}" if len(ms) == 1 else f"rounds {ms[0]}-{ms[-1]}"
        spec = _kernel_spec(
            like, *shifted_params(self, xi, lam, rounds, counts),
            name=f"{name} of {like.family}", positive=xs.size + 1,
        )
        logs = log_integrate(spec, _COLUMN_TOL).reshape(len(ms), xs.size + 1)
        logs += math.log(mass) + (np.array(ms) - 1)[:, None] * like.log_h(0)
        return np.exp(logs[:, :-1] + self.log_h_vec(xs)), np.exp(logs[:, -1])

    def rate_rows(self, prior: "ExpCrmPrior", ms, xs) -> tuple[np.ndarray, np.ndarray]:
        """A prior's rates at rounds ``ms`` (rows) and counts ``xs`` (columns), and the round totals.

        The rounds are integrated in consecutive blocks of ``round_block``
        from the first, one law each, so a row's bytes depend on where its
        block starts: a :class:`~expcrm.size_biased.RateTable` asks for
        whole blocks from round 1.
        """
        ms = np.asarray(ms, dtype=np.int64).tolist()
        if not ms:
            return np.empty((0, len(xs))), np.empty(0)
        step = self.round_block
        blocks = [
            self._round_rows(prior.mass, prior.xi, prior.lam, ms[i : i + step], xs)
            for i in range(0, len(ms), step)
        ]
        return np.concatenate([r for r, _ in blocks]), np.concatenate([t for _, t in blocks])

    def predictive_rows(self, xi: np.ndarray, lam: np.ndarray, xs: np.ndarray, log_h: np.ndarray):
        """log pmf of the next count at ``xs``, one row per atom (xi[i], lam[i]).

        ``h(x) exp(B(xi + phi(x), lam + 1) - B(xi, lam))``, with ``log_h``
        the log h of ``xs``; counts outside the support get -inf.  An
        atom's base B and the B of every count are the columns of one law.
        """
        like = self.likelihood
        inside = np.array([like.in_support(v) for v in xs.tolist()], dtype=bool)
        out = np.full((lam.size, xs.size), -math.inf)
        phis = self.phi_rows(xs[inside])
        if len(phis):
            for row, x, l in zip(out, xi, lam.tolist()):
                xis, lams = np.vstack([x, x + phis]), [l] + [l + 1.0] * len(phis)
                log_B = log_integrate(_kernel_spec(like, xis, lams, f"B[{like.family}]"), _COLUMN_TOL)
                row[inside] = log_h[inside] + log_B[1:] - log_B[0]
        return out

    def weight_law(self, xi, lam: float) -> PanelLaw:
        """The kernel's law at (xi, lam) from :func:`~expcrm.quadrature.checked_law`, kept once built.

        Each panel's error bound is held within 1e-10 of its mass, but the
        law's total is not certified: a Bernoulli-beta clone without
        ``log_kernel_upper_fn`` builds Beta(a, 0.05) laws whose bound is
        some 400 times that tolerance, and draws from them all the same.
        The endpoint powers are probed, never taken from a catalog: the
        oracle's weight-law test uses this cdf as its reference.
        DomainError when the kernel is not normalizable.
        """
        key = (as_xi(xi), float(lam))
        law = self._laws.get(key)
        if law is None:
            like = self.likelihood
            try:
                law = checked_law(_kernel_spec(like, *key, f"weight law for {like.family}"), 1e-10)
            except DivergenceSuspected as err:
                raise DomainError(
                    f"weight density for {like.family} is not normalizable at {err.endpoint}"
                ) from err
            self._laws[key] = law
        return law

    def draw_weights(self, generator, xi: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """One weight per row of the atoms x dim ``xi`` and entry of ``lam``, by inverse cdf.

        Equal rows share one :meth:`weight_law`.  One uniform call gives
        every draw, as one call per atom would; :func:`~expcrm.quadrature.invert`
        inverts them all in one Newton loop, each at its own law's
        parameters, so an atom draws the same bytes in any company.
        """
        if not lam.size:
            return np.empty(0)
        like = self.likelihood
        params, owner = np.unique(np.column_stack([xi, lam]), axis=0, return_inverse=True)
        owner = owner.reshape(-1)
        xis, lams = params[:, :-1], params[:, -1]
        laws = [self.weight_law(x, l) for x, l in zip(xis.tolist(), lams.tolist())]
        totals = np.array([law.total for law in laws])
        c = generator.uniform(size=owner.size) * totals[owner]

        def log_f(t, who, from_top):
            # one row of points per entry, at its law's parameters
            return _log_kernel(like, tuple(xis[who].T[..., None]), lams[who, None], t, from_top)

        return like.weight_domain.clip(invert(laws, c, owner, log_f))


def entry_for(likelihood: ExpCrmLikelihood):
    """The catalog entry matching a likelihood's family id, if any: it answers from closed
    forms every call a ``QuadratureFamily`` answers.  The answer does not depend on what was
    imported or built before (:func:`expcrm.catalog._entry_by_id`)."""
    from .catalog import _entry_by_id  # the catalog imports this module

    return _entry_by_id(likelihood.family)


def family_of(likelihood: ExpCrmLikelihood):
    """The catalog entry of a registered family, else a :class:`QuadratureFamily` over its kernel.

    The one place the package chooses between closed forms and quadrature.
    """
    entry = entry_for(likelihood)
    return QuadratureFamily(likelihood) if entry is None else entry


def log_partition_B(likelihood: ExpCrmLikelihood, xi, lam: float) -> float:
    """log of the kernel's normalizer at (xi, lam), from :func:`family_of`.

    A closed form raises DomainError at improper parameters; quadrature
    raises DivergenceSuspected when it finds them improper.
    """
    return family_of(likelihood).log_B(as_xi(xi), lam)


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

    The family's own checks, from :func:`family_of`: for catalog families
    the analytic region; for unknown families only the fixed atoms are
    checked (numerically) and a warning notes that the ordinary-component
    assumptions need the numeric suite.
    """
    family = family_of(prior.likelihood)
    res = family.hyperparam_valid(prior.mass, prior.xi, prior.lam)
    if not res.ok:
        return res
    for k, atom in enumerate(prior.fixed_atoms):
        fres = family.fixed_atom_valid(atom.xi, atom.lam)
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
