"""Size-biased generation of trait measures.

The ordinary component of a conjugate trait model decomposes into rounds:
round m holds the traits first observed at step m, after m - 1 zero counts.
Such traits arrive as a Poisson process with

    rate(m, x) = mass * h(0)^(m-1) * h(x) * exp B(xi + phi(x) + (m-1) phi(0), lam + m)

atoms of first-observation count x, and the weight of each atom follows the
proper conjugate density with the shifted parameters above.  Truncating at
``m_max`` rounds and a count cap leaves a finite Poisson intensity that can
be drawn exactly by superposition.

The rates, round totals and count-tail gaps live in one :class:`RateTable`
per sampler, grown by round.  Round m of the size-biased representation is
step m of the marginal process, so :class:`~expcrm.marginal.MarginalSampler`
reads its new-atom rates from the same kind of table, one row per step,
and both samplers share the configuration check, the rng handling and the
location draws defined here.

Truncation honesty cuts two ways here.  The count side is certified: the
neglected per-round count tail (round total minus the tabulated row sum) is
bounded at construction, and the sampler refuses to run when the bound
exceeds ``eps_tail``.  The round side cannot be certified the same way,
because for a valid model the per-round totals are *not* summable (infinite
ordinary mass is the point of assumption A1); what the missing rounds cost
is an empirical question, answered by comparing against the marginal
sampler.  Every draw carries :class:`~expcrm.measures.TruncationMeta`
recording both caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .catalog import entry_for, hyperparam_valid
from .errors import DomainError, InvalidModelError, RngFaultError, TailBoundError
from .exp_family import (
    ExpCrmLikelihood,
    ExpCrmPrior,
    _COLUMN_TOL,
    _kernel_spec,
    _log_kernel,
    as_xi,
    log_conjugate_kernel,
)
from .measures import TraitMeasure, TruncationMeta
from .quadrature import IntegrandSpec, PanelLaw, integrate, invert, log_integrate, probed_orders
from .rng import as_generator

__all__ = [
    "SizeBiasedConfig",
    "LabeledDraw",
    "RateTable",
    "SizeBiasedSampler",
    "rate_M",
    "round_total",
    "sample_size_biased",
    "weight_dist_params",
]


def _positive_int(name: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    if v < 1:
        raise DomainError(f"{name} must be >= 1, got {v}")
    return int(v)


def _check_round_count(m, x) -> tuple[int, int]:
    return _positive_int("round", m), _positive_int("count", x)


def _shifted_params(likelihood: ExpCrmLikelihood, xi, lam: float, m: int, x: int):
    """(xi + phi(x) + (m - 1) phi(0), lam + m): the kernel of l(x|.) l(0|.)^(m-1) kappa(.; xi, lam)."""
    phi0 = likelihood.phi(0)
    phix = likelihood.phi(x)
    shifted = tuple(xj + float(px) + (m - 1) * float(p0) for xj, px, p0 in zip(xi, phix, phi0))
    return shifted, lam + float(m)


def weight_dist_params(prior: ExpCrmPrior, m, x) -> tuple[tuple[float, ...], float]:
    """Hyperparameters of the weight law for a round-m atom with count x.

    Size-biasing conditions the atom on m - 1 zero counts followed by one
    count of x, so the conjugate update is
    ``(xi + phi(x) + (m - 1) phi(0), lam + m)``.
    """
    m, x = _check_round_count(m, x)
    return _shifted_params(prior.likelihood, prior.xi, prior.lam, m, x)


def rate_M(prior: ExpCrmPrior, m, x) -> float:
    """Expected number of round-m ordinary atoms first observed with count x."""
    m, x = _check_round_count(m, x)
    entry = entry_for(prior.likelihood)
    if entry is not None:
        return entry.rate_M(prior.mass, prior.xi, prior.lam, m, x)
    if not prior.likelihood.in_support(x):
        return 0.0
    return float(_round_row(prior, m, [x])[0][0])


def round_total(prior: ExpCrmPrior, m) -> float:
    """Expected number of round-m atoms, all positive counts combined.

    Summing the pmf over x >= 1 gives 1 - l(0|theta), so a family without
    closed forms needs no count-by-count rates: its round total is one
    integral of mass * (1 - l(0|theta)) l(0|theta)^(m-1) kappa, a column of
    the round's rate row (m = 1 is the round-1 trait rate of assumption A2).
    """
    m, _ = _check_round_count(m, 1)
    entry = entry_for(prior.likelihood)
    if entry is not None:
        return entry.round_total(prior.mass, prior.xi, prior.lam, m)
    return float(_round_row(prior, m, [])[1])


def _round_row(prior: ExpCrmPrior, m: int, xs) -> tuple[np.ndarray, float]:
    """Rates M(m, x) at the counts ``xs``, all in the support, and the round-m total.

    One :class:`~expcrm.quadrature.PanelLaw` sums them all, for a family
    without closed forms.  The rate integrand l(x) l(0)^(m-1) kappa is
    h(x) h(0)^(m-1) kappa(.; xi + phi(x) + (m-1) phi(0), lam + m), and the
    total's (1 - l(0)) l(0)^(m-1) kappa is h(0)^(m-1) (1 - l(0))
    kappa(.; xi + (m-1) phi(0), lam + m - 1): conjugate kernels, one column
    each, the total's times the chance of a positive count.
    """
    like = prior.likelihood
    params = [_shifted_params(like, prior.xi, prior.lam, m, int(x)) for x in xs]
    params.append(_shifted_params(like, prior.xi, prior.lam, m - 1, 0))
    spec = _kernel_spec(
        like, [xi for xi, _ in params], [lam for _, lam in params],
        name=f"round {m} of {like.family}", positive=True,
    )
    logs = log_integrate(spec, _COLUMN_TOL)
    logs += math.log(prior.mass) + (m - 1) * like.log_h(0)
    log_h = np.array([like.log_h(int(x)) for x in xs])
    return np.exp(logs[:-1] + log_h), float(np.exp(logs[-1]))


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
    if x is None:
        low, up = entry.kernel_orders(*_shifted_params(like, xi, lam, m - 1, 0))
        return low + 1.0, up
    return entry.kernel_orders(*_shifted_params(like, xi, lam, m, x))


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


class RateTable:
    """Atom rates of one prior by round, tabulated as far as a sampler reads.

    Row m holds M(m, x) for counts x = 1..count_cap, where ``count_cap`` is
    ``x_max`` clipped to the likelihood's support bound; ``totals`` hold the
    round totals over all positive counts, so a row's gap to its total is
    what the count cap neglects.  A trait first seen at step n of the
    marginal process is a round-n trait of the size-biased representation,
    so both samplers read the same rows: the size-biased sampler reads
    rounds 1..m_max at construction, the marginal sampler one more row per
    step.  Each extension is one ``CatalogEntry.rate_table`` call for a
    catalog family; otherwise each round is one quadrature of its whole
    row, the cells and the round total together.

    Construction checks the prior and its hyperparameters.
    """

    def __init__(self, prior: ExpCrmPrior, x_max: int, eps_tail: float):
        if not isinstance(prior, ExpCrmPrior):
            raise DomainError(f"prior must be an ExpCrmPrior, got {type(prior).__name__}")
        res = hyperparam_valid(prior)
        if not res.ok:
            raise InvalidModelError(f"invalid hyperparameters: {res.reason}")
        self.prior = prior
        self.eps_tail = eps_tail
        self.validity_warnings = res.warnings
        bound = prior.likelihood.support_bound
        self.count_cap = x_max if bound is None else min(x_max, bound)
        self.entry = entry_for(prior.likelihood)
        self.xs = np.arange(1, self.count_cap + 1)
        self._rounds = 0  # rows tabulated so far, at the top of the buffers
        self._rates = np.empty((0, self.count_cap))
        self._totals = np.empty(0)
        self._steps: list[tuple[np.ndarray, float]] = []  # (cumulative row, gap)

    def _extend(self, rounds: int) -> None:
        have = self._rounds
        if rounds <= have:
            return
        p = self.prior
        ms = np.arange(have + 1, rounds + 1)
        if self.entry is not None:
            rows = self.entry.rate_table(p.mass, p.xi, p.lam, ms, self.xs)
            totals = self.entry.round_totals(p.mass, p.xi, p.lam, ms.astype(float))
        else:
            rows, totals = zip(*(_round_row(p, int(m), self.xs) for m in ms))
        if rounds > self._totals.size:
            # grow geometrically, so a stream's one-row extensions stay linear;
            # np.resize keeps the existing rows at the top
            size = max(rounds, 2 * self._totals.size)
            self._rates = np.resize(self._rates, (size, self.count_cap))
            self._totals = np.resize(self._totals, size)
        self._rates[have:rounds] = rows
        self._totals[have:rounds] = totals
        self._rounds = rounds

    def rates(self, rounds: int) -> np.ndarray:
        """M(m, x) for rounds m = 1..rounds (rows) and counts 1..count_cap."""
        self._extend(rounds)
        return self._rates[:rounds].copy()

    def totals(self, rounds: int) -> np.ndarray:
        """Expected atoms of rounds 1..rounds, all positive counts combined."""
        self._extend(rounds)
        return self._totals[:rounds].copy()

    def step(self, n: int) -> tuple[np.ndarray, float]:
        """(cumulative rate row, neglected gap) of new atoms at marginal step n."""
        self._extend(n)
        for m in range(len(self._steps) + 1, n + 1):
            cdf = np.cumsum(self._rates[m - 1])
            self._steps.append((cdf, max(float(self._totals[m - 1]) - float(cdf[-1]), 0.0)))
        return self._steps[n - 1]

    def draw_certificate(self, rounds: int) -> dict:
        """What the count cap neglects across rounds 1..rounds of one draw."""
        gaps = np.maximum(self.totals(rounds) - self.rates(rounds).sum(axis=1), 0.0)
        worst = int(np.argmax(gaps))
        return {
            "rounds": rounds,
            "count_cap": int(self.count_cap),
            "eps_tail": float(self.eps_tail),
            "neglected_rate": float(gaps.sum()),
            "worst_round": worst + 1,
            "worst_round_rate": float(gaps[worst]),
        }

    def stream_certificate(self, steps: int) -> dict:
        """What the count cap neglects across steps 1..steps of one stream."""
        self.step(steps)
        gaps = [gap for _, gap in self._steps[:steps]]
        worst = int(np.argmax(gaps))
        return {
            "steps": steps,
            "count_cap": int(self.count_cap),
            "eps_tail": float(self.eps_tail),
            "neglected_rate": float(sum(gaps)),
            "worst_step": worst + 1,
            "worst_step_rate": float(gaps[worst]),
        }


def _check_truncation(config) -> None:
    """Validate a truncation config in place: integer fields >= 1, then eps_tail."""
    for f in fields(config):
        if f.name != "eps_tail":
            object.__setattr__(config, f.name, _positive_int(f.name, getattr(config, f.name)))
    e = config.eps_tail
    if isinstance(e, bool) or not isinstance(e, (int, float, np.integer, np.floating)):
        raise DomainError(f"eps_tail must be a number, got {e!r}")
    e = float(e)
    if not (math.isfinite(e) and e > 0.0):
        raise DomainError(f"eps_tail must be positive and finite, got {e}")
    object.__setattr__(config, "eps_tail", e)


@dataclass(frozen=True, slots=True)
class SizeBiasedConfig:
    """Truncation levels for size-biased generation.

    ``m_max`` rounds are generated; counts above ``x_max`` are dropped from
    the rate table (the cap is further clipped to the likelihood's support
    bound when that is smaller).  ``eps_tail`` caps the total rate of the
    dropped counts across all generated rounds: construction of a sampler
    fails with :class:`~expcrm.errors.TailBoundError` when the bound cannot
    be met.
    """

    m_max: int = 1000
    x_max: int = 50
    eps_tail: float = 1e-6

    def __post_init__(self):
        _check_truncation(self)


def _locations(gen, k: int, taken) -> np.ndarray:
    """k uniform locations distinct from each other and from ``taken``.

    One vectorized draw equals k scalar draws.  Collisions have probability
    zero; guarding anyway keeps the distinct-locations invariant of the
    measure containers unconditional.  An entry equal to a taken value or
    to an earlier entry is redrawn in place, in index order, from the
    uniforms that follow, so the generator is only ever read forward.
    """
    locations = gen.uniform(size=k)
    for _ in range(100):
        values = locations.tolist()
        if len(set(values)) == k and taken.isdisjoint(values):
            return locations
        seen = set(taken)
        colliding = []
        for i, v in enumerate(values):
            if v in seen:
                colliding.append(i)
            seen.add(v)
        locations[colliding] = gen.uniform(size=len(colliding))
    raise RngFaultError("100 location draws in a row collided")


class _TruncatedSampler:
    """What both samplers share: the config check, the rate table, the rng."""

    def __init__(self, prior, config, rng, config_type):
        if config is None:
            config = config_type()
        elif not isinstance(config, config_type):
            raise DomainError(
                f"config must be a {config_type.__name__}, got {type(config).__name__}"
            )
        self.table = RateTable(prior, config.x_max, config.eps_tail)
        self.prior = prior
        self.config = config
        self.count_cap = self.table.count_cap
        self.validity_warnings = self.table.validity_warnings
        self._gen = None if rng is None else as_generator(rng)

    def _generator(self, rng) -> np.random.Generator:
        if rng is not None:
            return as_generator(rng)
        if self._gen is None:
            raise DomainError("no rng available: pass one to this call or at construction")
        return self._gen


@dataclass(frozen=True, slots=True)
class LabeledDraw:
    """One ordinary-component draw with its generation labels kept.

    Arrays are aligned: atom i appeared in round ``rounds[i]`` with
    first-observation count ``counts[i]`` and carries ``weights[i]`` at
    ``locations[i]``.  The labels exist for diagnostics; equivalence
    checks compare per-round atom counts and count sums across samplers.
    """

    rounds: np.ndarray
    counts: np.ndarray
    weights: np.ndarray
    locations: np.ndarray

    def __len__(self) -> int:
        return self.rounds.size


class SizeBiasedSampler(_TruncatedSampler):
    """Draws truncated trait measures by per-round Poisson superposition.

    Construction validates the hyperparameters, tabulates atom rates for
    rounds 1..m_max and counts 1..count_cap, and certifies the neglected
    count tail against ``config.eps_tail``.  Each draw then costs one
    Poisson variate, a cdf search per atom, and batched weight draws.

    The rng can be fixed at construction or passed per draw; passing an
    :class:`~expcrm.rng.RngState` per draw makes each replicate
    independently reproducible no matter how draws are scheduled.
    """

    def __init__(self, prior: ExpCrmPrior, config: SizeBiasedConfig | None = None, rng=None):
        super().__init__(prior, config, rng, SizeBiasedConfig)
        m_max = self.config.m_max
        self._certificate = self.table.draw_certificate(m_max)
        neglected = self._certificate["neglected_rate"]
        if not neglected <= self.config.eps_tail:
            raise TailBoundError(
                f"counts above {self.count_cap} keep rate {neglected:.3e} > "
                f"eps_tail = {self.config.eps_tail:.3e} across {m_max} rounds; "
                "raise x_max or loosen eps_tail",
                certificate=self._certificate,
            )
        self._cdf = np.cumsum(self.table.rates(m_max))
        self._grand_total = float(self._cdf[-1])
        self._numeric_samplers: dict = {}
        self._fixed_locations = frozenset(a.location.value for a in prior.fixed_atoms)
        self._truncation = TruncationMeta("truncated", rounds=m_max, count_cap=self.count_cap)

    # -- certification ---------------------------------------------------

    def tail_certificate(self) -> dict:
        """JSON-ready record of what the count truncation neglected."""
        return dict(self._certificate)

    # -- drawing ----------------------------------------------------------

    def _numeric_sampler(self, xi, lam: float) -> "_NumericWeightSampler":
        key = (as_xi(xi), float(lam))
        sampler = self._numeric_samplers.get(key)
        if sampler is None:
            sampler = _NumericWeightSampler(self.prior.likelihood, *key)
            self._numeric_samplers[key] = sampler
        return sampler

    def _weights_from_params(self, gen, xi, lam: float, size: int) -> np.ndarray:
        if self.table.entry is not None:
            return self.table.entry.sample_weights(gen, xi, lam, size)
        return self._numeric_sampler(xi, lam).sample(gen, size)

    def _cell_weights(self, gen, cells, rounds, counts) -> np.ndarray:
        """Weights of atoms sorted by table cell, in one draw for all cells.

        For a catalog family phi(x) = x and phi(0) = 0, so the cell
        parameters of :func:`weight_dist_params` are (xi + x, lam + m) and
        all cells take one broadcast draw.  Otherwise each cell's weight law
        is a :class:`_NumericWeightSampler`, and :func:`_numeric_weights`
        inverts all the cells' uniforms in one Newton loop.  Either way the
        draw consumes the generator exactly like one draw per cell in order.
        """
        entry = self.table.entry
        if entry is not None:
            return entry.sample_weights(
                gen, self.prior.xi[0] + counts, self.prior.lam + rounds, cells.size
            )
        _, first, sizes = np.unique(cells, return_index=True, return_counts=True)
        laws = [
            self._numeric_sampler(*weight_dist_params(self.prior, int(rounds[i]), int(counts[i])))
            for i in first.tolist()
        ]
        return _numeric_weights(gen, laws, sizes)

    def _fixed_weights(self, gen) -> np.ndarray:
        """One weight per fixed atom, in prior order: one draw for all of them."""
        fixed = self.prior.fixed_atoms
        if not fixed:
            return np.zeros(0)
        if self.table.entry is not None:
            return np.array([self._weights_from_params(gen, fa.xi, fa.lam, 1)[0] for fa in fixed])
        laws = [self._numeric_sampler(fa.xi, fa.lam) for fa in fixed]
        return _numeric_weights(gen, laws, np.ones(len(laws), dtype=np.int64))

    def draw_labeled(self, rng=None) -> LabeledDraw:
        """Draw the ordinary component, keeping round and count labels.

        Atoms are ordered by table cell (round-major), and the weight
        draws follow that order, so the draw consumes generator output
        in a schedule-independent order.
        """
        gen = self._generator(rng)
        k = int(gen.poisson(self._grand_total))
        if k == 0:
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0, dtype=float)
            return LabeledDraw(empty_i, empty_i.copy(), empty_f, empty_f.copy())
        u = gen.uniform(0.0, self._grand_total, size=k)
        cells = np.searchsorted(self._cdf, u, side="right")
        cells = np.minimum(cells, self._cdf.size - 1)
        cells.sort()
        rounds, counts = np.divmod(cells.astype(np.int64), self.count_cap)
        rounds += 1
        counts += 1
        weights = self._cell_weights(gen, cells, rounds, counts)
        return LabeledDraw(rounds, counts, weights, _locations(gen, k, self._fixed_locations))

    def draw(self, rng=None) -> TraitMeasure:
        """One truncated realization of the full trait measure.

        Fixed-atom weights come first, in the order the prior lists them
        (their laws are proper by validation), then the ordinary
        component; the order is part of the determinism contract.
        """
        gen = self._generator(rng)
        fixed_weights = self._fixed_weights(gen)
        labeled = self.draw_labeled(gen)
        return TraitMeasure.from_arrays(
            fixed_weights,
            [fa.location.value for fa in self.prior.fixed_atoms],
            labeled.weights,
            labeled.locations,
            self._truncation,
        )


def sample_size_biased(prior: ExpCrmPrior, rng, config: SizeBiasedConfig | None = None) -> TraitMeasure:
    """Build a sampler and draw once.

    Anything drawing repeatedly should construct one
    :class:`SizeBiasedSampler` and call :meth:`~SizeBiasedSampler.draw`
    per replicate; the rate table is the expensive part and depends only
    on the prior and the config.
    """
    return SizeBiasedSampler(prior, config=config).draw(rng)


# --- weight draws without a catalog law --------------------------------------


class _NumericWeightSampler:
    """Inverse-cdf weight sampler for families without a catalog law.

    The cdf is the :class:`~expcrm.quadrature.PanelLaw` of the conjugate
    kernel, held to 1e-10 per panel: composite Gauss-Legendre panels whose
    companion-rule error bounds are each within 1e-10 of the panel's mass,
    with analytic power pieces at the ends.  So every cumulative sum,
    counted from either end, is within about 1e-10 of itself, as long as
    the 12-node rule is the more accurate of the two; the tests pin the cdf
    against ``scipy.stats`` to 1e-8.  ``sample`` is :func:`_numeric_weights`
    of this law alone: Newton's method on the density, bracketed by each
    panel, the end pieces analytically, and the draws clipped into the
    weight domain.  The oracle suite's weight-law test uses this cdf as its
    reference, so the endpoint powers are probed here, never taken from
    the catalog.
    """

    def __init__(self, likelihood: ExpCrmLikelihood, xi, lam: float):
        self._likelihood, self._xi, self._lam = likelihood, as_xi(xi), float(lam)
        spec = _kernel_spec(likelihood, self._xi, self._lam, f"weight law for {likelihood.family}")
        low, up = probed_orders(spec)
        if low <= -1.0 + 1e-7:
            raise DomainError(
                f"weight density for {likelihood.family} is not normalizable at 0 "
                f"(endpoint power {low:.6f}); the parameters are improper"
            )
        finite = math.isfinite(spec.upper)
        if (up <= -1.0 + 1e-7) if finite else (up is not None and up >= -1.0 - 1e-7):
            where = "its upper boundary" if finite else "infinity"
            raise DomainError(
                f"weight density for {likelihood.family} is not normalizable at "
                f"{where} (endpoint power {up:.6f})"
            )
        self._law = PanelLaw(spec, low, up, 1e-10)

    def cdf(self, t) -> np.ndarray:
        """Normalized cdf of the weight law, from the same panels."""
        return self._law.cdf(t)

    def sample(self, gen, size: int) -> np.ndarray:
        return _numeric_weights(gen, [self], np.array([size]))


def _numeric_weights(gen, laws, sizes) -> np.ndarray:
    """``sizes[j]`` draws of each :class:`_NumericWeightSampler` ``laws[j]``, in turn.

    One uniform call gives every draw, as one call per law in order would;
    each uniform, scaled by its law's total, is inverted by
    :func:`~expcrm.quadrature.invert` in one Newton loop for all the laws,
    which evaluates each law's kernel at its own parameters.  So a law's
    draws are the same bytes whatever laws share the loop.
    """
    like = laws[0]._likelihood
    owner = np.repeat(np.arange(len(laws)), sizes)
    xis = np.array([law._xi for law in laws])
    lams = np.array([law._lam for law in laws])
    totals = np.array([law._law.total for law in laws])
    c = gen.uniform(size=owner.size) * totals[owner]

    def log_f(t, who, from_top):
        # one row of points per entry, at its law's parameters
        return _log_kernel(like, tuple(xis[who].T[..., None]), lams[who, None], t, from_top)

    return like.weight_domain.clip(invert([law._law for law in laws], c, owner, log_f))
