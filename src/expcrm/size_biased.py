"""Size-biased generation of trait measures.

The ordinary component of a conjugate trait model decomposes into rounds:
round m holds the traits first observed at step m, after m - 1 zero counts.
Such traits arrive as a Poisson process with

    rate(m, x) = mass * h(0)^(m-1) * h(x) * exp B(xi + phi(x) + (m-1) phi(0), lam + m)

atoms of first-observation count x, and the weight of each atom follows the
proper conjugate density at the shifted parameters above (the package's one
conjugate shift, :func:`~expcrm.exp_family.shifted_params`).  Truncating at
``m_max`` rounds and a count cap leaves a finite Poisson intensity that can
be drawn exactly by superposition.

The rates, round totals and count-tail gaps live in a :class:`RateTable`,
grown by round, that samplers of one prior and truncation share while any
of them lives, and whose family (from
:func:`~expcrm.exp_family.family_of`: closed forms or quadrature, which
answer the same calls) computes them.  Round m of the size-biased
representation is step m of the marginal process, so
:class:`~expcrm.marginal.MarginalSampler` reads its new-atom rates from the
same kind of table, one row per step.  Both samplers share the
configuration check and the draws of newborn atoms' cells (:func:`_superpose`,
over all rounds or one step's row) and locations, from each call's rng.

Truncation honesty cuts two ways here.  The count side is certified: the
neglected per-round count tail (round total minus the tabulated row sum) is
bounded, and the rate table refuses, once for both samplers, a draw's
rounds or a stream's steps whose neglected rate exceeds ``eps_tail``.  The
round side cannot be certified the same way, because for a valid model the
per-round totals are *not* summable (infinite ordinary mass is the point of
assumption A1); what the missing rounds cost is an empirical question,
answered by comparing against the marginal sampler.  Every draw carries
:class:`~expcrm.measures.TruncationMeta` recording both caps.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .catalog import family_of, hyperparam_valid
from .errors import DomainError, InvalidModelError, RngFaultError, TailBoundError
from .exp_family import ExpCrmPrior, shifted_params
from .measures import TraitMeasure, TruncationMeta
from .rng import as_generator

__all__ = [
    "SizeBiasedConfig",
    "LabeledDraw",
    "RateTable",
    "SizeBiasedSampler",
    "rate_M",
    "round_total",
    "weight_dist_params",
]


def _positive_int(name: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    if not 1 <= v < 2**63:  # the int64 range of the samplers' round and count arrays
        raise DomainError(f"{name} must be in 1..{2**63 - 1}, got {v}")
    return int(v)


def _check_round_count(m, x) -> tuple[int, int]:
    return _positive_int("round", m), _positive_int("count", x)


def weight_dist_params(prior: ExpCrmPrior, m, x) -> tuple[tuple[float, ...], float]:
    """Hyperparameters of the weight law for a round-m atom with count x.

    Size-biasing conditions the atom on m - 1 zero counts followed by one
    count of x, so the conjugate update is
    ``(xi + phi(x) + (m - 1) phi(0), lam + m)``.
    """
    m, x = _check_round_count(m, x)
    xi, lam = shifted_params(family_of(prior.likelihood), prior.xi, prior.lam, [m], [x])
    return tuple(xi[0].tolist()), float(lam[0])


def rate_M(prior: ExpCrmPrior, m, x) -> float:
    """Expected number of round-m ordinary atoms first observed with count x: 0 outside
    the likelihood's support, else the one cell of a one-round ``rate_rows`` call."""
    m, x = _check_round_count(m, x)
    if not prior.likelihood.in_support(x):
        return 0.0
    return float(family_of(prior.likelihood).rate_rows(prior, [m], [x])[0][0, 0])


def round_total(prior: ExpCrmPrior, m) -> float:
    """Expected number of round-m atoms, all positive counts combined.

    Summing the pmf over x >= 1 gives 1 - l(0|theta), so a family without
    closed forms needs no count-by-count rates: its round total is one
    integral of mass * (1 - l(0|theta)) l(0|theta)^(m-1) kappa.  It is the
    total of a one-round ``rate_rows`` call at no counts (m = 1 is the
    round-1 trait rate of assumption A2).
    """
    m, _ = _check_round_count(m, 1)
    return float(family_of(prior.likelihood).rate_rows(prior, [m], [])[1][0])


class RateTable:
    """Atom rates of one prior by round, tabulated as far as its samplers read.

    Row m holds M(m, x) for counts x = 1..count_cap, where ``count_cap`` is
    ``x_max`` clipped to the likelihood's support bound; ``totals`` hold the
    round totals over all positive counts, so a row's gap to its total is
    what the count cap neglects.  A trait first seen at step n of the
    marginal process is a round-n trait of the size-biased representation,
    so both samplers read the same rows: the size-biased sampler reads
    rounds 1..m_max at construction, the marginal sampler one more row per
    step.  Each extension is one ``rate_rows`` call of the family, over
    whole blocks of its ``round_block`` rounds from round 1: one
    ``CatalogEntry.rate_table`` call, or one quadrature per block of four
    rounds, their cells and round totals together.  Samplers built while
    another of the same prior, ``x_max`` and ``eps_tail`` lives read its
    table, so a size-biased sampler's rows serve a marginal stream too.

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
        self.family = family_of(prior.likelihood)
        self.xs = np.arange(1, self.count_cap + 1)
        self._rates: list[np.ndarray] = []  # the rows of each rate_rows call, in round order
        self._totals: list[float] = []  # one per round tabulated
        self._unstepped: list[np.ndarray] = []  # blocks of rows no step has read yet
        self._step_rows: list[tuple[np.ndarray, float]] = []  # (cumulative row, gap)
        self._neglected = [0.0]  # _neglected[n] sums the gaps of steps 1..n

    def _extend(self, rounds: int) -> None:
        have = len(self._totals)
        if rounds > have:
            rounds = -(-rounds // self.family.round_block) * self.family.round_block  # whole blocks
            rows, totals = self.family.rate_rows(self.prior, np.arange(have + 1, rounds + 1), self.xs)
            self._rates.append(rows)
            self._unstepped.append(rows)
            self._totals += totals.tolist()

    def weight_params(self, rounds: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`weight_dist_params` of the atoms of rounds ``rounds`` and counts ``counts``:
        one row of xi and one lam per atom, from :func:`~expcrm.exp_family.shifted_params`."""
        return shifted_params(self.family, self.prior.xi, self.prior.lam, rounds, counts)

    def rates(self, rounds: int) -> np.ndarray:
        """M(m, x) for rounds m = 1..rounds (rows) and counts 1..count_cap."""
        self._extend(rounds)
        return np.concatenate(self._rates)[:rounds]

    def totals(self, rounds: int) -> np.ndarray:
        """Expected atoms of rounds 1..rounds, all positive counts combined."""
        self._extend(rounds)
        return np.array(self._totals[:rounds])

    def step(self, n: int) -> tuple[np.ndarray, float]:
        """(cumulative rate row, neglected gap) of new atoms at marginal step n; raises
        where :meth:`stream_certificate` does, since every stream's budget is the table's."""
        steps = self._stepped(n)
        if not self._neglected[n] <= self.eps_tail:
            self.stream_certificate(n)  # raises
        return steps[n - 1]

    def _stepped(self, n: int) -> list[tuple[np.ndarray, float]]:
        """The (cumulative row, gap) of every step tabulated, steps 1..n at least."""
        self._extend(n)
        for rows in self._unstepped:  # one cumsum per block, the same doubles as one per row
            first = len(self._step_rows)
            cdfs = np.cumsum(rows, axis=1)
            gaps = np.maximum(np.array(self._totals[first : first + len(rows)]) - cdfs[:, -1], 0.0).tolist()
            self._step_rows += zip(cdfs, gaps)
            self._neglected += list(accumulate(gaps, initial=self._neglected[-1]))[1:]
        self._unstepped.clear()
        return self._step_rows

    def _certificate(self, unit: str, n: int, gaps, neglected) -> dict:
        """What the count cap neglects across ``n`` rounds or steps.  The one check of the
        count-cap budget: :class:`~expcrm.errors.TailBoundError` carries the certificate
        unless ``neglected`` is within ``eps_tail`` (so a NaN raises)."""
        worst = int(np.argmax(gaps))
        certificate = {
            f"{unit}s": n,
            "count_cap": int(self.count_cap),
            "eps_tail": float(self.eps_tail),
            "neglected_rate": float(neglected),
            f"worst_{unit}": worst + 1,
            f"worst_{unit}_rate": float(gaps[worst]),
        }
        if not neglected <= self.eps_tail:
            raise TailBoundError(
                f"counts above {self.count_cap} keep rate {neglected:.3e} > "
                f"eps_tail = {self.eps_tail:.3e} across {n} {unit}s; "
                "raise x_max or loosen eps_tail",
                certificate=certificate,
            )
        return certificate

    def draw_certificate(self, rounds: int) -> dict:
        """What the count cap neglects across rounds 1..rounds of one draw."""
        gaps = np.maximum(self.totals(rounds) - self.rates(rounds).sum(axis=1), 0.0)
        return self._certificate("round", rounds, gaps, gaps.sum())

    def stream_certificate(self, steps: int) -> dict:
        """What the count cap neglects across steps 1..steps of a stream: the gaps' running sum."""
        gaps = [gap for _, gap in self._stepped(steps)[:steps]]
        return self._certificate("step", steps, gaps, self._neglected[steps])


# the default truncation of both samplers, of a config file and of the checks
DEFAULT_M_MAX = 1000
DEFAULT_X_MAX = 50
DEFAULT_EPS_TAIL = 1e-6


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
    dropped counts across all generated rounds: the rate table, which
    checks this budget for both samplers, fails the sampler's construction
    with :class:`~expcrm.errors.TailBoundError` when it cannot be met.
    """

    m_max: int = DEFAULT_M_MAX
    x_max: int = DEFAULT_X_MAX
    eps_tail: float = DEFAULT_EPS_TAIL

    def __post_init__(self):
        _check_truncation(self)


def _superpose(gen, cdf: np.ndarray) -> np.ndarray:
    """The cells of one Poisson process whose cell rates have cumulative sums ``cdf``.

    One Poisson count over the total, then one uniform per atom placed by a
    right-sided search among the cells' upper edges but the last, so one
    that rounding puts at the top lands in the last cell: int64 indices,
    ascending, none when the count is zero, which then reads no uniform.
    """
    total = float(cdf[-1])
    k = int(gen.poisson(total))
    if not k:
        return np.empty(0, dtype=np.int64)
    u = gen.uniform(0.0, total, size=k)
    cells = cdf[:-1].searchsorted(u, side="right")
    cells.sort()
    return cells


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


# the rate table of each (prior, x_max, eps_tail) that some sampler holds
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _rate_table(prior: ExpCrmPrior, x_max: int, eps_tail: float) -> RateTable:
    """The table a sampler of ``prior`` reads: one that a live sampler of the same prior and
    truncation already holds, so its rows are integrated once, else a new one."""
    key = (prior, x_max, eps_tail)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = RateTable(prior, x_max, eps_tail)
    return table


class _TruncatedSampler:
    """What both samplers share: the config check, the rate table, the fixed atoms; no rng."""

    def __init__(self, prior, config, config_type):
        if config is None:
            config = config_type()
        elif not isinstance(config, config_type):
            raise DomainError(
                f"config must be a {config_type.__name__}, got {type(config).__name__}"
            )
        self.table = _rate_table(prior, config.x_max, config.eps_tail)
        self.prior = prior
        self.config = config
        self.count_cap = self.table.count_cap
        self.validity_warnings = self.table.validity_warnings
        # the fixed atoms' location values, xi rows and lam, in prior order
        fixed, dim = prior.fixed_atoms, prior.likelihood.dim
        self._fixed_values = np.array([a.location.value for a in fixed], dtype=float)
        self._fixed_xi = np.array([a.xi for a in fixed], dtype=float).reshape(len(fixed), dim)
        self._fixed_lam = np.array([a.lam for a in fixed], dtype=float)


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

    Every draw takes its rng; passing ``RngState(seed, stream=r)`` to
    replicate r makes each replicate independently reproducible no matter
    how draws are scheduled.
    """

    def __init__(self, prior: ExpCrmPrior, config: SizeBiasedConfig | None = None):
        super().__init__(prior, config, SizeBiasedConfig)
        m_max = self.config.m_max
        self._certificate = self.table.draw_certificate(m_max)
        self._cdf = np.cumsum(self.table.rates(m_max))
        self._grand_total = float(self._cdf[-1])
        self._fixed_locations = frozenset(self._fixed_values.tolist())
        self._truncation = TruncationMeta("truncated", rounds=m_max, count_cap=self.count_cap)

    # -- certification ---------------------------------------------------

    def tail_certificate(self) -> dict:
        """JSON-ready record of what the count truncation neglected."""
        return dict(self._certificate)

    # -- drawing ----------------------------------------------------------

    def draw_labeled(self, rng) -> LabeledDraw:
        """Draw the ordinary component, keeping round and count labels.

        Atoms are ordered by table cell (round-major), and the weight
        draws follow that order, so the draw consumes generator output
        in a schedule-independent order.
        """
        gen = as_generator(rng)
        rounds, counts = np.divmod(_superpose(gen, self._cdf), self.count_cap)
        rounds += 1
        counts += 1
        # one draw for all cells, which consumes the generator exactly like
        # one draw per cell in order
        weights = self.table.family.draw_weights(gen, *self.table.weight_params(rounds, counts))
        return LabeledDraw(rounds, counts, weights, _locations(gen, rounds.size, self._fixed_locations))

    def draw(self, rng) -> TraitMeasure:
        """One truncated realization of the full trait measure.

        Fixed-atom weights come first, in the order the prior lists them
        (their laws are proper by validation), then the ordinary
        component; the order is part of the determinism contract.
        """
        gen = as_generator(rng)
        fixed_weights = self.table.family.draw_weights(gen, self._fixed_xi, self._fixed_lam)
        labeled = self.draw_labeled(gen)
        return TraitMeasure(
            fixed_weights, self._fixed_values, labeled.weights, labeled.locations, self._truncation
        )

