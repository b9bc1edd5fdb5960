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
from .errors import (
    DomainError,
    InvalidModelError,
    QuadratureError,
    RngFaultError,
    TailBoundError,
)
from .exp_family import (
    ExpCrmLikelihood,
    ExpCrmPrior,
    _kernel_spec,
    as_xi,
    log_conjugate_kernel,
    log_partition_B,
)
from .measures import TraitMeasure, TruncationMeta
from .quadrature import IntegrandSpec, _eval_log, _gl_rule, integrate, probed_orders
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
    like = prior.likelihood
    if not like.in_support(x):
        return 0.0
    xi_mx, lam_mx = weight_dist_params(prior, m, x)
    log_rate = (
        math.log(prior.mass)
        + (m - 1) * like.log_h(0)
        + like.log_h(x)
        + log_partition_B(like, xi_mx, lam_mx)
    )
    return math.exp(log_rate)


def round_total(prior: ExpCrmPrior, m, *, rel_tol: float = 1e-9) -> float:
    """Expected number of round-m atoms, all positive counts combined."""
    m, _ = _check_round_count(m, 1)
    entry = entry_for(prior.likelihood)
    if entry is not None:
        return entry.round_total(prior.mass, prior.xi, prior.lam, m)
    return _round_total_quadrature(prior, m, rel_tol)


def _integrand_orders(like, xi, lam: float, m: int, x, log_f) -> tuple:
    """Endpoint powers of ``log_f``, a rate or round-total integrand.

    With a count ``x`` the integrand is l(x|theta) l(0|theta)^(m-1)
    kappa(theta; xi, lam), the rate integrand; with ``x = None`` it is
    (1 - l(0|theta)) l(0|theta)^(m-1) kappa(theta; xi, lam), the round
    total.  For a catalog family both follow from conjugacy: the first is
    h(x) h(0)^(m-1) kappa(theta; xi + phi(x) + (m-1) phi(0), lam + m)
    (m = 0 with x = 0 is kappa itself).  Since 1 - l(0|theta) grows like
    theta at 0 and tends to 1 at the top, the second has the powers of the
    first at (m - 1, x = 0), plus one at 0.  Other families probe
    ``log_f``.  Either way :func:`integrate` checks the declared powers
    against its own slope probes.
    """
    entry = entry_for(like)
    if entry is None:
        return probed_orders(log_f, like.weight_domain.upper)
    if x is None:
        low, up = entry.kernel_orders(*_shifted_params(like, xi, lam, m - 1, 0))
        return low + 1.0, up
    return entry.kernel_orders(*_shifted_params(like, xi, lam, m, x))


def _round_total_quadrature(prior: ExpCrmPrior, m: int, rel_tol: float = 1e-9) -> float:
    """Quadrature of mass * (1 - l(0|theta)) * l(0|theta)^(m-1) * kappa.

    Summing the pmf over x >= 1 gives 1 - l(0|theta), so the round total
    never needs the count-by-count rates.  This is the round total of a
    family without closed forms, and the oracle's reference for the
    closed forms of the catalog (m = 1 is the round-1 trait rate of
    assumption A2).
    """
    like = prior.likelihood
    log_mass = math.log(prior.mass)

    def log_f(th):
        th = np.asarray(th, dtype=float)
        lp0 = like.log_pmf(0, th)
        with np.errstate(divide="ignore"):
            gap = np.log(-np.expm1(lp0))
        head = (m - 1) * lp0 if m > 1 else 0.0
        return log_mass + head + gap + log_conjugate_kernel(like, prior.xi, prior.lam, th)

    low, up = _integrand_orders(like, prior.xi, prior.lam, m, None, log_f)
    spec = IntegrandSpec(
        log_f,
        upper=like.weight_domain.upper,
        lower_order=low,
        upper_order=up,
        name=f"round-{m} total for {like.family}",
    )
    value, _ = integrate(spec, rel_tol=rel_tol)
    return value


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
    catalog family (quadrature per cell otherwise).

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
            rows = [[rate_M(p, int(m), int(x)) for x in self.xs] for m in ms]
            totals = [round_total(p, int(m)) for m in ms]
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

    def _weights_from_params(self, gen, xi, lam: float, size: int) -> np.ndarray:
        if self.table.entry is not None:
            return self.table.entry.sample_weights(gen, xi, lam, size)
        key = (as_xi(xi), float(lam))
        sampler = self._numeric_samplers.get(key)
        if sampler is None:
            sampler = _NumericWeightSampler(self.prior.likelihood, key[0], key[1])
            self._numeric_samplers[key] = sampler
        return sampler.sample(gen, size)

    def _cell_weights(self, gen, cells, rounds, counts) -> np.ndarray:
        """Weights of atoms sorted by table cell, drawn cell by cell.

        For a catalog family phi(x) = x and phi(0) = 0, so the cell
        parameters of :func:`weight_dist_params` are (xi + x, lam + m) and
        all cells take one broadcast draw, which consumes the generator
        exactly like the per-cell draws.
        """
        entry = self.table.entry
        if entry is not None:
            return entry.sample_weights(
                gen, self.prior.xi[0] + counts, self.prior.lam + rounds, cells.size
            )
        weights = np.empty(cells.size, dtype=float)
        pos = 0
        for n_cell in np.unique(cells, return_counts=True)[1]:
            xi_mx, lam_mx = weight_dist_params(self.prior, int(rounds[pos]), int(counts[pos]))
            weights[pos : pos + n_cell] = self._weights_from_params(
                gen, xi_mx, lam_mx, int(n_cell)
            )
            pos += n_cell
        return weights

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
        fixed = self.prior.fixed_atoms
        fixed_weights = [self._weights_from_params(gen, fa.xi, fa.lam, 1)[0] for fa in fixed]
        labeled = self.draw_labeled(gen)
        return TraitMeasure.from_arrays(
            fixed_weights,
            [fa.location.value for fa in fixed],
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

# Gauss-Legendre nodes per panel, and those of the companion rule whose
# distance from it is the panel's error bound
_GL_NODES = 12
_GL_COMPANION = 6
# a panel is refined until its error bound is within _REL_TOL of its mass,
# or _ABS_TOL of the law's total; _MAX_PANELS caps the refinement per side
_REL_TOL = 1e-10
_ABS_TOL = 1e-16
_MAX_PANELS = 4000
_NEWTON_STEPS = 100


def _rule_points(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The points a + (b - a)(1 + y)/2, one row per interval [a, b]."""
    return a[:, None] + np.multiply.outer(b - a, 0.5 * (1.0 + y))


class _Panels:
    """Gauss-Legendre panels tiling one side of a weight law's domain.

    ``log_g`` is the log density in the side's own coordinate: the weight
    itself, or, on the upper half of a finite domain, the distance from the
    top, where points next to the top are exact.  Densities are taken
    relative to ``exp(shift)``, one offset for the whole law, which keeps
    them in floating-point range.  Once refined, ``cum[i]`` is the mass
    below knot ``i``, counted from the side's outer end and starting at the
    analytic piece beyond it.
    """

    def __init__(self, log_g, knots: np.ndarray, name: str):
        self.log_g = log_g
        self.knots = knots
        self.name = name
        self.shift = 0.0
        self.cum = None

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

    def refine(self, mass: np.ndarray, err: np.ndarray, base: float, floor: float) -> None:
        """Bisect panels until each error bound is within _REL_TOL of its mass plus ``floor``.

        Then sets ``knots`` to the refined panels and ``cum`` to ``base`` plus their running sums.
        """
        a, b = self.knots[:-1], self.knots[1:]
        while True:
            bad = err > _REL_TOL * mass + floor
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


class _NumericWeightSampler:
    """Inverse-cdf weight sampler for families without a catalog law.

    The cdf is summed from composite Gauss-Legendre panels (12 nodes each)
    on knots graded geometrically toward each endpoint, from 1e-12 of the
    scale, and marched out in quarter-octaves toward an infinite top until
    a shell is negligible or, for a power tail, the analytic power piece
    above it is accurate.  All of a side's nodes go through the log
    density in one vectorized call; the upper half of a finite domain is
    integrated in the distance from the top, where points next to the top
    are exact.  Each panel's error is bounded by its distance from a 6-node
    companion rule, and panels are bisected until every bound is within
    1e-10 of its panel's mass (or 1e-16 of the law's total).  So every
    cumulative sum, counted from either end, is within about 1e-10 of
    itself, as long as the 12-node rule is the more accurate of the two;
    the tests pin the cdf against ``scipy.stats`` to 1e-8.  ``cdf`` adds the
    partial panel up to t with the same 12-node rule.

    Below the first knot and above the last the density is a pure power to
    leading order, so those pieces invert analytically; with the innermost
    knots at 1e-12 of the scale, the power approximation error is far below
    anything a sample statistic can see.  Inside, ``sample`` inverts all of a
    cell's uniforms at once by Newton's method on the density, each
    bracketed by its panel.  The oracle suite's weight-law test uses this
    cdf as its reference.
    """

    _EDGE = 1e-12
    _KNOTS_PER_SIDE = 96
    _TAIL = 1e-13
    _MARCH = 60  # quarter-octaves per log-density call while closing an infinite tail

    def __init__(self, likelihood: ExpCrmLikelihood, xi, lam: float):
        spec = _kernel_spec(likelihood, as_xi(xi), lam, f"weight law for {likelihood.family}")
        upper = float(likelihood.weight_domain.upper)
        if entry_for(likelihood) is None:
            low, up = spec.lower_order, spec.upper_order  # the spec probed them
        else:
            # probed even for catalog families: the oracle checks the catalog
            # against this sampler, so it does not take the catalog's orders
            low, up = probed_orders(spec.log_f, upper)
        if low <= -1.0 + 1e-7:
            raise DomainError(
                f"weight density for {likelihood.family} is not normalizable at 0 "
                f"(endpoint power {low:.6f}); the parameters are improper"
            )
        self._low = low
        self._up_power = up
        self._finite = math.isfinite(upper)
        self._upper = upper
        self._domain = likelihood.weight_domain

        if self._finite:
            if up <= -1.0 + 1e-7:
                raise DomainError(
                    f"weight density for {likelihood.family} is not normalizable at "
                    f"its upper boundary (endpoint power {up:.6f})"
                )
            grid = upper * np.geomspace(self._EDGE, 0.5, self._KNOTS_PER_SIDE)
            sides = [_Panels(g, grid, spec.name) for g in (spec.log_f, spec.log_f_from_top)]
        else:
            if up is not None and up >= -1.0 - 1e-7:
                raise DomainError(
                    f"weight density for {likelihood.family} is not normalizable at "
                    f"infinity (tail power {up})"
                )
            grid = np.geomspace(self._EDGE, 1.0, self._KNOTS_PER_SIDE)
            march = 2.0 ** (0.25 * np.arange(1, 1201))
            sides = [_Panels(spec.log_f, np.concatenate([grid, march[: self._MARCH]]), spec.name)]
        logs = [s.node_logs(s.knots[:-1], s.knots[1:]) for s in sides]
        shift = max(float(np.max(lg)) for lg in logs)
        for s in sides:
            s.shift = shift
        parts = [s.masses(lg, s.knots[:-1], s.knots[1:]) for s, lg in zip(sides, logs)]
        lower = sides[0]
        edge = grid[:1]
        mass_below = float(lower.density(edge)[0]) * grid[0] / (low + 1.0)

        if not self._finite:
            # march in quarter-octaves until a shell stops mattering; shells
            # can grow at first when the mass sits above the initial grid,
            # and a shell closes nothing while no mass has been found.  A
            # declared power tail also closes once the analytic piece above a
            # shell is accurate: its relative error is at most the shell's
            # log-slope deviation from up over -up - 1, and the error it makes
            # must be within _REL_TOL of the mass below
            mass, err = parts[0]
            n_grid, marched = grid.size - 1, self._MARCH
            if up is not None:
                knot_logs = lower.log_density(lower.knots[n_grid:])
            while True:
                cum = (mass_below + np.cumsum(mass))[n_grid:]
                done = mass[n_grid:] <= self._TAIL * cum
                if up is not None:
                    ends = lower.knots[n_grid:]
                    above = np.exp(knot_logs[1:] - lower.shift) * ends[1:] / (-up - 1.0)
                    with np.errstate(invalid="ignore"):  # underflowed densities close nothing
                        slope = np.diff(knot_logs) / np.diff(np.log(ends))
                        done |= above * np.abs(slope - up) / (-up - 1.0) <= _REL_TOL * cum
                closed = np.flatnonzero(done & (cum > 0.0))
                if closed.size:
                    n = n_grid + int(closed[0]) + 1
                    lower.knots, parts[0] = lower.knots[: n + 1], (mass[:n], err[:n])
                    break
                if marched == march.size:
                    raise QuadratureError(
                        f"weight tail for {likelihood.family} failed to close "
                        "after 1200 quarter-octaves"
                    )
                b = march[marched : marched + self._MARCH]
                a = np.concatenate([lower.knots[-1:], b[:-1]])
                more_mass, more_err = lower.masses(lower.node_logs(a, b), a, b)
                lower.knots = np.concatenate([lower.knots, b])
                mass, err = np.concatenate([mass, more_mass]), np.concatenate([err, more_err])
                if up is not None:
                    knot_logs = np.concatenate([knot_logs, lower.log_density(b)])
                marched += self._MARCH

        if self._finite:
            self._up_edge = grid[0]
            f_top = float(sides[1].density(edge)[0])
            mass_above = f_top * grid[0] / (up + 1.0)
        else:
            self._up_edge = lower.knots[-1]
            if up is None:
                # faster-than-power decay: the stopping rule already pushed
                # the residual tail below noise, drop it
                mass_above = 0.0
            else:
                f_top = float(lower.density(lower.knots[-1:])[0])
                mass_above = f_top * self._up_edge / (-up - 1.0)

        total = mass_below + mass_above + sum(float(m.sum()) for m, _ in parts)
        if not math.isfinite(total):
            raise QuadratureError(f"{spec.name}: overflow inside an interior panel")
        for s, (mass, err), base in zip(sides, parts, (mass_below, mass_above)):
            s.refine(mass, err, base, _ABS_TOL * total)
        self._sides = sides
        self._mass_below = mass_below
        self._mass_above = mass_above
        self._total = float(lower.cum[-1] + (sides[1].cum[-1] if self._finite else mass_above))

    def cdf(self, t) -> np.ndarray:
        """Normalized cdf of the weight law, from the same panels."""
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
            out[above] = self._total - rest
        elif self._up_power is not None:
            out[above] = self._total - self._mass_above * (t[above] / self._up_edge) ** (
                self._up_power + 1.0
            )
        else:
            out[above] = self._total
        return np.clip(out / self._total, 0.0, 1.0)

    def _invert(self, c: np.ndarray) -> np.ndarray:
        """The weights at which the unnormalized cdf reaches ``c``, clipped into the domain."""
        out = np.empty(c.shape)
        # strict, so that c = 0 on a law whose mass below the first knot
        # underflowed to 0 is solved in the panels rather than read as 0/0
        below = c < self._mass_below
        frac = c[below] / self._mass_below
        out[below] = self._sides[0].knots[0] * frac ** (1.0 / (self._low + 1.0))
        top = ~below & (self._mass_above > 0.0) & (c >= self._total - self._mass_above)
        if top.any():
            frac = (self._total - c[top]) / self._mass_above
            with np.errstate(divide="ignore", over="ignore"):
                far = self._up_edge * frac ** (1.0 / (self._up_power + 1.0))
            out[top] = self._upper - far if self._finite else far
        rest = ~(below | top)
        if self._finite:
            high = rest & (c >= self._sides[0].cum[-1])
            out[high] = self._upper - self._sides[1].solve(self._total - c[high])
            rest &= ~high
        out[rest] = self._sides[0].solve(c[rest])
        return self._domain.clip(out)

    def sample(self, gen, size: int) -> np.ndarray:
        return self._invert(gen.uniform(size=size) * self._total)
