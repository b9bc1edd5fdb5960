"""Size-biased generation of trait measures.

The ordinary component of a conjugate trait model decomposes into rounds:
round m holds the traits first observed at step m, after m - 1 zero counts.
Such traits arrive as a Poisson process with

    rate(m, x) = mass * h(0)^(m-1) * h(x) * exp B(xi + phi(x) + (m-1) phi(0), lam + m)

atoms of first-observation count x, and the weight of each atom follows the
proper conjugate density with the shifted parameters above.  Truncating at
``m_max`` rounds and a count cap leaves a finite Poisson intensity that can
be drawn exactly by superposition.

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
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

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
    as_xi,
    log_conjugate_kernel,
    log_partition_B,
)
from .measures import TraitMeasure, TruncationMeta
from .quadrature import IntegrandSpec, integrate, probed_orders, smooth_panel
from .rng import as_generator

__all__ = [
    "SizeBiasedConfig",
    "LabeledDraw",
    "SizeBiasedSampler",
    "rate_M",
    "round_total",
    "sample_size_biased",
    "weight_dist_params",
]


def _fresh_locations(gen, k: int, taken: set) -> np.ndarray:
    """Draw k uniform locations distinct from ``taken`` and each other.

    Collisions have probability zero; guarding anyway keeps the
    distinct-locations invariant of the measure containers unconditional.
    Mutates ``taken``.
    """
    out = np.empty(k, dtype=float)
    for i in range(k):
        for _ in range(100):
            v = float(gen.uniform())
            if v not in taken:
                taken.add(v)
                out[i] = v
                break
        else:
            raise RngFaultError("100 location draws in a row collided")
    return out


def _check_round_count(m, x) -> tuple[int, int]:
    for name, v in (("round", m), ("count", x)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {v!r}")
        if v < 1:
            raise DomainError(f"{name} must be >= 1, got {v}")
    return int(m), int(x)


def weight_dist_params(prior: ExpCrmPrior, m, x) -> tuple[tuple[float, ...], float]:
    """Hyperparameters of the weight law for a round-m atom with count x.

    Size-biasing conditions the atom on m - 1 zero counts followed by one
    count of x, so the conjugate update is
    ``(xi + phi(x) + (m - 1) phi(0), lam + m)``.
    """
    m, x = _check_round_count(m, x)
    like = prior.likelihood
    phi0 = like.phi(0)
    phix = like.phi(x)
    xi = tuple(
        xj + float(px) + (m - 1) * float(p0)
        for xj, px, p0 in zip(prior.xi, phix, phi0)
    )
    return xi, prior.lam + float(m)


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
    value, _ = _generic_round_total(prior, m, rel_tol)
    return value


def _generic_round_total(prior: ExpCrmPrior, m: int, rel_tol: float):
    """Quadrature of mass * (1 - l(0|theta)) * l(0|theta)^(m-1) * kappa.

    Summing the pmf over x >= 1 gives 1 - l(0|theta), so the round total
    never needs the count-by-count rates.
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

    low, up = probed_orders(log_f, like.weight_domain.upper)
    spec = IntegrandSpec(
        log_f,
        upper=like.weight_domain.upper,
        lower_order=low,
        upper_order=up,
        name=f"round-{m} total for {like.family}",
    )
    return integrate(spec, rel_tol=rel_tol)


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
        for name in ("m_max", "x_max"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {v!r}")
            if v < 1:
                raise DomainError(f"{name} must be >= 1, got {v}")
            object.__setattr__(self, name, int(v))
        e = self.eps_tail
        if isinstance(e, bool) or not isinstance(e, (int, float, np.integer, np.floating)):
            raise DomainError(f"eps_tail must be a number, got {e!r}")
        e = float(e)
        if not (math.isfinite(e) and e > 0.0):
            raise DomainError(f"eps_tail must be positive and finite, got {e}")
        object.__setattr__(self, "eps_tail", e)


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


class SizeBiasedSampler:
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
        if not isinstance(prior, ExpCrmPrior):
            raise DomainError(f"prior must be an ExpCrmPrior, got {type(prior).__name__}")
        if config is None:
            config = SizeBiasedConfig()
        elif not isinstance(config, SizeBiasedConfig):
            raise DomainError(f"config must be a SizeBiasedConfig, got {type(config).__name__}")
        self.prior = prior
        self.config = config
        self._gen = None if rng is None else as_generator(rng)

        res = hyperparam_valid(prior)
        if not res.ok:
            raise InvalidModelError(f"invalid hyperparameters: {res.reason}")
        self.validity_warnings = res.warnings

        like = prior.likelihood
        bound = like.support_bound
        self.count_cap = config.x_max if bound is None else min(config.x_max, bound)
        self._entry = entry_for(like)

        ms = np.arange(1, config.m_max + 1)
        xs = np.arange(1, self.count_cap + 1)
        if self._entry is not None:
            rates = self._entry.rate_table(prior.mass, prior.xi, prior.lam, ms, xs)
            totals = self._entry.round_totals(prior.mass, prior.xi, prior.lam, ms.astype(float))
        else:
            rates = np.array(
                [[rate_M(prior, int(m), int(x)) for x in xs] for m in ms], dtype=float
            )
            totals = np.array([round_total(prior, int(m)) for m in ms], dtype=float)

        # row sums can exceed the totals by a few ulp when the support is
        # exhausted (binary families); a negative gap is float noise, not mass
        gaps = np.maximum(totals - rates.sum(axis=1), 0.0)
        neglected = float(gaps.sum())
        worst = int(np.argmax(gaps))
        self._certificate = {
            "rounds": int(config.m_max),
            "count_cap": int(self.count_cap),
            "eps_tail": float(config.eps_tail),
            "neglected_rate": neglected,
            "worst_round": int(ms[worst]),
            "worst_round_rate": float(gaps[worst]),
        }
        if not neglected <= config.eps_tail:
            raise TailBoundError(
                f"counts above {self.count_cap} keep rate {neglected:.3e} > "
                f"eps_tail = {config.eps_tail:.3e} across {config.m_max} rounds; "
                "raise x_max or loosen eps_tail",
                certificate=self._certificate,
            )

        self._ms = ms
        self._xs = xs
        self._rates = rates
        self._cdf = np.cumsum(rates.reshape(-1))
        self._grand_total = float(self._cdf[-1])
        self._numeric_samplers: dict = {}
        self._fixed_locations = frozenset(a.location.value for a in prior.fixed_atoms)
        self._truncation = TruncationMeta(
            "truncated", rounds=config.m_max, count_cap=self.count_cap
        )

    # -- certification ---------------------------------------------------

    def tail_certificate(self) -> dict:
        """JSON-ready record of what the count truncation neglected."""
        return dict(self._certificate)

    # -- drawing ----------------------------------------------------------

    def _generator(self, rng) -> np.random.Generator:
        if rng is not None:
            return as_generator(rng)
        if self._gen is None:
            raise DomainError("no rng available: pass one to this call or at construction")
        return self._gen

    def _weights_from_params(self, gen, xi, lam: float, size: int) -> np.ndarray:
        if self._entry is not None:
            return self._entry.sample_weights(gen, xi, lam, size)
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
        exactly like the per-cell draws.  When that draw puts a weight on
        the domain boundary, the generator is rewound and the per-cell
        loop, which redraws inside each cell, runs instead.
        """
        if self._entry is not None:
            state = gen.bit_generator.state
            weights = self._entry.sample_weights(
                gen, self.prior.xi[0] + counts, self.prior.lam + rounds, cells.size, redraw=False
            )
            if weights is not None:
                return weights
            gen.bit_generator.state = state
        n_x = self._xs.size
        weights = np.empty(cells.size, dtype=float)
        pos = 0
        for cell, n_cell in zip(*np.unique(cells, return_counts=True)):
            m = int(self._ms[cell // n_x])
            x = int(self._xs[cell % n_x])
            xi_mx, lam_mx = weight_dist_params(self.prior, m, x)
            weights[pos : pos + n_cell] = self._weights_from_params(
                gen, xi_mx, lam_mx, int(n_cell)
            )
            pos += n_cell
        return weights

    def _locations(self, gen, k: int) -> np.ndarray:
        """k uniform locations distinct from each other and the fixed atoms.

        One vectorized draw equals k scalar draws; after a collision the
        generator is rewound and :func:`_fresh_locations` redraws one
        location at a time, skipping taken values.
        """
        state = gen.bit_generator.state
        locations = gen.uniform(size=k)
        values = locations.tolist()
        if len(set(values)) == k and self._fixed_locations.isdisjoint(values):
            return locations
        gen.bit_generator.state = state
        return _fresh_locations(gen, k, set(self._fixed_locations))

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
        n_x = self._xs.size
        rounds = self._ms[cells // n_x].astype(np.int64)
        counts = self._xs[cells % n_x].astype(np.int64)
        weights = self._cell_weights(gen, cells, rounds, counts)
        return LabeledDraw(rounds, counts, weights, self._locations(gen, k))

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


class _NumericWeightSampler:
    """Inverse-cdf weight sampler for families without a catalog law.

    The unnormalized conjugate density is tabulated on a knot grid graded
    geometrically toward each endpoint (octave extension toward an
    infinite one until the remaining shell is negligible), the cdf is
    interpolated monotonically, and draws invert it by bracketed root
    finding.  Below the first knot and above the last the density is a
    pure power to leading order, so those pieces invert analytically;
    with the innermost knots at 1e-12 of the scale, the power
    approximation error is far below anything a sample statistic can see.

    The interior is coarser: neighbouring knots differ by a factor of
    about 1.34, and the monotone cubic between them is off by up to about
    6e-4 in the cdf.  For Gamma(1, rate 2) the largest error sits near
    0.83, between the knots 0.748 and 1.0; a KS test sees an error that
    size at about 10^6 draws.  The oracle suite's weight-law test uses
    this cdf as its reference.
    """

    _EDGE = 1e-12
    _KNOTS_PER_SIDE = 96
    _TAIL = 1e-13

    def __init__(self, likelihood: ExpCrmLikelihood, xi, lam: float):
        xi = as_xi(xi)
        self._like = likelihood

        def log_f(th):
            return log_conjugate_kernel(likelihood, xi, lam, np.asarray(th, dtype=float))

        self._log_f = log_f
        upper = float(likelihood.weight_domain.upper)
        low, up = probed_orders(log_f, upper)
        if low <= -1.0 + 1e-7:
            raise DomainError(
                f"weight density for {likelihood.family} is not normalizable at 0 "
                f"(endpoint power {low:.6f}); the parameters are improper"
            )
        self._low = low
        self._finite = math.isfinite(upper)
        self._upper = upper

        if self._finite:
            if up <= -1.0 + 1e-7:
                raise DomainError(
                    f"weight density for {likelihood.family} is not normalizable at "
                    f"its upper boundary (endpoint power {up:.6f})"
                )
            g = np.geomspace(self._EDGE, 0.5, self._KNOTS_PER_SIDE)
            knots = np.unique(np.concatenate([upper * g, upper * (1.0 - g[::-1])]))
        else:
            if up is not None and up >= -1.0 - 1e-7:
                raise DomainError(
                    f"weight density for {likelihood.family} is not normalizable at "
                    f"infinity (tail power {up})"
                )
            knots = np.geomspace(self._EDGE, 1.0, self._KNOTS_PER_SIDE)
        knots = list(knots)

        def panel(a, b):
            value, _ = smooth_panel(log_f, a, b, rel_tol=1e-9)
            return value

        t0 = knots[0]
        f0 = math.exp(float(log_f(np.array([t0]))[0]))
        mass_below = f0 * t0 / (low + 1.0)
        cum = [mass_below]
        for a, b in zip(knots, knots[1:]):
            cum.append(cum[-1] + panel(a, b))

        if not self._finite:
            # march in quarter-octaves until a shell stops mattering; shells
            # can grow at first when the mass sits above the initial grid,
            # and the step must stay small enough for quantile-accurate
            # interpolation through the tail region
            for _ in range(1200):
                nxt = knots[-1] * 2.0**0.25
                shell = panel(knots[-1], nxt)
                knots.append(nxt)
                cum.append(cum[-1] + shell)
                if shell <= self._TAIL * cum[-1]:
                    break
            else:
                raise QuadratureError(
                    f"weight tail for {likelihood.family} failed to close "
                    "after 1200 quarter-octaves"
                )

        if self._finite:
            v0 = upper - knots[-1]
            f_top = math.exp(float(log_f(np.array([knots[-1]]))[0]))
            self._up_power = up
            self._up_edge = v0
            mass_above = f_top * v0 / (up + 1.0)
        elif up is not None:
            t_top = knots[-1]
            f_top = math.exp(float(log_f(np.array([t_top]))[0]))
            self._up_power = up
            self._up_edge = t_top
            mass_above = f_top * t_top / (-up - 1.0)
        else:
            # faster-than-power decay: the stopping rule already pushed
            # the residual tail below noise, drop it
            self._up_power = None
            self._up_edge = knots[-1]
            mass_above = 0.0

        self._knots = np.array(knots)
        self._F = np.array(cum)
        self._mass_below = mass_below
        self._mass_above = mass_above
        self._total = float(self._F[-1] + mass_above)
        self._interp = PchipInterpolator(self._knots, self._F, extrapolate=False)

    def cdf(self, t) -> np.ndarray:
        """Normalized cdf of the weight law, from the same tabulation."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        below = t <= self._knots[0]
        above = t >= self._knots[-1]
        mid = ~(below | above)
        tb = np.clip(t[below], 0.0, None)
        out[below] = self._mass_below * (tb / self._knots[0]) ** (self._low + 1.0)
        if self._finite:
            v = np.clip(self._upper - t[above], 0.0, None)
            out[above] = self._total - self._mass_above * (v / self._up_edge) ** (
                self._up_power + 1.0
            )
        elif self._up_power is not None:
            out[above] = self._total - self._mass_above * (t[above] / self._up_edge) ** (
                self._up_power + 1.0
            )
        else:
            out[above] = self._total
        out[mid] = self._interp(t[mid])
        return np.clip(out / self._total, 0.0, 1.0)

    def _invert(self, c: float) -> float:
        if c <= self._mass_below:
            frac = c / self._mass_below
            t = self._knots[0] * frac ** (1.0 / (self._low + 1.0))
            return max(t, 5e-324)  # an underflowed draw is still an atom
        if self._mass_above > 0.0 and c >= self._total - self._mass_above:
            frac = (self._total - c) / self._mass_above
            if self._finite:
                return self._upper - self._up_edge * frac ** (1.0 / (self._up_power + 1.0))
            # heavy tails (power barely below -1) can overflow for u within
            # an ulp of 1; a clamped draw is still the right rare event
            return min(self._up_edge * frac ** (1.0 / (self._up_power + 1.0)), 8e307)
        j = int(np.searchsorted(self._F, c))
        j = min(max(j, 1), self._knots.size - 1)
        a, b = self._knots[j - 1], self._knots[j]
        return float(brentq(lambda t: float(self._interp(t)) - c, a, b, xtol=1e-300, rtol=1e-15))

    def sample(self, gen, size: int) -> np.ndarray:
        u = gen.uniform(size=size)
        while (u == 0.0).any():  # keep weights strictly positive
            zeros = u == 0.0
            u[zeros] = gen.uniform(size=int(zeros.sum()))
        return np.array([self._invert(ui * self._total) for ui in u])
