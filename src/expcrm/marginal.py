"""Marginal generation of observation sequences.

Integrating the trait measure out of the model leaves a sequential process
over the observations alone.  Step n sees two kinds of emission:

* every atom already on the books (the model's fixed atoms, plus every
  trait born at an earlier step) emits a count from its exact predictive
  pmf, the ratio of conjugate normalizers at its accumulated parameters;
* brand-new traits arrive as a Poisson process whose count-x rate equals
  the size-biased rate of round n, because a trait first seen at step n is
  precisely a round-n trait.  New-atom counts above the configured cap are
  truncated, with the same certified tail accounting as the size-biased
  sampler; counts at existing atoms are never truncated.

Emitted counts feed straight back into each atom's parameters (through the
family's ``phi_rows``: at most one ``phi`` call per distinct count), so a
run of this sampler is its own conjugate filter: after n steps an atom's
parameters match what :func:`expcrm.posterior.posterior_update` would
compute from the emitted observations.

Step n's new-atom rates are row n of the sampler's
:class:`~expcrm.size_biased.RateTable`, the table the size-biased sampler
draws from, and its newborn atoms come from the same superposition draw,
over that one row; a row is computed the first time a stream reaches its
step and shared by every later stream, and by every live sampler of the
same prior and truncation, size-biased ones included.  The table's family (a catalog
entry, or a :class:`~expcrm.exp_family.QuadratureFamily` for a family
without closed forms) answers the predictive pmfs that the package's one
count walk, :func:`~expcrm.exp_family.walk_counts`, inverts; the table
gives newborn atoms' parameters, so the stream never asks which family it
has.  The table also checks the count-cap budget, for this sampler and the
size-biased one alike: a stream's budget is the running sum of its steps'
gaps, the same for every stream, and a certificate over budget raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .catalog import family_of
from .exp_family import ExpCrmLikelihood, ExpCrmPrior, as_xi, walk_counts
from .measures import ObservationMeasure
from .rng import as_generator
from .size_biased import DEFAULT_EPS_TAIL, DEFAULT_X_MAX, _check_truncation, _locations, _positive_int
from .size_biased import _superpose, _TruncatedSampler, rate_M

__all__ = [
    "MarginalConfig",
    "MarginalSampler",
    "new_atom_rate",
    "predictive_logpmf",
]


def predictive_logpmf(likelihood: ExpCrmLikelihood, xi_eff, lam_eff: float, x) -> np.ndarray:
    """log pmf of the next count at an atom with accumulated parameters.

    ``h(x) * exp(B(xi_eff + phi(x), lam_eff + 1) - B(xi_eff, lam_eff))``;
    proper ``(xi_eff, lam_eff)`` make this a normalized pmf over the
    count support (zero included).  It is one row of the family's
    ``predictive_rows``: without closed forms, the base B and the B of
    every count in the support are the columns of one quadrature.
    """
    xs = np.asarray(x, dtype=np.int64)
    flat = xs.reshape(-1)
    family = family_of(likelihood)
    row = family.predictive_rows(
        np.array([as_xi(xi_eff)]), np.array([float(lam_eff)]), flat, family.log_h_vec(flat)
    )
    return row[0].reshape(xs.shape)[()]


def new_atom_rate(prior: ExpCrmPrior, step, x) -> float:
    """Rate of brand-new traits with count x at observation ``step``.

    This *is* the size-biased rate of round ``step``: a trait first seen
    at step n went unseen for n - 1 steps, which is the round-n size
    biasing.  Kept as a forwarding definition so the identity is
    structural rather than something tests have to re-prove.
    """
    return rate_M(prior, step, x)


@dataclass(frozen=True, slots=True)
class MarginalConfig:
    """Truncation levels for marginal generation.

    New-atom counts above ``x_max`` are dropped from each step's rate row
    (clipped to the support bound when that is smaller); ``eps_tail`` caps
    the running sum of the steps' neglected gaps, which the rate table
    checks at every step and which is the same for every stream.  Existing
    atoms are exact and need no knobs.
    """

    x_max: int = DEFAULT_X_MAX
    eps_tail: float = DEFAULT_EPS_TAIL

    def __post_init__(self):
        _check_truncation(self)


class MarginalSampler(_TruncatedSampler):
    """Generates observation sequences with the trait measure integrated out.

    One stream = one realization; :meth:`stream` yields each step's
    columns (positive counts only, sorted by location, and the newborn
    atoms' counts), and :meth:`sample` builds one
    :class:`~expcrm.measures.ObservationMeasure` per step from them.  Every
    stream takes its rng, and its output is a deterministic function of the
    rng state, with the first n steps independent of how many more are
    consumed.
    """

    def __init__(self, prior: ExpCrmPrior, config: MarginalConfig | None = None):
        super().__init__(prior, config, MarginalConfig)
        self._log_h: dict[int, np.ndarray] = {}  # log h of each walk chunk, by its first count

    def tail_certificate(self, n_steps: int) -> dict:
        """JSON-ready record of what an n-step stream's truncation neglects;
        raises :class:`~expcrm.errors.TailBoundError` when it is over budget."""
        return self.table.stream_certificate(_positive_int("n_steps", n_steps))

    # -- drawing ----------------------------------------------------------

    def _predictive_walk(self, gen, xi: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """One draw per row of the atoms x dim ``xi`` and entry of ``lam`` from its predictive
        pmf, by :func:`~expcrm.exp_family.walk_counts` in the family's chunks."""
        family = self.table.family

        def log_pmf(xs, xi, lam):
            if int(xs[0]) not in self._log_h:
                self._log_h[int(xs[0])] = family.log_h_vec(xs)
            return family.predictive_rows(xi, lam, xs, self._log_h[int(xs[0])])

        return walk_counts(gen, log_pmf, family.chunk, self.prior.likelihood.support_bound, xi, lam)

    def stream(self, rng):
        """The stream's steps as columns, forever, drawn from ``rng`` alone.

        Yields ``(counts, values, born)`` per step: the step's nonzero
        counts (int64) and their location values (float64), both sorted
        by location, and the counts of the atoms born at the step (int64,
        ascending).  Every newborn atom emits a count of at least 1, so
        ``born`` holds the counts at exactly the locations no earlier step
        touched.

        Per step, the rng is consumed in a fixed order: one uniform per
        atom already on the books (fixed atoms in prior order, then
        earlier-born atoms in birth order), then the new-atom count
        (Poisson), counts, and locations.  The stream raises
        :class:`~expcrm.errors.TailBoundError`, from the rate table, at the
        first step whose running sum of neglected gaps passes ``eps_tail``.
        """
        gen = as_generator(rng)
        # the atoms on the books as columns, fixed atoms first, then the
        # new atoms of each step in birth order
        values, xi, lam = self._fixed_values, self._fixed_xi.copy(), self._fixed_lam.copy()
        taken = set(values.tolist())
        n = 0
        while True:
            n += 1
            cdf, _ = self.table.step(n)
            counts = self._predictive_walk(gen, xi, lam)
            if counts.size:
                # every count, zero included, updates its atom's parameters
                xi += self.table.family.phi_rows(counts)
                lam += 1.0
            born = self.table.xs[_superpose(gen, cdf)]
            if born.size:
                new_values = _locations(gen, born.size, taken)
                taken.update(new_values.tolist())
                values = np.concatenate([values, new_values])
                new_xi, new_lam = self.table.weight_params(np.full(born.size, n), born)
                xi = np.concatenate([xi, new_xi])
                lam = np.concatenate([lam, new_lam])
                counts = np.concatenate([counts, born])
            hit = np.flatnonzero(counts)
            order = hit[np.argsort(values[hit])]
            yield counts[order], values[order], born

    def sample(self, n_steps: int, rng) -> list[ObservationMeasure]:
        """The first ``n_steps`` observations of one stream, as measures."""
        steps = islice(self.stream(rng), _positive_int("n_steps", n_steps))
        return [ObservationMeasure(counts, values) for counts, values, _ in steps]

