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

Emitted counts feed straight back into each atom's parameters, so a run of
this sampler is its own conjugate filter: after n steps an atom's
parameters match what :func:`expcrm.posterior.posterior_update` would
compute from the emitted observations.

Step n's new-atom rates are row n of the sampler's
:class:`~expcrm.size_biased.RateTable`, the table the size-biased sampler
draws from; a row is computed the first time a stream reaches its step and
shared by every later stream.  The neglected-rate budget is tracked per
stream, since each stream is one realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .catalog import entry_for
from .errors import QuadratureError, TailBoundError
from .exp_family import ExpCrmLikelihood, ExpCrmPrior, _kernel_logs, as_xi, xi_plus
from .measures import ObservationMeasure
from .size_biased import (
    _check_truncation,
    _locations,
    _positive_int,
    _TruncatedSampler,
    rate_M,
    weight_dist_params,
)

__all__ = [
    "MarginalConfig",
    "MarginalSampler",
    "new_atom_rate",
    "predictive_logpmf",
    "sample_marginal",
]


def predictive_logpmf(likelihood: ExpCrmLikelihood, xi_eff, lam_eff: float, x) -> np.ndarray:
    """log pmf of the next count at an atom with accumulated parameters.

    ``h(x) * exp(B(xi_eff + phi(x), lam_eff + 1) - B(xi_eff, lam_eff))``;
    proper ``(xi_eff, lam_eff)`` make this a normalized pmf over the
    count support (zero included).  Without closed forms, the base B and
    the B of every count in the support are the columns of one quadrature.
    """
    xi_eff = as_xi(xi_eff)
    xs = np.asarray(x, dtype=np.int64)
    entry = entry_for(likelihood)
    if entry is not None:
        return entry.predictive_logpmf(xi_eff[0], float(lam_eff), xs)
    flat = xs.reshape(-1)
    inside = np.array([likelihood.in_support(int(v)) for v in flat], dtype=bool)
    out = np.full(flat.shape, -math.inf)
    if inside.any():
        counts = flat[inside].tolist()
        lam = float(lam_eff)
        log_B = _kernel_logs(
            likelihood,
            [xi_eff] + [xi_plus(xi_eff, likelihood.phi(v)) for v in counts],
            [lam] + [lam + 1.0] * len(counts),
            name=f"B[{likelihood.family}]",
        )
        out[inside] = np.array([likelihood.log_h(v) for v in counts]) + log_B[1:] - log_B[0]
    return out.reshape(xs.shape)


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
    the neglected rate accumulated over one stream.  Existing atoms are
    exact and need no knobs.
    """

    x_max: int = 50
    eps_tail: float = 1e-6

    def __post_init__(self):
        _check_truncation(self)


class MarginalSampler(_TruncatedSampler):
    """Generates observation sequences with the trait measure integrated out.

    One stream = one realization; :meth:`stream` yields one
    :class:`~expcrm.measures.ObservationMeasure` per step (positive counts
    only, atoms sorted by location).  The rng can be fixed at construction
    or passed per stream, and a stream's output is a deterministic
    function of the rng state, with the first n steps independent of how
    many more are consumed.
    """

    def __init__(self, prior: ExpCrmPrior, config: MarginalConfig | None = None, rng=None):
        super().__init__(prior, config, rng, MarginalConfig)
        self._log_h: dict[int, np.ndarray] = {}  # log h of each walk chunk, by its first count

    def tail_certificate(self, n_steps: int) -> dict:
        """JSON-ready record of what an n-step stream's truncation neglects."""
        return self.table.stream_certificate(_positive_int("n_steps", n_steps))

    # -- drawing ----------------------------------------------------------

    def _predictive_walk(self, gen, xi: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """One exact draw from each atom's predictive pmf by inverse-cdf walk.

        Row i of the atoms x dim array ``xi`` and entry i of ``lam`` hold
        atom i's accumulated parameters.  The atoms take one uniform each,
        in row order, from a single draw (none when there are no atoms),
        and walk their cdfs together, one chunk of counts at a time; each
        row sums its own chunks, so it returns the count a walk of that
        atom alone would.  For catalog families log h of a chunk's counts
        is computed once per sampler.
        """
        out = np.empty(lam.size, dtype=np.int64)
        if lam.size == 0:
            return out
        u = gen.uniform(size=lam.size)[:, None]
        like = self.prior.likelihood
        entry = self.table.entry
        bound = like.support_bound
        chunk = 64 if entry is not None else 8
        rows = np.arange(lam.size)
        lam = lam[:, None]
        acc = 0.0
        start = 0
        while True:
            stop = start + chunk if bound is None else min(start + chunk, bound + 1)
            xs = np.arange(start, stop)
            if entry is not None:
                log_h = self._log_h.get(start)
                if log_h is None:
                    log_h = self._log_h[start] = entry.log_h_vec(xs)
                logpmf = entry.predictive_logpmf(xi[:, :1], lam, xs, log_h=log_h)
            else:
                logpmf = np.array(
                    [predictive_logpmf(like, x, l, xs) for x, l in zip(xi, lam[:, 0])]
                )
            cum = acc + np.cumsum(np.exp(logpmf), axis=1)
            idx = (cum <= u).sum(axis=1)  # a right-sided searchsorted per row
            out[rows] = start + idx
            if idx.max() < xs.size:
                return out
            going = idx == xs.size
            rows, xi, lam, u, acc = rows[going], xi[going], lam[going], u[going], cum[going, -1:]
            if bound is not None and stop > bound:
                out[rows] = bound  # u fell in the last float ulp of the cdf
                return out
            start = stop
            if start > 10**6:
                raise QuadratureError("predictive walk failed to accumulate to 1")

    def _steps(self, rng=None):
        """The stream's steps as columns, forever.

        Yields ``(counts, values, born)`` per step: the step's nonzero
        counts (int64) and their location values (float64), both sorted
        by location, and the number of atoms born at the step.  Every
        newborn atom emits a count of at least 1, so ``born`` is also the
        number of locations no earlier step touched.  The rng order and
        the tail check are :meth:`stream`'s.
        """
        gen = self._generator(rng)
        prior = self.prior
        like = prior.likelihood
        # the atoms on the books as columns, fixed atoms first, then the
        # new atoms of each step in birth order
        fixed = prior.fixed_atoms
        values = np.array([fa.location.value for fa in fixed], dtype=float)
        xi = np.array([fa.xi for fa in fixed], dtype=float).reshape(len(fixed), like.dim)
        lam = np.array([fa.lam for fa in fixed], dtype=float)
        taken = set(values.tolist())
        neglected = 0.0
        n = 0
        while True:
            n += 1
            cdf, gap = self.table.step(n)
            neglected += gap
            if neglected > self.config.eps_tail:
                raise TailBoundError(
                    f"marginal stream reached step {n} with cumulative neglected "
                    f"new-atom rate {neglected:.3e} > eps_tail = "
                    f"{self.config.eps_tail:.3e}; raise x_max or loosen eps_tail",
                    certificate=self.tail_certificate(n),
                )
            counts = self._predictive_walk(gen, xi, lam)
            if counts.size:
                # every count, zero included, updates its atom's parameters
                xi += np.array([like.phi(x) for x in counts.tolist()])
                lam += 1.0
            total = float(cdf[-1])
            k = int(gen.poisson(total))
            if k > 0:
                u = gen.uniform(0.0, total, size=k)
                born = self.table.xs[
                    np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
                ]
                born.sort()
                new_values = _locations(gen, k, taken)
                taken.update(new_values.tolist())
                values = np.concatenate([values, new_values])
                params = [weight_dist_params(prior, n, c) for c in born.tolist()]
                xi = np.concatenate([xi, np.array([p for p, _ in params])])
                lam = np.concatenate([lam, [q for _, q in params]])
                counts = np.concatenate([counts, born])
            hit = np.flatnonzero(counts)
            order = hit[np.argsort(values[hit])]
            yield counts[order], values[order], k

    def stream(self, rng=None):
        """Yield one ObservationMeasure per step, forever.

        Per step, the rng is consumed in a fixed order: one uniform per
        atom already on the books (fixed atoms in prior order, then
        earlier-born atoms in birth order), then the new-atom count
        (Poisson), counts, and locations.  The stream raises
        :class:`~expcrm.errors.TailBoundError` at the step where the
        cumulative neglected new-atom rate would pass ``eps_tail``.
        """
        for counts, values, _ in self._steps(rng):
            yield ObservationMeasure.from_arrays(counts, values)

    def sample(self, n_steps: int, rng=None) -> list[ObservationMeasure]:
        """The first ``n_steps`` observations of one stream."""
        return list(islice(self.stream(rng), _positive_int("n_steps", n_steps)))


def sample_marginal(
    prior: ExpCrmPrior, n_steps: int, rng, config: MarginalConfig | None = None
) -> list[ObservationMeasure]:
    """Build a sampler and generate one n-step observation sequence."""
    return MarginalSampler(prior, config=config).sample(n_steps, rng)
