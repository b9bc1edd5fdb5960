"""Closed-form posterior updates for conjugate trait-measure models.

Observing N count measures against a conjugate prior returns another
model of the same shape: every touched location becomes (or updates) a
fixed atom whose hyperparameters absorb the sufficient statistics, and
the ordinary component keeps its own kernel with shifted parameters.
So a ``PosteriorCrm`` is an ``ExpCrmPrior``: every sampler, rate table
and check that takes a prior takes a posterior, and conditioning it on
more data continues the update.
The update is exchangeable: each component of a shifted xi is an fsum of
the family's ``phi_rows``, so feeding observations one at a time or all
at once lands on the same posterior; ``iterated_equals_batch`` checks
that identity on concrete data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidObservationError
from .exp_family import ExpCrmPrior, FixedAtomParams, family_of, fixed_atom_density
from .measures import Location, ObservationMeasure

__all__ = [
    "PosteriorCrm",
    "posterior_update",
    "posterior_fixed_atom_density",
    "iterated_equals_batch",
]


@dataclass(frozen=True)
class PosteriorCrm(ExpCrmPrior):
    """A posterior trait-measure model: an ``ExpCrmPrior`` that counts its data.

    ``fixed_atoms`` lists the prior's atoms first (updated in place),
    then the locations the data introduced, in ascending location order.
    """

    n_obs: int = 0  # a default only because the prior's last field has one

    def __post_init__(self):
        if isinstance(self.n_obs, bool) or not isinstance(self.n_obs, int) or self.n_obs < 0:
            raise DomainError(f"n_obs must be an integer >= 0, got {self.n_obs!r}")
        super().__post_init__()

    def as_prior(self) -> ExpCrmPrior:
        """The same model without its observation count."""
        return ExpCrmPrior(self.likelihood, self.mass, self.xi, self.lam, self.fixed_atoms)

    def atom_at(self, location: Location) -> FixedAtomParams:
        if not isinstance(location, Location):
            location = Location(location)
        for atom in self.fixed_atoms:
            if atom.location.value == location.value:
                return atom
        raise DomainError(f"no fixed atom at location {location.value}")


def _shifted(
    family, xi: tuple[float, ...], lam: float, counts: list[int], n: int
) -> tuple[tuple[float, ...], float]:
    """(xi + sum of phi(x) over n counts, lam + n), each component summed with fsum.

    ``counts`` lists the nonzero counts; the other n - len(counts) are
    zeros.  The terms come from the family's ``phi_rows``; fsum rounds the
    exact sum once, so the order of the terms does not change the result.
    """
    zeros = n - len(counts)
    phi0, phis = family.phi_rows([0])[0].tolist(), family.phi_rows(counts).T.tolist()
    xi_new = tuple(math.fsum([x, *[p0] * zeros, *col]) for x, p0, col in zip(xi, phi0, phis))
    return xi_new, lam + float(n)


def posterior_update(model: ExpCrmPrior, observations) -> PosteriorCrm:
    """Condition a model on a batch of observation measures.

    ``model`` may be any ``ExpCrmPrior``; when it is a ``PosteriorCrm``
    the observation counter keeps accumulating.  Every location some
    observation touches gets a fixed atom; a count of zero at a
    touched-elsewhere location still contributes phi(0) and one unit of
    lam, exactly like an explicit zero observation.
    """
    if not isinstance(model, ExpCrmPrior):
        raise DomainError(f"model must be a prior or posterior, got {type(model).__name__}")
    n_seen = model.n_obs if isinstance(model, PosteriorCrm) else 0
    observations = tuple(observations)
    like = model.likelihood
    family = family_of(like)
    n = len(observations)

    for i, obs in enumerate(observations):
        if not isinstance(obs, ObservationMeasure):
            raise DomainError(
                f"observation {i} must be an ObservationMeasure, got {type(obs).__name__}"
            )
    counts = np.concatenate([np.empty(0, np.int64), *(obs.counts for obs in observations)])
    values = np.concatenate([np.empty(0), *(obs.locations for obs in observations)])
    # counts are >= 1, so only a bounded support can reject one
    over = np.flatnonzero(counts > like.support_bound) if like.support_bound is not None else []
    if len(over):
        k = over[0]
        i = np.searchsorted(np.cumsum([obs.counts.size for obs in observations]), k, side="right")
        raise InvalidObservationError(
            f"observation {i} has count {counts[k]} at location {values[k]}, "
            f"outside the support of {like.family} (bound {like.support_bound})"
        )

    # each location's counts in observation order, one per observation that touched it
    order = np.argsort(values, kind="stable")
    keys, starts = np.unique(values[order], return_index=True)
    grouped, ends = counts[order].tolist(), [*starts.tolist()[1:], counts.size]
    counts_at = {v: grouped[a:b] for v, a, b in zip(keys.tolist(), starts.tolist(), ends)}

    # the prior's fixed atoms in their order, then the fresh locations, ascending
    known = {atom.location.value for atom in model.fixed_atoms}
    sites = [(atom.location, atom.xi, atom.lam) for atom in model.fixed_atoms]
    sites += [(Location(v), model.xi, model.lam) for v in counts_at if v not in known]
    atoms = tuple(
        FixedAtomParams(loc, *_shifted(family, xi, lam, counts_at.get(loc.value, []), n))
        for loc, xi, lam in sites
    )

    # ordinary component: N zero-count observations everywhere else
    mass_new = model.mass * math.exp(n * like.log_h(0))
    xi_ord, lam_ord = _shifted(family, model.xi, model.lam, [], n)
    return PosteriorCrm(like, mass_new, xi_ord, lam_ord, atoms, n_seen + n)


def posterior_fixed_atom_density(posterior: PosteriorCrm, location, theta):
    """Posterior weight density at one of the posterior's fixed atoms."""
    atom = posterior.atom_at(location)
    return fixed_atom_density(posterior.likelihood, atom.xi, atom.lam, theta)


def _close(a: float, b: float, rel_tol: float) -> bool:
    return a == b or abs(a - b) <= rel_tol * max(abs(a), abs(b))


def iterated_equals_batch(prior: ExpCrmPrior, observations, rel_tol: float = 1e-12) -> bool:
    """Whether one-at-a-time conditioning matches the single batch update.

    Atom order may legitimately differ between the two routes (fresh
    locations are appended per update), so atoms are compared as maps
    from location to hyperparameters. Numbers are compared exactly or
    to ``rel_tol`` relative error: the two routes sum the same terms in
    different orders.
    """
    observations = tuple(observations)
    batch = posterior_update(prior, observations)
    step = posterior_update(prior, observations[:1])
    for obs in observations[1:]:
        step = posterior_update(step, [obs])

    def numbers(post):
        """Model-level numbers, and each fixed atom's (lam, *xi) by location."""
        atoms = {a.location.value: (a.lam, *a.xi) for a in post.fixed_atoms}
        return (post.mass, post.lam, *post.xi), atoms

    (top, atoms), (top_step, atoms_step) = numbers(batch), numbers(step)
    pairs = [(top, top_step)] + [(atoms[v], atoms_step.get(v, ())) for v in atoms]
    return (
        batch.n_obs == step.n_obs
        and atoms.keys() == atoms_step.keys()
        and all(len(a) == len(b) for a, b in pairs)
        and all(_close(x, y, rel_tol) for a, b in pairs for x, y in zip(a, b))
    )
