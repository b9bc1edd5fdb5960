"""The one conjugate shift: ``phi_rows`` and ``shifted_params`` on every kind of family.

Counts x move a weight law from (xi, lam) to (xi + sum of phi(x), lam + n),
and round m of the size-biased representation is that update after m - 1
zeros and one x.  The fixtures are the four catalog families, a gamma clone
the catalog does not know, the reparametrized Poisson of
``test_general_family.py`` (dim 2 and phi(0) != 0, so the one fixture where
the order of the three terms of the shift shows in the bits) and the
binomial(5)-beta clone of ``test_count_walk.py``.  Each is checked against
its likelihood's own ``phi``, called one count at a time.
"""

import dataclasses

import numpy as np
import pytest

from expcrm.catalog import BERNOULLI_BETA, ODDS_BERNOULLI_BETA_PRIME, POISSON_GAMMA, get_entry
from expcrm.exp_family import ExpCrmPrior, FixedAtomParams, family_of, shifted_params
from expcrm.marginal import MarginalConfig, MarginalSampler
from expcrm.measures import Location
from expcrm.rng import RngState, as_generator
from expcrm.size_biased import _locations, _superpose
from test_count_walk import binomial_beta
from test_general_family import reparametrized_poisson

LIKELIHOODS = {
    "poisson": POISSON_GAMMA.make_likelihood(),
    "bernoulli": BERNOULLI_BETA.make_likelihood(),
    "odds_bernoulli": ODDS_BERNOULLI_BETA_PRIME.make_likelihood(),
    "negative_binomial(2.5)": get_entry("negative_binomial", r=2.5).make_likelihood(),
    "gamma-clone": dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery-poisson"),
    "reparametrized-poisson": reparametrized_poisson(),
    "binomial(5)-beta": binomial_beta(),
}
# the counts 0..20 out of order, with repeats
COUNTS = [7, 0, 20, 3, 12, 0, 19, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 7, 20]
# xi components whose sums with phi round differently in different orders
XI = (1.0 / 3.0, 0.1)


@pytest.mark.parametrize("name", sorted(LIKELIHOODS))
def test_phi_rows_is_phi_row_by_row(name):
    like = LIKELIHOODS[name]
    family = family_of(like)
    rows = family.phi_rows(np.array(COUNTS))
    assert rows.dtype == np.float64 and rows.shape == (len(COUNTS), like.dim)
    assert rows.tolist() == [[float(p) for p in like.phi(x)] for x in COUNTS]
    assert family.phi_rows(COUNTS).tolist() == rows.tolist()
    assert family.phi_rows(np.empty(0, dtype=np.int64)).shape == (0, like.dim)


@pytest.mark.parametrize("name", sorted(LIKELIHOODS))
def test_shifted_params_is_the_scalar_formula_bit_for_bit(name):
    like = LIKELIHOODS[name]
    xi, lam = XI[: like.dim], 1.1
    pairs = [(m, x) for m in range(1, 7) for x in range(7)]
    rounds, counts = np.array(pairs).T
    xi_rows, lams = shifted_params(family_of(like), xi, lam, rounds, counts)
    assert xi_rows.shape == (len(pairs), like.dim) and lams.shape == (len(pairs),)
    for row, q, (m, x) in zip(xi_rows.tolist(), lams.tolist(), pairs):
        phis = zip(xi, like.phi(x), like.phi(0))
        want = [xj + float(px) + (m - 1) * float(p0) for xj, px, p0 in phis]
        assert [v.hex() for v in row] == [v.hex() for v in want]
        assert q.hex() == (lam + float(m)).hex()


def test_the_order_of_the_terms_shows_on_the_reparametrized_poisson():
    """The fixture above tells (xi + phi(x)) + (m - 1) phi(0) from xi + (phi(x) + (m - 1) phi(0))."""
    like = LIKELIHOODS["reparametrized-poisson"]
    p0 = float(like.phi(0)[0])
    terms = [(float(like.phi(x)[0]), (m - 1) * p0) for m in range(1, 7) for x in range(7)]
    assert any(XI[0] + px + tail != XI[0] + (px + tail) for px, tail in terms)


def reference_stream(sampler, rng, n_steps):
    """The stream's columns with every parameter update written per atom.

    An atom on the books adds ``like.phi(x)`` of its count, one count at a
    time; a newborn atom of step n with count x gets xi + phi(x) + (n - 1)
    phi(0) and lam + n.  The walk, the superposition and the locations are
    the sampler's own, so the rng is read as the stream reads it.
    """
    gen = as_generator(rng)
    prior, like = sampler.prior, sampler.prior.likelihood
    values, xi, lam = sampler._fixed_values, sampler._fixed_xi.copy(), sampler._fixed_lam.copy()
    taken = set(values.tolist())
    steps = []
    for n in range(1, n_steps + 1):
        cdf, _ = sampler.table.step(n)
        counts = sampler._predictive_walk(gen, xi, lam)
        for i, x in enumerate(counts.tolist()):
            xi[i] = [a + float(p) for a, p in zip(xi[i].tolist(), like.phi(x))]
        lam = lam + 1.0
        born = sampler.table.xs[_superpose(gen, cdf)]
        if born.size:
            new_values = _locations(gen, born.size, taken)
            taken.update(new_values.tolist())
            values = np.concatenate([values, new_values])
            phi0 = like.phi(0)
            new_xi = [
                [a + float(p) + (n - 1) * float(p0) for a, p, p0 in zip(prior.xi, like.phi(x), phi0)]
                for x in born.tolist()
            ]
            xi = np.concatenate([xi, np.array(new_xi).reshape(born.size, like.dim)])
            lam = np.concatenate([lam, prior.lam + np.full(born.size, float(n))])
            counts = np.concatenate([counts, born])
        hit = np.flatnonzero(counts)
        order = hit[np.argsort(values[hit])]
        steps.append((counts[order], values[order], born))
    return steps


STREAM_PRIORS = {
    "gamma-clone": ExpCrmPrior(
        LIKELIHOODS["gamma-clone"], 2.0, (-1.2,), 1.1,
        (FixedAtomParams(Location(0.5), (1.5,), 1.0), FixedAtomParams(Location(0.25), (3.0,), 2.5)),
    ),
    "binomial(5)-beta": ExpCrmPrior(
        LIKELIHOODS["binomial(5)-beta"], 2.0, (-1.5,), 1.0,
        (FixedAtomParams(Location(0.5), (1.0,), 1.0), FixedAtomParams(Location(0.75), (2.0,), 1.5)),
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_PRIORS))
def test_stream_shifts_as_a_per_count_loop(name):
    sampler = MarginalSampler(STREAM_PRIORS[name], MarginalConfig(x_max=16, eps_tail=1e-5))
    for seed in range(2):
        want = reference_stream(sampler, RngState(seed, 1), 6)
        got = [step for step, _ in zip(sampler.stream(RngState(seed, 1)), range(6))]
        assert sum(born.size for _, _, born in got) > 0
        for step, ref in zip(got, want):
            assert [c.dtype for c in step] == [c.dtype for c in ref]
            assert [c.tobytes() for c in step] == [c.tobytes() for c in ref]
