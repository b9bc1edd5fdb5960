import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from expcrm.catalog import BERNOULLI_BETA, ODDS_BERNOULLI_BETA_PRIME, POISSON_GAMMA, get_entry
from expcrm.checks import run_suite
from expcrm.errors import DomainError, InvalidObservationError
from expcrm.exp_family import ExpCrmPrior, FixedAtomParams
from expcrm.marginal import MarginalSampler
from expcrm.measures import (
    Location,
    ObservationAtom,
    ObservationMeasure,
    observation_jsonl_line,
    trait_jsonl_line,
)
from expcrm.posterior import (
    PosteriorCrm,
    iterated_equals_batch,
    posterior_fixed_atom_density,
    posterior_update,
)
from expcrm.rng import RngState
from expcrm.size_biased import SizeBiasedConfig, SizeBiasedSampler, rate_M, round_total

NB = get_entry("negative_binomial", r=2.5)


def obs(pairs):
    return ObservationMeasure([c for _, c in pairs], [v for v, _ in pairs])


def gamma_prior(mass=2.0, xi=-1.5, lam=1.0, atoms=()):
    return ExpCrmPrior(POISSON_GAMMA.make_likelihood(), mass, (xi,), lam, atoms)


class TestUpdateAlgebra:
    def test_fresh_locations(self):
        post = posterior_update(gamma_prior(), [obs([(0.7, 1), (0.3, 2)]), obs([(0.3, 1)])])
        assert post.n_obs == 2
        assert post.mass == 2.0
        assert post.xi == (-1.5,)
        assert post.lam == 3.0
        locs = [a.location.value for a in post.fixed_atoms]
        assert locs == [0.3, 0.7]
        a03, a07 = post.fixed_atoms
        assert a03.xi == (1.5,) and a03.lam == 3.0
        # untouched by the second observation: phi(0) = 0 but lam still moves
        assert a07.xi == (-0.5,) and a07.lam == 3.0

    def test_prior_atoms_updated_in_place(self):
        prior = gamma_prior(
            atoms=(
                FixedAtomParams(Location(0.9), (0.5,), 2.0),
                FixedAtomParams(Location(0.1), (0.0,), 1.0),
            )
        )
        post = posterior_update(prior, [obs([(0.9, 3), (0.5, 1)])])
        locs = [a.location.value for a in post.fixed_atoms]
        # prior order first, then fresh locations ascending
        assert locs == [0.9, 0.1, 0.5]
        assert post.fixed_atoms[0].xi == (3.5,)
        assert post.fixed_atoms[0].lam == 3.0
        assert post.fixed_atoms[1].xi == (0.0,)
        assert post.fixed_atoms[1].lam == 2.0
        assert post.fixed_atoms[2].xi == (-0.5,)
        assert post.fixed_atoms[2].lam == 2.0

    def test_empty_batch_is_identity(self):
        prior = gamma_prior(atoms=(FixedAtomParams(Location(0.4), (0.5,), 2.0),))
        post = posterior_update(prior, [])
        assert post.n_obs == 0
        assert post.mass == prior.mass
        assert post.xi == prior.xi and post.lam == prior.lam
        assert post.fixed_atoms == prior.fixed_atoms

    def test_observation_count_accumulates(self):
        post1 = posterior_update(gamma_prior(), [obs([(0.3, 1)])])
        post2 = posterior_update(post1, [obs([(0.3, 2)]), obs([])])
        assert post2.n_obs == 3
        assert post2.lam == 4.0
        assert post2.atom_at(Location(0.3)).xi == (1.5,)
        assert post2.atom_at(Location(0.3)).lam == 4.0

    def test_empty_observation_still_counts(self):
        post = posterior_update(gamma_prior(), [obs([]), obs([])])
        assert post.n_obs == 2
        assert post.lam == 3.0
        assert post.fixed_atoms == ()

    def test_as_prior_round_trip(self):
        post = posterior_update(gamma_prior(), [obs([(0.3, 1)])])
        again = posterior_update(post.as_prior(), [obs([(0.3, 2)])])
        assert again.n_obs == 1
        assert again.atom_at(Location(0.3)).xi == (post.atom_at(Location(0.3)).xi[0] + 2.0,)

    def test_binary_counts(self):
        prior = ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), 1.0, (-1.0,), -1.0)
        post = posterior_update(prior, [obs([(0.2, 1)]), obs([]), obs([(0.2, 1)])])
        atom = post.atom_at(Location(0.2))
        assert atom.xi == (1.0,)
        assert atom.lam == 2.0
        assert post.lam == 2.0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            posterior_update("prior", [])
        with pytest.raises(DomainError):
            posterior_update(gamma_prior(), [ObservationAtom(1, Location(0.3))])
        with pytest.raises(DomainError):
            PosteriorCrm(POISSON_GAMMA.make_likelihood(), 1.0, (-1.5,), 1.0, (), -1)
        with pytest.raises(DomainError):
            PosteriorCrm(POISSON_GAMMA.make_likelihood(), 1.0, (-1.5,), 1.0, (), True)

    def test_support_bound_enforced(self):
        prior = ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), 1.0, (-1.0,), -1.0)
        with pytest.raises(InvalidObservationError, match="observation 0 has count 2"):
            posterior_update(prior, [obs([(0.2, 2)])])
        # the first offender is named: observation 1's first atom, not observation 3's
        data = [obs([(0.1, 1), (0.4, 1)]), obs([(0.3, 3), (0.2, 1)]), obs([]), obs([(0.5, 2)])]
        with pytest.raises(
            InvalidObservationError, match=r"observation 1 has count 3 at location 0\.3,"
        ):
            posterior_update(prior, data)
        # unbounded supports take any count
        posterior_update(gamma_prior(), [obs([(0.2, 40)])])

    def test_atom_lookup(self):
        post = posterior_update(gamma_prior(), [obs([(0.3, 1)])])
        assert post.atom_at(0.3).lam == 2.0
        with pytest.raises(DomainError, match="no fixed atom"):
            post.atom_at(Location(0.5))


class TestPosteriorDensity:
    def test_gamma_atom_is_gamma_law(self):
        post = posterior_update(gamma_prior(), [obs([(0.3, 2)]), obs([(0.3, 1)])])
        atom = post.atom_at(Location(0.3))
        th = np.array([0.2, 0.7, 1.9])
        got = posterior_fixed_atom_density(post, Location(0.3), th)
        want = stats.gamma(a=atom.xi[0] + 1.0, scale=1.0 / atom.lam).pdf(th)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_binary_atom_is_beta_law(self):
        prior = ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), 1.0, (-1.0,), -1.0)
        post = posterior_update(prior, [obs([(0.2, 1)]), obs([(0.2, 1)]), obs([])])
        atom = post.atom_at(Location(0.2))
        th = np.array([0.1, 0.5, 0.9])
        got = posterior_fixed_atom_density(post, Location(0.2), th)
        # two successes, one failure on (xi, lam) = (-1, -1): Beta(2, 2)
        np.testing.assert_allclose(got, stats.beta(2.0, 2.0).pdf(th), rtol=1e-12)


def random_model_and_data(seed):
    rng = np.random.default_rng(seed)
    kind = rng.choice(["poisson", "bernoulli", "odds_bernoulli", "negative_binomial"])
    entry = get_entry(kind, r=float(rng.uniform(0.3, 3.0))) if kind == "negative_binomial" else get_entry(kind)
    xi0 = float(rng.uniform(-1.9, -1.05))
    if kind == "poisson":
        lam = float(rng.uniform(0.2, 3.0))
    elif kind == "bernoulli":
        lam = float(xi0 - 1.0 + rng.uniform(0.15, 3.0))
    elif kind == "odds_bernoulli":
        lam = float(xi0 + 1.0 + rng.uniform(0.15, 3.0))
    else:
        lam = float((-1.0 + rng.uniform(0.15, 3.0)) / entry.r)
    n_fixed = int(rng.integers(0, 3))
    atoms = []
    for loc in rng.uniform(0.0, 1.0, size=n_fixed):
        fxi = float(rng.uniform(-0.9, 2.0))
        if kind == "poisson":
            flam = float(rng.uniform(0.2, 3.0))
        elif kind == "bernoulli":
            flam = float(fxi - 1.0 + rng.uniform(0.15, 3.0))
        elif kind == "odds_bernoulli":
            flam = float(fxi + 1.0 + rng.uniform(0.15, 3.0))
        else:
            flam = float((-1.0 + rng.uniform(0.15, 3.0)) / entry.r)
        atoms.append(FixedAtomParams(Location(float(loc)), (fxi,), flam))
    prior = ExpCrmPrior(
        entry.make_likelihood(), float(rng.uniform(0.5, 3.0)), (xi0,), lam, tuple(atoms)
    )
    cap = 1 if entry.make_likelihood().support_bound == 1 else 6
    observations = []
    for _ in range(int(rng.integers(1, 5))):
        n_atoms = int(rng.integers(0, 4))
        locs = list({float(v) for v in rng.uniform(0.0, 1.0, size=n_atoms)})
        observations.append(
            obs([(v, int(rng.integers(1, cap + 1))) for v in locs])
        )
    return prior, observations


@pytest.mark.parametrize("seed", range(25))
def test_iterated_equals_batch_random_models(seed):
    prior, observations = random_model_and_data(seed)
    assert iterated_equals_batch(prior, observations)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(
        st.lists(st.tuples(st.sampled_from([0.1, 0.3, 0.5, 0.7]), st.integers(1, 5)), max_size=3),
        min_size=1,
        max_size=4,
    ),
    perm_seed=st.integers(0, 2**16),
)
def test_batch_update_is_exchangeable(counts, perm_seed):
    observations = []
    for pairs in counts:
        dedup = {}
        for v, c in pairs:
            dedup[v] = c
        observations.append(obs(sorted(dedup.items())))
    prior = gamma_prior()
    batch = posterior_update(prior, observations)
    shuffled = list(observations)
    np.random.default_rng(perm_seed).shuffle(shuffled)
    other = posterior_update(prior, shuffled)
    # fsum makes each component sum exact, so any order gives identical floats
    assert batch.mass == other.mass
    assert batch.xi == other.xi and batch.lam == other.lam
    assert {a.location.value: (a.xi, a.lam) for a in batch.fixed_atoms} == {
        a.location.value: (a.xi, a.lam) for a in other.fixed_atoms
    }


def unregistered(prior):
    like = dataclasses.replace(prior.likelihood, family="mystery-" + prior.likelihood.family)
    return dataclasses.replace(prior, likelihood=like)


def per_atom_reference(prior, observations):
    """Fixed atoms as (location, xi, lam): per-atom dict grouping, fsum sums."""
    like, n = prior.likelihood, len(observations)
    counts_at = {}
    for o in observations:
        for a in o.atoms:
            counts_at.setdefault(a.location.value, []).append(a.count)

    def shifted(xi, lam, counts):
        terms = [like.phi(0)] * (n - len(counts)) + [like.phi(c) for c in counts]
        return (
            tuple(math.fsum([xi[j]] + [float(t[j]) for t in terms]) for j in range(like.dim)),
            lam + n,
        )

    out = [
        (a.location.value, *shifted(a.xi, a.lam, counts_at.get(a.location.value, [])))
        for a in prior.fixed_atoms
    ]
    known = {a.location.value for a in prior.fixed_atoms}
    for value in sorted(counts_at.keys() - known):
        out.append((value, *shifted(prior.xi, prior.lam, counts_at[value])))
    return out


@pytest.mark.parametrize("clone", [False, True], ids=["catalog", "unregistered"])
def test_fixed_atoms_match_per_atom_reference(clone):
    rng = np.random.default_rng(11)
    prior = gamma_prior(
        atoms=(
            FixedAtomParams(Location(0.625), (0.5,), 2.0),
            FixedAtomParams(Location(0.125), (1.25,), 0.75),
        )
    )
    if clone:
        prior = unregistered(prior)
    pool = [0.625, 0.125] + rng.uniform(0.0, 1.0, size=30).tolist()
    observations = [
        obs([(v, int(rng.integers(1, 9))) for v in rng.choice(pool, size=k, replace=False)])
        for k in rng.integers(0, 12, size=60)
    ]
    post = posterior_update(prior, observations)
    got = [(a.location.value, a.xi, a.lam) for a in post.fixed_atoms]
    assert got == per_atom_reference(prior, observations)


# --- a posterior is a prior -----------------------------------------------------

# (entry, mass, xi, lam): each catalog family, given the fixed atom FIXED
FAMILIES = {
    "gamma": (POISSON_GAMMA, 2.0, -1.5, 1.0),
    "beta": (BERNOULLI_BETA, 2.0, -1.0, 1.0),
    "beta-prime": (ODDS_BERNOULLI_BETA_PRIME, 2.0, -1.3, 1.2),
    "negative-binomial": (NB, 2.0, -1.5, 3.0),
}
FIXED = FixedAtomParams(Location(0.625), (0.5,), 2.0)
N_OBS = 6


def catalog_posterior(name, seed, like=None):
    """A catalog prior with one fixed atom, and its posterior after N_OBS of its own observations.

    ``like`` replaces the prior's likelihood (an unregistered clone of it)
    after the observations are drawn.
    """
    entry, mass, xi, lam = FAMILIES[name]
    prior = ExpCrmPrior(entry.make_likelihood(), mass, (xi,), lam, (FIXED,))
    data = MarginalSampler(prior).sample(N_OBS, RngState(seed, 0))
    if like is not None:
        prior = dataclasses.replace(prior, likelihood=like)
    return prior, posterior_update(prior, data)


def test_posterior_declares_only_its_count():
    extra = {f.name for f in dataclasses.fields(PosteriorCrm)}
    extra -= {f.name for f in dataclasses.fields(ExpCrmPrior)}
    assert extra == {"n_obs"}
    assert isinstance(posterior_update(gamma_prior(), [obs([(0.3, 1)])]), ExpCrmPrior)


def outputs(model, seed):
    """One size-biased draw, a five-step marginal stream and the assumption reports, as text."""
    draw = SizeBiasedSampler(model, SizeBiasedConfig(m_max=20)).draw(RngState(seed, 1))
    stream = MarginalSampler(model).sample(5, RngState(seed, 2))
    reports = [r.to_jsonable() for r in run_suite(model, "assumptions")]
    return (
        trait_jsonl_line(0, draw),
        "".join(observation_jsonl_line(0, n, o.counts, o.locations) for n, o in enumerate(stream)),
        json.dumps(reports),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_samplers_and_checks_take_a_posterior(name, seed):
    _, post = catalog_posterior(name, seed)
    assert len(post.fixed_atoms) > 1
    assert outputs(post, seed) == outputs(post.as_prior(), seed)


def assert_rounds_continue(prior, post, rel):
    """Round m of the posterior's ordinary component is round N + m of the prior's."""
    bound = prior.likelihood.support_bound or 3
    n = post.n_obs
    for m in (1, 2, 5):
        assert round_total(post, m) == pytest.approx(round_total(prior, n + m), rel=rel)
        for x in range(1, bound + 1):
            assert rate_M(post, m, x) == pytest.approx(rate_M(prior, n + m, x), rel=rel)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_posterior_rounds_continue_the_prior_rounds(name):
    assert_rounds_continue(*catalog_posterior(name, 0), rel=1e-13)


def test_clone_posterior_rounds_continue_the_prior_rounds():
    like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery-poisson")
    assert_rounds_continue(*catalog_posterior("gamma", 0, like), rel=1e-12)
