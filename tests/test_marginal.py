import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from expcrm.catalog import BERNOULLI_BETA, POISSON_GAMMA, get_entry
from expcrm.errors import DomainError, InvalidModelError, TailBoundError
from expcrm.exp_family import ExpCrmPrior, FixedAtomParams
from expcrm.marginal import (
    MarginalConfig,
    MarginalSampler,
    new_atom_rate,
    predictive_logpmf,
    sample_marginal,
)
from expcrm.measures import Location, ObservationMeasure
from expcrm.rng import RngState
from expcrm.size_biased import rate_M

NB = get_entry("negative_binomial", r=2.5)


def gamma_prior(mass=1.0, xi=-1.0, lam=1.0, atoms=()):
    return ExpCrmPrior(POISSON_GAMMA.make_likelihood(), mass, (xi,), lam, atoms)


def beta_prior(mass=1.0, xi=-1.0, lam=1.0, atoms=()):
    return ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), mass, (xi,), lam, atoms)


def unregistered(prior):
    like = dataclasses.replace(prior.likelihood, family="mystery-" + prior.likelihood.family)
    return dataclasses.replace(prior, likelihood=like)


class TestPredictivePmf:
    def test_gamma_predictive_is_negative_binomial(self):
        like = POISSON_GAMMA.make_likelihood()
        xs = np.arange(0, 30)
        got = predictive_logpmf(like, (0.5,), 3.0, xs)
        want = stats.nbinom(n=1.5, p=3.0 / 4.0).logpmf(xs)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_binary_predictive_closed_form(self):
        like = BERNOULLI_BETA.make_likelihood()
        got = np.exp(predictive_logpmf(like, (0.0,), 2.0, np.array([0, 1])))
        # P(1) = (xi_eff + 1) / (lam_eff + 2)
        assert got[1] == pytest.approx(0.25, rel=1e-12)
        assert got.sum() == pytest.approx(1.0, rel=1e-12)

    def test_out_of_support_is_log_zero(self):
        like = BERNOULLI_BETA.make_likelihood()
        got = predictive_logpmf(like, (0.0,), 2.0, np.array([2]))
        assert np.isneginf(got).all()

    def test_generic_path_matches_closed_form(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        xs = np.arange(0, 5)
        got = predictive_logpmf(like, (0.5,), 3.0, xs)
        want = predictive_logpmf(POISSON_GAMMA.make_likelihood(), (0.5,), 3.0, xs)
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_new_atom_rate_is_the_size_biased_rate(self):
        p = gamma_prior(mass=1.7, xi=-1.3, lam=0.8)
        for n, x in [(1, 1), (3, 2), (7, 5)]:
            assert new_atom_rate(p, n, x) == rate_M(p, n, x)


class TestSamplerConstruction:
    def test_invalid_prior_rejected(self):
        with pytest.raises(InvalidModelError, match="A1"):
            MarginalSampler(gamma_prior(xi=-0.5))

    def test_type_validation(self):
        with pytest.raises(DomainError, match="ExpCrmPrior"):
            MarginalSampler(42)
        with pytest.raises(DomainError, match="MarginalConfig"):
            MarginalSampler(gamma_prior(), config=3)

    def test_count_cap_clipped_for_binary(self):
        assert MarginalSampler(beta_prior()).count_cap == 1

    def test_stream_needs_an_rng_somewhere(self):
        s = MarginalSampler(gamma_prior())
        with pytest.raises(DomainError, match="rng"):
            next(s.stream())

    def test_certificate_is_jsonable(self):
        s = MarginalSampler(gamma_prior())
        cert = json.loads(json.dumps(s.tail_certificate(5)))
        assert cert["steps"] == 5
        assert cert["count_cap"] == 50
        assert 0.0 <= cert["neglected_rate"] <= 1e-6
        assert 1 <= cert["worst_step"] <= 5

    def test_binary_certificate_is_exact(self):
        s = MarginalSampler(beta_prior())
        assert s.tail_certificate(10)["neglected_rate"] == 0.0


class TestTailAccounting:
    def test_stream_raises_when_budget_is_spent(self):
        # x_max = 1 for the gamma process neglects ln 2 - 1/2 at step 1 alone
        s = MarginalSampler(gamma_prior(), MarginalConfig(x_max=1, eps_tail=1e-6))
        with pytest.raises(TailBoundError) as exc:
            s.sample(1, RngState(0))
        assert exc.value.certificate["steps"] == 1
        assert exc.value.certificate["neglected_rate"] > 0.1

    def test_budget_is_per_stream_and_cumulative(self):
        # per-step gaps: .1931, .0721, .0379, ...; 0.28 affords two steps
        s = MarginalSampler(gamma_prior(), MarginalConfig(x_max=1, eps_tail=0.28))
        assert len(s.sample(2, RngState(1))) == 2
        with pytest.raises(TailBoundError):
            s.sample(3, RngState(1))
        # a fresh stream starts from a fresh budget
        assert len(s.sample(2, RngState(2))) == 2


class TestStreams:
    def test_prefix_property(self):
        s = MarginalSampler(gamma_prior(), MarginalConfig(x_max=30))
        long = s.sample(6, RngState(5))
        short = s.sample(3, RngState(5))
        assert short == long[:3]

    def test_deterministic_per_state(self):
        s = MarginalSampler(gamma_prior(), MarginalConfig(x_max=30))
        assert s.sample(4, RngState(9)) == s.sample(4, RngState(9))
        assert s.sample(4, RngState(10)) != s.sample(4, RngState(9))

    def test_per_call_rng_leaves_construction_stream_alone(self):
        s1 = MarginalSampler(gamma_prior(), rng=RngState(3))
        s2 = MarginalSampler(gamma_prior(), rng=RngState(3))
        first = s1.sample(3)
        s2.sample(3, RngState(99))
        assert s2.sample(3) == first

    def test_one_shot_convenience_matches_sampler(self):
        cfg = MarginalConfig(x_max=30)
        want = MarginalSampler(gamma_prior(), cfg).sample(4, RngState(21))
        assert sample_marginal(gamma_prior(), 4, RngState(21), cfg) == want

    def test_observation_structure(self):
        atoms = (FixedAtomParams(Location(0.5), (0.5,), 2.0),)
        s = MarginalSampler(gamma_prior(atoms=atoms))
        for obs in s.sample(6, RngState(12)):
            assert isinstance(obs, ObservationMeasure)
            locs = [a.location.value for a in obs.atoms]
            assert locs == sorted(locs)
            assert len(set(locs)) == len(locs)
            assert all(a.count >= 1 for a in obs.atoms)

    def test_sample_validates_n_steps(self):
        s = MarginalSampler(gamma_prior())
        with pytest.raises(DomainError):
            s.sample(0, RngState(1))
        with pytest.raises(DomainError):
            s.sample(2.5, RngState(1))


class TestLawOfTheProcess:
    def test_first_step_counts_are_logarithmic(self):
        # new-atom counts at step 1 of the gamma process at (1, -1, 1)
        # follow M(1, x) / total = (1/ln 2) (1/2)^x / x
        s = MarginalSampler(gamma_prior(), MarginalConfig(x_max=40))
        counts = []
        for i in range(2000):
            first = s.sample(1, RngState(3000 + i))[0]
            counts.extend(a.count for a in first.atoms)
        counts = np.array(counts)
        edges = [1, 2, 3, 4, 5]
        observed = [(counts == e).sum() for e in edges] + [(counts > edges[-1]).sum()]
        pmf = np.array([(0.5**x) / (x * math.log(2.0)) for x in edges])
        expected = np.append(pmf, 1.0 - pmf.sum()) * counts.size
        res = stats.chisquare(observed, expected)
        assert res.pvalue > 0.01

    def test_binary_two_step_law(self):
        # at (1, -1, 1): step-1 atoms reappear at step 2 w.p. 1/4, and
        # K_2 ~ Poisson(B(1, 4)) on fresh locations
        s = MarginalSampler(beta_prior())
        seen = 0
        reemitted = 0
        new_second = 0
        n_streams = 3000
        for i in range(n_streams):
            first, second = s.sample(2, RngState(6000 + i))
            first_locs = {a.location.value for a in first.atoms}
            second_locs = {a.location.value for a in second.atoms}
            seen += len(first_locs)
            reemitted += len(first_locs & second_locs)
            new_second += len(second_locs - first_locs)
        assert seen > 800
        p_hat = reemitted / seen
        assert abs(p_hat - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / seen)
        lam2 = n_streams * 0.25
        assert abs(new_second - lam2) < 4.0 * math.sqrt(lam2)

    def test_fixed_atom_emits_from_its_own_law(self):
        # proper atom (xi=0, lam=2) on the gamma process emits x with
        # pmf nbinom(n=1, p=2/3) at step 1
        atoms = (FixedAtomParams(Location(0.5), (0.0,), 2.0),)
        s = MarginalSampler(gamma_prior(atoms=atoms))
        xs = []
        for i in range(2000):
            first = s.sample(1, RngState(9000 + i))[0]
            xs.append(first.count_at(Location(0.5)))
        xs = np.array(xs)
        pmf = stats.nbinom(n=1.0, p=2.0 / 3.0)
        edges = [0, 1, 2, 3]
        observed = [(xs == e).sum() for e in edges] + [(xs > edges[-1]).sum()]
        expected = np.append(pmf.pmf(edges), pmf.sf(edges[-1])) * xs.size
        res = stats.chisquare(observed, expected)
        assert res.pvalue > 0.01


class TestUnregisteredFamily:
    def test_clone_tables_match_registered(self):
        p = gamma_prior(mass=0.9, xi=-1.2, lam=1.1)
        cfg = MarginalConfig(x_max=10, eps_tail=1e-3)
        sp = MarginalSampler(p, cfg)
        sq = MarginalSampler(unregistered(p), cfg)
        for n in (1, 2):
            cdf_p, gap_p = sp.table.step(n)
            cdf_q, gap_q = sq.table.step(n)
            np.testing.assert_allclose(cdf_q, cdf_p, rtol=1e-7)
            assert gap_q == pytest.approx(gap_p, rel=1e-3, abs=1e-10)

    def test_clone_stream_runs_and_is_deterministic(self):
        p = unregistered(gamma_prior(mass=1.5, xi=-1.2, lam=1.1))
        cfg = MarginalConfig(x_max=10, eps_tail=1e-3)
        s = MarginalSampler(p, cfg)
        run = s.sample(2, RngState(44))
        assert run == s.sample(2, RngState(44))
        for obs in run:
            assert all(a.count >= 1 for a in obs.atoms)


class _FixedUniform:
    def __init__(self, value):
        self._value = value

    def uniform(self):
        return self._value


class TestPredictiveWalk:
    def test_walk_is_exactly_inverse_cdf(self):
        s = MarginalSampler(gamma_prior())
        pmf = stats.nbinom(n=1.0, p=0.5)  # atom params (0, 1): xi+1=1, lam/(lam+1)=1/2
        for u, want in [(0.1, 0), (0.49, 0), (0.51, 1), (0.74, 1), (0.76, 2), (0.99, 6)]:
            got = s._predictive_walk(_FixedUniform(u), (0.0,), 1.0)
            assert got == int(pmf.ppf(u)), (u, got)

    def test_walk_caps_at_the_support_bound(self):
        s = MarginalSampler(beta_prior())
        assert s._predictive_walk(_FixedUniform(1.0 - 1e-16), (0.0,), 2.0) == 1
