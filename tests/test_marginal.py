import dataclasses
import json
import math
from itertools import islice

import numpy as np
import pytest
from scipy import stats

from expcrm.catalog import BERNOULLI_BETA, ODDS_BERNOULLI_BETA_PRIME, POISSON_GAMMA, get_entry
from expcrm.errors import DomainError, InvalidModelError, TailBoundError
from expcrm.exp_family import ExpCrmPrior, FixedAtomParams, QuadratureFamily
from expcrm.marginal import (
    MarginalConfig,
    MarginalSampler,
    new_atom_rate,
    predictive_logpmf,
)
from expcrm import cli
from expcrm.measures import Location, ObservationMeasure, jsonl_line, observation_to_jsonable
from expcrm.rng import RngState
from expcrm.size_biased import rate_M, weight_dist_params

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


class _FixedUniforms:
    """Stands in for a generator: ``uniform(size=k)`` returns the given values."""

    def __init__(self, *values):
        self._values = np.array(values)

    def uniform(self, size):
        assert size == self._values.size
        return self._values.copy()


def _columns(*params):
    """Per-atom (xi, lam) pairs as the sampler's atoms x dim and lam columns."""
    return np.array([[xi] for xi, _ in params]), np.array([lam for _, lam in params])


def reference_walk(sampler, u, xi, lam):
    """The per-atom inverse-cdf walk: one atom, one uniform, chunks of counts."""
    like = sampler.prior.likelihood
    bound = like.support_bound
    chunk = 8 if isinstance(sampler.table.family, QuadratureFamily) else 64
    acc = 0.0
    start = 0
    while True:
        stop = start + chunk if bound is None else min(start + chunk, bound + 1)
        xs = np.arange(start, stop)
        cum = acc + np.cumsum(np.exp(predictive_logpmf(like, xi, lam, xs)))
        idx = int(np.searchsorted(cum, u, side="right"))
        if idx < xs.size:
            return int(xs[idx])
        acc = float(cum[-1])
        if bound is not None and stop > bound:
            return int(bound)
        start = stop


def reference_stream(sampler, gen, n_steps):
    """The per-atom stream loop: (location, count) pairs of each step, sorted.

    Every atom on the books walks its own predictive pmf on one scalar
    uniform, then new atoms arrive; locations are drawn one uniform at a
    time, and until none is taken or repeats an earlier one, each such
    location is redrawn in index order.
    """
    prior = sampler.prior
    like = prior.likelihood
    atoms = [(fa.location.value, fa.xi, fa.lam) for fa in prior.fixed_atoms]
    steps = []
    for n in range(1, n_steps + 1):
        cdf, _ = sampler.table.step(n)
        emissions = []
        next_atoms = []
        for v, xi, lam in atoms:
            x = reference_walk(sampler, float(gen.uniform()), xi, lam)
            if x > 0:
                emissions.append((v, x))
            next_atoms.append((v, tuple(a + float(p) for a, p in zip(xi, like.phi(x))), lam + 1.0))
        total = float(cdf[-1])
        k = int(gen.poisson(total))
        if k > 0:
            u = gen.uniform(0.0, total, size=k)
            counts = sampler.table.xs[
                np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
            ]
            counts.sort()
            locations = [float(gen.uniform()) for _ in counts]
            while True:
                seen = {v for v, _, _ in next_atoms}
                colliding = []
                for i, v in enumerate(locations):
                    if v in seen:
                        colliding.append(i)
                    seen.add(v)
                if not colliding:
                    break
                for i in colliding:
                    locations[i] = float(gen.uniform())
            for v, c in zip(locations, counts):
                emissions.append((v, int(c)))
                next_atoms.append((v, *weight_dist_params(prior, n, int(c))))
        atoms = next_atoms
        steps.append(sorted(emissions))
    return steps


def _pairs(observations):
    return [[(a.location.value, a.count) for a in obs.atoms] for obs in observations]


def _fixed(*specs):
    return tuple(FixedAtomParams(Location(v), (xi,), lam) for v, xi, lam in specs)


STREAM_PRIORS = {
    "gamma": gamma_prior(mass=2.0, xi=-1.5, atoms=_fixed((0.3, 0.5, 2.0), (0.7, -0.5, 1.0))),
    "beta": beta_prior(mass=5.0, xi=-1.0, lam=1.0, atoms=_fixed((0.25, 0.5, 2.0))),
    "odds": ExpCrmPrior(
        ODDS_BERNOULLI_BETA_PRIME.make_likelihood(), 2.0, (-1.3,), 1.2, _fixed((0.5, 0.2, 2.0))
    ),
    "nb": ExpCrmPrior(NB.make_likelihood(), 2.0, (-1.5,), 3.0, _fixed((0.125, 0.1, 0.5))),
    # NB(151, 1/2) counts at the fixed atom: every walk crosses the 64-count chunk
    "gamma-deep": gamma_prior(atoms=_fixed((0.3, 150.0, 1.0))),
}


class TestArrayStreamEquivalence:
    @pytest.mark.parametrize("name", sorted(STREAM_PRIORS))
    def test_catalog_streams_match_per_atom_loop(self, name):
        s = MarginalSampler(STREAM_PRIORS[name], MarginalConfig(x_max=30))
        for seed in range(4):
            got = _pairs(s.sample(25, RngState(seed, 3)))
            assert got == reference_stream(s, RngState(seed, 3).generator(), 25)
            if name == "gamma-deep":
                assert min(dict(step)[0.3] for step in got) > 64

    def test_unregistered_clone_matches_per_atom_loop(self):
        # NB(21, 1/2) counts at the fixed atom cross the 8-count chunks of the generic walk
        prior = unregistered(gamma_prior(mass=1.5, xi=-1.2, lam=1.1, atoms=_fixed((0.3, 20.0, 1.0))))
        s = MarginalSampler(prior, MarginalConfig(x_max=10, eps_tail=1e-3))
        for seed in range(2):
            got = _pairs(s.sample(3, RngState(seed, 3)))
            assert got == reference_stream(s, RngState(seed, 3).generator(), 3)
            assert max(dict(step)[0.3] for step in got) > 8


def dict_path_lines(observations, fixed_values, rep):
    """JSONL text and summary rows written from ObservationMeasures with a seen set."""
    lines, rows = [], []
    seen = set(fixed_values)
    for n, obs in enumerate(observations, start=1):
        lines.append(jsonl_line({"rep": rep, "n": n, **observation_to_jsonable(obs)}))
        new = [a for a in obs.atoms if a.location.value not in seen]
        seen.update(a.location.value for a in obs.atoms)
        rows.append((rep, n, len(obs.atoms), len(new), obs.total_count()))
    return "".join(lines), rows


COLUMNAR_PRIORS = {
    "ibp": BERNOULLI_BETA.from_native(5.0, 0.0, 1.0),
    "gamma-fixed": STREAM_PRIORS["gamma"],
    "nb": STREAM_PRIORS["nb"],
}


class TestColumnarOutput:
    """The CLI writes each step from the stream's columns, not from measures."""

    @pytest.mark.parametrize("name", sorted(COLUMNAR_PRIORS))
    def test_lines_and_summary_match_the_measure_path(self, name):
        prior = COLUMNAR_PRIORS[name]
        s = MarginalSampler(prior, MarginalConfig(x_max=30))
        fixed = [fa.location.value for fa in prior.fixed_atoms]
        for seed in range(3):
            observations = s.sample(30, RngState(seed, 5))
            assert _pairs(observations) == reference_stream(s, RngState(seed, 5).generator(), 30)
            got = cli._marginal_lines(s, 30, seed, 5)
            assert got == dict_path_lines(observations, fixed, 5)
            assert sum(row[3] for row in got[1]) > 0

    def test_columns_are_sorted_positive_and_count_births(self):
        s = MarginalSampler(COLUMNAR_PRIORS["gamma-fixed"], MarginalConfig(x_max=30))
        taken = {fa.location.value for fa in s.prior.fixed_atoms}
        for counts, values, born in islice(s.stream(RngState(1, 0)), 30):
            assert counts.dtype == np.int64 and values.dtype == np.float64
            assert (counts > 0).all() and (np.diff(values) > 0).all()
            new = [v not in taken for v in values.tolist()]
            assert born.size == sum(new)
            assert born.sum() == counts[new].sum()
            taken.update(values.tolist())


class TestPredictiveWalk:
    def test_walk_is_exactly_inverse_cdf(self):
        s = MarginalSampler(gamma_prior())
        pmf = stats.nbinom(n=1.0, p=0.5)  # atom params (0, 1): xi+1=1, lam/(lam+1)=1/2
        us = (0.1, 0.49, 0.51, 0.74, 0.76, 0.99)
        got = s._predictive_walk(_FixedUniforms(*us), *_columns(*[(0.0, 1.0)] * len(us)))
        assert got.tolist() == [int(pmf.ppf(u)) for u in us]

    def test_rows_walk_their_own_chunks(self):
        # rows leave the walk in different chunks; each keeps its own sums
        s = MarginalSampler(gamma_prior())
        params = [(150.0, 1.0), (0.0, 1.0), (60.0, 1.0), (150.0, 1.0), (0.5, 2.0)]
        us = (0.5, 0.3, 0.999, 0.01, 0.9)
        got = s._predictive_walk(_FixedUniforms(*us), *_columns(*params))
        want = [reference_walk(s, u, (xi,), lam) for u, (xi, lam) in zip(us, params)]
        assert got.tolist() == want
        assert want[0] > 128 and want[2] > 64 and want[1] < 64

    def test_no_atoms_draw_nothing(self):
        s = MarginalSampler(gamma_prior())
        untouchable = object()  # any draw from it would raise AttributeError
        got = s._predictive_walk(untouchable, np.zeros((0, 1)), np.zeros(0))
        assert got.size == 0

    def test_walk_caps_at_the_support_bound(self):
        # parameters where P(0) + P(1) rounds below 1, so a uniform in the
        # last float ulp of the cdf runs past both counts
        s = MarginalSampler(beta_prior())
        like = s.prior.likelihood
        top = np.nextafter(1.0, 0.0)
        for xi in np.linspace(-0.9, 3.0, 400):
            cum = np.cumsum(np.exp(predictive_logpmf(like, (xi,), 2.0, np.arange(2))))
            if cum[-1] <= top:
                break
        else:
            pytest.fail("no parameters with a cdf short of 1 found")
        params = [(xi, 2.0), (0.0, 2.0), (xi, 2.0)]
        us = (top, 0.1, 0.2)
        got = s._predictive_walk(_FixedUniforms(*us), *_columns(*params))
        assert got.tolist() == [reference_walk(s, u, (x,), lam) for u, (x, lam) in zip(us, params)]
        assert got[0] == 1


# clones with a finite top (with and without an exact top evaluator) and with
# a power tail at infinity; three fixed atoms keep at least three atoms on the
# books from the first step, so every walk chunk has several atoms walking.
# The first beta atom's weight law is Beta(0.5, 0.3), with 1.6% of its mass
# within 1e-6 of the top
EDGE_ATOMS = _fixed((0.25, -0.5, -1.2), (0.5, 0.5, 2.0), (0.75, 2.0, 3.0))
EDGE_CLONES = {
    "beta": unregistered(beta_prior(mass=3.0, atoms=EDGE_ATOMS)),
    "beta-without-top-evaluator": ExpCrmPrior(
        dataclasses.replace(
            BERNOULLI_BETA.make_likelihood(), family="mystery-bernoulli", log_kernel_upper_fn=None
        ),
        3.0, (-1.0,), 1.0, EDGE_ATOMS,
    ),
    "beta-prime": unregistered(
        ExpCrmPrior(
            ODDS_BERNOULLI_BETA_PRIME.make_likelihood(), 2.0, (-1.3,), 1.2,
            _fixed((0.5, 0.2, 2.0), (0.125, -0.5, 0.9), (0.875, 1.0, 3.0)),
        )
    ),
}


class TestCloneWalkAtTheEdges:
    @pytest.mark.parametrize("name", sorted(EDGE_CLONES))
    def test_clone_streams_match_per_atom_loop(self, name):
        s = MarginalSampler(EDGE_CLONES[name], MarginalConfig(x_max=1))
        for seed in range(2):
            got = _pairs(s.sample(10, RngState(seed, 3)))
            assert got == reference_stream(s, RngState(seed, 3).generator(), 10)
            assert sum(len(step) for step in got) >= 5
