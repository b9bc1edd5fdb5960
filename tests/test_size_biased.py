import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from expcrm.catalog import (
    BERNOULLI_BETA,
    ODDS_BERNOULLI_BETA_PRIME,
    POISSON_GAMMA,
    get_entry,
)
from expcrm.errors import (
    DomainError,
    InvalidModelError,
    RngFaultError,
    TailBoundError,
)
from expcrm.exp_family import ExpCrmPrior, FixedAtomParams, QuadratureFamily, _kernel_spec
from expcrm.marginal import MarginalConfig, MarginalSampler
from expcrm.measures import Location
from expcrm.quadrature import _newton, _Panels, invert
from expcrm.rng import RngState
from expcrm.size_biased import (
    LabeledDraw,
    SizeBiasedConfig,
    SizeBiasedSampler,
    _locations,
    rate_M,
    round_total,
    sample_size_biased,
    weight_dist_params,
)

NB = get_entry("negative_binomial", r=2.5)


def gamma_prior(mass=1.0, xi=-1.0, lam=1.0, atoms=()):
    return ExpCrmPrior(POISSON_GAMMA.make_likelihood(), mass, (xi,), lam, atoms)


def beta_prior(mass=1.0, xi=-1.0, lam=1.0, atoms=()):
    return ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), mass, (xi,), lam, atoms)


def unregistered(prior):
    """The same model wearing a family id the catalog does not know."""
    like = dataclasses.replace(prior.likelihood, family="mystery-" + prior.likelihood.family)
    return dataclasses.replace(prior, likelihood=like)


def weight_law(like, xi, lam):
    """The quadrature weight law of ``like`` at (xi, lam)."""
    return QuadratureFamily(like).weight_law(xi, lam)


def numeric_draws(like, xi, lam, gen, n):
    """n draws of that law, in one call."""
    return QuadratureFamily(like).draw_weights(gen, np.tile(xi, (n, 1)), np.full(n, lam))


def topless_bernoulli():
    """An unregistered Bernoulli clone that reaches the top of (0, 1) only by forming 1 - v."""
    like = BERNOULLI_BETA.make_likelihood()
    return dataclasses.replace(like, family="mystery-bernoulli", log_kernel_upper_fn=None)


class TestModuleRates:
    def test_rate_matches_registered_closed_form(self):
        # gamma process at (1, -1, 1): M(2, 3) = Gamma(3) / (3! * 3^3) = 1/81
        assert rate_M(gamma_prior(), 2, 3) == pytest.approx(1.0 / 81.0, rel=1e-12)

    def test_weight_dist_params_shift(self):
        xi, lam = weight_dist_params(gamma_prior(xi=-1.5, lam=2.0), 3, 2)
        assert xi == (0.5,)
        assert lam == 5.0

    def test_argument_validation(self):
        p = gamma_prior()
        for m, x in [(0, 1), (1, 0), (-2, 1), (1, -3)]:
            with pytest.raises(DomainError):
                rate_M(p, m, x)
        with pytest.raises(DomainError):
            rate_M(p, True, 1)
        with pytest.raises(DomainError):
            rate_M(p, 1.0, 1)
        with pytest.raises(DomainError):
            weight_dist_params(p, 1, "2")
        with pytest.raises(DomainError):
            round_total(p, 0)

    def test_generic_rate_agrees_with_closed_form(self):
        p = gamma_prior(mass=1.3, xi=-1.4, lam=0.9)
        q = unregistered(p)
        for m, x in [(1, 1), (2, 3), (4, 2)]:
            assert rate_M(q, m, x) == pytest.approx(rate_M(p, m, x), rel=1e-9)

    def test_generic_rate_out_of_support(self):
        q = unregistered(beta_prior())
        assert rate_M(q, 1, 2) == 0.0

    def test_generic_total_agrees_poisson(self):
        p = gamma_prior(mass=0.8, xi=-1.3, lam=1.7)
        q = unregistered(p)
        for m in (1, 2, 5):
            assert round_total(q, m) == pytest.approx(round_total(p, m), rel=1e-8)

    def test_generic_total_agrees_binary(self):
        p = beta_prior(mass=1.1, xi=-1.2, lam=0.7)
        q = unregistered(p)
        for m in (1, 3):
            assert round_total(q, m) == pytest.approx(round_total(p, m), rel=1e-8)

    def test_generic_total_agrees_negative_binomial(self):
        p = ExpCrmPrior(NB.make_likelihood(), 1.0, (-1.5,), 0.3)
        q = unregistered(p)
        for m in (1, 2):
            assert round_total(q, m) == pytest.approx(round_total(p, m), rel=1e-8)


@pytest.mark.parametrize("config_type", [SizeBiasedConfig, MarginalConfig], ids=lambda c: c.__name__)
class TestConfig:
    """Both truncation configs share one validator."""

    def test_defaults(self, config_type):
        cfg = config_type()
        assert cfg.x_max == 50
        assert cfg.eps_tail == 1e-6
        if config_type is SizeBiasedConfig:
            assert cfg.m_max == 1000

    def test_validation(self, config_type):
        int_fields = [f.name for f in dataclasses.fields(config_type) if f.name != "eps_tail"]
        for name in int_fields:
            for bad in (0, -3, True, 2.5):
                with pytest.raises(DomainError, match=name):
                    config_type(**{name: bad})
        for bad in (0.0, -1e-3, math.inf, math.nan, "tiny", True):
            with pytest.raises(DomainError, match="eps_tail"):
                config_type(eps_tail=bad)

    def test_numpy_ints_accepted(self, config_type):
        cfg = config_type(x_max=np.int32(3), eps_tail=np.float32(0.5))
        assert cfg.x_max == 3 and isinstance(cfg.x_max, int)
        assert isinstance(cfg.eps_tail, float)
        if config_type is SizeBiasedConfig:
            cfg = config_type(m_max=np.int64(7))
            assert cfg.m_max == 7 and isinstance(cfg.m_max, int)


class TestRateTable:
    """One table core: size-biased rounds are marginal steps."""

    @pytest.mark.parametrize(
        "prior,rounds,x_max",
        [
            (gamma_prior(mass=1.7, xi=-1.3, lam=0.8), 40, 50),
            (unregistered(gamma_prior(mass=0.9, xi=-1.2, lam=1.1)), 3, 8),
        ],
        ids=["gamma", "clone"],
    )
    def test_size_biased_rows_are_the_marginal_step_rows(self, prior, rounds, x_max):
        sb = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=rounds, x_max=x_max, eps_tail=1e-3))
        mg = MarginalSampler(prior, MarginalConfig(x_max=x_max, eps_tail=1e-3))
        # a stream grows its table one row per step, the size-biased
        # sampler tabulates every round at construction
        steps = [mg.table.step(n) for n in range(1, rounds + 1)]
        assert mg.table.rates(rounds).tobytes() == sb.table.rates(rounds).tobytes()
        assert mg.table.totals(rounds).tobytes() == sb.table.totals(rounds).tobytes()
        for row, (cdf, gap) in zip(sb.table.rates(rounds), steps):
            assert cdf.tobytes() == np.cumsum(row).tobytes()
        assert sb.count_cap == mg.count_cap == x_max

    def test_catalog_rows_take_one_call_per_extension(self, monkeypatch):
        calls = []
        original = type(POISSON_GAMMA).rate_table

        def spy(self, mass, xi, lam, m, x):
            calls.append(len(m))
            return original(self, mass, xi, lam, m, x)

        monkeypatch.setattr(type(POISSON_GAMMA), "rate_table", spy)
        SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=1000, x_max=50))
        assert calls == [1000]
        mg = MarginalSampler(gamma_prior())
        mg.sample(3, RngState(5))
        mg.sample(4, RngState(6))
        assert calls == [1000, 1, 1, 1, 1]


class TestSamplerConstruction:
    def test_invalid_prior_rejected(self):
        with pytest.raises(InvalidModelError, match="A1"):
            SizeBiasedSampler(gamma_prior(xi=-0.5), SizeBiasedConfig(m_max=3))

    def test_tail_bound_failure_carries_certificate(self):
        cfg = SizeBiasedConfig(m_max=3, x_max=1, eps_tail=1e-12)
        with pytest.raises(TailBoundError) as exc:
            SizeBiasedSampler(gamma_prior(), cfg)
        cert = exc.value.certificate
        assert cert["count_cap"] == 1
        assert cert["rounds"] == 3
        # round 1 alone neglects ln 2 - 1/2 of rate
        assert cert["neglected_rate"] > 0.1
        assert cert["worst_round"] == 1

    def test_binary_support_is_exhaustive(self):
        s = SizeBiasedSampler(beta_prior(), SizeBiasedConfig(m_max=20))
        assert s.count_cap == 1
        assert s.tail_certificate()["neglected_rate"] == 0.0

    def test_certificate_is_jsonable(self):
        s = SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=10))
        cert = json.loads(json.dumps(s.tail_certificate()))
        assert cert["rounds"] == 10
        assert cert["eps_tail"] == 1e-6
        assert 0.0 <= cert["neglected_rate"] <= 1e-6

    def test_type_validation(self):
        with pytest.raises(DomainError, match="ExpCrmPrior"):
            SizeBiasedSampler("not a prior")
        with pytest.raises(DomainError, match="SizeBiasedConfig"):
            SizeBiasedSampler(gamma_prior(), config={"m_max": 3})

    def test_validity_warnings_exposed(self):
        # the (-1, 0) branch of the beta-process region warns about the alias
        s = SizeBiasedSampler(beta_prior(xi=-0.5, lam=2.0), SizeBiasedConfig(m_max=5))
        assert any("alias" in w for w in s.validity_warnings)

    def test_draw_needs_an_rng_somewhere(self):
        s = SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=5))
        with pytest.raises(DomainError, match="rng"):
            s.draw()


class TestDrawing:
    def test_draw_deterministic_per_state(self):
        s = SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=50, x_max=30))
        a = s.draw(RngState(11))
        b = s.draw(RngState(11))
        assert a == b
        assert s.draw(RngState(12)) != a

    def test_per_call_rng_leaves_construction_stream_alone(self):
        cfg = SizeBiasedConfig(m_max=50, x_max=30)
        s1 = SizeBiasedSampler(gamma_prior(), cfg, rng=RngState(3))
        s2 = SizeBiasedSampler(gamma_prior(), cfg, rng=RngState(3))
        first = s1.draw()
        s2.draw(RngState(99))
        assert s2.draw() == first
        assert s1.draw() != first  # the construction stream advances

    def test_trait_measure_structure(self):
        atoms = (
            FixedAtomParams(Location(0.5), (0.5,), 2.0),
            FixedAtomParams(Location(0.25), (1.0,), 3.0),
        )
        s = SizeBiasedSampler(gamma_prior(atoms=atoms), SizeBiasedConfig(m_max=40))
        measure = s.draw(RngState(8))
        assert [a.location.value for a in measure.fixed_atoms] == [0.5, 0.25]
        assert all(a.weight > 0 for a in measure.fixed_atoms)
        locs = [a.location.value for a in measure.ordinary_atoms]
        assert all(0.0 <= v < 1.0 for v in locs)
        assert len(set(locs) | {0.5, 0.25}) == len(locs) + 2
        assert measure.truncation.kind == "truncated"
        assert measure.truncation.rounds == 40
        assert measure.truncation.count_cap == 50

    def test_labeled_draw_shape_and_order(self):
        s = SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=60, x_max=20))
        ld = s.draw_labeled(RngState(9))
        assert isinstance(ld, LabeledDraw)
        k = len(ld)
        assert ld.counts.shape == ld.weights.shape == ld.locations.shape == (k,)
        assert ((ld.rounds >= 1) & (ld.rounds <= 60)).all()
        assert ((ld.counts >= 1) & (ld.counts <= 20)).all()
        assert (ld.weights > 0).all()
        cell_rank = ld.rounds * 100 + ld.counts
        assert (np.diff(cell_rank) >= 0).all()

    def test_negligible_intensity_draws_empty(self):
        s = SizeBiasedSampler(gamma_prior(mass=1e-9), SizeBiasedConfig(m_max=2))
        ld = s.draw_labeled(RngState(4))
        assert len(ld) == 0
        measure = s.draw(RngState(4))
        assert measure.ordinary_atoms == ()

    def test_atom_count_is_poisson_with_grand_total_mean(self):
        s = SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=200))
        # totals telescope: sum over m <= M of log((m+1)/m) = log(M + 1)
        assert s._grand_total == pytest.approx(math.log(201.0), abs=1e-6)
        n = 400
        counts = [len(s.draw_labeled(RngState(1000 + i))) for i in range(n)]
        z = (sum(counts) - n * s._grand_total) / math.sqrt(n * s._grand_total)
        assert abs(z) < 4.0

    def test_round_one_weights_follow_conjugate_law(self):
        s = SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=30))
        collected = []
        for i in range(1200):
            ld = s.draw_labeled(RngState(500 + i, stream=2))
            keep = (ld.rounds == 1) & (ld.counts == 1)
            collected.extend(ld.weights[keep].tolist())
        # (xi + 1, lam + 1) at xi = -1: shape 1, rate 2
        res = stats.kstest(np.array(collected), stats.gamma(a=1.0, scale=0.5).cdf)
        assert len(collected) > 400
        assert res.pvalue > 0.01

    def test_one_shot_convenience_matches_sampler(self):
        cfg = SizeBiasedConfig(m_max=20)
        direct = SizeBiasedSampler(gamma_prior(), cfg).draw(RngState(21))
        assert sample_size_biased(gamma_prior(), RngState(21), cfg) == direct


class _ScriptedGen:
    """Stand-in generator whose uniforms follow a script, then repeat its last value."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self, size):
        return np.array([self._values.pop(0) if len(self._values) > 1 else self._values[0]
                         for _ in range(size)])


class TestLocationHygiene:
    def test_collisions_are_redrawn(self):
        # a taken value is redrawn in place from the uniform after the batch
        out = _locations(_ScriptedGen([0.5, 0.25, 0.75]), 2, frozenset({0.5}))
        assert out.tolist() == [0.75, 0.25]

    def test_repeats_inside_the_batch_are_redrawn(self):
        # the later copy is redrawn, and so is a redraw that repeats again
        out = _locations(_ScriptedGen([0.25, 0.5, 0.25, 0.5, 0.75]), 3, set())
        assert out.tolist() == [0.25, 0.5, 0.75]

    def test_stuck_generator_raises(self):
        with pytest.raises(RngFaultError):
            _locations(_ScriptedGen([0.5]), 2, frozenset({0.5}))


class TestNumericWeightSampler:
    def test_gamma_clone_matches_gamma_law(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        draws = numeric_draws(like, (-0.5,), 2.0, RngState(31).generator(), 3000)
        res = stats.kstest(draws, stats.gamma(a=0.5, scale=0.5).cdf)
        assert res.pvalue > 0.01

    def test_beta_clone_matches_beta_law(self):
        like = dataclasses.replace(BERNOULLI_BETA.make_likelihood(), family="mystery")
        draws = numeric_draws(like, (-0.4,), 1.2, RngState(32).generator(), 3000)
        assert (draws > 0).all() and (draws < 1).all()
        res = stats.kstest(draws, stats.beta(0.6, 2.6).cdf)
        assert res.pvalue > 0.01

    def test_beta_prime_clone_matches_power_tail_law(self):
        like = dataclasses.replace(ODDS_BERNOULLI_BETA_PRIME.make_likelihood(), family="mystery")
        draws = numeric_draws(like, (-0.3,), 1.8, RngState(33).generator(), 3000)
        res = stats.kstest(draws, stats.betaprime(0.7, 1.1).cdf)
        assert res.pvalue > 0.01

    def test_quantiles_match_reference(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        law = weight_law(like, (-0.5,), 2.0)
        ref = stats.gamma(a=0.5, scale=0.5)
        u = np.array([1e-9, 1e-4, 0.1, 0.5, 0.9, 0.999])
        spec = _kernel_spec(like, (-0.5,), 2.0, "gamma kernel")

        def log_f(t, _who, from_top):
            return (spec.log_f_from_top if from_top else spec.log_f)(t)

        got = invert([law], u * law.total, np.zeros(u.size, dtype=np.intp), log_f)
        np.testing.assert_allclose(got, ref.ppf(u), rtol=1e-8)

    def test_cdf_matches_reference(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        nws = weight_law(like, (-0.5,), 2.0)
        ref = stats.gamma(a=0.5, scale=0.5)
        ts = np.array([1e-9, 1e-3, 0.05, 0.3, 1.0, 3.0, 50.0])
        np.testing.assert_allclose(nws.cdf(ts), ref.cdf(ts), rtol=1e-8, atol=1e-12)

    def test_interior_cdf_error_is_pinned(self):
        # Gamma(1, rate 2), the oracle suite's weight law for the gamma model
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        nws = weight_law(like, (0.0,), 2.0)
        ts = np.concatenate([np.geomspace(1e-12, 1.0, 2000), np.linspace(0.0, 20.0, 200_001)])
        err = np.abs(nws.cdf(ts) - stats.gamma(a=1.0, scale=0.5).cdf(ts)).max()
        assert err <= 1e-8

    @pytest.mark.parametrize(
        "entry, xi, lam",
        [(NB, xi, lam) for xi in (-0.3, 0.5) for lam in (1.5, 3.0)]
        + [(BERNOULLI_BETA, xi, lam) for xi in (-0.5, 1.0) for lam in (3.0, 6.0)]
        + [(NB, xi, 10.0) for xi in (-0.3, 0.5)],
    )
    def test_steep_bounded_laws_build(self, entry, xi, lam):
        # weight laws that fall to zero like (1 - t)^p, p >= 3.5, at the top
        # of (0, 1): the panels next to 1 are integrated in the distance to it
        nws = weight_law(entry.make_likelihood(), (xi,), lam)
        b = lam * entry.r + 1.0 if entry is NB else lam - xi + 1.0
        ts = np.concatenate(
            [np.linspace(0.0, 1.0, 20_001), np.geomspace(1e-12, 1e-3, 200), 1.0 - np.geomspace(1e-12, 1e-3, 200)]
        )
        err = np.abs(nws.cdf(ts) - stats.beta(xi + 1.0, b).cdf(ts)).max()
        assert err <= 1e-8

    @pytest.mark.parametrize(
        "entry, xi, lam, ref",
        [
            # endpoint power -0.999 at 0: 97% of the mass lies below the first knot
            (POISSON_GAMMA, -0.999, 1.0, stats.gamma(a=1e-3)),
            # tail powers -1.2, -1.1 and -1.05 at infinity: the quarter-octave
            # march closes where the analytic power piece above it is accurate
            (ODDS_BERNOULLI_BETA_PRIME, -0.3, 0.9, stats.betaprime(0.7, 0.2)),
            (ODDS_BERNOULLI_BETA_PRIME, -0.3, 0.8, stats.betaprime(0.7, 0.1)),
            (ODDS_BERNOULLI_BETA_PRIME, -0.3, 0.75, stats.betaprime(0.7, 0.05)),
            # narrower than a panel of the grid: the panels around its mass are bisected
            (POISSON_GAMMA, 1999.0, 1e4, stats.gamma(a=2000.0, scale=1e-4)),
            # all of the mass above the initial grid, where the density underflows
            (POISSON_GAMMA, 4999.0, 1.0, stats.gamma(a=5000.0)),
        ],
        ids=[
            "gamma-power-near-0", "beta-prime-tail-near-1", "beta-prime-tail-1.1",
            "beta-prime-tail-1.05", "gamma-steep", "gamma-far-out",
        ],
    )
    def test_edge_laws_match_reference(self, entry, xi, lam, ref):
        like = dataclasses.replace(entry.make_likelihood(), family="mystery")
        nws = weight_law(like, (xi,), lam)
        quantiles = ref.ppf(np.linspace(0.0, 1.0, 2001))
        ts = np.concatenate([np.geomspace(1e-300, 1e12, 3000), np.linspace(0.0, 20.0, 20_001), quantiles])
        assert np.abs(nws.cdf(ts) - ref.cdf(ts)).max() <= 1e-8

    def test_bounded_law_without_a_top_evaluator(self):
        # Beta(0.5, 0.3): 1.6% of its mass lies within 1e-6 of the top, where
        # 1 - v is too coarse for the panels and a Jacobi cap closes the law
        nws = weight_law(topless_bernoulli(), (-0.5,), -1.2)
        ts = np.concatenate(
            [np.linspace(0.0, 1.0, 20_001), np.geomspace(1e-12, 1e-3, 200), 1.0 - np.geomspace(1e-12, 1e-3, 200)]
        )
        assert np.abs(nws.cdf(ts) - stats.beta(0.5, 0.3).cdf(ts)).max() <= 1e-8

    def test_newton_steps_leaving_the_panel_bisect(self):
        # density t^20 on the one panel [0, 1], which 12 nodes integrate
        # exactly; from the linear first guess, Newton's step leaves the
        # panel by a factor of about 10^4
        panels = _Panels(lambda t: 20.0 * np.log(t), np.array([0.0, 1.0]), "t^20")
        panels.cum = np.array([0.0, 1.0 / 21.0])
        u = np.array([1e-6, 0.1, 0.5, 0.9])
        got = _newton([panels], [u.size], u / 21.0, lambda rows, pts: panels.log_density(pts)[0])
        np.testing.assert_allclose(got, u ** (1.0 / 21.0), rtol=1e-12)

    def test_sample_draws_one_uniform_per_weight(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        gen, twin = RngState(34).generator(), RngState(34).generator()
        numeric_draws(like, (-0.5,), 2.0, gen, 17)
        twin.uniform(size=17)
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_draws_next_to_an_open_top_stay_inside(self):
        # NB(0.1) at xi -0.5, lam -9.5 has the weight law Beta(0.5, 0.05) on
        # (0, 1): about 30% of its mass lies within 1e-10 of the open top,
        # where the inversion from the top rounds onto 1.0
        like = dataclasses.replace(get_entry("negative_binomial", r=0.1).make_likelihood(),
                                   family="mystery")
        gen = RngState(5).generator()
        n = 20_000
        draws = numeric_draws(like, (-0.5,), -9.5, gen, n)
        assert draws.max() == np.nextafter(1.0, 0.0)
        p = stats.beta(0.5, 0.05).sf(1.0 - 1e-10)
        assert abs(np.mean(draws >= 1.0 - 1e-10) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
        like.sample(gen, draws)  # raises DomainError on a weight outside (0, 1)

    def test_improper_parameters_rejected(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        with pytest.raises(DomainError, match="not normalizable"):
            weight_law(like, (-1.0,), 1.0)
        with pytest.raises(DomainError, match="infinity"):
            weight_law(like, (-0.5,), 0.0)


class TestEndToEndUnregistered:
    def test_clone_sampler_reproduces_registered_rates(self):
        p = gamma_prior(mass=0.9, xi=-1.2, lam=1.1)
        cfg = SizeBiasedConfig(m_max=3, x_max=16, eps_tail=1e-5)
        sp = SizeBiasedSampler(p, cfg)
        sq = SizeBiasedSampler(unregistered(p), cfg)
        np.testing.assert_allclose(sq.table.rates(3), sp.table.rates(3), rtol=1e-7)
        assert sq._grand_total == pytest.approx(sp._grand_total, rel=1e-7)
        assert sq.tail_certificate()["neglected_rate"] == pytest.approx(
            sp.tail_certificate()["neglected_rate"], rel=1e-4, abs=1e-12
        )

    def test_bench_clone_certificate_matches_the_catalog(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        import clone_calls

        certificates = [
            clone_calls.build_sampler(prior).tail_certificate()["neglected_rate"]
            for prior in (clone_calls.clone_prior(), clone_calls.catalog_prior())
        ]
        assert certificates[0] == pytest.approx(certificates[1], rel=1e-6)

    def test_fixed_atom_law_without_a_top_evaluator(self):
        atom = FixedAtomParams(Location(0.5), (-0.5,), -1.2)  # weight law Beta(0.5, 0.3)
        prior = ExpCrmPrior(topless_bernoulli(), 1.0, (-1.5,), -0.5, (atom,))
        measure = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=5, x_max=1)).draw(RngState(0))
        (fixed,) = measure.fixed_atoms
        assert 0.0 < fixed.weight < 1.0

    def test_clone_draw_is_a_valid_measure(self):
        p = unregistered(gamma_prior(mass=2.0, xi=-1.2, lam=1.1))
        cfg = SizeBiasedConfig(m_max=3, x_max=16, eps_tail=1e-5)
        s = SizeBiasedSampler(p, cfg)
        measure = s.draw(RngState(77))
        assert measure.truncation.rounds == 3
        assert all(a.weight > 0 for a in measure.ordinary_atoms)


# --- the batched draw against the per-cell loop it replaced -------------------


def _reference_cell_weights(sampler, gen, xi, lam, n):
    """Per-cell weight draw: the catalog laws, edge values clipped to the nearest double inside."""
    entry = sampler.table.family
    if isinstance(entry, QuadratureFamily):
        return entry.draw_weights(gen, np.tile(xi, (n, 1)), np.full(n, lam))
    xi0 = xi[0]
    family = entry.likelihood_id
    big = sys.float_info.max
    if family == "poisson":
        vals, top = gen.gamma(xi0 + 1.0, 1.0 / lam, n), big
    elif family == "bernoulli":
        vals, top = gen.beta(xi0 + 1.0, lam - xi0 + 1.0, n), 1.0
    elif family == "odds_bernoulli":
        g = np.clip(gen.standard_gamma(np.tile([xi0 + 1.0, lam - xi0 - 1.0], n)), 5e-324, big)
        with np.errstate(over="ignore"):
            vals, top = g[0::2] / g[1::2], big
    else:
        vals, top = gen.beta(xi0 + 1.0, lam * entry.r + 1.0, n), np.nextafter(1.0, 0.0)
    return np.clip(vals, 5e-324, top)


def reference_locations(gen, k, taken):
    """k locations, one uniform at a time; until none is a taken value or
    repeats an earlier one, each such location is redrawn in index order."""
    locations = [float(gen.uniform()) for _ in range(k)]
    while True:
        seen = set(taken)
        colliding = []
        for i, v in enumerate(locations):
            if v in seen:
                colliding.append(i)
            seen.add(v)
        if not colliding:
            return np.array(locations)
        for i in colliding:
            locations[i] = float(gen.uniform())


def reference_draw_labeled(sampler, gen):
    """The per-cell draw loop: one weight call per table cell, one uniform per location."""
    k = int(gen.poisson(sampler._grand_total))
    if k == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0)
    u = gen.uniform(0.0, sampler._grand_total, size=k)
    cells = np.minimum(np.searchsorted(sampler._cdf, u, side="right"), sampler._cdf.size - 1)
    cells.sort()
    n_x = sampler.count_cap
    rounds = (cells // n_x + 1).astype(np.int64)
    counts = (cells % n_x + 1).astype(np.int64)
    weights = np.empty(k)
    pos = 0
    for cell, n_cell in zip(*np.unique(cells, return_counts=True)):
        m, x = int(cell // n_x) + 1, int(cell % n_x) + 1
        xi_mx, lam_mx = weight_dist_params(sampler.prior, m, x)
        weights[pos : pos + n_cell] = _reference_cell_weights(
            sampler, gen, xi_mx, lam_mx, int(n_cell)
        )
        pos += n_cell
    taken = {a.location.value for a in sampler.prior.fixed_atoms}
    return rounds, counts, weights, reference_locations(gen, k, taken)


def reference_draw(sampler, gen):
    fixed = [
        _reference_cell_weights(sampler, gen, a.xi, a.lam, 1)[0] for a in sampler.prior.fixed_atoms
    ]
    return np.array(fixed), reference_draw_labeled(sampler, gen)


def _assert_labeled_equal(ld, ref):
    for got, want in zip((ld.rounds, ld.counts, ld.weights, ld.locations), ref):
        assert got.tobytes() == np.asarray(want).tobytes()


def _fixed(*specs):
    return tuple(FixedAtomParams(Location(v), (xi,), lam) for v, xi, lam in specs)


STREAM_PRIORS = {
    "gamma": gamma_prior(mass=2.0, xi=-1.5, atoms=_fixed((0.3, 0.5, 2.0), (0.7, -0.5, 1.0))),
    "beta": beta_prior(mass=5.0, xi=-1.0, lam=1.0, atoms=_fixed((0.25, 0.5, 2.0))),
    "odds": ExpCrmPrior(
        ODDS_BERNOULLI_BETA_PRIME.make_likelihood(), 2.0, (-1.3,), 1.2, _fixed((0.5, 0.2, 2.0))
    ),
    "nb": ExpCrmPrior(NB.make_likelihood(), 2.0, (-1.5,), 3.0, _fixed((0.125, 0.1, 0.5))),
}


class TestBatchedStreamEquivalence:
    @pytest.mark.parametrize("name", sorted(STREAM_PRIORS))
    def test_catalog_draws_match_per_cell_loop(self, name):
        s = SizeBiasedSampler(STREAM_PRIORS[name], SizeBiasedConfig(m_max=300, x_max=30))
        for seed in range(6):
            ld = s.draw_labeled(RngState(seed, 1))
            _assert_labeled_equal(ld, reference_draw_labeled(s, RngState(seed, 1).generator()))
            measure = s.draw(RngState(seed, 2))
            fixed, (_, _, weights, locations) = reference_draw(s, RngState(seed, 2).generator())
            assert measure.fixed_weights.tobytes() == fixed.tobytes()
            assert measure.ordinary_weights.tobytes() == weights.tobytes()
            assert measure.ordinary_locations.tobytes() == locations.tobytes()

    def test_unregistered_clone_matches_per_cell_loop(self):
        prior = unregistered(gamma_prior(mass=2.0, xi=-1.2, lam=1.1, atoms=_fixed((0.3, 0.5, 2.0))))
        s = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=3, x_max=16, eps_tail=1e-5))
        for seed in range(3):
            _assert_labeled_equal(
                s.draw_labeled(RngState(seed, 1)),
                reference_draw_labeled(s, RngState(seed, 1).generator()),
            )
            measure = s.draw(RngState(seed, 2))
            fixed, (_, _, weights, locations) = reference_draw(s, RngState(seed, 2).generator())
            assert measure.fixed_weights.tobytes() == fixed.tobytes()
            assert measure.ordinary_weights.tobytes() == weights.tobytes()
            assert measure.ordinary_locations.tobytes() == locations.tobytes()

    def test_boundary_weight_is_clipped_in_the_broadcast_draw(self, monkeypatch):
        class FlooringGenerator(np.random.Generator):
            """Gamma draws below 0.02 come out as 0.0, the boundary of the weight domain."""

            def gamma(self, *args, **kwargs):
                out = super().gamma(*args, **kwargs)
                return np.where(out < 0.02, 0.0, out)

        calls = []
        original = type(POISSON_GAMMA).sample_weights

        def spy(self, *args, **kwargs):
            calls.append(args[-1])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(POISSON_GAMMA), "sample_weights", spy)
        s = SizeBiasedSampler(gamma_prior(mass=5.0), SizeBiasedConfig(m_max=10, x_max=30))
        clipped = 0
        for seed in range(6):
            def gen():
                return FlooringGenerator(np.random.PCG64(np.random.SeedSequence(seed)))

            ld = s.draw_labeled(gen())
            _assert_labeled_equal(ld, reference_draw_labeled(s, gen()))
            assert ((ld.weights == 5e-324) | (ld.weights >= 0.02)).all()
            clipped += int((ld.weights == 5e-324).sum())
        # one broadcast call per draw, whatever lands on the boundary
        assert len(calls) == 6 and clipped > 0

    def test_location_collision_is_redrawn_in_place(self):
        plain = SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=100, x_max=30))
        gen = RngState(5).generator()
        first = plain.draw_labeled(gen)
        after = gen.uniform()
        assert len(first) > 1
        # a fixed atom sitting where the first location uniform lands
        prior = gamma_prior(atoms=_fixed((float(first.locations[0]), 0.5, 2.0)))
        s = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=100, x_max=30))
        ld = s.draw_labeled(RngState(5))
        _assert_labeled_equal(ld, reference_draw_labeled(s, RngState(5).generator()))
        assert ld.weights.tobytes() == first.weights.tobytes()
        assert ld.locations[0] == after
        assert ld.locations[1:].tobytes() == first.locations[1:].tobytes()


# clones whose weight laws reach a finite top (with and without an exact top
# evaluator, the latter closing with the Jacobi cap) or a power tail at
# infinity; the fixed atoms put mass next to the top (Beta(0.5, 0.05) holds
# 30% within 1e-10 of it) and far into the tail
BETA_ATOMS = _fixed((0.25, -0.5, -1.45), (0.75, 0.5, 2.0))
EDGE_CLONES = {
    "beta": unregistered(beta_prior(mass=6.0, atoms=BETA_ATOMS)),
    "beta-without-top-evaluator": ExpCrmPrior(topless_bernoulli(), 6.0, (-1.0,), 1.0, BETA_ATOMS),
    "beta-prime": unregistered(
        ExpCrmPrior(
            ODDS_BERNOULLI_BETA_PRIME.make_likelihood(), 4.0, (-1.3,), 1.2,
            _fixed((0.5, 0.2, 2.0), (0.125, -0.5, 0.9)),
        )
    ),
}


class TestBatchedDrawsAtTheEdges:
    """One Newton loop for all cells draws the bytes of one loop per cell, at every end piece."""

    @pytest.mark.parametrize("name", sorted(EDGE_CLONES))
    def test_batched_draws_match_per_cell_loop(self, name):
        s = SizeBiasedSampler(EDGE_CLONES[name], SizeBiasedConfig(m_max=4, x_max=1))
        weights = []
        for seed in range(8):
            _assert_labeled_equal(
                s.draw_labeled(RngState(seed, 1)),
                reference_draw_labeled(s, RngState(seed, 1).generator()),
            )
            measure = s.draw(RngState(seed, 2))
            fixed, (_, _, ordinary, locations) = reference_draw(s, RngState(seed, 2).generator())
            assert measure.fixed_weights.tobytes() == fixed.tobytes()
            assert measure.ordinary_weights.tobytes() == ordinary.tobytes()
            assert measure.ordinary_locations.tobytes() == locations.tobytes()
            weights.append(np.concatenate([fixed, ordinary]))
        weights = np.concatenate(weights)
        # draws solved from the top, and beyond the outermost knots
        assert (weights > 0.5).sum() >= 5
        if name == "beta-prime":
            assert weights.max() > 1e3
        else:
            assert weights.max() > 1.0 - 1e-6
