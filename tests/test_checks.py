"""Tests for the verification module: assumption checks, statistical
helpers, quadrature oracles, and the sampler-equivalence harness."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from expcrm.catalog import (
    BERNOULLI_BETA,
    ODDS_BERNOULLI_BETA_PRIME,
    POISSON_GAMMA,
    get_entry,
)
from expcrm.checks import (
    EQUIVALENCE_MIN_REPS,
    CheckReport,
    _homogeneity,
    _integrand_orders,
    _pearson,
    check_assumptions,
    chi_square_gof,
    chi_square_two_sample,
    equivalence_run,
    kolmogorov_sf,
    oracle_log_partition,
    oracle_predictive_pmf,
    oracle_rate_M,
    oracle_round_total,
    oracle_suite,
    oracle_weight_law,
    run_suite,
)
from expcrm.errors import DomainError
from expcrm.exp_family import ExpCrmPrior, FixedAtomParams
from expcrm.rng import RngState

LN2 = 0.6931471805599453


def gamma_prior(mass=1.0, xi0=-1.0, lam=1.0, fixed=()):
    return ExpCrmPrior(POISSON_GAMMA.make_likelihood(), mass, (xi0,), lam, fixed)


def beta_prior(mass=1.0, xi0=-1.0, lam=1.0):
    return ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), mass, (xi0,), lam)


def odds_prior(mass=1.0, xi0=-1.3, lam=0.9):
    return ExpCrmPrior(ODDS_BERNOULLI_BETA_PRIME.make_likelihood(), mass, (xi0,), lam)


def unregistered(prior):
    like = dataclasses.replace(prior.likelihood, family="mystery-" + prior.likelihood.family)
    return dataclasses.replace(prior, likelihood=like)


class TestCheckReport:
    def test_str_shows_verdict(self):
        r = CheckReport("demo", True, 0.5, 1.0, "<=", "all good")
        assert "[PASS]" in str(r)
        assert "demo" in str(r)
        r = CheckReport("demo", False, 2.0, 1.0, "<=")
        assert "[FAIL]" in str(r)

    def test_jsonable_round_trips(self):
        r = CheckReport("demo", True, 0.5, 1.0, "<=", "ok")
        blob = json.dumps(r.to_jsonable())
        back = json.loads(blob)
        assert back["name"] == "demo"
        assert back["passed"] is True
        assert back["statistic"] == 0.5

    def test_jsonable_handles_infinite_statistic(self):
        r = CheckReport("demo", True, math.inf, math.inf, ">=")
        back = json.loads(json.dumps(r.to_jsonable(), allow_nan=False))
        assert back["statistic"] == "inf"


class TestAssumptionChecks:
    def test_valid_gamma_prior_passes_all(self):
        reports = check_assumptions(gamma_prior())
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_a2_statistic_is_the_round_one_total(self):
        # at mass 1, xi0 = -1, lam = 1 the round totals telescope: total_1 = ln 2
        reports = check_assumptions(gamma_prior())
        a2 = reports[2]
        assert a2.name.startswith("A2")
        assert a2.statistic == pytest.approx(LN2, rel=1e-8)
        assert "M(1,1)=" in a2.detail

    def test_a1_pass_reports_divergence_evidence(self):
        a1 = check_assumptions(gamma_prior())[1]
        assert a1.passed
        assert a1.statistic == math.inf
        assert "divergence confirmed" in a1.detail

    def test_a1_fails_when_ordinary_mass_is_finite(self):
        a1 = check_assumptions(gamma_prior(xi0=0.5))[1]
        assert not a1.passed
        assert "finite" in a1.detail

    def test_a2_fails_when_round_one_rate_diverges(self):
        # xi0 = -2: the count-weighted kernel picks up only one power,
        # leaving a nonintegrable 1/theta at the origin
        a2 = check_assumptions(gamma_prior(xi0=-2.0))[2]
        assert not a2.passed

    def test_a0_with_proper_fixed_atoms(self):
        fixed = (FixedAtomParams(0.25, (0.0,), 2.0), FixedAtomParams(0.5, (1.0,), 3.0))
        a0 = check_assumptions(gamma_prior(fixed=fixed))[0]
        assert a0.passed
        assert "B =" in a0.detail

    def test_a0_flags_improper_fixed_atom(self):
        fixed = (FixedAtomParams(0.25, (-1.0,), 1.0),)
        a0 = check_assumptions(gamma_prior(fixed=fixed))[0]
        assert not a0.passed
        assert "improper" in a0.detail

    def test_no_fixed_atoms_notes_the_vacuity(self):
        a0 = check_assumptions(gamma_prior())[0]
        assert a0.passed
        assert a0.detail == "no fixed atoms"

    def test_binary_prior_passes(self):
        reports = check_assumptions(beta_prior())
        assert all(r.passed for r in reports)
        # round-1 total for the binary family at (-1, 1) is 1/3
        assert reports[2].statistic == pytest.approx(1.0 / 3.0, rel=1e-9)


def ks_grid(n: int) -> np.ndarray:
    """D values for n draws that reach every branch of the finite-n Kolmogorov sf.

    Support edge and Ruben-Gambino ends, MTW (n D^1.5 <= 1.4), Pelz-Good,
    2 * smirnov (n D^2 >= 2.2, or D >= 1/2) and zero (n D^2 >= 370), each
    with points at and next to its boundaries.
    """
    mtw_top = (1.4 / n) ** (2.0 / 3.0)
    edges = [math.sqrt(c / n) for c in (0.754693, 2.2, 4.0, 18.0, 370.0)] + [mtw_top, 0.5]
    near = [e * f for e in edges for f in (0.97, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.03)]
    ends = [0.0, 0.5 / n, np.nextafter(0.5 / n, 1.0), 0.75 / n, 1.0 / n, 1.5 / n,
            (n - 1.5) / n, (n - 1.0) / n, 0.999, 1.0, 1.2]
    return np.concatenate([ends, near, np.geomspace(0.4 / n, 1.0, 120)])


class TestKolmogorovSf:
    @pytest.mark.parametrize("n", [141, 500, 1000, 2000, 10_000, 20_000])
    def test_matches_scipy_bit_for_bit_above_140(self, n):
        ds = ks_grid(n)
        # every branch of the n > 140 dispatch is on the grid; zero needs n >= 1480
        inner = ds[(ds > 1.0 / n) & (ds < 0.5)]
        nd2 = n * inner**2
        assert (n * inner**1.5 <= 1.4).any() and ((n * inner**1.5 > 1.4) & (nd2 < 2.2)).any()
        assert ((nd2 >= 2.2) & (nd2 < 370.0)).any()
        assert (nd2 >= 370.0).any() == (n >= 1480)
        got = np.array([kolmogorov_sf(n, d) for d in ds])
        want = stats.kstwo.sf(ds, n)
        assert [(d, g, w) for d, g, w in zip(ds, got, want) if g != w] == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_draws_raises(self, n):
        with pytest.raises(DomainError, match="needs at least one draw"):
            kolmogorov_sf(n, 0.1)

    def test_near_scipy_up_to_140(self):
        # scipy runs Pomeranz's recursion where n D^2 is in (0.754693, 4]; MTW here
        for n in (1, 2, 3, 5, 10, 37, 99, 121, 140):
            ds = ks_grid(n)
            got = np.array([kolmogorov_sf(n, d) for d in ds])
            np.testing.assert_allclose(got, stats.kstwo.sf(ds, n), rtol=1e-10, atol=0.0)


class TestChiSquarePort:
    def test_homogeneity_is_scipys_contingency_test(self):
        gen = np.random.default_rng(2024)
        for _ in range(2000):
            table = gen.integers(0, 60, size=(2, int(gen.integers(2, 12))))
            table[:, table.sum(axis=0) == 0] = 1
            table[table.sum(axis=1) == 0] = 1
            res = stats.chi2_contingency(table, correction=False)
            assert _homogeneity(table.astype(float)) == (res.statistic, res.pvalue)

    def test_pearson_is_scipys_chisquare(self):
        gen = np.random.default_rng(2025)
        for _ in range(2000):
            cells = int(gen.integers(2, 15))
            observed = gen.integers(1, 90, size=cells).astype(float)
            expected = gen.uniform(0.5, 40.0, size=cells)
            expected *= observed.sum() / expected.sum()
            res = stats.chisquare(observed, expected)
            assert _pearson(observed, expected, cells - 1) == (res.statistic, res.pvalue)

    def test_two_sample_report_carries_scipys_p_value(self):
        gen = np.random.default_rng(2026)
        for _ in range(200):
            # column totals of at least 10, so no category is pooled
            table = gen.integers(5, 60, size=(2, int(gen.integers(2, 8))))
            a = np.repeat(np.arange(table.shape[1]), table[0]).tolist()
            b = np.repeat(np.arange(table.shape[1]), table[1]).tolist()
            res = stats.chi2_contingency(table, correction=False)
            rep = chi_square_two_sample(a, b)
            assert rep.statistic == res.pvalue
            assert rep.detail.endswith(f"chi2 = {res.statistic:.4g}")


class TestChiSquareGof:
    def test_geometric_against_itself(self):
        gen = np.random.default_rng(11)
        samples = gen.geometric(0.4, size=2000) - 1
        rep = chi_square_gof(samples, stats.geom(0.4, loc=-1).logpmf)
        assert rep.passed
        assert "cells" in rep.detail

    def test_geometric_against_wrong_parameter(self):
        gen = np.random.default_rng(11)
        samples = gen.geometric(0.4, size=2000) - 1
        rep = chi_square_gof(samples, stats.geom(0.6, loc=-1).logpmf)
        assert not rep.passed

    def test_pooling_keeps_expected_cells_full(self):
        gen = np.random.default_rng(3)
        samples = gen.poisson(8.0, size=500)
        rep = chi_square_gof(samples, stats.poisson(8.0).logpmf, min_expected=5.0)
        assert rep.passed

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            chi_square_gof(np.arange(10), stats.poisson(3.0).logpmf)

    def test_degenerate_sample_has_no_spread(self):
        with pytest.raises(DomainError, match="pooling"):
            chi_square_gof(np.zeros(100, dtype=int), stats.poisson(0.001).logpmf)


class TestChiSquareTwoSample:
    def test_same_law_passes(self):
        gen = np.random.default_rng(5)
        a = [(int(k), int(s)) for k, s in zip(gen.poisson(2, 800), gen.poisson(5, 800))]
        b = [(int(k), int(s)) for k, s in zip(gen.poisson(2, 800), gen.poisson(5, 800))]
        assert chi_square_two_sample(a, b).passed

    def test_shifted_law_fails(self):
        gen = np.random.default_rng(5)
        a = list(gen.poisson(2, 1500))
        b = list(gen.poisson(3, 1500))
        assert not chi_square_two_sample(a, b).passed

    def test_single_cell_counts_as_agreement(self):
        rep = chi_square_two_sample([0] * 50, [0] * 60)
        assert rep.passed
        assert "one cell" in rep.detail

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            chi_square_two_sample([], [1])

    def test_rare_categories_are_pooled(self):
        a = [0] * 400 + [1] * 100 + [7] * 2 + [9] * 1
        b = [0] * 390 + [1] * 110 + [8] * 3
        rep = chi_square_two_sample(a, b)
        assert rep.passed


class TestOracleChecks:
    def test_log_partition_gamma(self):
        rep = oracle_log_partition(gamma_prior(), (0.5,), 2.0)
        assert rep.passed
        assert "closed form" in rep.detail

    def test_log_partition_unregistered_notes_shared_path(self):
        rep = oracle_log_partition(unregistered(gamma_prior()), (0.5,), 2.0)
        assert rep.passed
        assert "no closed form" in rep.detail

    def test_rate_oracle_gamma(self):
        assert oracle_rate_M(gamma_prior(), 2, 3).passed

    def test_rate_oracle_binary_and_odds(self):
        assert oracle_rate_M(beta_prior(), 1, 1).passed
        assert oracle_rate_M(odds_prior(), 3, 1).passed

    def test_round_total_oracle(self):
        for m in (1, 2, 4):
            assert oracle_round_total(gamma_prior(), m).passed
        assert oracle_round_total(beta_prior(), 2).passed

    def test_predictive_oracle_gamma(self):
        rep = oracle_predictive_pmf(gamma_prior(), (0.0,), 2.0)
        assert rep.passed
        assert "x=0" in rep.detail

    def test_predictive_oracle_binary(self):
        rep = oracle_predictive_pmf(beta_prior(), (0.0,), 3.0)
        assert rep.passed

    def test_weight_law_gamma(self):
        assert oracle_weight_law(gamma_prior(), (0.0,), 2.0, reps=2500, seed=1).passed

    def test_weight_law_without_draws_raises(self):
        with pytest.raises(DomainError, match="weight-law oracle needs at least one draw, got 0"):
            oracle_weight_law(gamma_prior(), (0.0,), 2.0, reps=0)
        with pytest.raises(DomainError, match="weight-law oracle needs at least one draw, got 0"):
            oracle_suite(gamma_prior(), reps=0)

    def test_weight_law_heavy_tail(self):
        assert oracle_weight_law(odds_prior(), (-0.3,), 1.4, reps=2500, seed=2).passed

    def test_suite_runs_every_oracle_for_binary(self):
        reports = oracle_suite(beta_prior(), seed=4, reps=1500)
        # binary support drops the x = 2 probe cells: 2 partitions, 2 rates,
        # 3 totals, 1 predictive, 1 weight law
        assert len(reports) == 9
        assert all(r.passed for r in reports)

    def test_suite_runs_every_oracle_for_gamma(self):
        reports = oracle_suite(gamma_prior(), seed=4, reps=1500)
        # 4 probe cells give 4 partitions and 4 rates, plus 3 totals, the
        # predictive, and the weight law
        assert len(reports) == 13
        assert all(r.passed for r in reports)

    def test_suite_runs_on_a_steep_bounded_weight_law(self):
        # the weight law at cell (1, 1) is Beta(0.7, 4.75), which falls
        # to zero like (1 - theta)^3.75 at its finite top
        nb = get_entry("negative_binomial", r=2.5)
        prior = ExpCrmPrior(nb.make_likelihood(), 1.2, (-1.3,), 0.5)
        reports = oracle_suite(prior, seed=1, reps=300)
        assert len(reports) == 13
        assert all(r.passed for r in reports)


# a gamma clone, and a Bernoulli clone that keeps its log_kernel_upper_fn, with the
# number of oracle reports each gets (the Bernoulli support drops the count-2 cells)
CLONES = [
    pytest.param(lambda: unregistered(gamma_prior(2.0, -1.5, 1.0)), 13, id="gamma"),
    pytest.param(lambda: unregistered(beta_prior(3.0, -1.0, 1.0)), 9, id="bernoulli"),
]


class TestOutsideTheCatalog:
    """The assumption and oracle suites on families without closed forms, whose integrands'
    endpoint powers are left for the quadrature to probe."""

    @pytest.mark.parametrize("make, n_oracle", CLONES)
    def test_both_suites_pass(self, make, n_oracle):
        prior = make()
        assert _integrand_orders(prior.likelihood, prior.xi, prior.lam, 1, 1) == (None, None)
        assert _integrand_orders(prior.likelihood, prior.xi, prior.lam, 2, None) == (None, None)
        assumptions = check_assumptions(prior)
        oracle = oracle_suite(prior, seed=4, reps=1500)
        assert (len(assumptions), len(oracle)) == (3, n_oracle)
        assert [str(r) for r in assumptions + oracle if not r.passed] == []
        partitions = [r for r in oracle if r.name.startswith("log partition")]
        assert partitions and all("no closed form" in r.detail for r in partitions)

    def test_the_bernoulli_clone_keeps_its_upper_kernel(self):
        assert unregistered(beta_prior()).likelihood.log_kernel_upper_fn is not None


class TestEquivalence:
    def test_gamma_processes_agree(self):
        reports = equivalence_run(gamma_prior(), n_steps=2, reps=700, seed=5)
        assert len(reports) == 2
        assert all(r.passed for r in reports)

    def test_binary_processes_agree(self):
        reports = equivalence_run(beta_prior(), n_steps=2, reps=700, seed=6)
        assert all(r.passed for r in reports)

    def test_deterministic_in_seed(self):
        a = equivalence_run(gamma_prior(), n_steps=2, reps=200, seed=9)
        b = equivalence_run(gamma_prior(), n_steps=2, reps=200, seed=9)
        assert [r.statistic for r in a] == [r.statistic for r in b]

    def test_needs_replicates(self):
        with pytest.raises(DomainError):
            equivalence_run(gamma_prior(), reps=50)

    def test_detects_a_broken_sampler(self):
        # same machinery, deliberately mismatched models: the marginal side
        # runs at half the mass, so round-1 birth counts must differ
        import expcrm.checks as checks_mod

        sb_side = gamma_prior(mass=2.0)
        reports = _mismatched_equivalence(checks_mod, sb_side, gamma_prior(mass=1.0))
        assert not reports[0].passed


def _mismatched_equivalence(checks_mod, prior_sb, prior_mg, reps=900, seed=3):
    """equivalence_run with different models on each side, for power tests."""
    from expcrm.marginal import MarginalConfig, MarginalSampler
    from expcrm.size_biased import SizeBiasedConfig, SizeBiasedSampler

    sb = SizeBiasedSampler(prior_sb, SizeBiasedConfig(m_max=1, x_max=50))
    mg = MarginalSampler(prior_mg, MarginalConfig(x_max=50))
    sb_stats, mg_stats = [], []
    for r in range(reps):
        labeled = sb.draw_labeled(RngState(seed, stream=2 * r))
        mask = labeled.rounds == 1
        sb_stats.append((int(mask.sum()), int(labeled.counts[mask].sum())))
        obs = mg.sample(1, RngState(seed, stream=2 * r + 1))[0]
        births = [a.count for a in obs.atoms]
        mg_stats.append((len(births), int(sum(births))))
    return [chi_square_two_sample(sb_stats, mg_stats, name="mismatched round 1")]


class TestRunSuite:
    def test_assumptions_suite(self):
        reports = run_suite(gamma_prior(), "assumptions").reports
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_oracle_suite_dispatch(self):
        reports = run_suite(beta_prior(), "oracle", seed=2, reps=1200).reports
        assert all(r.passed for r in reports)

    def test_equivalence_suite_dispatch(self):
        reports = run_suite(gamma_prior(), "equivalence", seed=8, reps=400).reports
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_equivalence_below_its_minimum_reps_raises(self):
        message = f"equivalence needs at least {EQUIVALENCE_MIN_REPS} replicates per sampler"
        with pytest.raises(DomainError, match=message):
            equivalence_run(gamma_prior(), reps=EQUIVALENCE_MIN_REPS - 1)
        with pytest.raises(DomainError, match=message):
            run_suite(gamma_prior(), "equivalence", reps=EQUIVALENCE_MIN_REPS - 1)

    def test_a_refused_equivalence_call_builds_no_table(self, rate_tables_built):
        with pytest.raises(DomainError, match="equivalence needs at least"):
            run_suite(gamma_prior(), "equivalence", reps=EQUIVALENCE_MIN_REPS - 1)
        assert rate_tables_built == []

    def test_unknown_suite(self):
        with pytest.raises(DomainError, match="unknown suite"):
            run_suite(gamma_prior(), "everything")

    def test_a_suite_that_truncates_nothing_records_none(self):
        run = run_suite(gamma_prior(), "assumptions", reps=5)
        assert (len(run.reports), run.reps, run.policy, run.certificate) == (3, 5, None, None)

    def test_oracle_record_states_the_weights_drawn(self):
        run = run_suite(gamma_prior(), "oracle", reps=5)
        assert run.reps == 1000
        assert run.reports[-1].detail.startswith("n = 1000, ")
        assert (run.policy, run.certificate) == (None, None)

    def test_equivalence_record_reads_the_one_table_its_samplers_read(self, rate_tables_built):
        run = run_suite(gamma_prior(), "equivalence", seed=8, reps=100, x_max=20, eps_tail=1e-4)
        (table,) = rate_tables_built
        assert run.reps == 100
        assert run.policy == {"rounds": len(run.reports), "x_max": 20, "eps_tail": 1e-4}
        assert run.certificate == {
            "size_biased": table.draw_certificate(3),
            "marginal": table.stream_certificate(3),
        }
        assert run.certificate["size_biased"]["rounds"] == run.certificate["marginal"]["steps"] == 3
