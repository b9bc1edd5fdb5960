"""Rate rows and predictive chunks of unregistered families: one panel law each.

Every cell of a rate row, the round total and every B of a predictive chunk
are integrals of one exponential family over the same weights, so a family
without closed forms integrates each of them on one shared set of panels.
The clones below are the catalog families under ids the catalog does not
know, checked against the catalog's closed forms.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gammaln

from expcrm import quadrature
from expcrm.catalog import BERNOULLI_BETA, ODDS_BERNOULLI_BETA_PRIME, POISSON_GAMMA, get_entry
from expcrm.exp_family import ExpCrmPrior, FixedAtomParams, QuadratureFamily, log_partition_B
from expcrm.marginal import predictive_logpmf
from expcrm.measures import Location
from expcrm.quadrature import IntegrandSpec, PanelLaw, integrate, log_integrate
from expcrm.rng import RngState
from expcrm.size_biased import RateTable, SizeBiasedConfig, SizeBiasedSampler, round_total

NB = get_entry("negative_binomial", r=2.5)

# (entry, xi, lam, fields replaced on the clone)
CLONES = {
    "gamma": (POISSON_GAMMA, -1.2, 1.1, {}),
    "negative-binomial": (NB, -1.5, 3.0, {}),
    "beta-prime": (ODDS_BERNOULLI_BETA_PRIME, -1.3, 1.2, {}),
    "beta": (BERNOULLI_BETA, -1.0, 1.0, {}),
    "beta-without-top-evaluator": (BERNOULLI_BETA, -1.0, 1.0, {"log_kernel_upper_fn": None}),
}
PREDICTIVE_POINTS = [(0.5, 3.0), (3.0, 10.0), (20.0, 40.0)]
# Bernoulli kernels t^xi (1 - t)^(lam - xi) of top power -0.95: the weight
# laws Beta(0.5, 0.05), Beta(1.5, 0.05) and Beta(2.5, 0.05)
STEEP_TOP_POINTS = [(-0.5, -1.45), (0.5, -0.45), (1.5, 0.55)]


def clone(entry, **fields):
    like = entry.make_likelihood()
    return dataclasses.replace(like, family="mystery-" + like.family, **fields)


def priors(name):
    entry, xi, lam, fields = CLONES[name]
    catalog = ExpCrmPrior(entry.make_likelihood(), 2.0, (xi,), lam)
    return catalog, ExpCrmPrior(clone(entry, **fields), 2.0, (xi,), lam)


@pytest.mark.parametrize("name", sorted(CLONES))
def test_rows_match_the_catalog(name):
    catalog, unregistered = priors(name)
    rounds = 200 if name == "gamma" else 60
    want, got = RateTable(catalog, 16, 1e-6), RateTable(unregistered, 16, 1e-6)
    np.testing.assert_allclose(got.rates(rounds), want.rates(rounds), rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(got.totals(rounds), want.totals(rounds), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("name", sorted(CLONES))
@pytest.mark.parametrize("xi, lam", PREDICTIVE_POINTS)
def test_predictive_matches_the_catalog(name, xi, lam):
    entry, _, _, fields = CLONES[name]
    xs = np.arange(0, 8 if entry.make_likelihood().support_bound is None else 2)
    want = predictive_logpmf(entry.make_likelihood(), (xi,), lam, xs)
    got = predictive_logpmf(clone(entry, **fields), (xi,), lam, xs)
    np.testing.assert_allclose(np.exp(got), np.exp(want), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("name", sorted(CLONES))
def test_round_total_is_the_rows_total(name):
    _, unregistered = priors(name)
    totals = RateTable(unregistered, 16, 1e-6).totals(5)
    for m in range(1, 6):
        assert round_total(unregistered, m) == pytest.approx(totals[m - 1], rel=1e-10, abs=0.0)


@pytest.mark.parametrize("xi, lam", STEEP_TOP_POINTS)
def test_steep_top_is_reached_through_the_top_evaluator(xi, lam):
    # the probe, the declaration check and the panels all reach the top
    # through log_kernel_upper_fn; a probe through 1 - v is 1e-9 off the
    # power, and the predictive law then fails its error bound
    like = clone(BERNOULLI_BETA)
    xs = np.arange(2)
    want = predictive_logpmf(BERNOULLI_BETA.make_likelihood(), (xi,), lam, xs)
    got = predictive_logpmf(like, (xi,), lam, xs)
    np.testing.assert_allclose(np.exp(got), np.exp(want), rtol=1e-9, atol=0.0)
    assert log_partition_B(like, (xi,), lam) == pytest.approx(
        BERNOULLI_BETA.log_B((xi,), lam), rel=0.0, abs=1e-9
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: reached only through 1 - v, the top power -0.95 is probed about "
    "1e-9 off, so the weight law's error bound is 397-451 rel_tol of its total, above the 50 "
    "rel_tol log_integrate enforces, and draw_weights draws from it without a word",
)
@pytest.mark.parametrize("xi, lam", STEEP_TOP_POINTS)
def test_weight_law_without_the_top_evaluator_meets_its_tolerance(xi, lam):
    law = QuadratureFamily(clone(BERNOULLI_BETA, log_kernel_upper_fn=None)).weight_law((xi,), lam)
    assert law.err <= 50.0 * 1e-10 * law.total


def test_predictive_out_of_support_is_log_zero():
    got = predictive_logpmf(clone(BERNOULLI_BETA), (0.5,), 3.0, np.array([[0, 2], [1, 3]]))
    assert got.shape == (2, 2)
    assert np.isneginf(got[:, 1]).all() and np.isfinite(got[:, 0]).all()


def test_predictive_at_posterior_scale():
    # the base kernel peaks near 1e6, far above the starting knots
    xs = np.arange(8)
    want = predictive_logpmf(POISSON_GAMMA.make_likelihood(), (1000.0,), 1e-3, xs)
    got = predictive_logpmf(clone(POISSON_GAMMA), (1000.0,), 1e-3, xs)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestOneLawPerRow:
    """A return to quadrature per cell fails here."""

    @pytest.fixture
    def laws(self, monkeypatch):
        made = []
        init = PanelLaw.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PanelLaw, "__init__", counting)
        return made

    def test_rate_table_makes_one_law_per_round(self, laws):
        _, unregistered = priors("gamma")
        RateTable(unregistered, x_max=16, eps_tail=1e-6).rates(50)
        assert len(laws) <= 50

    def test_predictive_chunk_is_one_law(self, laws):
        predictive_logpmf(clone(POISSON_GAMMA), (0.5,), 3.0, np.arange(8))
        assert len(laws) == 1


class TestColumns:
    """One law over k columns against k one-column laws."""

    @staticmethod
    def gamma_columns(shapes, rate):
        shapes = np.asarray(shapes, dtype=float)
        return IntegrandSpec(
            lambda t: np.multiply.outer(np.log(t), shapes - 1.0) - rate * t[:, None],
            upper=math.inf, lower_order=shapes - 1.0, upper_order=np.full(shapes.size, np.nan),
            name="gamma columns",
        )

    def test_columns_match_their_own_laws(self):
        shapes, rate = [0.3, 1.0, 2.5, 7.0, 40.0], 1.7
        logs = log_integrate(self.gamma_columns(shapes, rate))
        want = [gammaln(a) - a * math.log(rate) for a in shapes]
        np.testing.assert_allclose(logs, want, rtol=1e-13, atol=1e-12)
        for a, got in zip(shapes, logs):
            spec = IntegrandSpec(
                lambda t, a=a: (a - 1.0) * np.log(t) - rate * t, upper=math.inf, lower_order=a - 1.0
            )
            assert got == pytest.approx(math.log(integrate(spec)[0]), abs=1e-12)

    def test_each_column_keeps_its_own_shift(self):
        # logs of the integrands 13,000 apart, and one of them far above the
        # starting knots: no column overflows or underflows another
        shapes, rate = [0.5, 1001.0], 1e-3
        want = [gammaln(a) - a * math.log(rate) for a in shapes]
        np.testing.assert_allclose(log_integrate(self.gamma_columns(shapes, rate)), want, rtol=1e-12)

    def test_one_column_gives_floats_and_columns_give_arrays(self):
        one = PanelLaw(IntegrandSpec(lambda t: np.log(t) - t, math.inf, 1.0), 1e-10)
        assert all(type(v) is float for v in (one.shift, one.total, one.err))
        many = PanelLaw(self.gamma_columns([2.0, 3.0], 1.0), 1e-10)
        assert many.total.shape == many.err.shape == many.shift.shape == (2,)
        np.testing.assert_allclose(many.total * np.exp(many.shift), [1.0, 2.0], rtol=1e-13)


class TestOneLoopPerDraw:
    """A return to a Newton loop per cell fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """``calls(owner, name)``: a list that grows by the arguments of each call of owner.name."""

        def watch(owner, name):
            made = []
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                made.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
            return made

        return watch

    @pytest.mark.parametrize("atoms", [(), ((0.3, 0.5, 2.0), (0.7, -0.5, 1.0))], ids=["plain", "fixed"])
    def test_clone_draw_runs_one_loop_for_its_cells(self, calls, atoms):
        _, unregistered = priors("gamma")
        fixed = tuple(FixedAtomParams(Location(v), (xi,), lam) for v, xi, lam in atoms)
        prior = dataclasses.replace(unregistered, mass=6.0, fixed_atoms=fixed)
        sampler = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=20, x_max=16, eps_tail=1e-5))
        loops = calls(quadrature, "_newton")
        for seed in range(3):
            loops.clear()
            measure = sampler.draw(RngState(seed))
            assert len(loops) == (2 if atoms else 1)
            labeled = sampler.draw_labeled(RngState(seed))
            assert len(measure.ordinary_atoms) > 1 and np.unique(labeled.rounds).size > 1
