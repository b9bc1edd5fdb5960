import math
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from expcrm.catalog import (
    BERNOULLI_BETA,
    ODDS_BERNOULLI_BETA_PRIME,
    POISSON_GAMMA,
    entry_for,
    family_of,
    get_entry,
    hyperparam_valid,
    list_entries,
    map_bp_params,
    map_bp_params_inverse,
)
from expcrm.checks import _integrand_orders, _literal_integral, check_assumptions
from expcrm.errors import DivergenceSuspected, DomainError
from expcrm.exp_family import (
    ExpCrmPrior,
    FixedAtomParams,
    QuadratureFamily,
    fixed_atom_density,
    log_conjugate_kernel,
    weight_rate_density,
)
from expcrm.measures import Location
from expcrm.quadrature import IntegrandSpec, integrate
from expcrm.rng import RngState
from expcrm.size_biased import rate_M

NB = get_entry("negative_binomial", r=2.5)


def closed_rate(entry, mass, xi, lam, m, x):
    """M(m, x) from the entry's ``rate_table``, one cell of what ``rate_rows`` tabulates."""
    return float(entry.rate_table(mass, xi, lam, np.array([m]), np.array([x]))[0, 0])


def closed_total(entry, mass, xi, lam, m):
    """The round-m total from the entry's ``round_totals``, as ``rate_rows`` reads it."""
    return float(entry.round_totals(mass, xi, lam, np.array([m], dtype=float))[0])


def rate_by_quadrature(entry, mass, xi, lam, m, x, rel_tol=1e-10):
    """mass * integral of l(0|t)^(m-1) l(x|t) * kernel, straight from the
    likelihood; independent of the entry's closed-form B."""
    return _literal_integral(entry.make_likelihood(), xi, lam, m, x, mass, rel_tol)


def total_by_quadrature(entry, mass, xi, lam, m, rel_tol=1e-10):
    """mass * integral of kernel * l(0|t)^(m-1) * (1 - l(0|t))."""
    return _literal_integral(entry.make_likelihood(), xi, lam, m, None, mass, rel_tol)


class TestRegistry:
    def test_get_entry(self):
        assert get_entry("poisson") is POISSON_GAMMA
        assert get_entry("bernoulli") is BERNOULLI_BETA
        assert get_entry("odds_bernoulli") is ODDS_BERNOULLI_BETA_PRIME
        nb = get_entry("negative_binomial", r=2.5)
        assert nb.family == "negative_binomial(2.5)"
        assert nb.r == 2.5

    def test_get_entry_errors(self):
        with pytest.raises(DomainError, match="shape parameter r"):
            get_entry("negative_binomial")
        with pytest.raises(DomainError, match="no shape parameter"):
            get_entry("poisson", r=2.0)
        with pytest.raises(DomainError, match="unknown family"):
            get_entry("zeta")
        with pytest.raises(DomainError):
            get_entry("negative_binomial", r=-1.0)

    def test_entry_for(self):
        assert entry_for(POISSON_GAMMA.make_likelihood()) is POISSON_GAMMA
        assert entry_for(NB.make_likelihood()) is not None
        import dataclasses

        custom = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="other")
        assert entry_for(custom) is None

    @pytest.mark.parametrize(
        "family",
        ["negative_binomial(3.0)", "negative_binomial(-1)", "negative_binomial(x)",
         "negative_binomial(nan)", "negative_binomial(inf)", "negative_binomial"],
    )
    def test_an_id_the_catalog_never_writes_gets_quadrature(self, family):
        import dataclasses

        like = dataclasses.replace(NB.make_likelihood(), family=family)
        assert entry_for(like) is None
        assert isinstance(family_of(like), QuadratureFamily)

    def test_list_entries_and_describe(self):
        entries = list_entries()
        assert POISSON_GAMMA in entries and BERNOULLI_BETA in entries
        for entry in entries:
            d = entry.describe()
            for key in ("likelihood", "prior", "counts", "weights", "valid", "fixed_atoms"):
                assert key in d, (entry.family, key)
        assert "native" in BERNOULLI_BETA.describe()
        assert "native" in NB.describe()

    def test_list_entries_is_one_per_family(self):
        families = [e.family for e in list_entries()]
        assert families == ["poisson", "bernoulli", "odds_bernoulli", "negative_binomial(1)"]

    def test_nearby_shapes_get_their_own_entries(self):
        # %g keeps six digits: both shapes once wrote negative_binomial(2.5)
        near = get_entry("negative_binomial", 2.50000001)
        assert near.r == 2.50000001
        assert near.family == "negative_binomial(2.50000001)"
        assert get_entry("negative_binomial", 2.5).r == 2.5

    def test_a_new_shape_leaves_other_entries_in_place(self):
        from expcrm.catalog import NegativeBinomialBeta

        NegativeBinomialBeta(2.5000004)
        assert entry_for(NB.make_likelihood()).r == 2.5
        assert entry_for(get_entry("negative_binomial", 2.5000004).make_likelihood()).r == 2.5000004

    @pytest.mark.parametrize(
        "r, family",
        [
            (1.0, "negative_binomial(1)"),
            (2.5, "negative_binomial(2.5)"),
            (1e-7, "negative_binomial(1e-07)"),
            (1 / 3, "negative_binomial(0.3333333333333333)"),
            (123456.7, "negative_binomial(123456.7)"),
        ],
    )
    def test_family_id_reads_back_as_its_shape(self, r, family):
        entry = get_entry("negative_binomial", r)
        assert entry.family == family
        assert float(family[len("negative_binomial("):-1]) == r


def closed_form_log_h(entry, x):
    if entry.likelihood_id == "poisson":
        return -gammaln(x + 1.0)
    if entry.likelihood_id == "negative_binomial":
        return gammaln(x + entry.r) - gammaln(entry.r) - gammaln(x + 1.0)
    return 0.0 if x in (0, 1) else -math.inf


class TestBaseDerivedFacts:
    """phi and h come from the base entry; the closed forms assume them."""

    @pytest.mark.parametrize("entry", list_entries() + [NB], ids=lambda e: e.family)
    def test_phi_is_identity_and_h_matches_closed_form(self, entry):
        like = entry.make_likelihood()
        assert like.log_h(0) == 0.0  # h(0) = 1, which rate_table and predictive_logpmf assume
        for x in range(31):
            assert like.phi(x) == (float(x),)
            assert like.log_h(x) == pytest.approx(closed_form_log_h(entry, x), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("entry", [BERNOULLI_BETA, NB, ODDS_BERNOULLI_BETA_PRIME],
                             ids=lambda e: e.family)
    def test_draws_on_an_edge_of_the_domain_are_clipped(self, entry):
        class OnTheEdges(np.random.Generator):
            """Puts weights of its draws on the edges of the domain.

            Beta draws get 0.0 and 1.0; odds, drawn as ratios of gamma pairs,
            get a 0.0 numerator in the first pair and a 0.0 denominator in the
            second.
            """

            calls = 0

            def beta(self, a, b, size=None):
                self.calls += 1
                out = np.array(super().beta(a, b, size), dtype=float)
                out[0], out[1] = 0.0, 1.0
                return out

            def standard_gamma(self, shape, size=None):
                self.calls += 1
                out = np.array(super().standard_gamma(shape, size), dtype=float)
                out[0], out[3] = 0.0, 0.0
                return out

        gen = OnTheEdges(np.random.PCG64(7))
        twin = np.random.Generator(np.random.PCG64(7))
        draws = entry.sample_weights(gen, (-0.5,), 2.0, 6)
        domain = entry.make_likelihood().weight_domain
        top = {
            BERNOULLI_BETA: 1.0, NB: np.nextafter(1.0, 0.0), ODDS_BERNOULLI_BETA_PRIME: sys.float_info.max,
        }[entry]
        # one generator call, nothing redrawn: the draw is the clipped call
        assert gen.calls == 1
        assert 0.0 < draws[0] <= 1e-323 and draws[1] == top
        assert domain.contains(draws).all()
        exact = entry.sample_weights(twin, (-0.5,), 2.0, 6)
        assert draws[2:].tobytes() == exact[2:].tobytes()

    @pytest.mark.parametrize("entry, lam", [(BERNOULLI_BETA, -1.45), (NB, -0.38)],
                             ids=["bernoulli", "negative_binomial(2.5)"])
    def test_beta_draws_keep_the_mass_next_to_one(self, entry, lam):
        # the law is Beta(0.5, 0.05): about 30% of its mass lies within 1e-10
        # of 1, and about half of all draws in that band round onto 1.0, so
        # the band's share shows whether they were kept.  A KS test cannot:
        # draws kept at the top are tied, which reads as D near 0.14 even
        # when the mass is right
        n = 20_000
        draws = entry.sample_weights(RngState(5).generator(), (-0.5,), lam, n)
        p = stats.beta(0.5, 0.05).sf(1.0 - 1e-10)
        share = np.mean(draws >= 1.0 - 1e-10)
        assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
        assert entry.make_likelihood().weight_domain.contains(draws).all()

    def test_odds_pair_of_zero_gammas_gives_a_finite_weight(self):
        class ZeroGammas(np.random.Generator):
            def standard_gamma(self, shape, size=None):
                return np.zeros_like(super().standard_gamma(shape, size))

        draws = ODDS_BERNOULLI_BETA_PRIME.sample_weights(
            ZeroGammas(np.random.PCG64(7)), (-0.5,), 2.0, 3
        )
        assert np.isfinite(draws).all() and (draws > 0.0).all()

    def test_odds_draws_keep_heavy_tails(self):
        # Beta-prime(0.5, 0.05): about 15% of the mass lies above odds 1e16,
        # where y / (1 - y) of a beta draw y would round y onto 1
        draws = ODDS_BERNOULLI_BETA_PRIME.sample_weights(RngState(5).generator(), (-0.5,), 0.55, 4000)
        assert stats.kstest(draws, stats.betaprime(0.5, 0.05).cdf).pvalue > 0.01

    @pytest.mark.parametrize(
        "entry, bad_lam, lam_reason",
        [
            (POISSON_GAMMA, 0.0, "A2 fails: lam must be positive"),
            (ODDS_BERNOULLI_BETA_PRIME, -0.7, "A2 fails: lam must exceed xi + 1"),
            (NB, -0.4, "A2 fails: lam * r must exceed -1"),
        ],
        ids=["poisson", "odds_bernoulli", "negative_binomial(2.5)"],
    )
    def test_region_messages(self, entry, bad_lam, lam_reason):
        assert entry.hyperparam_valid(1.0, (-0.5,), 1.0).reason.startswith("A1 fails")
        assert entry.hyperparam_valid(1.0, (-2.0,), 1.0).reason.startswith(
            "A2 fails: xi must exceed -2"
        )
        assert entry.hyperparam_valid(1.0, (-1.5,), bad_lam).reason.startswith(lam_reason)
        assert entry.hyperparam_valid(1.0, (-1.5,), 1.0).ok


class TestLogB:
    # frozen high-precision anchors
    CASES = [
        (POISSON_GAMMA, -0.5, 2.0, 0.2257913526447274323630976),
        (BERNOULLI_BETA, -0.2, 0.4, -0.1773914097457598266761694),
        (ODDS_BERNOULLI_BETA_PRIME, -0.6, 1.9, 0.7148798559896218742380018),
        (NB, -0.5, 0.3, 0.3630921070118179368114864),
    ]

    @pytest.mark.parametrize("entry,xi0,lam,want", CASES, ids=lambda v: str(v)[:18])
    def test_anchors(self, entry, xi0, lam, want):
        assert entry.log_B((xi0,), lam) == pytest.approx(want, rel=5e-14)

    def test_proper_boundaries(self):
        assert POISSON_GAMMA.proper((-0.5,), 1.0)
        assert not POISSON_GAMMA.proper((-1.0,), 1.0)
        assert not POISSON_GAMMA.proper((-0.5,), 0.0)
        assert BERNOULLI_BETA.proper((-0.2,), 0.4)
        assert not BERNOULLI_BETA.proper((-0.2,), -1.3)
        assert ODDS_BERNOULLI_BETA_PRIME.proper((-0.6,), 1.9)
        assert not ODDS_BERNOULLI_BETA_PRIME.proper((-0.6,), 0.4)
        assert NB.proper((-0.5,), 0.3)
        assert not NB.proper((-0.5,), -0.4)


class TestRates:
    def test_gamma_known_values(self):
        # B(0, 2) = -log 2 so the round-1 count-1 rate is exactly 1/2
        assert closed_rate(POISSON_GAMMA, 1.0, (-1.0,), 1.0, 1, 1) == pytest.approx(0.5, rel=1e-14)
        # m=2, x=3: h(3) exp(B(2, 3)) = (1/6)(2/27)
        assert closed_rate(POISSON_GAMMA, 1.0, (-1.0,), 1.0, 2, 3) == pytest.approx(
            0.01234567901234567901234568, rel=1e-13
        )

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_binary_special_point_rates(self, m):
        # at (xi, lam) = (-1, -1) the count-1 rate is mass/m
        got = closed_rate(BERNOULLI_BETA, 1.7, (-1.0,), -1.0, m, 1)
        assert got == pytest.approx(1.7 / m, rel=1e-13)

    def test_frozen_anchor_rates(self):
        got = closed_rate(ODDS_BERNOULLI_BETA_PRIME, 0.8, (-1.6,), 0.5, 3, 1)
        assert got == pytest.approx(1.1734354721890377, rel=1e-12)
        got = closed_rate(NB, 1.1, (-1.5,), 0.3, 2, 3)
        assert got == pytest.approx(0.06290563388768598, rel=1e-12)

    def test_argument_validation(self):
        gamma = ExpCrmPrior(POISSON_GAMMA.make_likelihood(), 1.0, (-1.0,), 1.0)
        with pytest.raises(DomainError):
            rate_M(gamma, 0, 1)
        with pytest.raises(DomainError):
            rate_M(gamma, 1, 0)
        beta = ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), 1.0, (-1.0,), -1.0)
        assert rate_M(beta, 1, 2) == 0.0

    def test_rate_table_matches_pointwise(self):
        m = np.array([1, 2, 3])
        x = np.array([1, 2, 4])
        table = POISSON_GAMMA.rate_table(1.3, (-1.35,), 0.8, m, x)
        assert table.shape == (3, 3)
        for i, mi in enumerate(m):
            for j, xj in enumerate(x):
                want = closed_rate(POISSON_GAMMA, 1.3, (-1.35,), 0.8, int(mi), int(xj))
                assert table[i, j] == pytest.approx(want, rel=1e-14)

    QUAD_CASES = [
        (POISSON_GAMMA, 1.3, -1.35, 0.8, 2, 2),
        (BERNOULLI_BETA, 1.5, -1.3, 0.2, 2, 1),
        (BERNOULLI_BETA, 1.5, -1.3, 0.2, 1, 1),
        (ODDS_BERNOULLI_BETA_PRIME, 0.8, -1.6, 0.5, 3, 1),
        (NB, 1.1, -1.5, 0.3, 2, 3),
    ]

    @pytest.mark.parametrize("entry,mass,xi0,lam,m,x", QUAD_CASES, ids=lambda v: str(v)[:18])
    def test_rates_against_quadrature(self, entry, mass, xi0, lam, m, x):
        closed = closed_rate(entry, mass, (xi0,), lam, m, x)
        numeric = rate_by_quadrature(entry, mass, (xi0,), lam, m, x)
        assert closed == pytest.approx(numeric, rel=1e-8)

    def test_gamma_rate_divergence_guard(self):
        like = POISSON_GAMMA.make_likelihood()
        # lam + m = -1: the rate integrand grows like e^theta
        with pytest.raises(DivergenceSuspected):
            _integrand_orders(like, (-1.5,), -3.0, 2, 1)
        # m = 0, x = 0 is the kernel itself, here at lam = -0.5
        with pytest.raises(DivergenceSuspected):
            _integrand_orders(like, (-1.5,), -0.5, 0, 0)
        with pytest.raises(DivergenceSuspected):
            POISSON_GAMMA.kernel_orders((-1.5,), -0.5)

    def test_gamma_a2_at_lam_zero_is_finite(self):
        # theta^-1.5 (1 - e^-theta) decays like theta^-1.5 at infinity when
        # lam = 0, so the round-1 rate is finite: Gamma(-1/2) * -1 = 2 sqrt(pi)
        like = POISSON_GAMMA.make_likelihood()
        assert _integrand_orders(like, (-1.5,), 0.0, 1, None) == (-0.5, -1.5)
        a2 = check_assumptions(ExpCrmPrior(like, 1.0, (-1.5,), 0.0))[2]
        assert a2.passed, a2.detail
        assert a2.statistic == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-8)


class TestRoundTotals:
    def test_gamma_unit_point(self):
        # integral of t^-1 e^-t (1 - e^-t) dt = log 2
        got = closed_total(POISSON_GAMMA, 1.0, (-1.0,), 1.0, 1)
        assert got == pytest.approx(0.6931471805599453094172321, rel=1e-13)

    def test_gamma_digamma_free_branch(self):
        # s = 0 takes the log-ratio limit exactly
        got = POISSON_GAMMA.round_totals(2.0, (-1.0,), 1.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(got, 2.0 * np.log([2.0, 3.0 / 2.0]), rtol=1e-14)

    def test_binary_matches_x1_rate(self):
        got = closed_total(BERNOULLI_BETA, 1.5, (-1.3,), 0.2, 2)
        assert got == pytest.approx(closed_rate(BERNOULLI_BETA, 1.5, (-1.3,), 0.2, 2, 1), rel=1e-14)
        got = closed_total(ODDS_BERNOULLI_BETA_PRIME, 0.8, (-1.6,), 0.5, 3)
        assert got == pytest.approx(
            closed_rate(ODDS_BERNOULLI_BETA_PRIME, 0.8, (-1.6,), 0.5, 3, 1), rel=1e-14
        )

    def test_nb_frozen_anchors(self):
        # continuation with opposite-sign Gamma factors
        got = closed_total(get_entry("negative_binomial", r=1.0), 1.0, (-1.9,), -0.8, 1)
        assert got == pytest.approx(14.5993714927648299428731, rel=1e-12)
        # continuation where both Gamma factors are negative
        got = closed_total(get_entry("negative_binomial", r=0.3), 1.0, (-1.6,), -2.5, 1)
        assert got == pytest.approx(3.098076010603295214858524, rel=1e-12)
        # s = 0 digamma branch
        got = closed_total(NB, 1.0, (-1.0,), 0.4, 2)
        assert got == pytest.approx(0.4839134087389382378820833, rel=1e-12)
        # plain branch
        got = closed_total(NB, 1.1, (-1.5,), 0.3, 2)
        assert got == pytest.approx(2.251362151220441, rel=1e-12)

    def test_nb_vector_mixes_sign_branches(self):
        nb1 = get_entry("negative_binomial", r=1.0)
        arr = nb1.round_totals(1.0, (-1.9,), -0.8, np.array([1.0, 2.0, 3.0]))
        assert arr[0] == pytest.approx(14.5993714927648299428731, rel=1e-12)
        for k, m in enumerate([1, 2, 3]):
            assert arr[k] == pytest.approx(closed_total(nb1, 1.0, (-1.9,), -0.8, m), rel=1e-14)

    QUAD_CASES = [
        (POISSON_GAMMA, 1.0, -1.4, 0.7, 3, 1.0),
        (POISSON_GAMMA, 1.0, -1.0, 1.0, 1, 1.0),
        (BERNOULLI_BETA, 1.5, -1.3, 0.2, 2, 1.0),
        (ODDS_BERNOULLI_BETA_PRIME, 0.8, -1.6, 0.5, 3, 1.0),
        (NB, 1.1, -1.5, 0.3, 2, 2.5),
        (NB, 1.0, -1.0, 0.4, 2, 2.5),
    ]

    @pytest.mark.parametrize("entry,mass,xi0,lam,m,r", QUAD_CASES, ids=lambda v: str(v)[:18])
    def test_totals_against_quadrature(self, entry, mass, xi0, lam, m, r):
        closed = closed_total(entry, mass, (xi0,), lam, m)
        numeric = total_by_quadrature(entry, mass, (xi0,), lam, m)
        assert closed == pytest.approx(numeric, rel=1e-8)

    def test_nb_continuation_against_quadrature(self):
        # r = 1 keeps the upper-endpoint factor (1 - v) polynomial, so the
        # generic integrand goes straight through the panels
        nb1 = get_entry("negative_binomial", r=1.0)
        closed = closed_total(nb1, 1.0, (-1.9,), -0.8, 1)
        assert closed == pytest.approx(total_by_quadrature(nb1, 1.0, (-1.9,), -0.8, 1), rel=1e-8)

    def test_nb_continuation_against_split_quadrature(self):
        # fractional r puts two algebraic powers at theta = 1, which a
        # single declared order cannot absorb; integrate the lower half
        # directly and split the upper half into single-power pieces
        xi0, lam, r = -1.6, -2.5, 0.3
        nb03 = get_entry("negative_binomial", r=r)
        like = nb03.make_likelihood()

        def log_full(th):
            th = np.asarray(th, dtype=float)
            lp0 = like.log_pmf(0, th)
            with np.errstate(divide="ignore"):
                log_gap = np.log(-np.expm1(lp0))
            return log_gap + log_conjugate_kernel(like, (xi0,), lam, th)

        lo, _ = _integrand_orders(like, (xi0,), lam, 1, None)
        spec = IntegrandSpec(log_full, upper=0.5, lower_order=lo, name="nb lower half")
        lower_half, _ = integrate(spec, rel_tol=1e-10)

        pieces = []
        for p in (lam * r, (lam + 1.0) * r):
            spec = IntegrandSpec(
                lambda v, _p=p: _p * np.log(np.asarray(v, dtype=float))
                + xi0 * np.log1p(-np.asarray(v, dtype=float)),
                upper=0.5,
                lower_order=p,
                name=f"nb upper piece p={p:g}",
            )
            val, _ = integrate(spec, rel_tol=1e-10)
            pieces.append(val)

        numeric = lower_half + pieces[0] - pieces[1]
        closed = closed_total(nb03, 1.0, (xi0,), lam, 1)
        assert closed == pytest.approx(numeric, rel=1e-8)

    def test_domain_guards(self):
        # at lam + m - 1 = 0 the gamma total is finite for xi < -1 (2 sqrt(pi)
        # here) and infinite from xi = -1 up
        got = closed_total(POISSON_GAMMA, 1.0, (-1.5,), 0.0, 1)
        assert got == pytest.approx(total_by_quadrature(POISSON_GAMMA, 1.0, (-1.5,), 0.0, 1), rel=1e-9)
        with pytest.raises(DomainError):
            closed_total(POISSON_GAMMA, 1.0, (-1.0,), 0.0, 1)
        with pytest.raises(DomainError):
            closed_total(NB, 1.0, (-1.5,), -0.5, 1)


class TestPredictive:
    def test_gamma_is_negative_binomial(self):
        xi_eff, lam_eff = 0.6, 4.9
        x = np.arange(0, 20)
        got = np.exp(POISSON_GAMMA.predictive_logpmf(xi_eff, lam_eff, x))
        want = stats.nbinom.pmf(x, xi_eff + 1.0, lam_eff / (lam_eff + 1.0))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_normalization(self):
        x = np.arange(0, 400)
        total = np.exp(POISSON_GAMMA.predictive_logpmf(0.6, 4.9, x)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)
        total = np.exp(NB.predictive_logpmf(2.5, 4.0, np.arange(0, 3000))).sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        for entry in (BERNOULLI_BETA, ODDS_BERNOULLI_BETA_PRIME):
            pair = np.exp(entry.predictive_logpmf(0.6, 3.9, np.array([0, 1])))
            assert pair.sum() == pytest.approx(1.0, abs=1e-13)

    def test_binary_success_probabilities(self):
        # bernoulli: P(1) = (xi_eff + 1) / (lam_eff + 2)
        xi_eff, lam_eff = -1.4 + 2.0, 0.9 + 3.0
        got = math.exp(float(BERNOULLI_BETA.predictive_logpmf(xi_eff, lam_eff, np.array([1]))[0]))
        assert got == pytest.approx((xi_eff + 1.0) / (lam_eff + 2.0), rel=1e-13)
        # the special point (-1, -1) after one success in two rounds gives 1/2
        got = math.exp(float(BERNOULLI_BETA.predictive_logpmf(0.0, 0.0, np.array([1]))[0]))
        assert got == pytest.approx(0.5, rel=1e-13)
        # odds_bernoulli: P(1) = (xi_eff + 1) / lam_eff
        got = math.exp(
            float(ODDS_BERNOULLI_BETA_PRIME.predictive_logpmf(-0.6, 2.5, np.array([1]))[0])
        )
        assert got == pytest.approx(0.16, rel=1e-13)


class TestValidity:
    def test_gamma_region(self):
        ok = POISSON_GAMMA.hyperparam_valid(1.0, (-1.0,), 0.5)
        assert ok and not ok.warnings
        assert POISSON_GAMMA.hyperparam_valid(1.0, (-1.9,), 3.0).ok
        assert not POISSON_GAMMA.hyperparam_valid(0.0, (-1.5,), 1.0).ok
        assert not POISSON_GAMMA.hyperparam_valid(1.0, (-0.5,), 1.0).ok
        assert not POISSON_GAMMA.hyperparam_valid(1.0, (-2.0,), 1.0).ok
        assert not POISSON_GAMMA.hyperparam_valid(1.0, (-1.5,), 0.0).ok
        assert "A1" in POISSON_GAMMA.hyperparam_valid(1.0, (-0.5,), 1.0).reason
        assert "A2" in POISSON_GAMMA.hyperparam_valid(1.0, (-2.5,), 1.0).reason

    def test_binary_region_with_alias_branch(self):
        direct = BERNOULLI_BETA.hyperparam_valid(1.0, (-1.3,), 0.2)
        assert direct.ok and not direct.warnings
        assert BERNOULLI_BETA.hyperparam_valid(1.0, (-1.0,), -1.0).ok
        assert not BERNOULLI_BETA.hyperparam_valid(1.0, (-1.3,), -2.3).ok
        aliased = BERNOULLI_BETA.hyperparam_valid(1.0, (-0.5,), -2.4)
        assert aliased.ok and aliased.warnings
        assert "native-parameter alias" in aliased.warnings[0]
        assert not BERNOULLI_BETA.hyperparam_valid(1.0, (-0.5,), -2.6).ok
        assert not BERNOULLI_BETA.hyperparam_valid(1.0, (0.5,), 1.0).ok

    def test_odds_region(self):
        assert ODDS_BERNOULLI_BETA_PRIME.hyperparam_valid(1.0, (-1.6,), 0.5).ok
        assert not ODDS_BERNOULLI_BETA_PRIME.hyperparam_valid(1.0, (-1.6,), -0.7).ok
        assert not ODDS_BERNOULLI_BETA_PRIME.hyperparam_valid(1.0, (-0.5,), 3.0).ok

    def test_nb_region(self):
        assert NB.hyperparam_valid(1.0, (-1.5,), 0.3).ok
        assert NB.hyperparam_valid(1.0, (-1.5,), -0.39).ok
        assert not NB.hyperparam_valid(1.0, (-1.5,), -0.4).ok
        assert not NB.hyperparam_valid(1.0, (-0.9,), 0.3).ok

    def test_prior_level_check_includes_fixed_atoms(self):
        like = POISSON_GAMMA.make_likelihood()
        good = ExpCrmPrior(
            like, 1.0, (-1.5,), 1.0, (FixedAtomParams(Location(0.3), (0.5,), 2.0),)
        )
        assert hyperparam_valid(good).ok
        bad = ExpCrmPrior(
            like, 1.0, (-1.5,), 1.0, (FixedAtomParams(Location(0.3), (-1.5,), 2.0),)
        )
        res = hyperparam_valid(bad)
        assert not res.ok and "fixed atom 0" in res.reason

    def test_prior_level_check_unregistered_family(self):
        import dataclasses

        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery")
        prior = ExpCrmPrior(like, 1.0, (-1.5,), 1.0, (FixedAtomParams(Location(0.3), (0.5,), 2.0),))
        res = hyperparam_valid(prior)
        assert res.ok
        assert any("not in the catalog" in w for w in res.warnings)


class TestWeightSampling:
    def test_gamma_family_law(self):
        draws = POISSON_GAMMA.sample_weights(RngState(41).generator(), (-0.5,), 2.0, 3000)
        p = stats.kstest(draws, stats.gamma(a=0.5, scale=0.5).cdf).pvalue
        assert p > 0.01

    def test_binary_family_law(self):
        draws = BERNOULLI_BETA.sample_weights(RngState(42).generator(), (-0.2,), 0.4, 3000)
        assert draws.max() <= 1.0
        p = stats.kstest(draws, stats.beta(0.8, 1.6).cdf).pvalue
        assert p > 0.01

    def test_odds_family_law(self):
        draws = ODDS_BERNOULLI_BETA_PRIME.sample_weights(
            RngState(43).generator(), (-0.6,), 1.9, 3000
        )
        p = stats.kstest(draws, stats.betaprime(0.4, 1.5).cdf).pvalue
        assert p > 0.01

    def test_nb_family_law(self):
        draws = NB.sample_weights(RngState(44).generator(), (-0.5,), 0.3, 3000)
        p = stats.kstest(draws, stats.beta(0.5, 1.75).cdf).pvalue
        assert p > 0.01

    def test_improper_parameters_rejected(self):
        gen = RngState(1).generator()
        with pytest.raises(DomainError):
            POISSON_GAMMA.sample_weights(gen, (-1.0,), 1.0, 10)
        with pytest.raises(DomainError):
            BERNOULLI_BETA.sample_weights(gen, (-0.5,), -2.8, 10)


class TestNativeParameters:
    def test_bp_kernel_level_map(self):
        prior = BERNOULLI_BETA.from_native(1.0, 0.3, 1.0)
        assert prior.xi == (-1.3,)
        assert prior.lam == -1.0
        res = hyperparam_valid(prior)
        assert res.ok and not res.warnings
        # the rate density must equal the classic form exactly
        th = np.array([0.05, 0.3, 0.8, 0.99])
        got = weight_rate_density(prior, th)
        want = 1.0 * th ** (-0.3 - 1.0) * (1.0 - th) ** (1.0 + 0.3 - 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_nb_kernel_level_map(self):
        prior = NB.from_native(2.0, 0.3, 1.0)
        assert prior.xi == (-1.3,)
        assert prior.lam == pytest.approx(0.12)
        th = np.array([0.1, 0.5, 0.9])
        got = weight_rate_density(prior, th)
        want = 2.0 * th ** (-1.3) * (1.0 - th) ** 0.3
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_native_validation(self):
        assert BERNOULLI_BETA.native_valid(1.0, 0.0, 1.0).ok
        assert not BERNOULLI_BETA.native_valid(1.0, 1.0, 1.0).ok
        assert not BERNOULLI_BETA.native_valid(1.0, 0.3, -0.3).ok
        assert not BERNOULLI_BETA.native_valid(0.0, 0.3, 1.0).ok
        with pytest.raises(DomainError):
            BERNOULLI_BETA.from_native(1.0, 1.2, 1.0)

    def test_native_fixed_atoms_are_beta_laws(self):
        for entry in (BERNOULLI_BETA, NB):
            xi, lam = entry.native_fixed_atom(2.0, 3.0)
            like = entry.make_likelihood()
            th = np.array([0.1, 0.4, 0.7])
            got = fixed_atom_density(like, xi, lam, th)
            np.testing.assert_allclose(got, stats.beta(2.0, 3.0).pdf(th), rtol=1e-12)
        with pytest.raises(DomainError):
            BERNOULLI_BETA.native_fixed_atom(0.0, 1.0)

    def test_native_fixed_atoms_through_from_native(self):
        prior = BERNOULLI_BETA.from_native(1.0, 0.3, 1.0, fixed=((0.25, 2.0, 3.0),))
        atom = prior.fixed_atoms[0]
        assert atom.location == Location(0.25)
        assert atom.xi == (1.0,)
        assert atom.lam == 3.0

    def test_literal_alias_round_trip(self):
        assert map_bp_params(1.0, 0.0, 1.0) == (1.0, -1.0, -1.0)
        # dyadic inputs survive the affine map bit-exactly
        assert map_bp_params_inverse(*[2.0, (map_bp_params(2.0, 0.25, 1.5)[1],), -0.5]) == (
            2.0,
            0.25,
            1.5,
        )
        mass, xi0, lam = map_bp_params(2.0, 0.3, 1.0)
        back = map_bp_params_inverse(mass, (xi0,), lam)
        assert back[0] == 2.0
        assert back[1] == pytest.approx(0.3, abs=1e-15)
        assert back[2] == pytest.approx(1.0, abs=1e-15)

    def test_literal_alias_domain_errors(self):
        with pytest.raises(DomainError):
            map_bp_params(1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            map_bp_params_inverse(1.0, (0.5,), 1.0)
