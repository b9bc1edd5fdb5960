import dataclasses
import math
import warnings

import numpy as np
import pytest

from expcrm.catalog import (
    BERNOULLI_BETA,
    ODDS_BERNOULLI_BETA_PRIME,
    POISSON_GAMMA,
    get_entry,
)
from expcrm.errors import (
    DivergenceSuspected,
    DomainError,
    InvalidModelError,
    QuadratureError,
)
from expcrm.exp_family import (
    ExpCrmPrior,
    FixedAtomParams,
    ValidityResult,
    WeightDomain,
    as_xi,
    auto_conjugate,
    entry_for,
    fixed_atom_density,
    log_conjugate_kernel,
    log_partition_B,
    pmf,
    weight_rate_density,
    xi_plus,
)
from expcrm.measures import Location
from expcrm.quadrature import IntegrandSpec, integrate
from expcrm.rng import RngState

NB = get_entry("negative_binomial", r=2.5)
ENTRIES = [POISSON_GAMMA, BERNOULLI_BETA, ODDS_BERNOULLI_BETA_PRIME, NB]

# one proper (xi, lam) and a few interior weights per family, for shared tests
PROPER_POINT = {
    "poisson": ((-0.5,), 2.0, [0.3, 1.0, 4.0]),
    "bernoulli": ((-0.2,), 0.4, [0.1, 0.5, 0.9]),
    "odds_bernoulli": ((-0.6,), 1.9, [0.2, 1.0, 7.0]),
    "negative_binomial(2.5)": ((-0.5,), 0.3, [0.1, 0.37, 0.8]),
}


def sample_proper(entry, rng, n):
    """Random (xi0, lam) in the proper region of each family, with margin."""
    out = []
    for _ in range(n):
        xi0 = rng.uniform(-0.95, 1.5)
        if entry.likelihood_id == "poisson":
            lam = rng.uniform(0.1, 5.0)
        elif entry.likelihood_id == "bernoulli":
            lam = xi0 + rng.uniform(-0.9, 4.0)
        elif entry.likelihood_id == "odds_bernoulli":
            lam = xi0 + rng.uniform(1.1, 6.0)
        else:
            lam = rng.uniform(-0.9, 4.0) / entry.r
        out.append((xi0, lam))
    return out


class TestXiHelpers:
    def test_as_xi_scalar_and_sequence(self):
        assert as_xi(1.5) == (1.5,)
        assert as_xi(np.float64(2)) == (2.0,)
        assert as_xi([1, 2]) == (1.0, 2.0)
        assert as_xi((3.0,)) == (3.0,)

    def test_as_xi_rejects_empty(self):
        with pytest.raises(DomainError):
            as_xi(())

    def test_xi_plus(self):
        assert xi_plus((1.0, 2.0), (0.5, 0.5)) == (1.5, 2.5)
        assert xi_plus((1.0,), 2.0) == (3.0,)
        with pytest.raises(DomainError):
            xi_plus((1.0,), (1.0, 2.0))


class TestWeightDomain:
    def test_contains(self):
        open_dom = WeightDomain(1.0)
        assert open_dom.contains(np.array([0.5])).all()
        assert not open_dom.contains(np.array([1.0])).any()
        assert not open_dom.contains(np.array([0.0])).any()
        closed = WeightDomain(1.0, closed_upper=True)
        assert closed.contains(np.array([1.0])).all()
        assert closed.label() == "(0, 1]"
        assert WeightDomain(math.inf).label() == "(0, inf)"

    def test_validation(self):
        with pytest.raises(DomainError):
            WeightDomain(0.0)
        with pytest.raises(DomainError):
            WeightDomain(math.inf, closed_upper=True)


class TestLikelihood:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.family)
    def test_stable_log_pmf_matches_generic_formula(self, entry):
        like = entry.make_likelihood()
        _, _, thetas = PROPER_POINT[like.family]
        for x in range(0, 4):
            if not like.in_support(x):
                continue
            for th in thetas:
                got = like.log_pmf(x, th)
                arr = np.array([th])
                eta = np.asarray(like.eta(arr), dtype=float).reshape(1, like.dim)
                want = (
                    like.log_h(x)
                    + float((eta @ np.asarray(like.phi(x)))[0])
                    - float(np.asarray(like.A(arr))[0])
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.family)
    def test_pmf_sums_to_one(self, entry):
        like = entry.make_likelihood()
        _, _, thetas = PROPER_POINT[like.family]
        bound = like.support_bound if like.support_bound is not None else 400
        for th in thetas:
            total = math.fsum(pmf(like, x, th) for x in range(bound + 1))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_bernoulli_closed_boundary(self):
        like = BERNOULLI_BETA.make_likelihood()
        assert pmf(like, 1, 1.0) == 1.0
        assert pmf(like, 0, 1.0) == 0.0
        # open-domain families refuse their boundary
        with pytest.raises(DomainError):
            NB.make_likelihood().log_pmf(0, 1.0)
        with pytest.raises(DomainError):
            POISSON_GAMMA.make_likelihood().log_pmf(0, 0.0)

    def test_out_of_support_is_zero_probability(self):
        like = BERNOULLI_BETA.make_likelihood()
        assert like.log_pmf(2, 0.5) == -math.inf
        assert not like.in_support(2)
        assert not like.in_support(-1)
        assert NB.make_likelihood().in_support(1000)

    def test_count_argument_validation(self):
        like = POISSON_GAMMA.make_likelihood()
        with pytest.raises(DomainError):
            like.log_pmf(1.5, 1.0)
        with pytest.raises(DomainError):
            like.log_pmf(-1, 1.0)
        with pytest.raises(DomainError):
            like.log_pmf(True, 1.0)

    def test_vector_theta(self):
        like = POISSON_GAMMA.make_likelihood()
        th = np.array([0.5, 1.0, 2.0])
        out = like.log_pmf(2, th)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(like.log_pmf(2, 1.0))

    def test_sample_fallback_matches_family_law(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), sample_fn=None)
        gen = RngState(2024).generator()
        th = np.full(4000, 2.5)
        draws = like.sample(gen, th)
        # Poisson(2.5): mean 2.5, sd 1.58; 4000 draws -> se 0.025
        assert abs(draws.mean() - 2.5) < 0.12
        assert draws.min() >= 0

    def test_sample_fallback_respects_support_bound(self):
        like = dataclasses.replace(BERNOULLI_BETA.make_likelihood(), sample_fn=None)
        draws = like.sample(RngState(7).generator(), np.full(500, 0.3))
        assert set(np.unique(draws)) <= {0, 1}
        assert abs(draws.mean() - 0.3) < 0.1


class TestConjugateKernel:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.family)
    def test_override_matches_generic(self, entry):
        like = entry.make_likelihood()
        xi, lam, thetas = PROPER_POINT[like.family]
        th = np.array(thetas)
        got = log_conjugate_kernel(like, xi, lam, th)
        eta = np.asarray(like.eta(th), dtype=float).reshape(len(th), like.dim)
        want = eta @ np.asarray(xi) - lam * np.asarray(like.A(th), dtype=float)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_generic_path_without_override(self):
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), log_kernel_fn=None)
        th = np.array([0.5, 2.0])
        got = log_conjugate_kernel(like, (-0.5,), 2.0, th)
        want = -0.5 * np.log(th) - 2.0 * th
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestLogPartition:
    # independently frozen anchors (25-digit decimals)
    ANCHORS = [
        (POISSON_GAMMA, (-0.5,), 2.0, 0.2257913526447274323630976),
        (BERNOULLI_BETA, (-0.2,), 0.4, -0.1773914097457598266761694),
        (ODDS_BERNOULLI_BETA_PRIME, (-0.6,), 1.9, 0.7148798559896218742380018),
        (NB, (-0.5,), 0.3, 0.3630921070118179368114864),
    ]

    @pytest.mark.parametrize("entry,xi,lam,want", ANCHORS, ids=lambda v: str(v)[:16])
    def test_frozen_anchor_values(self, entry, xi, lam, want):
        like = entry.make_likelihood()
        assert log_partition_B(like, xi, lam) == pytest.approx(want, rel=5e-14)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.family)
    def test_closed_form_vs_quadrature(self, entry):
        like = entry.make_likelihood()
        rng = np.random.default_rng(20240817)
        for xi0, lam in sample_proper(entry, rng, 20):
            analytic = log_partition_B(like, (xi0,), lam)
            numeric = log_partition_B(like, (xi0,), lam, force_numeric=True)
            assert numeric == pytest.approx(analytic, abs=2e-9), (xi0, lam)

    def test_improper_raises_with_closed_form(self):
        like = POISSON_GAMMA.make_likelihood()
        with pytest.raises(DomainError):
            log_partition_B(like, (-1.5,), 2.0)
        with pytest.raises(DomainError):
            log_partition_B(like, (0.5,), 0.0)

    def test_unregistered_family_uses_probed_quadrature(self):
        base = POISSON_GAMMA.make_likelihood()
        like = dataclasses.replace(base, family="custom_counts")
        assert entry_for(like) is None
        got = log_partition_B(like, (-0.5,), 2.0)
        assert got == pytest.approx(0.2257913526447274323630976, abs=1e-9)

    @pytest.mark.parametrize("xi, lam", [(1000.0, 1000.0), (3000.0, 2000.0)])
    def test_unregistered_posterior_sized_parameters(self, xi, lam):
        # B near -1000 and -1786: the kernel lies far below the smallest double
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="custom_counts")
        want = POISSON_GAMMA.log_B((xi,), lam)
        assert log_partition_B(like, (xi,), lam) == pytest.approx(want, rel=1e-13)

    def test_unregistered_mass_far_above_the_starting_knots(self):
        # the kernel peaks near 1e6, far above the 2^15 the starting knots
        # reach: the march raises its shift instead of overflowing
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="custom_counts")
        want = POISSON_GAMMA.log_B((1000.0,), 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_partition_B(like, (1000.0,), 1e-3)
        assert got == pytest.approx(want, rel=1e-12)

    def test_unregistered_steep_lower_power(self):
        # exp(-1e5 t) still bends the slope at the probe scales; the check
        # refines it as the probe does
        like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="custom_counts")
        want = POISSON_GAMMA.log_B((1e5,), 1e5)
        assert log_partition_B(like, (1e5,), 1e5) == pytest.approx(want, rel=1e-12)

    def test_unregistered_bounded_kernel_without_a_top_evaluator(self):
        # the kernel of Beta(0.5, 0.3), reachable at the top only through 1 - v
        like = dataclasses.replace(
            BERNOULLI_BETA.make_likelihood(), family="custom_binary", log_kernel_upper_fn=None
        )
        want = BERNOULLI_BETA.log_B((-0.5,), -1.2)
        assert log_partition_B(like, (-0.5,), -1.2) == pytest.approx(want, abs=1e-8)

    def test_unregistered_improper_detected_numerically(self):
        base = POISSON_GAMMA.make_likelihood()
        like = dataclasses.replace(base, family="custom_counts2")
        with pytest.raises(DivergenceSuspected):
            log_partition_B(like, (-1.0,), 1.0)


class TestDensities:
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.family)
    def test_fixed_atom_density_integrates_to_one(self, entry):
        like = entry.make_likelihood()
        xi, lam, _ = PROPER_POINT[like.family]
        lo, up = entry.kernel_orders(xi, lam)

        log_B = log_partition_B(like, xi, lam)

        def log_density(th):
            # the log of fixed_atom_density, which would underflow to 0 in the tails
            return log_conjugate_kernel(like, xi, lam, th) - log_B

        spec = IntegrandSpec(
            log_density,
            upper=like.weight_domain.upper,
            lower_order=lo,
            upper_order=up,
            name=f"density[{like.family}]",
        )
        value, _ = integrate(spec, rel_tol=1e-10)
        assert value == pytest.approx(1.0, abs=1e-9)
        want = math.exp(log_density(np.array([0.5]))[0])
        assert fixed_atom_density(like, xi, lam, 0.5) == pytest.approx(want, rel=1e-12)

    def test_weight_rate_density_scaling(self):
        like = POISSON_GAMMA.make_likelihood()
        prior = ExpCrmPrior(like, 2.0, (-1.5,), 1.0)
        th = 0.7
        want = 2.0 * math.exp(float(log_conjugate_kernel(like, (-1.5,), 1.0, th)[0]))
        assert weight_rate_density(prior, th) == pytest.approx(want, rel=1e-12)
        arr = weight_rate_density(prior, np.array([0.7, 1.4]))
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(want, rel=1e-12)


class TestPriorContainer:
    def test_structural_validation(self):
        like = POISSON_GAMMA.make_likelihood()
        with pytest.raises(DomainError):
            ExpCrmPrior(like, 0.0, (-1.5,), 1.0)
        with pytest.raises(DomainError):
            ExpCrmPrior(like, 1.0, (-1.5, 0.0), 1.0)
        with pytest.raises(DomainError):
            ExpCrmPrior(like, 1.0, (-1.5,), math.nan)
        with pytest.raises(DomainError):
            ExpCrmPrior("poisson", 1.0, (-1.5,), 1.0)

    def test_fixed_atom_checks(self):
        like = POISSON_GAMMA.make_likelihood()
        atom = FixedAtomParams(Location(0.5), (0.5,), 1.0)
        prior = ExpCrmPrior(like, 1.0, (-1.5,), 1.0, (atom,))
        assert prior.fixed_atoms[0].xi == (0.5,)
        with pytest.raises(DomainError):
            ExpCrmPrior(like, 1.0, (-1.5,), 1.0, (atom, FixedAtomParams(Location(0.5), (1.0,), 1.0)))
        with pytest.raises(DomainError):
            ExpCrmPrior(like, 1.0, (-1.5,), 1.0, (FixedAtomParams(Location(0.1), (1.0, 2.0), 1.0),))

    def test_xi_normalized_to_tuple(self):
        like = POISSON_GAMMA.make_likelihood()
        prior = ExpCrmPrior(like, 1.0, -1.5, 1.0)
        assert prior.xi == (-1.5,)
        assert prior.weight_domain is like.weight_domain


class TestAutoConjugate:
    def test_valid_model_passes(self):
        prior = auto_conjugate(POISSON_GAMMA.make_likelihood(), 1.0, -1.5, 1.0)
        assert prior.mass == 1.0 and prior.xi == (-1.5,)

    def test_invalid_names_requirement(self):
        with pytest.raises(InvalidModelError, match="A1"):
            auto_conjugate(POISSON_GAMMA.make_likelihood(), 1.0, -0.5, 1.0)
        with pytest.raises(InvalidModelError, match="A2"):
            auto_conjugate(POISSON_GAMMA.make_likelihood(), 1.0, -1.5, -1.0)

    def test_improper_fixed_atom_rejected(self):
        bad = FixedAtomParams(Location(0.5), (-1.5,), 1.0)
        with pytest.raises(InvalidModelError, match="fixed atom"):
            auto_conjugate(POISSON_GAMMA.make_likelihood(), 1.0, -1.5, 1.0, (bad,))


def test_validity_result_truthiness():
    assert ValidityResult(True)
    assert not ValidityResult(False, "nope")
    assert ValidityResult(True, warnings=("w",)).warnings == ("w",)
