"""A family with phi(0) != 0, h(0) != 1 and a two-dimensional xi.

The reparametrized Poisson below has phi(x) = (x + 1, x / 2), eta(theta) =
(log theta, 0), A(theta) = theta + log theta + log c and h(x) = c / x!.  Its
pmf is the Poisson pmf, and its kernel at (xi, lam) is c^-lam times the
catalog gamma kernel at (xi_1 - lam, lam).  So its rates and round totals are
c^-lam times the catalog's, its predictive pmf at (xi, lam) is the catalog's
at (xi_1 - lam, lam), and N observations multiply the ordinary mass by
h(0)^N = c^N.  The catalog does not know the family, so every number here
comes from quadrature, and every per-atom parameter must carry phi(0) and
both components of xi.
"""

import math

import numpy as np
import pytest

from expcrm.catalog import POISSON_GAMMA
from expcrm.errors import QuadratureError
from expcrm.exp_family import ExpCrmLikelihood, ExpCrmPrior, FixedAtomParams, WeightDomain
from expcrm.marginal import MarginalConfig, MarginalSampler, predictive_logpmf
from expcrm.measures import Location
from expcrm.posterior import posterior_update
from expcrm.rng import RngState
from expcrm.size_biased import (
    SizeBiasedConfig,
    SizeBiasedSampler,
    rate_M,
    round_total,
    weight_dist_params,
)

C = 1.7
MASS, XI0, LAM = 2.0, -1.2, 1.1  # the catalog gamma model it is compared with
XI = (XI0 + LAM, 0.3)
ROUNDS = (1, 2, 5, 20)


def reparametrized_poisson(c=C, stable=True):
    """The Poisson likelihood in the parametrization above.

    ``stable`` gives it ``log_kernel_fn``, which cancels log theta before
    evaluating; without it the kernel is formed from eta and A.
    """
    log_c = math.log(c)
    return ExpCrmLikelihood(
        family="reparametrized-poisson",
        log_h=lambda x: log_c - math.lgamma(x + 1.0),
        phi=lambda x: (x + 1.0, x / 2.0),
        eta=lambda th: np.column_stack([np.log(th), np.zeros_like(th)]),
        A=lambda th: th + np.log(th) + log_c,
        support_bound=None,
        weight_domain=WeightDomain(math.inf),
        log_kernel_fn=(
            (lambda xi, lam, th: (xi[0] - lam) * np.log(th) - lam * th - lam * log_c)
            if stable
            else None
        ),
    )


def prior(c=C, stable=True, atoms=()):
    return ExpCrmPrior(reparametrized_poisson(c, stable), MASS, XI, LAM, atoms)


CATALOG = ExpCrmPrior(POISSON_GAMMA.make_likelihood(), MASS, (XI0,), LAM)
FIXED = (
    FixedAtomParams(Location(0.5), (1.5, -0.2), 1.0),
    FixedAtomParams(Location(0.25), (3.0, 0.7), 2.5),
)


@pytest.mark.parametrize("m", ROUNDS)
def test_rates_are_the_catalog_rates_scaled(m):
    scale = C**-LAM
    for x in (1, 2, 3, 7):
        assert rate_M(prior(), m, x) == pytest.approx(scale * rate_M(CATALOG, m, x), rel=1e-12)


@pytest.mark.parametrize("m", ROUNDS)
def test_round_totals_are_the_catalog_totals_scaled(m):
    assert round_total(prior(), m) == pytest.approx(C**-LAM * round_total(CATALOG, m), rel=1e-12)


@pytest.mark.parametrize("xi1, lam", [(3.5, 3.0), (13.0, 10.0), (60.0, 40.0)])
def test_predictive_pmf_is_the_catalog_pmf(xi1, lam):
    xs = np.arange(12)
    got = np.exp(predictive_logpmf(reparametrized_poisson(), (xi1, -0.4), lam, xs))
    want = np.exp(predictive_logpmf(CATALOG.likelihood, (xi1 - lam,), lam, xs))
    assert np.abs(got - want).max() <= 1e-12


def recording(monkeypatch, owner, name):
    """A list that grows by (arguments, result) of each call of owner.name."""
    calls = []
    original = getattr(owner, name)

    def record(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, record)
    return calls


def test_draws_use_each_atoms_weight_dist_params(monkeypatch):
    p = prior(atoms=FIXED)
    sampler = SizeBiasedSampler(p, SizeBiasedConfig(m_max=20, x_max=16, eps_tail=1e-5))
    draws = recording(monkeypatch, sampler.table.family, "draw_weights")
    for seed in range(3):
        draws.clear()
        labeled = sampler.draw_labeled(RngState(seed))
        ((_, xi, lam), weights), = draws
        assert len(labeled) > 1 and np.unique(labeled.rounds).size > 1
        assert weights.tobytes() == labeled.weights.tobytes()
        cells = zip(labeled.rounds.tolist(), labeled.counts.tolist())
        for row, q, (m, x) in zip(xi.tolist(), lam.tolist(), cells):
            assert (tuple(row), q) == weight_dist_params(p, m, x)
        draws.clear()
        measure = sampler.draw(RngState(seed))
        (_, xi, lam), weights = draws[0]
        assert [(tuple(row), q) for row, q in zip(xi.tolist(), lam.tolist())] == [
            (a.xi, a.lam) for a in FIXED
        ]
        assert weights.tobytes() == measure.fixed_weights.tobytes()


def test_newborn_atoms_use_their_weight_dist_params(monkeypatch):
    p = prior()
    sampler = MarginalSampler(p, MarginalConfig(x_max=16, eps_tail=1e-5))
    born = recording(monkeypatch, sampler.table, "weight_params")
    observations = sampler.sample(6, RngState(3))
    assert sum(len(args[1]) for args, _ in born) > 2
    for (rounds, counts), (xi, lam) in born:
        for row, q, m, x in zip(xi.tolist(), lam.tolist(), rounds.tolist(), counts.tolist()):
            assert (tuple(row), q) == weight_dist_params(p, m, x)
    assert len(observations) == 6


def test_posterior_shifts_by_phi0_and_scales_mass_by_h0():
    observations = MarginalSampler(prior(), MarginalConfig(x_max=16, eps_tail=1e-5)).sample(
        5, RngState(4)
    )
    post = posterior_update(prior(), observations)
    n = len(observations)
    assert post.xi == (XI[0] + n, XI[1])
    assert post.lam == LAM + n
    assert post.mass == pytest.approx(MASS * C**n, rel=1e-14)


def test_posterior_rounds_continue_the_prior_rounds():
    """After N observations, round m of the posterior is round N + m of the prior.

    The posterior's mass carries h(0)^N = c^N and its xi N phi(0), which the
    prior's round N + m gets from its factor h(0)^(N + m - 1) and its shift.
    """
    observations = MarginalSampler(prior(), MarginalConfig(x_max=16, eps_tail=1e-5)).sample(
        5, RngState(4)
    )
    post = posterior_update(prior(), observations)
    n = post.n_obs
    for m in (1, 2, 5):
        assert round_total(post, m) == pytest.approx(round_total(prior(), n + m), rel=1e-12)
        for x in (1, 2, 4):
            assert rate_M(post, m, x) == pytest.approx(rate_M(prior(), n + m, x), rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=QuadratureError,
    reason="without log_kernel_fn, l(0|theta) is formed from eta and A, whose log theta terms "
    "cancel near theta = 0, so 1 - l(0|theta) is rounding noise there and the round-5 total's "
    "panels never meet their tolerance",
)
def test_round_total_without_a_stable_kernel():
    assert round_total(prior(stable=False), 5) == pytest.approx(
        C**-LAM * round_total(CATALOG, 5), rel=1e-10
    )
