"""The one inverse-cdf count walk, and a support bound above 1.

:func:`expcrm.exp_family.walk_counts` draws the marginal stream's
predictive counts, and a likelihood's counts when it has no ``sample_fn``.

The binomial(5)-beta family below has no catalog entry and no overrides:
log h(x) = log C(5, x), phi(x) = (x,), eta(theta) = log(theta / (1 - theta))
and A(theta) = -5 log(1 - theta) on (0, 1).  Its kernel at (xi, lam) is
theta^xi (1 - theta)^(5 lam - xi), and its support bound, 5, is the only one
above 1 in the tests: there the count cap, the walk's stop at the bound and
its last-ulp branch act on more than two counts.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from expcrm.catalog import POISSON_GAMMA
from expcrm.checks import chi_square_gof
from expcrm.errors import QuadratureError
from expcrm.exp_family import ExpCrmLikelihood, ExpCrmPrior, FixedAtomParams, WeightDomain, walk_counts
from expcrm.marginal import MarginalConfig, MarginalSampler, predictive_logpmf
from expcrm.measures import Location
from expcrm.rng import RngState
from expcrm.size_biased import RateTable

R = 5


def binomial_beta():
    return ExpCrmLikelihood(
        family="binomial(5)-from-eta-and-A",
        log_h=lambda x: math.log(math.comb(R, x)) if 0 <= x <= R else -math.inf,
        phi=lambda x: (float(x),),
        eta=lambda th: np.log(th / (1.0 - th))[:, None],
        A=lambda th: -R * np.log1p(-th),
        support_bound=R,
        weight_domain=WeightDomain(1.0),
    )


LIKE = binomial_beta()
PRIOR = ExpCrmPrior(
    LIKE, 2.0, (-1.5,), 1.0, (FixedAtomParams(Location(0.5), (1.0,), 1.0),)
)
# proper atom parameters: xi > -1 and 5 lam - xi > -1
ATOMS = [(0.0, 1.0), (2.0, 1.0), (-0.5, 0.5), (3.0, 2.0), (8.0, 1.5)]


def chunked_cdf(xi, lam, chunk):
    """An atom's cdf at 0..5, one law per chunk and summed chunk by chunk, as the walk sums it."""
    cum, acc = [], 0.0
    for start in range(0, R + 1, chunk):
        xs = np.arange(start, min(start + chunk, R + 1))
        part = acc + np.cumsum(np.exp(predictive_logpmf(LIKE, (xi,), lam, xs)))
        cum.extend(part.tolist())
        acc = part[-1]
    return np.array(cum)


def reference_count(cum, u):
    """The first count whose cdf exceeds u, and the bound when none does."""
    return min(int(np.searchsorted(cum, u, side="right")), R)


class _Uniforms:
    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def uniform(self, size):
        assert size == self._values.size
        return self._values.copy()


@pytest.mark.parametrize("x_max, cap", [(50, 5), (3, 3)])
def test_count_cap_is_the_smaller_of_x_max_and_the_bound(x_max, cap):
    table = RateTable(PRIOR, x_max, 1e-6)
    assert table.count_cap == cap
    assert table.xs.tolist() == list(range(1, cap + 1))


@pytest.mark.parametrize("chunk", [2, 4, 8])
def test_walk_is_a_per_row_walk_and_the_cdf_total_walks_to_the_bound(chunk):
    family = MarginalSampler(PRIOR).table.family

    def log_pmf(xs, xi, lam):
        return family.predictive_rows(xi, lam, xs, family.log_h_vec(xs))

    rows, us, want = [], [], []
    for xi, lam in ATOMS:
        cum = chunked_cdf(xi, lam, chunk)
        total = cum[-1]
        for u in (0.03, 0.5, 0.97, cum[1], total, np.nextafter(total, 2.0)):
            rows.append((xi, lam))
            us.append(u)
            want.append(reference_count(cum, u))
        assert want[-2] == want[-1] == R
    xi = np.array([[x] for x, _ in rows])
    lam = np.array([l for _, l in rows])
    got = walk_counts(_Uniforms(us), log_pmf, chunk, R, xi, lam)
    assert got.tolist() == want
    assert set(got.tolist()) > {R}  # the interior uniforms stop below the bound


def test_stream_walks_by_the_same_rule():
    s = MarginalSampler(PRIOR)
    us, want = [], []
    for xi, lam in ATOMS:
        cum = chunked_cdf(xi, lam, s.table.family.chunk)
        us += [0.5, cum[-1]]
        want += [reference_count(cum, 0.5), R]
    params = [p for p in ATOMS for _ in range(2)]
    xi, lam = np.array([[x] for x, _ in params]), np.array([l for _, l in params])
    assert s._predictive_walk(_Uniforms(us), xi, lam).tolist() == want


@pytest.mark.parametrize("theta", [0.3, 0.9])
def test_sample_without_sample_fn_is_binomial(theta):
    draws = LIKE.sample(RngState(11).generator(), np.full(4000, theta))
    assert draws.dtype == np.int64
    assert 0 <= draws.min() and draws.max() <= R
    rep = chi_square_gof(draws, stats.binom(R, theta).logpmf, name="binomial fallback")
    assert rep.passed, rep


def test_short_marginal_stream_stays_in_the_support():
    s = MarginalSampler(PRIOR, MarginalConfig(x_max=50))
    observations = s.sample(6, RngState(2))
    counts = np.concatenate([o.counts for o in observations])
    assert counts.size and counts.min() >= 1 and counts.max() <= R


class TestLikelihoodFallback:
    def test_draws_are_the_per_weight_scalar_walk(self):
        # one uniform(size=n) gives the doubles of n scalar random() calls,
        # so away from ties the fallback's counts are the scalar walk's
        like = dataclasses.replace(
            POISSON_GAMMA.make_likelihood(), family="mystery-poisson", sample_fn=None
        )
        theta = np.linspace(0.05, 40.0, 300)
        gen = RngState(4).generator()
        want = []
        for t in theta.tolist():
            u, acc, x = gen.random(), 0.0, 0
            while True:
                acc += math.exp(like.log_pmf(x, t))
                if u <= acc:
                    break
                x += 1
            want.append(x)
        assert like.sample(RngState(4).generator(), theta).tolist() == want
        assert max(want) > 2 * 8  # some draws walk past two chunks

    def test_no_weights_draw_nothing(self):
        got = LIKE.sample(object(), np.empty(0))  # a draw from object() would raise
        assert got.dtype == np.int64 and got.size == 0


class TestLimit:
    def test_counts_past_a_million_are_reached(self):
        def point_mass(xs, col):
            return np.where(xs == 2_000_000, 0.0, -np.inf)[None, :].repeat(col.size, axis=0)

        got = walk_counts(RngState(0).generator(), point_mass, 10**6, None, np.zeros(2))
        assert got.tolist() == [2_000_000, 2_000_000]

    def test_a_cdf_that_never_reaches_its_uniform_raises(self):
        def nothing(xs, col):
            return np.full((col.size, xs.size), -np.inf)

        with pytest.raises(QuadratureError, match="count walk"):
            walk_counts(RngState(0).generator(), nothing, 10**6, None, np.zeros(1))
