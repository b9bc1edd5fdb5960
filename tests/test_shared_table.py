"""Rate tables shared between samplers, and streams of a family without closed forms.

Samplers of one prior, ``x_max`` and ``eps_tail`` built while another lives
read its :class:`~expcrm.size_biased.RateTable`, so a marginal stream takes
its new-atom rows from a size-biased sampler's table instead of integrating
them again, and draws the bytes it draws alone.  Two streams of one sampler
draw what each draws alone, and a single predictive row keeps its bytes.
"""

import dataclasses
import gc

import numpy as np
import pytest

from expcrm.catalog import BERNOULLI_BETA, POISSON_GAMMA
from expcrm.exp_family import ExpCrmPrior, QuadratureFamily
from expcrm.marginal import MarginalConfig, MarginalSampler, predictive_logpmf
from expcrm.rng import RngState
from expcrm.size_biased import SizeBiasedConfig, SizeBiasedSampler

GAMMA = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery-poisson")
BERNOULLI = dataclasses.replace(BERNOULLI_BETA.make_likelihood(), family="mystery-bernoulli")
CLONES = {
    "gamma": ExpCrmPrior(GAMMA, 2.0, (-1.2,), 1.1),
    "bernoulli-beta": ExpCrmPrior(BERNOULLI, 2.0, (-1.0,), 1.5),
}


def step_bytes(steps, n):
    """The bytes of the first ``n`` steps of a ``stream`` iterator."""
    return [tuple(a.tobytes() for a in next(steps)) for _ in range(n)]


@pytest.mark.parametrize("name", CLONES)
def test_interleaved_streams_draw_what_they_draw_alone(name):
    sampler = MarginalSampler(CLONES[name], MarginalConfig(x_max=16))
    assert isinstance(sampler.table.family, QuadratureFamily)
    n = 15
    alone = [step_bytes(sampler.stream(RngState(4, r)), n) for r in (0, 1)]
    a, b = sampler.stream(RngState(4, 0)), sampler.stream(RngState(4, 1))
    together = [[], []]
    for _ in range(n):
        together[0] += step_bytes(a, 1)
        together[1] += step_bytes(b, 1)
    assert together == alone
    assert step_bytes(sampler.stream(RngState(4, 0)), n) == alone[0]
    assert alone[0] != alone[1]


def count_rate_rows(monkeypatch):
    """A list whose length counts the rounds the quadrature family tabulates from now on."""
    rounds, real = [], QuadratureFamily.rate_rows

    def rate_rows(self, prior, ms, xs):
        rounds.extend(np.asarray(ms).tolist())
        return real(self, prior, ms, xs)

    monkeypatch.setattr(QuadratureFamily, "rate_rows", rate_rows)
    return rounds


def test_a_marginal_sampler_reads_a_live_size_biased_table(monkeypatch):
    prior = CLONES["gamma"]
    alone = step_bytes(MarginalSampler(prior, MarginalConfig(x_max=16)).stream(RngState(3)), 12)
    gc.collect()
    rounds = count_rate_rows(monkeypatch)
    size_biased = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=20, x_max=16))
    assert rounds == list(range(1, 21))
    marginal = MarginalSampler(prior, MarginalConfig(x_max=16))
    assert marginal.table is size_biased.table
    shared = step_bytes(marginal.stream(RngState(3)), 12)
    assert rounds == list(range(1, 21))  # twelve steps, no new row
    assert shared == alone
    marginal.sample(25, RngState(3))
    # steps past the size-biased rounds extend the one table, in whole blocks of rounds
    assert QuadratureFamily.round_block == 4 and rounds == list(range(1, 29))
    assert size_biased.table.totals(25).size == 25


def test_a_table_is_shared_only_by_one_prior_and_truncation_while_held():
    prior = CLONES["gamma"]
    held = MarginalSampler(prior, MarginalConfig(x_max=16))
    held.sample(3, RngState(0))
    assert MarginalSampler(prior, MarginalConfig(x_max=16)).table is held.table
    assert MarginalSampler(dataclasses.replace(prior), MarginalConfig(x_max=16)).table is held.table
    others = [
        MarginalSampler(prior, MarginalConfig(x_max=15)),
        MarginalSampler(prior, MarginalConfig(x_max=16, eps_tail=1e-5)),
        MarginalSampler(dataclasses.replace(prior, lam=1.2), MarginalConfig(x_max=16)),
    ]
    assert all(o.table is not held.table for o in others)
    del held, others
    gc.collect()
    fresh = MarginalSampler(prior, MarginalConfig(x_max=16))
    assert len(fresh.table._totals) == 0  # the dropped table's rows went with it


# predictive_logpmf at (xi, lam, x), from a chunk of counts 0..7, as float.hex
PINNED = {
    "gamma": (GAMMA, [
        ((-0.2,), 2.1, 0, "-0x1.3f0cae73cb76cp-2"),
        ((1.8,), 5.1, 1, "-0x1.47ae5e55903b8p+0"),
        ((6.8,), 12.1, 4, "-0x1.4c9cd25fcebd0p+2"),
    ]),
    "bernoulli-beta": (BERNOULLI, [
        ((-0.5,), 1.0, 0, "-0x1.7565011e49679p-3"),
        ((0.5,), 2.0, 1, "-0x1.f62f40794a7b4p-1"),
        ((3.5,), 9.0, 1, "-0x1.c9a27f2430af8p-1"),
    ]),
}


@pytest.mark.parametrize("name", PINNED)
def test_one_row_keeps_its_bytes(name):
    like, points = PINNED[name]
    for xi, lam, x, want in points:
        assert float(predictive_logpmf(like, xi, lam, np.arange(8))[x]).hex() == want
