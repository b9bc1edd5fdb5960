"""The count-cap budget, checked once by the rate table for both samplers.

A marginal stream's budget is the running sum of its steps' gaps, the same
for every stream: it raises at the first step whose sum passes
``eps_tail``, as the size-biased sampler does at construction when its
rounds' gaps do, and with the same message.  The table tabulates its steps
one block of rows at a time, with the doubles of one cumsum per row.
"""

import dataclasses
import os
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from expcrm.catalog import BERNOULLI_BETA, POISSON_GAMMA
from expcrm.errors import TailBoundError
from expcrm.exp_family import ExpCrmPrior
from expcrm.marginal import MarginalConfig, MarginalSampler
from expcrm.rng import RngState
from expcrm.size_biased import RateTable, SizeBiasedConfig, SizeBiasedSampler


def gamma_prior():
    return ExpCrmPrior(POISSON_GAMMA.make_likelihood(), 1.0, (-1.0,), 1.0)


def running_sums(steps):
    """0 and the running sums of the gaps of steps 1..steps at x_max 1, in step order."""
    table = RateTable(gamma_prior(), 1, 1.0)
    return [0.0, *accumulate(table.step(n)[1] for n in range(1, steps + 1))]


def test_the_gaps_at_x_max_1():
    # step 1 neglects ln 2 - 1/2
    np.testing.assert_allclose(np.diff(running_sums(3)), [0.1931, 0.0721, 0.0377], atol=1e-4)


@pytest.mark.parametrize("spent", [0, 1, 2])
def test_stream_raises_at_the_first_step_past_the_budget(spent):
    sums = running_sums(spent + 1)
    eps = (sums[spent] + sums[spent + 1]) / 2
    sampler = MarginalSampler(gamma_prior(), MarginalConfig(x_max=1, eps_tail=eps))
    emitted = []
    with pytest.raises(TailBoundError) as exc:
        for obs in sampler.stream(RngState(7)):
            emitted.append(obs)
    assert len(emitted) == spent
    cert = exc.value.certificate
    assert cert["steps"] == spent + 1
    assert cert["neglected_rate"] == sums[spent + 1]
    assert cert["eps_tail"] == eps


@pytest.mark.parametrize("spent", [1, 2])
def test_certificate_of_the_step_before_returns(spent):
    sums = running_sums(spent + 1)
    table = RateTable(gamma_prior(), 1, (sums[spent] + sums[spent + 1]) / 2)
    cert = table.stream_certificate(spent)
    assert cert["steps"] == spent
    assert cert["neglected_rate"] == sums[spent]
    with pytest.raises(TailBoundError) as exc:
        table.stream_certificate(spent + 1)
    assert exc.value.certificate["neglected_rate"] == sums[spent + 1]
    # the table has tabulated the step now: stepping to it still raises,
    # and the step before still returns
    with pytest.raises(TailBoundError):
        table.step(spent + 1)
    _, gap = table.step(spent)
    assert sums[spent - 1] + gap == sums[spent]


def test_both_samplers_say_the_same_thing_in_their_unit():
    with pytest.raises(TailBoundError) as size_biased:
        SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=3, x_max=1, eps_tail=1e-6))
    with pytest.raises(TailBoundError) as marginal:
        MarginalSampler(gamma_prior(), MarginalConfig(x_max=1, eps_tail=1e-6)).sample(2, RngState(0))
    rounds, steps = str(size_biased.value), str(marginal.value)
    assert rounds.startswith("counts above 1 keep rate")
    assert steps.startswith("counts above 1 keep rate")
    assert "across 3 rounds; raise x_max or loosen eps_tail" in rounds
    assert "across 1 steps; raise x_max or loosen eps_tail" in steps


def test_tail_certificate_over_budget_raises():
    sampler = MarginalSampler(gamma_prior(), MarginalConfig(x_max=1, eps_tail=1e-6))
    with pytest.raises(TailBoundError) as exc:
        sampler.tail_certificate(4)
    assert exc.value.certificate["steps"] == 4


def test_a_nan_total_raises_in_both_samplers(monkeypatch):
    real = type(POISSON_GAMMA).rate_rows

    def nan_totals(self, prior, ms, xs):
        rows, totals = real(self, prior, ms, xs)
        return rows, np.full_like(totals, np.nan)

    monkeypatch.setattr(type(POISSON_GAMMA), "rate_rows", nan_totals)
    with pytest.raises(TailBoundError, match="keep rate nan"):
        SizeBiasedSampler(gamma_prior(), SizeBiasedConfig(m_max=3))
    sampler = MarginalSampler(gamma_prior())
    with pytest.raises(TailBoundError, match="keep rate nan") as exc:
        sampler.sample(1, RngState(0))
    assert exc.value.certificate["steps"] == 1


def test_a_patched_table_does_not_outlive_its_test():
    # the NaN test's traceback keeps its sampler, and so its table, alive;
    # the next sampler of an equal prior must still build its own table
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_count_budget.py::test_a_nan_total_raises_in_both_samplers",
            "tests/test_marginal.py::TestSamplerConstruction::test_certificate_is_jsonable",
        ],
        cwd=root,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def per_row_steps(table, n):
    """(cumulative row, gap, running sum of gaps) of steps 1..n, one ``np.cumsum`` per row."""
    steps, neglected = [], 0.0
    for row, total in zip(table.rates(n), table.totals(n).tolist()):
        cdf = np.cumsum(row)
        gap = max(total - float(cdf[-1]), 0.0)
        neglected += gap
        steps.append((cdf, gap, neglected))
    return steps


STEPPED = {
    "gamma": (gamma_prior(), 40),
    "ibp": (ExpCrmPrior(BERNOULLI_BETA.make_likelihood(), 2.0, (-1.0,), -1.0), 40),
    "clone": (
        dataclasses.replace(
            gamma_prior(),
            likelihood=dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery-poisson"),
        ),
        6,
    ),
}


@pytest.mark.parametrize("name", STEPPED)
def test_steps_are_the_doubles_of_one_cumsum_per_row(name):
    prior, n = STEPPED[name]
    at_once, one_by_one, reference = (RateTable(prior, 30, 1.0) for _ in range(3))
    at_once.totals(3)  # two blocks of rows wait for the first step
    at_once.step(n)
    for k in range(1, n + 1):
        one_by_one.step(k)
    for k, (cdf, gap, neglected) in enumerate(per_row_steps(reference, n), start=1):
        for table in (at_once, one_by_one):
            got_cdf, got_gap = table.step(k)
            assert (got_cdf.tobytes(), got_gap) == (cdf.tobytes(), gap)
            assert table.stream_certificate(k)["neglected_rate"] == neglected


def test_a_draw_tabulates_no_steps():
    table = RateTable(gamma_prior(), 30, 1.0)
    table.draw_certificate(50)
    assert table._step_rows == [] and len(table._unstepped) == 1
