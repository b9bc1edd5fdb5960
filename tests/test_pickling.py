"""Pickle round trips of models and samplers.

A catalog entry pickles as its family id and its own likelihood as that
entry's ``make_likelihood()``, so a prior, a posterior or a sampler loads
in another process (a spawned pool worker) around the one registered
entry there.  Any other likelihood pickles by value.
"""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expcrm.cli as cli
from expcrm import catalog
from expcrm.catalog import POISSON_GAMMA, get_entry, list_entries
from expcrm.errors import DomainError
from expcrm.exp_family import ExpCrmLikelihood, FixedAtomParams, WeightDomain, auto_conjugate
from expcrm.marginal import MarginalConfig, MarginalSampler
from expcrm.measures import ObservationMeasure
from expcrm.posterior import PosteriorCrm, posterior_update
from expcrm.size_biased import SizeBiasedConfig, SizeBiasedSampler

ENTRIES = [*list_entries(), get_entry("negative_binomial", 2.5)]


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.family)
def test_an_entry_and_its_likelihood_load_as_themselves(entry):
    assert round_trip(entry) is entry
    assert round_trip(entry.make_likelihood()) is entry.make_likelihood()


def test_a_negative_binomial_loads_in_a_fresh_interpreter(tmp_path):
    blob = tmp_path / "likelihood.pickle"
    blob.write_bytes(pickle.dumps(get_entry("negative_binomial", 2.5).make_likelihood()))
    code = (
        "import pickle\n"
        "from expcrm.catalog import _ENTRIES, get_entry\n"
        "assert 'negative_binomial(2.5)' not in _ENTRIES\n"
        f"like = pickle.loads(open({str(blob)!r}, 'rb').read())\n"
        "assert like is get_entry('negative_binomial', 2.5).make_likelihood()\n"
        "print(like.family)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "negative_binomial(2.5)\n"


def test_an_entry_whose_id_the_catalog_does_not_know_raises(monkeypatch):
    blob = pickle.dumps(POISSON_GAMMA)
    monkeypatch.delitem(catalog._ENTRIES, "poisson")
    with pytest.raises(DomainError, match="unknown family 'poisson'"):
        pickle.loads(blob)


@pytest.fixture
def posterior():
    prior = auto_conjugate(
        POISSON_GAMMA.make_likelihood(), 1.0, -1.0, 1.0, [FixedAtomParams(0.25, 0.0, 2.0)]
    )
    data = [
        ObservationMeasure(np.array([2, 1]), np.array([0.25, 0.5])),
        ObservationMeasure(np.array([3]), np.array([0.5])),
    ]
    return posterior_update(prior, data)


def test_a_posterior_with_fixed_atoms_comes_back_equal(posterior):
    again = round_trip(posterior)
    assert type(again) is PosteriorCrm
    assert again == posterior
    assert len(again.fixed_atoms) == 2 and again.n_obs == 2
    assert again.likelihood is posterior.likelihood


def test_both_samplers_draw_the_same_bytes_after_a_round_trip(posterior):
    sb = SizeBiasedSampler(posterior, SizeBiasedConfig(m_max=20, x_max=30, eps_tail=1e-4))
    mg = MarginalSampler(posterior, MarginalConfig(x_max=30, eps_tail=1e-4))
    sb_again, mg_again = round_trip(sb), round_trip(mg)
    assert sb_again is not sb and mg_again is not mg
    for rep in range(3):
        assert cli._prior_line(sb_again, 7, rep) == cli._prior_line(sb, 7, rep)
        assert cli._marginal_lines(mg_again, 4, 7, rep) == cli._marginal_lines(mg, 4, 7, rep)


def _log_h(x):
    return -math.lgamma(x + 1.0)


def _phi(x):
    return (float(x),)


def _eta(theta):
    return np.log(theta)[:, None]


def _A(theta):
    return np.asarray(theta, dtype=float)


def test_a_likelihood_outside_the_catalog_pickles_by_value():
    like = ExpCrmLikelihood("poisson_by_value", _log_h, _phi, _eta, _A, None, WeightDomain(math.inf))
    again = round_trip(like)
    assert again == like and again is not like


@pytest.mark.parametrize("family", ["poisson", "poisson_clone"])
def test_a_likelihood_built_from_lambdas_does_not_pickle(family):
    # a replace() clone is not its entry's own likelihood, whatever its id
    clone = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family=family)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(clone)
