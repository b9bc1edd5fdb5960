"""The clone-quadrature workload: library calls on an unregistered Poisson clone.

The clone is the catalog gamma model (mass 2, xi -1.2, lam 1.1) with its family
id renamed, so the catalog does not recognise it: every rate, round total,
weight law and predictive pmf goes through ``exp_family.log_partition_B`` and
``quadrature.integrate``.  The model config format only accepts catalog
families, so the CLI cannot reach this path.

One round builds a ``SizeBiasedSampler`` (200 rounds x 16 counts), makes 50
``draw()`` calls and samples 40 ``MarginalSampler`` steps, timing each phase
in process CPU time with its ``perf_counter`` start and end.
After the timed phase it repeats the draws with ``draw_labeled`` (the weight
samplers are cached by then, so this is cheap) to give the checks their round
and count labels.

Run as a script it pins itself to ``hostspeed.PIN_CPU``, does one round in a
fresh interpreter and writes the result as JSON::

    PYTHONPATH=src python3 bench/clone_calls.py --seed 0 --out clone.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import hostspeed
from expcrm import (
    POISSON_GAMMA,
    MarginalConfig,
    MarginalSampler,
    RngState,
    SizeBiasedConfig,
    SizeBiasedSampler,
    auto_conjugate,
)

MASS, XI, LAM = 2.0, -1.2, 1.1
ROUNDS, X_MAX = 200, 16
DRAWS, STEPS = 50, 40
MARGINAL_STREAM = 10_000  # stream of the marginal sequence; draws use streams 0..DRAWS-1


def catalog_prior():
    return auto_conjugate(POISSON_GAMMA.make_likelihood(), mass=MASS, xi=(XI,), lam=LAM)


def clone_prior():
    """The catalog gamma model under a family id the catalog does not know."""
    like = dataclasses.replace(POISSON_GAMMA.make_likelihood(), family="mystery-poisson")
    return auto_conjugate(like, mass=MASS, xi=(XI,), lam=LAM)


def build_sampler(prior) -> SizeBiasedSampler:
    return SizeBiasedSampler(prior, SizeBiasedConfig(m_max=ROUNDS, x_max=X_MAX))


def marginal_sampler(prior) -> MarginalSampler:
    return MarginalSampler(prior, MarginalConfig(x_max=X_MAX))


class _Phase:
    """CPU seconds of a block, with its perf_counter start and end."""

    def __enter__(self):
        self.start, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.timing = {
            "cpu_s": time.process_time() - self.cpu,
            "start": self.start,
            "end": time.perf_counter(),
            "cpu": hostspeed.PIN_CPU,
        }


def run_round(seed: int, labels: bool = True) -> dict:
    """One timed round of library calls, then (with ``labels``) the untimed labelled draws."""
    prior = clone_prior()
    with _Phase() as build:
        sampler = build_sampler(prior)
        certificate = sampler.tail_certificate()
    with _Phase() as draw:
        draws = [sampler.draw(RngState(seed, r)) for r in range(DRAWS)]
    with _Phase() as marginal:
        observations = marginal_sampler(prior).sample(STEPS, RngState(seed, MARGINAL_STREAM))
    labeled = [sampler.draw_labeled(RngState(seed, r)) for r in range(DRAWS)] if labels else []
    return {
        "phases": {"build": build.timing, "draw": draw.timing, "marginal": marginal.timing},
        "certificate": certificate,
        "fixed_atoms": sum(len(m.fixed_atoms) for m in draws),
        "draws": [[[a.weight, a.location.value] for a in m.ordinary_atoms] for m in draws],
        "labeled": [
            {
                "rounds": d.rounds.tolist(),
                "counts": d.counts.tolist(),
                "weights": d.weights.tolist(),
                "locations": d.locations.tolist(),
            }
            for d in labeled
        ],
        "observations": [[[a.count, a.location.value] for a in obs.atoms] for obs in observations],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    hostspeed.pin()
    result = run_round(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
