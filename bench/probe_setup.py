"""Set-up probe: one fresh interpreter's import, model parse and sampler construction.

Pins itself to ``hostspeed.PIN_CPU`` and prints one JSON object with each
phase's process CPU seconds, its ``perf_counter`` start and end, and the CPU::

    PYTHONPATH=src python3 bench/probe_setup.py --kind prior --model model.json

``--kind`` picks what the workload constructs before its first draw:

* ``prior``: ``SizeBiasedSampler`` at the config's truncation, plus its certificate;
* ``marginal``: ``MarginalSampler`` plus ``tail_certificate(--steps)``;
* ``verify``: the pair the equivalence suite builds (3 rounds / 3 steps);
* ``clone``: the unregistered clone's ``SizeBiasedSampler`` (no config file:
  the clone is built through the library, which is its "parse").
"""

import argparse
import json
import time

import hostspeed

hostspeed.pin()
t_start, c_start = time.perf_counter(), time.process_time()
import expcrm  # noqa: E402  (the import is what is being timed)

t_import, c_import = time.perf_counter(), time.process_time()

from expcrm import (  # noqa: E402
    MarginalConfig,
    MarginalSampler,
    SizeBiasedConfig,
    SizeBiasedSampler,
    parse_model_config,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=["prior", "marginal", "verify", "clone"], required=True)
    parser.add_argument("--model", default=None)
    parser.add_argument("--steps", type=int, default=3)
    args = parser.parse_args()

    t0, c0 = time.perf_counter(), time.process_time()
    if args.kind == "clone":
        import clone_calls

        prior = clone_calls.clone_prior()
    else:
        cfg = parse_model_config(args.model)
        prior = cfg.build_prior()
    c1 = time.process_time()
    if args.kind == "prior":
        sampler = SizeBiasedSampler(
            prior, SizeBiasedConfig(m_max=cfg.rounds, x_max=cfg.x_max, eps_tail=cfg.eps_tail)
        )
        sampler.tail_certificate()
    elif args.kind == "marginal":
        sampler = MarginalSampler(prior, MarginalConfig(x_max=cfg.x_max, eps_tail=cfg.eps_tail))
        sampler.tail_certificate(args.steps)
    elif args.kind == "verify":
        SizeBiasedSampler(prior, SizeBiasedConfig(m_max=3, x_max=cfg.x_max, eps_tail=cfg.eps_tail))
        MarginalSampler(prior, MarginalConfig(x_max=cfg.x_max, eps_tail=cfg.eps_tail)).tail_certificate(3)
    else:
        clone_calls.build_sampler(prior).tail_certificate()
    t2, c2 = time.perf_counter(), time.process_time()
    print(
        json.dumps(
            {
                "import": {"cpu_s": c_import - c_start, "start": t_start, "end": t_import, "cpu": hostspeed.PIN_CPU},
                "build": {"cpu_s": c2 - c0, "start": t0, "end": t2, "cpu": hostspeed.PIN_CPU},
                "parse_build_cpu_s": c1 - c0,
                "expcrm_file": expcrm.__file__,
            }
        )
    )


if __name__ == "__main__":
    main()
