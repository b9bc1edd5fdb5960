"""Command-line harness: batch sampling, posterior updates, verification.

Subcommands
-----------

``families list``
    Print the catalog as JSON descriptors.
``posterior --model model.json --data data.jsonl --out posterior.json``
    Condition the configured prior on a file of observation records.
``sample-prior --model model.json [--rounds M] [--xmax X] [--reps R] [--seed S] --out draws.jsonl``
    Truncated draws of the trait measure itself, one JSON record per line.
``sample-marginal --model model.json --n N [--reps R] [--seed S] [--xmax X] --out data.jsonl [--summary summary.csv]``
    Observation sequences with the measure integrated out; the optional
    CSV summarizes each step with (rep, n, atoms_total, atoms_new,
    sum_counts).
``verify --model model.json [--suite assumptions|oracle|equivalence] [--seed S] [--reps R] [--report report.json]``
    Run one verification suite; exit 0 only if every check passes.

Every ``--model`` also takes a ``posterior --out`` file: ``sample-marginal``
on one draws from the posterior predictive.

Exit codes: 0 success, 1 validation failure (bad hyperparameters, counts
outside support, truncation budget exceeded, failed verification), 2 I/O
failure (unreadable files, malformed JSON, schema violations).

Determinism: replicate ``r`` of any sampling command draws from the
stream ``RngState(seed, stream=r)``, so outputs are byte-identical for
identical (config, seed) however replicates are scheduled: in a process
pool, with BLAS on one thread unless the caller sets OPENBLAS_NUM_THREADS.
Every output file starts with a header record carrying the config hash, the
effective seed, and the truncation policy with its certificate; in CSV
files the header rides in a leading ``#`` comment line above the
mandatory column row.
"""

from __future__ import annotations

import os

# before numpy loads: an idle OpenBLAS worker busy-waits, and replicates use the pool instead
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import csv
import json
import multiprocessing
import sys
from itertools import islice, starmap

from .catalog import hyperparam_valid, list_entries
from .config import ModelConfig, model_config_from_dict, parse_model_config
from .errors import ConfigError, ExpCrmError
from .marginal import MarginalConfig, MarginalSampler
from .measures import (
    jsonl_line,
    observation_from_jsonable,
    observation_jsonl_line,
    read_jsonl,
    trait_jsonl_line,
)
from .posterior import posterior_update
from .rng import RngState
from .size_biased import SizeBiasedConfig, SizeBiasedSampler

__all__ = ["main"]

_POOL_THRESHOLD = 8  # below this many replicates the pool costs more than it saves


def _header(
    command: str, cfg: ModelConfig, seed: int, policy: dict, certificate: dict | None
) -> dict:
    """Provenance record embedded at the top of every output file.

    ``policy`` holds the truncation knobs actually in effect (flag
    overrides included), not necessarily what the config file said;
    ``certificate`` is the sampler's accounting of what the truncation
    neglected, when a sampler ran.
    """
    return {
        "kind": "header",
        "tool": "expcrm",
        "command": command,
        "config_sha256": cfg.config_hash(),
        "seed": seed,
        "truncation": {"policy": policy, "certificate": certificate},
    }


def _effective_seed(cfg: ModelConfig, args) -> int:
    return cfg.seed if args.seed is None else args.seed


def _build_prior(cfg: ModelConfig):
    """The config's prior, each warning of its validity check printed once to stderr
    (pool workers build theirs with ``cfg.build_prior`` and print nothing)."""
    prior = cfg.build_prior()
    for warning in hyperparam_valid(prior).warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return prior


# --- families ------------------------------------------------------------------


def _cmd_families(args) -> int:
    print(json.dumps([e.describe() for e in list_entries()], indent=2))
    return 0


# --- posterior -----------------------------------------------------------------


def _cmd_posterior(args) -> int:
    cfg = parse_model_config(args.model)
    prior = _build_prior(cfg)
    records = read_jsonl(args.data)
    observations = [
        observation_from_jsonable(rec)
        for rec in records
        if not (isinstance(rec, dict) and rec.get("kind") == "header")
    ]
    post = posterior_update(prior, observations)

    out = {
        "header": _header(
            "posterior",
            cfg,
            _effective_seed(cfg, args),
            cfg.to_jsonable()["truncation"],
            None,  # the update is exact; nothing was truncated
        ),
        "n_obs": post.n_obs,
        "model": cfg.with_prior(post).to_jsonable(),
    }
    _write_json(args.out, out)
    return 0


# --- sample-prior ---------------------------------------------------------------

# worker-pool state: each process builds its sampler once, then maps
# replicate indices to finished JSONL text, which pickles cheaply
_WORKER: dict = {}


def _init_prior_worker(cfg_dict: dict, m_max: int, x_max: int) -> None:
    cfg = model_config_from_dict(cfg_dict)
    sampler = SizeBiasedSampler(
        cfg.build_prior(),
        SizeBiasedConfig(m_max=m_max, x_max=x_max, eps_tail=cfg.eps_tail),
    )
    _WORKER["run"] = lambda seed, rep: _prior_line(sampler, seed, rep)


def _prior_line(sampler: SizeBiasedSampler, seed: int, rep: int) -> str:
    return trait_jsonl_line(rep, sampler.draw(RngState(seed, stream=rep)))


def _init_marginal_worker(cfg_dict: dict, x_max: int, n_steps: int) -> None:
    cfg = model_config_from_dict(cfg_dict)
    sampler = MarginalSampler(
        cfg.build_prior(), MarginalConfig(x_max=x_max, eps_tail=cfg.eps_tail)
    )
    _WORKER["run"] = lambda seed, rep: _marginal_lines(sampler, n_steps, seed, rep)


def _marginal_lines(sampler, n_steps, seed, rep):
    """One replicate's JSONL text and its per-step summary rows.

    Written from the stream's columns; a step's new atoms (``atoms_new``)
    are the atoms born at it.
    """
    lines = []
    summary = []
    steps = islice(sampler.stream(RngState(seed, stream=rep)), n_steps)
    for n, (counts, values, born) in enumerate(steps, start=1):
        lines.append(observation_jsonl_line(rep, n, counts, values))
        summary.append((rep, n, counts.size, born.size, int(counts.sum())))
    return "".join(lines), summary


def _pool_worker(task):
    seed, rep = task
    return _WORKER["run"](seed, rep)


def _fan_out(run, initializer, initargs, seed: int, reps: int):
    """Replicate results ``run(seed, rep)`` in index order, yielded as they come; fanned
    across processes, each set up by ``initializer(*initargs)``, when worth it."""
    tasks = [(seed, rep) for rep in range(reps)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, reps)
    if reps < _POOL_THRESHOLD or workers < 2:
        yield from starmap(run, tasks)
        return
    with multiprocessing.Pool(workers, initializer=initializer, initargs=initargs) as pool:
        yield from pool.imap(_pool_worker, tasks, chunksize=max(1, reps // (4 * workers)))


@contextlib.contextmanager
def _replacing(path):
    """Write ``path`` through a temporary file in the same directory.

    The temporary file replaces ``path`` only when the block completes;
    on any error it is deleted, so a failed run leaves no output that
    looks complete (and an older file at ``path`` untouched).
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_json(path, record: dict) -> None:
    """``record`` as indented JSON, written through :func:`_replacing`."""
    with _replacing(path) as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def _cmd_sample_prior(args) -> int:
    cfg = parse_model_config(args.model)
    rounds = cfg.rounds if args.rounds is None else args.rounds
    x_max = cfg.x_max if args.xmax is None else args.xmax
    seed = _effective_seed(cfg, args)
    # construct once up front: validates the model and prices the truncation
    sampler = SizeBiasedSampler(
        _build_prior(cfg), SizeBiasedConfig(m_max=rounds, x_max=x_max, eps_tail=cfg.eps_tail)
    )
    policy = {"rounds": rounds, "x_max": x_max, "eps_tail": cfg.eps_tail}
    header = _header("sample-prior", cfg, seed, policy, sampler.tail_certificate())
    header["reps"] = args.reps
    with _replacing(args.out) as out:
        out.write(jsonl_line(header))
        out.writelines(
            _fan_out(
                lambda seed, rep: _prior_line(sampler, seed, rep),
                _init_prior_worker, (cfg.to_jsonable(), rounds, x_max), seed, args.reps,
            )
        )
    return 0


# --- sample-marginal -------------------------------------------------------------


def _cmd_sample_marginal(args) -> int:
    if args.summary is not None and os.path.realpath(args.summary) == os.path.realpath(args.out):
        # both would be written through one temporary file
        raise ConfigError(f"--out and --summary name the same file: {args.out}")
    cfg = parse_model_config(args.model)
    x_max = cfg.x_max if args.xmax is None else args.xmax
    seed = _effective_seed(cfg, args)
    sampler = MarginalSampler(
        _build_prior(cfg), MarginalConfig(x_max=x_max, eps_tail=cfg.eps_tail)
    )
    policy = {"x_max": x_max, "eps_tail": cfg.eps_tail}
    header = _header("sample-marginal", cfg, seed, policy, sampler.tail_certificate(args.n))
    header["reps"] = args.reps
    header["n"] = args.n
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_replacing(args.out))
        out.write(jsonl_line(header))
        summary = None
        if args.summary is not None:
            summary_fh = stack.enter_context(_replacing(args.summary))
            summary_fh.write("# " + jsonl_line(header))
            summary = csv.writer(summary_fh, lineterminator="\n")
            summary.writerow(["rep", "n", "atoms_total", "atoms_new", "sum_counts"])
        results = _fan_out(
            lambda seed, rep: _marginal_lines(sampler, args.n, seed, rep),
            _init_marginal_worker, (cfg.to_jsonable(), x_max, args.n), seed, args.reps,
        )
        for lines, rows in results:
            out.write(lines)
            if summary is not None:
                summary.writerows(rows)
    return 0


# --- verify -----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    # the verification layer, which no other command needs
    from .checks import run_suite, suite_reps, suite_truncation

    cfg = parse_model_config(args.model)
    prior = _build_prior(cfg)
    seed = _effective_seed(cfg, args)
    reports = run_suite(
        prior, args.suite, seed=seed, reps=args.reps, x_max=cfg.x_max, eps_tail=cfg.eps_tail
    )
    for report in reports:
        print(report)
    passed = all(r.passed for r in reports)
    if args.report is not None:
        policy, certificate = suite_truncation(prior, args.suite, cfg.x_max, cfg.eps_tail)
        out = {
            "header": _header("verify", cfg, seed, policy, certificate),
            "suite": args.suite,
            "reps": suite_reps(args.suite, args.reps),
            "passed": passed,
            "reports": [r.to_jsonable() for r in reports],
        }
        _write_json(args.report, out)
    return 0 if passed else 1


# --- parser -------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """A seed in [0, 2**64), the range a config's ``seed`` accepts."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expcrm",
        description="Conjugate trait-measure models: sampling, posteriors, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("families", help="catalog information")
    fam.add_argument("action", choices=["list"], help="what to show")
    fam.set_defaults(func=_cmd_families)

    post = sub.add_parser("posterior", help="condition a model on observations")
    post.add_argument("--model", required=True, help="model config JSON")
    post.add_argument("--data", required=True, help="observations JSONL")
    post.add_argument("--out", required=True, help="posterior JSON to write")
    post.add_argument("--seed", type=_seed, default=None, help="override config seed")
    post.set_defaults(func=_cmd_posterior)

    sp = sub.add_parser("sample-prior", help="draw truncated trait measures")
    sp.add_argument("--model", required=True, help="model config JSON")
    sp.add_argument("--rounds", type=_positive_int, default=None, help="override truncation rounds")
    sp.add_argument("--xmax", type=_positive_int, default=None, help="override count cap")
    sp.add_argument("--reps", type=_positive_int, default=1, help="number of draws")
    sp.add_argument("--seed", type=_seed, default=None, help="override config seed")
    sp.add_argument("--out", required=True, help="draws JSONL to write")
    sp.set_defaults(func=_cmd_sample_prior)

    sm = sub.add_parser("sample-marginal", help="draw observation sequences")
    sm.add_argument("--model", required=True, help="model config JSON")
    sm.add_argument("--n", type=_positive_int, required=True, help="observations per replicate")
    sm.add_argument("--reps", type=_positive_int, default=1, help="number of replicates")
    sm.add_argument("--seed", type=_seed, default=None, help="override config seed")
    sm.add_argument("--xmax", type=_positive_int, default=None, help="override count cap")
    sm.add_argument("--out", required=True, help="observations JSONL to write")
    sm.add_argument("--summary", default=None, help="per-step summary CSV to write")
    sm.set_defaults(func=_cmd_sample_marginal)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--model", required=True, help="model config JSON")
    ver.add_argument(
        "--suite",
        choices=["assumptions", "oracle", "equivalence"],
        default="assumptions",
        help="which checks to run; equivalence compares rounds 1-3 whatever the config's rounds",
    )
    ver.add_argument("--seed", type=_seed, default=None, help="override config seed")
    ver.add_argument("--reps", type=_positive_int, default=2000, help="Monte Carlo replicates")
    ver.add_argument("--report", default=None, help="report JSON to write")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ExpCrmError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
