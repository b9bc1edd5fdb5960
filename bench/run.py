"""expcrm benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the repository root::

    python3 bench/run.py --workload prior-stable-gamma --seed 0 --seconds 12 --trace 0

It sets up in three fresh interpreters (``setup_s`` is their median), then
repeats whole rounds of the workload until ``--seconds`` have passed, checks
the last round's outputs against references computed apart from the program,
and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  Times are CPU seconds put
on a reference host speed by ``hostspeed``, which samples the host's speed
throughout set-up and the timed phase.

``--trace 0`` reports the end-to-end metrics from untraced subprocess rounds.
``--trace 1`` runs one untraced CLI round for the checks, then pairs of
in-process rounds, traced and untraced, and reports the per-layer metrics;
the spans go to ``.bench_run/<workload>/trace.json`` when the run ends.

Each run also writes ``.bench_run/<workload>/record-seed<n>-trace<t>.json``
with the environment, seeds, per-round figures, checks and output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

SETUP_PROBES = 3
README = Path(__file__).resolve().parent / "README.md"


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def environment(root: Path, seeds: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seeds": seeds,
    }


def reference_digests() -> dict:
    """(workload, seed, file) -> sha256 from the table between the README markers."""
    table, inside = {}, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.strip() == "<!-- digests:begin -->":
            inside = True
        elif line.strip() == "<!-- digests:end -->":
            inside = False
        elif inside and line.startswith("| ") and not line.startswith("| workload"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) == 4 and cells[1].isdigit():
                table[(cells[0], int(cells[1]), cells[2])] = cells[3]
    return table


def compare_digests(workload: str, seed: int, digests: dict) -> dict:
    refs = reference_digests()
    out = {}
    for name, digest in sorted(digests.items()):
        want = refs.get((workload, seed, name))
        status = "no reference for this seed" if want is None else ("match" if want == digest else f"MISMATCH (reference {want})")
        out[name] = {"sha256": digest, "reference": status}
    return out


def probe_setup(wl, rundir: Path, root: Path) -> list[dict]:
    from workloads import BENCH, run_proc

    args = [sys.executable, str(BENCH / "probe_setup.py"), "--kind", wl.probe_kind, *wl.probe_args()]
    probes = []
    for _ in range(SETUP_PROBES):
        p = run_proc(args, rundir)
        if p.code != 0:
            fail(f"set-up probe failed (exit {p.code}): {p.stderr.strip()[-2000:]}", 1)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if Path(res["expcrm_file"]).resolve().parent != (root / "src" / "expcrm").resolve():
            fail(f"set-up probe imported expcrm from {res['expcrm_file']}, not from this checkout")
        probes.append(res)
    return probes


def ref_cpu_s(speed: hostspeed.HostSpeed, timings: list[dict]) -> float:
    """Summed CPU seconds of the timed pieces, each on the reference speed."""
    return sum(speed.scale(t["cpu_s"], t["start"], t["end"], t["cpu"]) for t in timings)


def probe_times(speed: hostspeed.HostSpeed, probe: dict) -> dict:
    """One set-up probe's phases in CPU seconds on the reference speed."""
    imp, build = probe["import"], probe["build"]
    return {
        "import_s": ref_cpu_s(speed, [imp]),
        "parse_build_s": speed.scale(probe["parse_build_cpu_s"], build["start"], build["end"], build["cpu"]),
        "setup_s": ref_cpu_s(speed, [imp, build]),
    }


def end_to_end(rounds: list[dict], work: dict, probes: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "draws_per_cpu_s": (statistics.median(work["draws"] / r["draw_cpu_s"] for r in rounds), "draws/s"),
        "atom_steps_per_cpu_s": (
            statistics.median(work["atom_steps"] / r["atom_cpu_s"] for r in rounds),
            "atom-steps/s",
        ),
        "peak_rss_mb": (max(r["rss_mb"] for r in rounds), "MB"),
    }


def per_layer(tracer, traced_rounds: int, probes: list[dict], overhead_s: float) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def mean(name, scale):
        return incl(name) / calls(name) * scale if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    draws_labeled = calls("size_biased.draw_labeled")
    posterior_s = incl("measures.read_jsonl") + incl("measures.observation_from_jsonable") + incl("posterior.update")
    return {
        "expcrm.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "config.parse_build_ms": (statistics.median(p["parse_build_s"] for p in probes) * 1e3, "ms"),
        "size_biased.build_s": (mean("size_biased.build", 1.0), "s"),
        "size_biased.build_cells_per_s": (ratio(counts["size_biased.cells"], incl("size_biased.build")), "cells/s"),
        "size_biased.draw_labeled_ms": (mean("size_biased.draw_labeled", 1e3), "ms"),
        "size_biased.draw_ms": (mean("size_biased.draw", 1e3), "ms"),
        "size_biased.weight_cells_per_draw": (
            ratio(tracer.count_under("catalog.sample_weights", "size_biased.draw_labeled"), draws_labeled),
            "cells",
        ),
        "catalog.rate_table_ms": (mean("catalog.rate_table", 1e3), "ms"),
        "catalog.sample_weights_us": (mean("catalog.sample_weights", 1e6), "us/call"),
        "catalog.predictive_logpmf_us": (mean("catalog.predictive_logpmf", 1e6), "us/call"),
        "marginal.build_ms": (
            ratio(incl("marginal.build") + incl("marginal.tail_certificate"), calls("marginal.build")) * 1e3,
            "ms",
        ),
        "marginal.step_ms": (ratio(incl("marginal.sample"), counts["marginal.steps"]) * 1e3, "ms"),
        "marginal.atom_step_us": (ratio(incl("marginal.sample"), counts["marginal.atom_steps"]) * 1e6, "us"),
        "exp_family.log_partition_B_ms": (mean("exp_family.log_partition_B", 1e3), "ms/call"),
        "quadrature.integrate_ms": (mean("quadrature.integrate", 1e3), "ms/call"),
        "quadrature.integrate_calls": (calls("quadrature.integrate") / traced_rounds, "count"),
        "measures.to_jsonable_us_per_atom": (
            ratio(
                incl("measures.trait_to_jsonable") + incl("measures.observation_to_jsonable"),
                counts["measures.atoms_serialized"],
            ) * 1e6,
            "us",
        ),
        "measures.write_jsonl_mb_per_s": (ratio(counts["measures.bytes_written"] / 1e6, incl("measures.write_jsonl")), "MB/s"),
        "measures.read_jsonl_mb_per_s": (ratio(counts["measures.bytes_read"] / 1e6, incl("measures.read_jsonl")), "MB/s"),
        "measures.observation_from_jsonable_us": (mean("measures.observation_from_jsonable", 1e6), "us/record"),
        "measures.output_mb": (counts["measures.bytes_written"] / 1e6 / traced_rounds, "MB"),
        "posterior.update_s": (mean("posterior.update", 1.0), "s"),
        "posterior_obs_per_s": (ratio(counts["posterior.observations"], posterior_s), "obs/s"),
        "rng.generator_us": (mean("rng.generator", 1e6), "us"),
        "checks.assumptions_s": (mean("checks.assumptions", 1.0), "s"),
        "checks.oracle_s": (mean("checks.oracle", 1.0), "s"),
        "checks.equivalence_s": (mean("checks.equivalence", 1.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="expcrm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "expcrm" / "__init__.py").is_file():
        fail("no src/expcrm here: run from the root of an expcrm checkout")
    if args.seed < 0:
        fail("--seed must be >= 0")
    sys.path.insert(0, str(root / "src"))

    import reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    bad = reference.self_test()
    if bad:
        fail(f"reference self-test failed: {bad}", 1)

    rundir = root / ".bench_run" / args.workload
    rundir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, rundir)
    env = environment(root, wl.seeds())
    # compile once, so no measured interpreter writes bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "expcrm")], check=True)
    speed = hostspeed.HostSpeed()
    with speed.sampling():
        raw_probes = probe_setup(wl, rundir, root)
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append(wl.round())
            if args.trace or time.perf_counter() - t0 >= args.seconds:
                break
        errors = [err for r in rounds for err in r["errors"]]
        if errors:
            # the outputs the checks read are missing or stale, so no result can be given
            fail("operation failed: " + " | ".join(e[-1000:] for e in errors), 1)
        # scale while every sample is at hand
        probes = [{**p, **probe_times(speed, p)} for p in raw_probes]
        for r in rounds:
            timed = r.pop("timed")
            r["cpu_s"] = ref_cpu_s(speed, timed["total"])
            r["draw_cpu_s"] = ref_cpu_s(speed, timed["draws"])
            r["atom_cpu_s"] = ref_cpu_s(speed, timed["atoms"])
            r["raw_cpu_s"] = sum(t["cpu_s"] for t in timed["total"])
        host = speed.summary(raw_probes[0]["import"]["start"], time.perf_counter())
    checks, work = wl.check()
    outputs = [r.get("content_sha256", r["digests"]) for r in rounds]
    checks.add("outputs byte-identical across rounds", all(o == outputs[0] for o in outputs), f"{len(outputs)} rounds")
    attempted = sum(r["attempted"] for r in rounds)
    failed = len(errors)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_probes": probes,
        "host_speed": {"reference_loop_ms": hostspeed.REF_LOOP_S * 1e3, **host},
        "rounds": [{k: v for k, v in r.items() if k != "digests"} for r in rounds],
        "work": work,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks.results],
        "digests": compare_digests(args.workload, args.seed, rounds[-1]["digests"]),
    }

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, traced, walls = [], [], {"untraced": [], "traced": []}

        def in_process_round(kind: str) -> float:
            """The round's main-thread CPU seconds on the reference speed."""
            start, cpu = time.perf_counter(), time.thread_time()
            wl.traced_round()
            end = time.perf_counter()
            walls[kind].append(end - start)
            return speed.scale(time.thread_time() - cpu, start, end)

        # the sampler threads share the interpreter lock with the rounds, which
        # stretches the spans' wall times a little; traced and untraced alike
        with speed.sampling():
            wl.traced_round()  # warm-up: the first in-process round fills lazy caches
            t0 = time.perf_counter()
            while True:
                tracer.install()
                try:
                    traced.append(in_process_round("traced"))
                finally:
                    tracer.uninstall()
                plain.append(in_process_round("untraced"))
                if time.perf_counter() - t0 >= args.seconds:
                    break
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = per_layer(tracer, len(traced), probes, overhead)
        record["tracing"] = {
            "untraced_in_process_cpu_s": plain,
            "traced_in_process_cpu_s": traced,
            "untraced_in_process_wall_s": walls["untraced"],
            "traced_in_process_wall_s": walls["traced"],
            "overhead_s": overhead,
            "spans": len(tracer.spans),
        }
        tracer.write(rundir / "trace.json")
    else:
        metrics = end_to_end(rounds, work, probes)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(rundir / f"record-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seeds {json.dumps(env['seeds'])}, {len(rounds)} round(s)")
    print(
        f"environment: nproc {env['nproc']}, {env['cpu_model']}, Python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']}"
    )
    for name, ok, detail in checks.results:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    for name, d in record["digests"].items():
        print(f"  sha256 {name} {d['sha256']} ({d['reference']})")
    print(
        f"  unscaled, median over rounds: wall {statistics.median(r['wall_s'] for r in rounds):.3f} s, "
        f"CPU {statistics.median(r['raw_cpu_s'] for r in rounds):.3f} s; host loop median "
        + ", ".join(f"{c} {h['loop_ms_median']:.3f} ms" for c, h in host.items())
        + f" (reference {hostspeed.REF_LOOP_S * 1e3:.3f} ms)"
    )
    if args.trace:
        print(
            "  tracing overhead (traced - untraced in-process round, main-thread CPU on the reference speed): "
            f"{record['tracing']['overhead_s']:.3f} s"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": checks.passed,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
