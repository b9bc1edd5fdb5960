"""Regenerate the reference SHA-256 digests of the CLI outputs kept in bench/README.md.

Runs one round of each CLI workload for bench seeds 0-4 and rewrites the table between
the ``digests`` markers of the README.  Run from the repository root::

    python3 bench/digests.py

``RngState(seed, stream)`` fixes every random stream, so a change that only
makes the program faster leaves these digests unchanged; ``run.py`` reports
each output's digest as ``match``, ``MISMATCH`` or ``no reference`` against
this table.  A mismatch is information, not a failed check: a change that
corrects the method may change the bytes.
"""

from __future__ import annotations

import sys
from pathlib import Path

BEGIN, END = "<!-- digests:begin -->", "<!-- digests:end -->"
CLI_WORKLOADS = ("prior-stable-gamma", "marginal-ibp-posterior", "verify-gamma")
SEEDS = range(5)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "expcrm" / "__init__.py").is_file():
        print("digests: run from the root of an expcrm checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    rows = ["| workload | seed | file | sha256 |", "|---|---|---|---|"]
    for name in CLI_WORKLOADS:
        rundir = root / ".bench_run" / "digests" / name
        rundir.mkdir(parents=True, exist_ok=True)
        for seed in SEEDS:
            result = WORKLOADS[name](seed, rundir).round()
            if result["errors"]:
                print(f"digests: {name} seed {seed} failed: {result['errors']}", file=sys.stderr)
                return 1
            rows += [f"| {name} | {seed} | {f} | {d} |" for f, d in sorted(result["digests"].items())]
            print(f"{name} seed {seed}: {len(result['digests'])} digests", flush=True)

    readme = Path(__file__).resolve().parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    head, _, rest = text.partition(BEGIN)
    _, _, tail = rest.partition(END)
    readme.write_text(head + BEGIN + "\n" + "\n".join(rows) + "\n" + END + tail, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
