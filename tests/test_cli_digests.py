"""Bench seed 0 of the two sampling workloads reproduces the digest table.

The commands, configs and replicate counts are the benchmark's own, taken
from ``bench/workloads.py``; the expected SHA-256 of every output is read
from the table that ``bench/digests.py`` writes into ``bench/README.md``.
Under the ``RngState(seed, stream)`` contract a change that only makes the
program faster leaves every digest as it is, so a mismatch here means the
output bytes moved.

The three ``verify`` reports of the ``verify-gamma`` workload at its first
verify seed are pinned here instead: their headers state the truncation each
suite used, and their quadrature statistics come from ``PanelLaw``.

The CLI runs BLAS on one thread unless the caller sets ``OPENBLAS_NUM_THREADS``:
the pooled draws and the oracle report keep their digests with two.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "bench" / "README.md"
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

import expcrm.cli as cli  # noqa: E402

SEED = 0


def _digest_table() -> dict:
    """``(workload, seed, file) -> sha256`` from the README's digest table."""
    text = README.read_text(encoding="utf-8")
    body = text.split("<!-- digests:begin -->")[1].split("<!-- digests:end -->")[0]
    table = {}
    for line in body.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1].isdigit():
            table[(cells[0], int(cells[1]), cells[2])] = cells[3]
    return table


def _cli(*args: str, environ=os.environ) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "expcrm.cli", *args],
        env={**environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _model(tmp_path, params_key, params) -> str:
    model = tmp_path / "model.json"
    workloads.write_config(model, workloads.model_config(params_key, params, SEED))
    return str(model)


def _run_prior(tmp_path, environ=os.environ) -> dict:
    model = _model(tmp_path, "params", workloads.STABLE_GAMMA)
    out = tmp_path / "draws.jsonl"
    _cli(
        "sample-prior", "--model", model, "--reps", str(workloads.PRIOR_REPS), "--out", str(out),
        environ=environ,
    )
    return {"draws.jsonl": out}


def _run_marginal(tmp_path) -> dict:
    model = _model(tmp_path, "native", workloads.IBP_NATIVE)
    files = {name: tmp_path / name for name in ("obs.jsonl", "summary.csv", "posterior.json")}
    _cli(
        "sample-marginal", "--model", model, "--n", str(workloads.IBP_STEPS),
        "--reps", str(workloads.IBP_REPS), "--out", str(files["obs.jsonl"]),
        "--summary", str(files["summary.csv"]),
    )
    _cli(
        "posterior", "--model", model, "--data", str(files["obs.jsonl"]),
        "--out", str(files["posterior.json"]),
    )
    return files


RUNS = {"prior-stable-gamma": _run_prior, "marginal-ibp-posterior": _run_marginal}


def test_digest_table_lists_every_checked_output():
    table = _digest_table()
    for workload in RUNS:
        assert any(key[:2] == (workload, SEED) for key in table), workload


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_bench_seed_outputs_match_the_digest_table(workload, tmp_path):
    table = _digest_table()
    for name, path in RUNS[workload](tmp_path).items():
        assert _sha256(path) == table[(workload, SEED, name)], f"{workload} {name}"


VERIFY_REPORTS = {
    "assumptions": "2a4a56fc70916d5bc81f520eb086aebeda8f17902157ac5242d7fd960e974cc0",
    "oracle": "26d62371ed857e0c07e77adffd65b4f6156b4adb27a2c2a6769d28c9fa401153",
    "equivalence": "d5f71211711ff25248dddb848932e10cab418096e79a9d639da62128039da848",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_REPORTS))
def test_verify_reports_are_pinned(suite, tmp_path):
    model = tmp_path / "model.json"
    cfg = workloads.model_config("params", workloads.GAMMA, workloads.VERIFY_SEEDS[SEED])
    workloads.write_config(model, cfg)
    report = tmp_path / f"report-{suite}.json"
    _cli("verify", "--model", str(model), "--suite", suite, "--report", str(report))
    assert _sha256(report) == VERIFY_REPORTS[suite]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the oracle report's quadrature runs through BLAS, and the draws through the pool
    assert workloads.PRIOR_REPS >= cli._POOL_THRESHOLD
    environ = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    draws = _run_prior(tmp_path, environ)["draws.jsonl"]
    assert _sha256(draws) == _digest_table()[("prior-stable-gamma", SEED, "draws.jsonl")]
    model = tmp_path / "verify.json"
    cfg = workloads.model_config("params", workloads.GAMMA, workloads.VERIFY_SEEDS[SEED])
    workloads.write_config(model, cfg)
    report = tmp_path / "report-oracle.json"
    _cli(
        "verify", "--model", str(model), "--suite", "oracle", "--report", str(report),
        environ=environ,
    )
    assert _sha256(report) == VERIFY_REPORTS["oracle"]
