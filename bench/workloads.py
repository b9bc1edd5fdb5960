"""The four workloads: inputs, one untraced round, one traced round, and the checks.

An untraced round runs the workload the way a user does: one ``python -m
expcrm.cli`` subprocess per command (``clone-quadrature``: one fresh
interpreter running ``clone_calls.py``).  CPU time (user + system) and the
largest resident set of each subprocess, its pool workers included, come from
``os.wait4``; each round lists the (CPU seconds, start, end) of what it timed,
so ``hostspeed.HostSpeed.scale`` can put them on the reference speed.
A traced round makes the same calls in-process and serially through the
public library API, so ``spans.Tracer`` can see them.

Every round of a run repeats the same commands on the same inputs, so the
rounds' outputs must be byte-identical; the checks read the last round's.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CMD_TIMEOUT_S = 170.0

# verify suites are fixed-seed hypothesis tests at alpha = 0.01, so about one
# seed in a hundred rejects each test by chance.  Of seeds 0..59 these four do
# (p = 0.0088, 0.0053, 0.0059 in the equivalence suite, 0.0009 in the oracle);
# the workload draws its verify seed from the other 56.
VERIFY_SEEDS = tuple(s for s in range(60) if s not in (13, 18, 19, 42))

STABLE_GAMMA = {"mass": 2.0, "xi": -1.5, "lam": 1.0}
PRIOR_REPS, PRIOR_ROUNDS, PRIOR_XMAX = 2000, 1000, 50
IBP_NATIVE = {"mass": 5.0, "alpha": 0.0, "theta": 1.0}
IBP_STEPS, IBP_REPS = 500, 8
GAMMA = {"mass": 1.0, "xi": -1.0, "lam": 1.0}
VERIFY_SUITES = ("assumptions", "oracle", "equivalence")
VERIFY_REPS = 2000  # the CLI default; the equivalence suite draws this many of each sampler
Z = 5.0  # standard errors allowed by the statistical checks


# --- subprocesses -------------------------------------------------------------------


@dataclass
class Proc:
    code: int
    start: float  # perf_counter
    end: float
    cpu_s: float  # user + system, the command and its reaped children
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def timing(self) -> dict:
        return {"cpu_s": self.cpu_s, "start": self.start, "end": self.end, "cpu": None}


def run_proc(args: list[str], rundir: Path) -> Proc:
    """Run one command to its end; CPU time and peak RSS over it and its children."""
    out_path, err_path = rundir / "stdout.txt", rundir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        killer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        t0,
        t1,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "expcrm.cli", *args]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_sha256(data) -> str:
    """SHA-256 of the sorted-key, no-space JSON: the documented config hash."""
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def model_config(params_key: str, params: dict, seed: int) -> dict:
    """A config already in normalized form, so its hash can be computed here."""
    if params_key == "params":
        params = {**params, "xi": [params["xi"]]}
    return {
        "likelihood": "poisson" if params_key == "params" else "bernoulli",
        "prior": "gamma_process" if params_key == "params" else "beta_process",
        params_key: params,
        "fixed_atoms": [],
        "truncation": {"rounds": PRIOR_ROUNDS, "x_max": PRIOR_XMAX, "eps_tail": 1e-6},
        "seed": seed,
    }


class Checks:
    """Named pass/fail results, each with a short detail."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def check_header(checks: Checks, header: dict, command: str, cfg: dict, seed: int) -> None:
    checks.add(
        f"{command} header",
        header.get("kind") == "header"
        and header.get("command") == command
        and header.get("config_sha256") == canonical_sha256(cfg)
        and header.get("seed") == seed,
        f"config_sha256 {header.get('config_sha256', '')[:12]}..., seed {header.get('seed')}",
    )


def atom_steps(observations) -> int:
    """Atoms on the books at the end of each step, summed; ``observations`` are location lists."""
    seen: set = set()
    total = 0
    for locs in observations:
        seen.update(locs)
        total += len(seen)
    return total


# --- workloads ------------------------------------------------------------------------


class Workload:
    """Common shape; subclasses fill in the commands, checks and work counts."""

    name = ""
    probe_kind = ""

    def __init__(self, seed: int, rundir: Path):
        self.seed = seed
        self.rundir = rundir

    def probe_args(self) -> list[str]:
        return ["--model", str(self.model)]

    def seeds(self) -> dict:
        return {"bench_seed": self.seed}

    def round(self) -> dict:
        raise NotImplementedError

    def check(self) -> tuple[Checks, dict]:
        """Checks on the last round's outputs, and the work it did."""
        raise NotImplementedError

    def traced_round(self) -> None:
        raise NotImplementedError


class PriorStableGamma(Workload):
    name = "prior-stable-gamma"
    probe_kind = "prior"

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.cfg = model_config("params", STABLE_GAMMA, seed)
        self.model = rundir / "model.json"
        self.out = rundir / "draws.jsonl"
        write_config(self.model, self.cfg)

    def seeds(self):
        return {"bench_seed": self.seed, "cli_seed": self.seed}

    def round(self):
        p = run_proc(cli("sample-prior", "--model", str(self.model), "--reps", str(PRIOR_REPS), "--out", str(self.out)), self.rundir)
        ok = p.code == 0
        return {
            "wall_s": p.wall_s,
            "timed": {"total": [p.timing()], "draws": [p.timing()], "atoms": [p.timing()]},
            "rss_mb": p.rss_mb,
            "attempted": 1,
            "digests": {"draws.jsonl": sha256(self.out)} if ok else {},
            "errors": [] if ok else [p.stderr.strip()],
        }

    def check(self):
        checks = Checks()
        with open(self.out, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            records = [json.loads(line) for line in fh]
        check_header(checks, header, "sample-prior", self.cfg, self.seed)
        checks.add("replicates in index order", [r.get("rep") for r in records] == list(range(PRIOR_REPS)), f"{len(records)} records")
        n_atoms, totals, bad = [], [], 0
        for rec in records:
            weights = [float(a["w"]) for a in rec["ordinary"]]
            locs = [float(a["loc"]) for a in rec["ordinary"]]
            if rec["fixed"] or not all(w > 0.0 and math.isfinite(w) for w in weights):
                bad += 1
            elif not all(0.0 <= v < 1.0 for v in locs) or len(set(locs)) != len(locs):
                bad += 1
            n_atoms.append(len(weights))
            totals.append(math.fsum(weights))
        checks.add("weights positive, locations distinct in [0, 1)", bad == 0, f"{bad} bad records")
        mass, xi, lam = STABLE_GAMMA["mass"], STABLE_GAMMA["xi"], STABLE_GAMMA["lam"]
        for what, values, want in (
            ("atoms per draw", n_atoms, reference.gamma_expected_atoms(mass, xi, lam, PRIOR_ROUNDS)),
            ("total weight per draw", totals, reference.gamma_expected_total_weight(mass, xi, lam, PRIOR_ROUNDS)),
        ):
            m = statistics.fmean(values)
            se = statistics.stdev(values) / math.sqrt(len(values))
            checks.add(f"mean {what} vs closed form", abs(m - want) <= Z * se, f"{m:.4f} +- {se:.4f} vs {want:.4f}")
        work = {"draws": len(records), "atom_steps": sum(n_atoms), "atoms_per_draw": statistics.fmean(n_atoms)}
        return checks, work

    def traced_round(self):
        from expcrm import RngState, SizeBiasedConfig, SizeBiasedSampler, parse_model_config
        from expcrm.measures import trait_to_jsonable, write_jsonl

        cfg = parse_model_config(self.model)
        prior = cfg.build_prior()
        sampler = SizeBiasedSampler(prior, SizeBiasedConfig(m_max=cfg.rounds, x_max=cfg.x_max, eps_tail=cfg.eps_tail))
        header = {"kind": "header", "certificate": sampler.tail_certificate()}
        records = [{"rep": r, **trait_to_jsonable(sampler.draw(RngState(cfg.seed, r)))} for r in range(PRIOR_REPS)]
        write_jsonl(self.rundir / "traced.jsonl", [header, *records])


class MarginalIbpPosterior(Workload):
    name = "marginal-ibp-posterior"
    probe_kind = "marginal"

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.cfg = model_config("native", IBP_NATIVE, seed)
        self.model = rundir / "model.json"
        self.out = rundir / "obs.jsonl"
        self.summary = rundir / "summary.csv"
        self.post = rundir / "posterior.json"
        write_config(self.model, self.cfg)

    def probe_args(self):
        return ["--model", str(self.model), "--steps", str(IBP_STEPS)]

    def seeds(self):
        return {"bench_seed": self.seed, "cli_seed": self.seed}

    def round(self):
        sm = run_proc(
            cli("sample-marginal", "--model", str(self.model), "--n", str(IBP_STEPS), "--reps", str(IBP_REPS),
                "--out", str(self.out), "--summary", str(self.summary)),
            self.rundir,
        )
        post = run_proc(cli("posterior", "--model", str(self.model), "--data", str(self.out), "--out", str(self.post)), self.rundir)
        errors = [p.stderr.strip() for p in (sm, post) if p.code != 0]
        digests = {}
        if not errors:
            digests = {name: sha256(path) for name, path in (("obs.jsonl", self.out), ("summary.csv", self.summary), ("posterior.json", self.post))}
        return {
            "wall_s": sm.wall_s + post.wall_s,
            "timed": {"total": [sm.timing(), post.timing()], "draws": [sm.timing()], "atoms": [sm.timing()]},
            "rss_mb": max(sm.rss_mb, post.rss_mb),
            "attempted": 2,
            "digests": digests,
            "errors": errors,
        }

    def check(self):
        checks = Checks()
        with open(self.out, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            records = [json.loads(line) for line in fh]
        check_header(checks, header, "sample-marginal", self.cfg, self.seed)
        order = [(r.get("rep"), r.get("n")) for r in records]
        want_order = [(rep, n) for rep in range(IBP_REPS) for n in range(1, IBP_STEPS + 1)]
        checks.add("records in (rep, step) order", order == want_order, f"{len(records)} records")

        # per-step summary recomputed from the JSONL
        rows, per_rep_locs, new_per_rep, steps_by_rep = [], {}, [0] * IBP_REPS, {}
        bad = 0
        for rec in records:
            rep = rec["rep"]
            seen = per_rep_locs.setdefault(rep, set())
            counts = [a["x"] for a in rec["atoms"]]
            locs = [float(a["loc"]) for a in rec["atoms"]]
            if locs != sorted(set(locs)) or not all(0.0 <= v < 1.0 for v in locs) or any(c != 1 for c in counts):
                bad += 1
            new = sum(v not in seen for v in locs)
            seen.update(locs)
            new_per_rep[rep] += new
            steps_by_rep.setdefault(rep, []).append(locs)
            rows.append([str(rep), str(rec["n"]), str(len(locs)), str(new), str(sum(counts))])
        checks.add("observations: counts 1, locations sorted, distinct, in [0, 1)", bad == 0, f"{bad} bad records")
        with open(self.summary, encoding="utf-8", newline="") as fh:
            first = fh.readline()
            table = list(csv.reader(io.StringIO(fh.read())))
        checks.add(
            "summary CSV header line equals the JSONL header",
            first.startswith("# ") and json.loads(first[2:]) == header,
        )
        checks.add(
            "summary CSV rows agree with the JSONL",
            table[:1] == [["rep", "n", "atoms_total", "atoms_new", "sum_counts"]] and table[1:] == rows,
            f"{len(table) - 1} rows",
        )
        expected_new = IBP_REPS * reference.ibp_expected_new_atoms(IBP_NATIVE["mass"], IBP_NATIVE["theta"], IBP_STEPS)
        lo, hi = reference.poisson_interval(expected_new, Z)
        total_new = sum(new_per_rep)
        checks.add("new atoms vs Poisson(mass * H_n) per replicate", lo <= total_new <= hi, f"{total_new} in [{lo:.1f}, {hi:.1f}]")

        # the conjugate update by counting: xi gains the summed counts, lam gains N
        with open(self.post, encoding="utf-8") as fh:
            post = json.load(fh)
        check_header(checks, post["header"], "posterior", self.cfg, self.seed)
        n_obs = len(records)
        xi0 = -IBP_NATIVE["alpha"] - 1.0  # native -> exponential coordinates for the Bernoulli entry
        lam0 = IBP_NATIVE["theta"] - 2.0
        sums: dict[float, int] = {}
        for rec in records:
            for a in rec["atoms"]:
                loc = float(a["loc"])
                sums[loc] = sums.get(loc, 0) + a["x"]
        model = post["model"]
        got_atoms = {a["loc"]: (a["xi"], a["lam"]) for a in model["fixed_atoms"]}
        want_atoms = {loc: ([xi0 + s], lam0 + n_obs) for loc, s in sums.items()}
        checks.add("posterior n_obs", post["n_obs"] == n_obs, f"{post['n_obs']} vs {n_obs}")
        checks.add(
            "posterior ordinary component",
            model["params"] == {"mass": IBP_NATIVE["mass"], "xi": [xi0], "lam": lam0 + n_obs},
            json.dumps(model["params"]),
        )
        checks.add(
            "posterior fixed atoms equal the update by counting",
            len(model["fixed_atoms"]) == len(got_atoms) and got_atoms == want_atoms,
            f"{len(got_atoms)} fresh locations",
        )
        work = {
            "draws": n_obs,
            "atom_steps": sum(atom_steps(steps) for steps in steps_by_rep.values()),
            "observations": n_obs,
            "new_atoms": total_new,
            "fresh_posterior_locations": len(sums),
        }
        return checks, work

    def traced_round(self):
        from expcrm import MarginalConfig, MarginalSampler, RngState, parse_model_config, posterior_update
        from expcrm.measures import observation_from_jsonable, observation_to_jsonable, read_jsonl, write_jsonl

        cfg = parse_model_config(self.model)
        sampler = MarginalSampler(cfg.build_prior(), MarginalConfig(x_max=cfg.x_max, eps_tail=cfg.eps_tail))
        header = {"kind": "header", "certificate": sampler.tail_certificate(IBP_STEPS)}
        records = [
            {"rep": r, "n": n, **observation_to_jsonable(obs)}
            for r in range(IBP_REPS)
            for n, obs in enumerate(sampler.sample(IBP_STEPS, RngState(cfg.seed, r)), start=1)
        ]
        path = self.rundir / "traced.jsonl"
        write_jsonl(path, [header, *records])

        cfg = parse_model_config(self.model)
        prior = cfg.build_prior()
        observations = [observation_from_jsonable(r) for r in read_jsonl(path) if r.get("kind") != "header"]
        posterior_update(prior, observations)


class CloneQuadrature(Workload):
    name = "clone-quadrature"
    probe_kind = "clone"
    model = None

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.out = rundir / "clone.json"

    def probe_args(self):
        return []

    def round(self):
        p = run_proc([sys.executable, str(BENCH / "clone_calls.py"), "--seed", str(self.seed), "--out", str(self.out)], self.rundir)
        if p.code != 0:
            return {"attempted": 1, "errors": [p.stderr.strip()]}
        with open(self.out, encoding="utf-8") as fh:
            res = json.load(fh)
        phases = res.pop("phases")
        return {
            "wall_s": sum(t["end"] - t["start"] for t in phases.values()),
            "timed": {"total": list(phases.values()), "draws": [phases["draw"]], "atoms": [phases["marginal"]]},
            "rss_mb": p.rss_mb,
            "attempted": 1,
            # not a CLI output: compared across rounds only, never against the README
            "content_sha256": canonical_sha256(res),
            "digests": {},
            "errors": [],
        }

    def check(self):
        from expcrm import RngState

        import clone_calls as cc

        checks = Checks()
        with open(self.out, encoding="utf-8") as fh:
            res = json.load(fh)
        mass, xi, lam = cc.MASS, cc.XI, cc.LAM

        # truncation accounting against the closed forms
        gaps = [
            reference.gamma_round_total(mass, xi, lam, m)
            - math.fsum(reference.gamma_rate(mass, xi, lam, m, x) for x in range(1, cc.X_MAX + 1))
            for m in range(1, cc.ROUNDS + 1)
        ]
        want = math.fsum(gaps)
        cert = res["certificate"]
        checks.add(
            "tail certificate vs closed-form count tail",
            cert["rounds"] == cc.ROUNDS
            and cert["count_cap"] == cc.X_MAX
            and cert["worst_round"] == 1 + max(range(len(gaps)), key=gaps.__getitem__)
            and abs(cert["neglected_rate"] - want) <= 1e-3 * want + 1e-12,
            f"{cert['neglected_rate']:.6e} vs {want:.6e}",
        )
        grand = math.fsum(
            reference.gamma_rate(mass, xi, lam, m, x) for m in range(1, cc.ROUNDS + 1) for x in range(1, cc.X_MAX + 1)
        )
        n_atoms = [len(d) for d in res["draws"]]
        lo, hi = reference.poisson_interval(grand * len(n_atoms), Z)
        checks.add("atoms over the draws vs the closed-form grand rate", lo <= sum(n_atoms) <= hi, f"{sum(n_atoms)} in [{lo:.1f}, {hi:.1f}]")

        labeled = res["labeled"]
        same = res["fixed_atoms"] == 0 and all(
            [[w, v] for w, v in zip(lab["weights"], lab["locations"])] == draw for lab, draw in zip(labeled, res["draws"])
        )
        checks.add("draw() equals draw_labeled() without labels", same)
        sane = all(
            all(w > 0.0 for w in lab["weights"]) and all(0.0 <= v < 1.0 for v in lab["locations"]) and len(set(lab["locations"])) == len(lab["locations"])
            for lab in labeled
        )
        checks.add("weights positive, locations distinct in [0, 1)", sane)

        catalog = cc.build_sampler(cc.catalog_prior())
        same_cells = all(
            lab["rounds"] == ref.rounds.tolist() and lab["counts"] == ref.counts.tolist()
            for lab, ref in ((lab, catalog.draw_labeled(RngState(self.seed, r))) for r, lab in enumerate(labeled))
        )
        checks.add("labelled rounds and counts equal the catalog model's", same_cells)
        flat = [(w, m, x) for lab in labeled for w, m, x in zip(lab["weights"], lab["rounds"], lab["counts"])]
        pit = reference.gamma_weight_pit([f[0] for f in flat], xi, lam, [f[1] for f in flat], [f[2] for f in flat])
        p = reference.ks_uniform_pvalue(pit)
        checks.add("weights vs Gamma(xi + x + 1, lam + m) per cell (PIT KS)", p >= 1e-6, f"p = {p:.3g}, n = {len(flat)}")

        want_obs = cc.marginal_sampler(cc.catalog_prior()).sample(cc.STEPS, RngState(self.seed, cc.MARGINAL_STREAM))
        want_obs = [[[a.count, a.location.value] for a in o.atoms] for o in want_obs]
        checks.add("marginal observations equal the catalog model's", res["observations"] == want_obs, f"{cc.STEPS} steps")
        work = {
            "draws": len(res["draws"]),
            "atom_steps": atom_steps([[v for _, v in obs] for obs in res["observations"]]),
            "atoms_per_draw": statistics.fmean(n_atoms),
        }
        return checks, work

    def traced_round(self):
        import clone_calls

        clone_calls.run_round(self.seed, labels=False)


class VerifyGamma(Workload):
    name = "verify-gamma"
    probe_kind = "verify"

    def __init__(self, seed, rundir):
        super().__init__(seed, rundir)
        self.printed: dict[str, str] = {}
        self.codes: dict[str, int] = {}
        self.verify_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
        self.cfg = model_config("params", GAMMA, self.verify_seed)
        self.model = rundir / "model.json"
        write_config(self.model, self.cfg)

    def seeds(self):
        return {"bench_seed": self.seed, "verify_seed": self.verify_seed}

    def report(self, suite: str) -> Path:
        return self.rundir / f"report-{suite}.json"

    def round(self):
        procs = {}
        for suite in VERIFY_SUITES:
            self.report(suite).unlink(missing_ok=True)
            p = run_proc(cli("verify", "--model", str(self.model), "--suite", suite, "--report", str(self.report(suite))), self.rundir)
            procs[suite] = p
            self.printed[suite] = p.stdout
            self.codes[suite] = p.code
        # exit 1 with a report written is a suite that rejected: the command
        # completed, and check() marks the run incorrect
        errors = [
            f"{s}: exit {p.code}: {p.stdout.strip()} {p.stderr.strip()}"
            for s, p in procs.items()
            if p.code not in (0, 1) or not self.report(s).is_file()
        ]
        timings = [p.timing() for p in procs.values()]
        # the equivalence command alone is mostly import; the three together are steadier
        return {
            "wall_s": sum(p.wall_s for p in procs.values()),
            "timed": {"total": timings, "draws": timings, "atoms": timings},
            "rss_mb": max(p.rss_mb for p in procs.values()),
            "attempted": 3,
            "digests": {} if errors else {f"report-{s}.json": sha256(self.report(s)) for s in VERIFY_SUITES},
            "errors": errors,
        }

    def check(self):
        from expcrm import MarginalConfig, MarginalSampler, RngState, parse_model_config

        checks = Checks()
        for suite in VERIFY_SUITES:
            with open(self.report(suite), encoding="utf-8") as fh:
                rep = json.load(fh)
            check_header(checks, rep["header"], "verify", self.cfg, self.verify_seed)
            reports = rep["reports"]
            checks.add(
                f"{suite}: every report passes",
                rep["suite"] == suite and rep["passed"] is True and reports and all(r["passed"] is True for r in reports),
                f"{sum(r['passed'] for r in reports)}/{len(reports)} passed",
            )
            checks.add(
                f"{suite}: exit code agrees with the report's verdict",
                (self.codes[suite] == 0) == (rep["passed"] is True),
                f"exit {self.codes[suite]}",
            )
            lines = [ln for ln in self.printed[suite].splitlines() if ln.startswith("[")]
            agree = len(lines) == len(reports) and all(
                ln.startswith(f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: statistic ") for ln, r in zip(lines, reports)
            )
            checks.add(f"{suite}: report JSON reproduces the printed verdicts", agree, f"{len(lines)} lines")
        with open(self.report("equivalence"), encoding="utf-8") as fh:
            reps = json.load(fh)["reps"]
        # the equivalence suite's marginal streams, replayed from their RngState
        # streams to count their atom-steps (streams 2r + 1, 3 steps each)
        cfg = parse_model_config(self.model)
        sampler = MarginalSampler(cfg.build_prior(), MarginalConfig(x_max=cfg.x_max, eps_tail=cfg.eps_tail))
        steps = sum(
            atom_steps([[a.location.value for a in o.atoms] for o in sampler.sample(3, RngState(self.verify_seed, 2 * r + 1))])
            for r in range(reps)
        )
        return checks, {"draws": 2 * reps, "atom_steps": steps}

    def traced_round(self):
        from expcrm import parse_model_config, run_suite

        for suite in VERIFY_SUITES:
            cfg = parse_model_config(self.model)
            run_suite(cfg.build_prior(), suite, seed=cfg.seed, reps=VERIFY_REPS)


WORKLOADS = {w.name: w for w in (PriorStableGamma, MarginalIbpPosterior, CloneQuadrature, VerifyGamma)}
