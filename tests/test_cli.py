"""End-to-end tests of the command-line harness.

Every test drives ``main(argv)`` in process and inspects exit codes,
output files, and the stdout/stderr streams.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expcrm.cli as cli
from expcrm.cli import main
from expcrm.config import parse_model_config
from expcrm.errors import RngFaultError
from expcrm.measures import read_jsonl


def use_cpus(monkeypatch, n: int) -> None:
    """Let the process use ``n`` CPUs, as its affinity and as the machine's count."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: n)


@pytest.fixture
def gamma_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "likelihood": "poisson",
                "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
                "truncation": {"rounds": 30, "x_max": 40, "eps_tail": 1e-4},
                "seed": 3,
            }
        )
    )
    return path


@pytest.fixture
def beta_model(tmp_path):
    path = tmp_path / "beta_model.json"
    path.write_text(
        json.dumps(
            {
                "likelihood": "bernoulli",
                "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
                "seed": 3,
            }
        )
    )
    return path


@pytest.fixture
def alias_model(tmp_path):
    """A Bernoulli prior valid only under the literal native-parameter alias: valid, with a warning."""
    path = tmp_path / "alias_model.json"
    path.write_text(
        json.dumps({"likelihood": "bernoulli", "params": {"mass": 1.0, "xi": -0.5, "lam": 0.0}})
    )
    return path


def data_file(tmp_path):
    """One handwritten observation with count 1, in the support of every family."""
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps({"atoms": [{"x": 1, "loc": "0.25"}]}) + "\n")
    return data


def command_argv(command: str, model, tmp_path) -> list[str]:
    """A short run of ``command`` on ``model``, writing ``out`` in ``tmp_path``."""
    out = str(tmp_path / "out")
    return {
        "posterior": ["posterior", "--model", str(model), "--data", str(data_file(tmp_path)), "--out", out],
        "sample-prior": ["sample-prior", "--model", str(model), "--rounds", "5", "--out", out],
        "sample-marginal": ["sample-marginal", "--model", str(model), "--n", "3", "--out", out],
        "verify": ["verify", "--model", str(model), "--suite", "assumptions", "--report", out],
    }[command]


MODEL_COMMANDS = ["posterior", "sample-prior", "sample-marginal", "verify"]


# `families list`, byte for byte
FAMILIES_LIST = """[
  {
    "likelihood": "poisson",
    "prior": "gamma_process",
    "counts": "0, 1, 2, ...",
    "weights": "(0, inf)",
    "valid": "mass > 0, -2 < xi <= -1, lam > 0",
    "fixed_atoms": "xi_fix > -1, lam_fix > 0"
  },
  {
    "likelihood": "bernoulli",
    "prior": "beta_process",
    "counts": "0, 1",
    "weights": "(0, 1]",
    "valid": "mass > 0, -2 < xi <= -1, lam > xi - 1 (union with the native alias range xi in [-1, 0), lam > -xi - 3, with a warning)",
    "native": "mass > 0, 0 <= alpha < 1, theta > -alpha",
    "fixed_atoms": "xi_fix > -1, lam_fix > xi_fix - 1"
  },
  {
    "likelihood": "odds_bernoulli",
    "prior": "beta_prime_process",
    "counts": "0, 1",
    "weights": "(0, inf)",
    "valid": "mass > 0, -2 < xi <= -1, lam > xi + 1",
    "fixed_atoms": "xi_fix > -1, lam_fix > xi_fix + 1"
  },
  {
    "likelihood": "negative_binomial(r)",
    "prior": "beta",
    "counts": "0, 1, 2, ...",
    "weights": "(0, 1)",
    "valid": "mass > 0, -2 < xi <= -1, lam * r > -1, r > 0",
    "native": "mass > 0, 0 <= alpha < 1, theta > -alpha",
    "fixed_atoms": "xi_fix > -1, lam_fix * r > -1"
  }
]
"""


class TestFamilies:
    def test_list_bytes_are_pinned(self, capsys):
        assert main(["families", "list"]) == 0
        assert capsys.readouterr().out == FAMILIES_LIST

    def test_list_emits_all_four(self, capsys):
        assert main(["families", "list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        ids = [d["likelihood"] for d in listing]
        assert ids == ["poisson", "bernoulli", "odds_bernoulli", "negative_binomial(r)"]
        for d in listing:
            assert "valid" in d and "prior" in d


class TestSamplePrior:
    def test_writes_header_and_ordered_reps(self, gamma_model, tmp_path):
        out = tmp_path / "draws.jsonl"
        code = main(
            ["sample-prior", "--model", str(gamma_model), "--reps", "3", "--out", str(out)]
        )
        assert code == 0
        records = read_jsonl(out)
        head = records[0]
        assert head["kind"] == "header"
        assert head["command"] == "sample-prior"
        assert len(head["config_sha256"]) == 64
        assert head["seed"] == 3
        assert head["truncation"]["policy"] == {"rounds": 30, "x_max": 40, "eps_tail": 1e-4}
        cert = head["truncation"]["certificate"]
        assert cert["rounds"] == 30 and cert["neglected_rate"] <= 1e-4
        body = records[1:]
        assert [r["rep"] for r in body] == [0, 1, 2]
        for r in body:
            assert set(r) == {"rep", "fixed", "ordinary", "trunc"}

    def test_flag_overrides_land_in_header(self, gamma_model, tmp_path):
        out = tmp_path / "d.jsonl"
        code = main(
            [
                "sample-prior", "--model", str(gamma_model),
                "--rounds", "10", "--xmax", "25", "--seed", "9", "--out", str(out),
            ]
        )
        assert code == 0
        head = read_jsonl(out)[0]
        assert head["truncation"]["policy"]["rounds"] == 10
        assert head["truncation"]["policy"]["x_max"] == 25
        assert head["truncation"]["certificate"]["rounds"] == 10
        assert head["seed"] == 9

    def test_byte_identical_reruns(self, gamma_model, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(
                ["sample-prior", "--model", str(gamma_model), "--reps", "4", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pool_and_serial_agree(self, gamma_model, tmp_path, monkeypatch):
        pooled = tmp_path / "pooled.jsonl"
        serial = tmp_path / "serial.jsonl"
        argv = ["sample-prior", "--model", str(gamma_model), "--reps", "12"]
        # force the worker pool even on a one-core machine
        use_cpus(monkeypatch, 4)
        assert main(argv + ["--out", str(pooled)]) == 0
        monkeypatch.setattr(cli, "_POOL_THRESHOLD", 10**9)
        assert main(argv + ["--out", str(serial)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()

    def test_one_usable_cpu_runs_serially(self, gamma_model, tmp_path, monkeypatch):
        pooled = tmp_path / "pooled.jsonl"
        serial = tmp_path / "serial.jsonl"
        argv = ["sample-prior", "--model", str(gamma_model), "--reps", str(cli._POOL_THRESHOLD)]
        with monkeypatch.context() as patched:
            use_cpus(patched, 2)
            assert main(argv + ["--out", str(pooled)]) == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool on one usable CPU")

        # confined to one of the machine's four CPUs, as by taskset or a cpuset
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
        assert main(argv + ["--out", str(serial)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_leaves_no_output(
        self, gamma_model, tmp_path, monkeypatch, capsys, workers
    ):
        real = cli._prior_line

        def failing(sampler, seed, rep):
            if rep == 9:
                raise RngFaultError("injected fault")
            return real(sampler, seed, rep)

        monkeypatch.setattr(cli, "_prior_line", failing)
        use_cpus(monkeypatch, workers)
        fresh = tmp_path / "fresh.jsonl"
        older = tmp_path / "older.jsonl"
        older.write_text("an older run\n")
        for out in (fresh, older):
            argv = ["sample-prior", "--model", str(gamma_model), "--reps", "12", "--out", str(out)]
            assert main(argv) == 1
            assert "injected fault" in capsys.readouterr().err
        assert not fresh.exists()
        assert older.read_text() == "an older run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "older.jsonl"]

    def test_invalid_hyperparameters_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"likelihood": "poisson", "params": {"mass": 1.0, "xi": -2.5, "lam": 1.0}})
        )
        code = main(["sample-prior", "--model", str(bad), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "A2" in capsys.readouterr().err

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["sample-prior", "--model", str(bad), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_unwritable_output_exit_2(self, gamma_model, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.jsonl"
        code = main(["sample-prior", "--model", str(gamma_model), "--out", str(out)])
        assert code == 2

    def test_tail_budget_violation_exit_1(self, gamma_model, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code = main(
            ["sample-prior", "--model", str(gamma_model), "--xmax", "1", "--out", str(out)]
        )
        assert code == 1
        assert "eps_tail" in capsys.readouterr().err


class TestSampleMarginal:
    def test_writes_data_and_summary(self, gamma_model, tmp_path):
        out = tmp_path / "data.jsonl"
        summary = tmp_path / "summary.csv"
        code = main(
            [
                "sample-marginal", "--model", str(gamma_model),
                "--n", "3", "--reps", "2", "--out", str(out), "--summary", str(summary),
            ]
        )
        assert code == 0
        records = read_jsonl(out)
        head, body = records[0], records[1:]
        assert head["command"] == "sample-marginal"
        assert head["n"] == 3 and head["reps"] == 2
        assert head["truncation"]["certificate"]["steps"] == 3
        assert [(r["rep"], r["n"]) for r in body] == [
            (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
        ]

        lines = summary.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "rep,n,atoms_total,atoms_new,sum_counts"
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 6
        for row, rec in zip(rows, body):
            assert int(row["atoms_total"]) == len(rec["atoms"])
            assert int(row["sum_counts"]) == sum(a["x"] for a in rec["atoms"])
            assert int(row["atoms_new"]) <= int(row["atoms_total"])

    def test_byte_identical_reruns(self, gamma_model, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            csvf = tmp_path / f"{name}.csv"
            assert main(
                [
                    "sample-marginal", "--model", str(gamma_model),
                    "--n", "2", "--reps", "3", "--out", str(out), "--summary", str(csvf),
                ]
            ) == 0
            outs.append((out.read_bytes(), csvf.read_bytes()))
        assert outs[0] == outs[1]

    def test_pool_and_serial_agree(self, gamma_model, tmp_path, monkeypatch):
        pooled = tmp_path / "p.jsonl"
        serial = tmp_path / "s.jsonl"
        argv = ["sample-marginal", "--model", str(gamma_model), "--n", "2", "--reps", "10"]
        use_cpus(monkeypatch, 4)
        assert main(argv + ["--out", str(pooled)]) == 0
        monkeypatch.setattr(cli, "_POOL_THRESHOLD", 10**9)
        assert main(argv + ["--out", str(serial)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_leaves_no_output(self, gamma_model, tmp_path, monkeypatch, workers):
        real = cli._marginal_lines

        def failing(sampler, n_steps, seed, rep):
            if rep == 9:
                raise RngFaultError("injected fault")
            return real(sampler, n_steps, seed, rep)

        monkeypatch.setattr(cli, "_marginal_lines", failing)
        use_cpus(monkeypatch, workers)
        argv = [
            "sample-marginal", "--model", str(gamma_model), "--n", "2", "--reps", "10",
            "--out", str(tmp_path / "data.jsonl"), "--summary", str(tmp_path / "summary.csv"),
        ]
        assert main(argv) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("older", [None, "older output\n"])
    def test_summary_naming_the_out_file_exit_2(self, gamma_model, tmp_path, capsys, monkeypatch, older):
        target = tmp_path / "x"
        if older is not None:
            target.write_text(older)
        monkeypatch.chdir(tmp_path)
        argv = [
            "sample-marginal", "--model", str(gamma_model), "--n", "5", "--reps", "2",
            "--out", str(target), "--summary", "x",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "--summary" in err
        if older is None:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
        else:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "x"]
            assert target.read_text() == older

    def test_summary_is_optional(self, gamma_model, tmp_path):
        out = tmp_path / "data.jsonl"
        assert main(
            ["sample-marginal", "--model", str(gamma_model), "--n", "2", "--out", str(out)]
        ) == 0
        assert out.exists()

    def test_tail_budget_violation_exit_1(self, gamma_model, tmp_path, capsys):
        argv = [
            "sample-marginal", "--model", str(gamma_model), "--n", "3", "--xmax", "1",
            "--out", str(tmp_path / "data.jsonl"), "--summary", str(tmp_path / "summary.csv"),
        ]
        assert main(argv) == 1
        assert "counts above 1 keep rate" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class TestOneSamplerInProcess:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sample-prior", "--reps", "3"], "SizeBiasedSampler"),
            (["sample-marginal", "--n", "2", "--reps", "3"], "MarginalSampler"),
        ],
    )
    def test_the_command_draws_from_the_sampler_it_built(
        self, gamma_model, tmp_path, monkeypatch, argv, name
    ):
        built = []
        real = getattr(cli, name)

        class Counted(real):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, name, Counted)
        out = tmp_path / "out.jsonl"
        assert main(argv + ["--model", str(gamma_model), "--out", str(out)]) == 0
        assert len(built) == 1
        assert len(read_jsonl(out)) > 1


class TestPosterior:
    def test_update_from_handwritten_data(self, gamma_model, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(
            json.dumps({"atoms": [{"x": 2, "loc": "0.25"}]})
            + "\n"
            + json.dumps({"atoms": [{"x": 1, "loc": "0.25"}, {"x": 3, "loc": "0.5"}]})
            + "\n"
        )
        out = tmp_path / "post.json"
        code = main(
            ["posterior", "--model", str(gamma_model), "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_obs"] == 2
        model = doc["model"]
        assert model["params"]["lam"] == 3.0
        assert model["params"]["xi"] == [-1.0]
        atoms = {a["loc"]: a for a in model["fixed_atoms"]}
        assert atoms[0.25]["xi"] == [2.0] and atoms[0.25]["lam"] == 3.0
        assert atoms[0.5]["xi"] == [2.0] and atoms[0.5]["lam"] == 3.0

    def test_posterior_output_is_a_loadable_config(self, gamma_model, tmp_path):
        from expcrm.config import model_config_from_dict

        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"atoms": [{"x": 1, "loc": "0.125"}]}) + "\n")
        out = tmp_path / "post.json"
        assert main(
            ["posterior", "--model", str(gamma_model), "--data", str(data), "--out", str(out)]
        ) == 0
        model = json.loads(out.read_text())["model"]
        prior = model_config_from_dict(model).build_prior()
        assert prior.lam == 2.0
        assert prior.fixed_atoms[0].location.value == 0.125

    def _posterior_file(self, model, tmp_path):
        """A ``posterior --out`` file from three sampled observations of ``model``."""
        data, out = tmp_path / "data.jsonl", tmp_path / "post.json"
        assert main(["sample-marginal", "--model", str(model), "--n", "3", "--out", str(data)]) == 0
        assert main(["posterior", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
        return out

    def test_posterior_file_is_a_model(self, gamma_model, tmp_path):
        from expcrm.config import model_config_from_dict

        post = self._posterior_file(gamma_model, tmp_path)
        doc = json.loads(post.read_text())
        predictive = tmp_path / "predictive.jsonl"
        argv = ["sample-marginal", "--model", str(post), "--n", "4", "--out", str(predictive)]
        assert main(argv) == 0
        header = read_jsonl(predictive)[0]
        assert header["config_sha256"] == model_config_from_dict(doc["model"]).config_hash()
        assert header["config_sha256"] != doc["header"]["config_sha256"]
        draws = tmp_path / "draws.jsonl"
        argv = ["sample-prior", "--model", str(post), "--rounds", "5", "--out", str(draws)]
        assert main(argv) == 0
        assert main(["verify", "--model", str(post), "--suite", "assumptions"]) == 0

    def test_chained_posteriors_count_every_observation(self, gamma_model, tmp_path):
        from expcrm.config import model_config_from_dict, parse_model_config
        from expcrm.posterior import PosteriorCrm

        post = self._posterior_file(gamma_model, tmp_path)
        first = json.loads(post.read_text())
        prior = parse_model_config(post).build_prior()
        assert isinstance(prior, PosteriorCrm) and prior.n_obs == 3
        again = tmp_path / "again.json"
        data = tmp_path / "data.jsonl"
        argv = ["posterior", "--model", str(post), "--data", str(data), "--out", str(again)]
        assert main(argv) == 0
        doc = json.loads(again.read_text())
        assert doc["n_obs"] == 6
        assert doc["model"]["params"]["lam"] == 7.0  # lam + 3 + 3
        assert doc["header"]["config_sha256"] == model_config_from_dict(first["model"]).config_hash()

    @pytest.mark.parametrize("n_obs", [-1, 2.5, True, "3"])
    def test_posterior_file_with_a_bad_count_exit_2(self, gamma_model, tmp_path, capsys, n_obs):
        post = self._posterior_file(gamma_model, tmp_path)
        doc = json.loads(post.read_text())
        post.write_text(json.dumps({**doc, "n_obs": n_obs}))
        argv = ["sample-marginal", "--model", str(post), "--n", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "n_obs must be an integer >= 0" in capsys.readouterr().err

    def test_posterior_file_with_an_extra_key_exit_2(self, gamma_model, tmp_path, capsys):
        post = self._posterior_file(gamma_model, tmp_path)
        doc = json.loads(post.read_text())
        post.write_text(json.dumps({**doc, "note": "hand-edited"}))
        argv = ["sample-marginal", "--model", str(post), "--n", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "unknown key(s)" in capsys.readouterr().err

    def test_consumes_sampler_output(self, gamma_model, tmp_path):
        data = tmp_path / "data.jsonl"
        assert main(
            ["sample-marginal", "--model", str(gamma_model), "--n", "3", "--out", str(data)]
        ) == 0
        out = tmp_path / "post.json"
        code = main(
            ["posterior", "--model", str(gamma_model), "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_obs"] == 3
        assert doc["model"]["params"]["lam"] == 4.0  # lam + N

    def test_count_outside_support_exit_1(self, beta_model, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"atoms": [{"x": 2, "loc": "0.5"}]}) + "\n")
        code = main(
            [
                "posterior", "--model", str(beta_model),
                "--data", str(data), "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1
        assert "support" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "atoms, fault",
        [
            ([{"x": 1, "loc": "0.5"}, {"x": 2, "loc": "0.5"}], "distinct locations"),
            ([{"x": 0, "loc": "0.5"}], ">= 1, got 0"),
            ([{"x": -3, "loc": "0.5"}], ">= 1, got -3"),
            ([{"x": 2**63, "loc": "0.5"}], f"1..{2**63 - 1}, got {2**63}\n"),
            ([{"x": 10**20, "loc": "0.5"}], f"1..{2**63 - 1}, got {10**20}\n"),
            ([{"x": 1, "loc": "1.5"}], "got 1.5"),
            ([{"x": 1, "loc": "nan"}], "got nan"),
        ],
        ids=[
            "repeated-location", "zero-count", "negative-count", "count-2**63", "count-1e20",
            "location-1.5", "location-nan",
        ],
    )
    def test_data_outside_the_domain_exit_1(self, gamma_model, tmp_path, capsys, atoms, fault):
        data = tmp_path / "data.jsonl"
        # a valid record first: the faulty one is the second record of the file
        records = [{"atoms": [{"x": 1, "loc": "0.25"}]}, {"atoms": atoms}]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "p.json"
        argv = ["posterior", "--model", str(gamma_model), "--data", str(data), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fault in err
        assert not out.exists()

    @pytest.mark.parametrize("atoms", [None, {}, ""], ids=["null", "object", "string"])
    def test_non_list_atoms_exit_2(self, gamma_model, tmp_path, capsys, atoms):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"atoms": atoms}) + "\n")
        out = tmp_path / "p.json"
        argv = ["posterior", "--model", str(gamma_model), "--data", str(data), "--out", str(out)]
        assert main(argv) == 2
        assert "must be a list" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_data_exit_2(self, gamma_model, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text("{nope\n")
        code = main(
            [
                "posterior", "--model", str(gamma_model),
                "--data", str(data), "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 2


class TestVerify:
    def test_assumptions_pass_on_valid_gamma(self, gamma_model, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--model", str(gamma_model), "--suite", "assumptions",
             "--report", str(report)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("[PASS]") == 3
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert len(doc["reports"]) == 3
        assert doc["header"]["command"] == "verify"

    def test_out_of_range_xi_exit_1_naming_a2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"likelihood": "poisson", "params": {"mass": 1.0, "xi": -2.5, "lam": 1.0}})
        )
        code = main(["verify", "--model", str(bad), "--suite", "assumptions"])
        assert code == 1
        assert "A2" in capsys.readouterr().err

    def test_failing_suite_exits_1_but_writes_report(self, tmp_path, capsys):
        # valid only under the native alias: the numeric A1 check fails
        alias = tmp_path / "alias.json"
        alias.write_text(
            json.dumps({"likelihood": "bernoulli", "params": {"mass": 1.0, "xi": -0.5, "lam": 2.0}})
        )
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--model", str(alias), "--suite", "assumptions", "--report", str(report)]
        )
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        assert any(not r["passed"] for r in doc["reports"])

    def test_oracle_suite(self, gamma_model, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--model", str(gamma_model), "--suite", "oracle",
             "--reps", "1500", "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["suite"] == "oracle"
        assert len(doc["reports"]) == 13

    @pytest.mark.parametrize("reps, drawn", [(5, 1000), (1200, 1200)])
    def test_oracle_report_states_the_weights_it_drew(self, gamma_model, tmp_path, reps, drawn):
        # the KS test draws at least 1,000 weights, whatever --reps asks
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--model", str(gamma_model), "--suite", "oracle",
             "--reps", str(reps), "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        weight_law = doc["reports"][-1]
        assert weight_law["name"].startswith("weight law")
        assert weight_law["detail"].startswith(f"n = {drawn}, ")
        assert doc["reps"] == drawn

    def test_oracle_suite_on_a_heavy_power_tail(self, tmp_path):
        # the round-1 weight law is Beta-prime(0.5, 0.05), tail power -1.05
        model = tmp_path / "odds.json"
        model.write_text(
            json.dumps(
                {
                    "likelihood": "odds_bernoulli",
                    "prior": "beta_prime_process",
                    "params": {"mass": 1.0, "xi": [-1.5], "lam": -0.45},
                    "seed": 0,
                }
            )
        )
        report = tmp_path / "report.json"
        code = main(["verify", "--model", str(model), "--suite", "oracle", "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["reports"][-1]["name"] == "weight law at (xi=-0.5, lam=0.55)"
        assert all(r["passed"] for r in doc["reports"])

    def test_equivalence_suite(self, gamma_model):
        code = main(
            ["verify", "--model", str(gamma_model), "--suite", "equivalence",
             "--reps", "300", "--seed", "6"]
        )
        assert code == 0

    def test_equivalence_runs_at_the_config_truncation(self, tmp_path, capsys):
        # a count cap of 2 leaves far more than eps_tail in the tail, so the
        # suite must refuse to run rather than compare truncated samplers
        capped = tmp_path / "capped.json"
        capped.write_text(
            json.dumps(
                {
                    "likelihood": "poisson",
                    "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
                    "truncation": {"x_max": 2},
                }
            )
        )
        report = tmp_path / "report.json"
        code = main(
            ["verify", "--model", str(capped), "--suite", "equivalence",
             "--reps", "200", "--report", str(report)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "counts above 2" in err and "x_max" in err
        assert not report.exists()

    @pytest.mark.parametrize("suite", ["assumptions", "oracle", "equivalence"])
    def test_report_header_states_the_truncation_used(self, tmp_path, suite):
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {
                    "likelihood": "poisson",
                    "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
                    "truncation": {"rounds": 7, "x_max": 30, "eps_tail": 1e-4},
                }
            )
        )
        report = tmp_path / "report.json"
        argv = ["verify", "--model", str(model), "--suite", suite, "--reps", "100"]
        assert main([*argv, "--report", str(report)]) == 0
        truncation = json.loads(report.read_text())["header"]["truncation"]
        if suite != "equivalence":
            # these suites truncate nothing
            assert truncation == {"policy": None, "certificate": None}
            return
        assert truncation["policy"] == {"rounds": 3, "x_max": 30, "eps_tail": 1e-4}
        sb, mg = truncation["certificate"]["size_biased"], truncation["certificate"]["marginal"]
        assert (sb["rounds"], sb["count_cap"], sb["eps_tail"]) == (3, 30, 1e-4)
        assert (mg["steps"], mg["count_cap"], mg["eps_tail"]) == (3, 30, 1e-4)
        assert sb["neglected_rate"] == pytest.approx(mg["neglected_rate"], rel=1e-12)

    def test_report_is_optional(self, gamma_model, capsys):
        assert main(["verify", "--model", str(gamma_model)]) == 0
        assert "[PASS]" in capsys.readouterr().out


class TestValidityWarnings:
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_alias_range_prior_warns_once(self, alias_model, tmp_path, capsys, command):
        # the kernel has finite ordinary mass here, so the numeric A1 check fails
        assert main(command_argv(command, alias_model, tmp_path)) == (1 if command == "verify" else 0)
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "literal native-parameter alias" in warnings[0]

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_gamma_prior_prints_no_warning(self, gamma_model, tmp_path, capsys, command):
        assert main(command_argv(command, gamma_model, tmp_path)) == 0
        assert "warning:" not in capsys.readouterr().err

    def test_pool_workers_print_nothing(self, alias_model, tmp_path):
        # a fresh interpreter whose stderr is a pipe, so a forked worker's print would reach it
        out = tmp_path / "draws.jsonl"
        code = (
            "import sys\n"
            "import expcrm.cli as cli\n"
            "cli.os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"sys.exit(cli.main(['sample-prior', '--model', {str(alias_model)!r}, '--rounds', '5',"
            f" '--reps', '8', '--out', {str(out)!r}]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert [line.split(":")[0] for line in proc.stderr.splitlines()] == ["warning"]
        assert len(read_jsonl(out)) == 9


class TestPlumbing:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("seed", [2**64, 2**70, -1])
    def test_seed_outside_the_config_range_exits_2(self, gamma_model, tmp_path, capsys, command, seed):
        assert main(command_argv(command, gamma_model, tmp_path) + ["--seed", str(seed)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_is_accepted(self, gamma_model, tmp_path):
        seed = 2**64 - 1
        assert main(command_argv("posterior", gamma_model, tmp_path) + ["--seed", str(seed)]) == 0
        doc = json.loads((tmp_path / "out").read_text())
        assert doc["header"]["seed"] == seed
        assert parse_model_config(tmp_path / "out").seed == 3  # the model keeps the config's seed

    def test_bad_flag_value_exits_2(self, gamma_model, tmp_path, capsys):
        code = main(
            ["sample-prior", "--model", str(gamma_model), "--reps", "0",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2

    def test_unknown_suite_exits_2(self, gamma_model, capsys):
        assert main(["verify", "--model", str(gamma_model), "--suite", "everything"]) == 2

    @pytest.mark.parametrize("command", ["posterior", "verify"])
    def test_serializer_error_leaves_no_output(
        self, gamma_model, tmp_path, monkeypatch, capsys, command
    ):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"atoms": [{"x": 1, "loc": "0.25"}]}) + "\n")

        def failing(record, fh, **kwargs):
            fh.write('{"header": ')
            raise OSError("injected write fault")

        monkeypatch.setattr(cli.json, "dump", failing)
        fresh = tmp_path / "fresh.json"
        older = tmp_path / "older.json"
        older.write_text("an older run\n")
        for out in (fresh, older):
            if command == "posterior":
                argv = ["posterior", "--model", str(gamma_model), "--data", str(data), "--out", str(out)]
            else:
                argv = ["verify", "--model", str(gamma_model), "--report", str(out)]
            assert main(argv) == 2
            assert "injected write fault" in capsys.readouterr().err
        assert not fresh.exists()
        assert older.read_text() == "an older run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "model.json", "older.json"]

    @pytest.mark.parametrize("field", ["params.mass", "fixed_atoms[0].xi", "atoms[0].loc"])
    def test_an_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, field):
        big = 10**400
        model = {"likelihood": "poisson", "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0}}
        if field == "params.mass":
            model["params"]["mass"] = big
        elif field == "fixed_atoms[0].xi":
            model["fixed_atoms"] = [{"loc": 0.5, "xi": [big], "lam": 1.0}]
        (tmp_path / "model.json").write_text(json.dumps(model))
        atom = {"x": 1, "loc": big if field == "atoms[0].loc" else "0.25"}
        (tmp_path / "data.jsonl").write_text(json.dumps({"atoms": [atom]}) + "\n")
        argv = ["posterior", "--model", str(tmp_path / "model.json"),
                "--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "model.json"]

    @pytest.mark.parametrize("command", ["posterior", "sample-prior"])
    def test_non_utf8_input_exits_2(self, gamma_model, tmp_path, capsys, command):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00bad")
        out = tmp_path / "out"
        if command == "posterior":
            argv = ["posterior", "--model", str(gamma_model), "--data", str(bad), "--out", str(out)]
        else:
            argv = ["sample-prior", "--model", str(bad), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.bin", "model.json"]
