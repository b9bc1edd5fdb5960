"""What the package imports, and what ``expcrm`` exports.

An ``ast`` scan keeps every module free of imports it never reads.  The
export table in ``expcrm/__init__.py`` is checked against a pinned copy
of the public names, each name against the object its module defines,
and, in fresh interpreters, that ``import expcrm`` loads no submodule
and that no command, each ``verify`` suite included, loads ``scipy.stats``,
``scipy.interpolate`` or ``scipy.optimize`` through the package.  A second
scan keeps every module from importing ``scipy.stats`` or either solver
package at any level, and a third from reading or assigning a generator's
``bit_generator.state``: draws read the stream forward only.  A fourth
keeps Gauss rules and private ``quadrature`` names inside ``quadrature.py``,
so the package has one quadrature engine, and a fifth keeps every call of
``PanelLaw`` and ``probed_orders`` there too, so every law passes its gate,
``checked_law``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expcrm

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "expcrm").glob("*.py"))

PUBLIC = [
    "Atom", "BERNOULLI_BETA", "CheckReport", "ConfigError", "DivergenceSuspected", "DomainError",
    "ExpCrmError", "ExpCrmLikelihood", "ExpCrmPrior", "FixedAtomParams", "InvalidModelError",
    "InvalidObservationError", "LabeledDraw", "Location", "MarginalConfig", "MarginalSampler",
    "ModelConfig", "ODDS_BERNOULLI_BETA_PRIME", "ObservationAtom", "ObservationMeasure",
    "POISSON_GAMMA", "PosteriorCrm", "QuadratureError", "RngFaultError", "RngState",
    "SingularityMismatch", "SizeBiasedConfig", "SizeBiasedSampler", "TailBoundError",
    "TraitMeasure", "TruncationMeta", "ValidityResult", "WeightDomain", "as_generator",
    "auto_conjugate", "check_assumptions", "entry_for", "equivalence_run", "fixed_atom_density",
    "get_entry", "hyperparam_valid", "iterated_equals_batch", "list_entries",
    "log_conjugate_kernel", "log_partition_B", "new_atom_rate", "parse_model_config",
    "posterior_update", "predictive_logpmf", "rate_M", "round_total", "run_suite",
    "sample_marginal", "sample_size_biased", "weight_dist_params", "weight_rate_density",
]
# every submodule the package namespace offered when it imported them all
SUBMODULES = [
    "catalog", "checks", "config", "errors", "exp_family", "marginal", "measures", "posterior",
    "quadrature", "rng", "size_biased",
]


def unused_imports(source: str) -> list[str]:
    """Module-level imports whose bound name the module never reads.

    A line marked ``# noqa: F401`` is a deliberate re-export and exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and "noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(bound)
    return unused


def imported_modules(source: str) -> set[str]:
    """Every absolute module an import in ``source`` names, ``from`` names included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def scipy_solvers(names) -> list[str]:
    """The names among ``names`` that are, or lie under, scipy.interpolate or scipy.optimize."""
    return sorted(n for n in names if n.startswith(("scipy.interpolate", "scipy.optimize")))


def scipy_stats(names) -> list[str]:
    """The names among ``names`` that are, or lie under, scipy.stats."""
    return sorted(n for n in names if n == "scipy.stats" or n.startswith("scipy.stats."))


def state_accesses(source: str) -> list[int]:
    """Lines that read or assign ``<expr>.bit_generator.state``, the way to rewind a generator."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "state"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "bit_generator"
    )


QUADRATURE_RULES = ("roots_jacobi", "roots_legendre")


def quadrature_engine_names(source: str) -> list[str]:
    """Quadrature rules and private ``quadrature`` names that ``source`` reaches for.

    A Gauss rule imported or read as an attribute anywhere, or a private
    name imported from ``expcrm.quadrature``: either would start a second
    quadrature engine beside the one in ``quadrature.py``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            private = (node.level, node.module) in ((1, "quadrature"), (0, "expcrm.quadrature"))
            found += [
                alias.name
                for alias in node.names
                if alias.name in QUADRATURE_RULES or (private and alias.name.startswith("_"))
            ]
        elif isinstance(node, ast.Attribute) and node.attr in QUADRATURE_RULES:
            found.append(node.attr)
    return sorted(found)


def run_python(code: str, cwd) -> list[str]:
    """Run ``code`` in a fresh interpreter on this package; its stdout lines."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


COMMANDS = [
    "families", "sample-prior", "sample-marginal", "posterior", "verify-assumptions",
    "verify-oracle", "verify-equivalence",
]


def cli_modules(tmp_path, command: str) -> tuple[int, list[str]]:
    """Run one CLI command in a fresh interpreter: its exit code and the scipy modules it loaded."""
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
            {
                "likelihood": "poisson",
                "params": {"mass": 1.0, "xi": -1.0, "lam": 1.0},
                "truncation": {"rounds": 20, "x_max": 40, "eps_tail": 1e-4},
                "seed": 3,
            }
        )
    )
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps({"atoms": [{"x": 1, "loc": "0.25"}]}) + "\n")
    argv = {
        "families": ["families", "list"],
        # fewer than 8 replicates run in this process, not in a pool
        "sample-prior": ["sample-prior", "--model", "model.json", "--reps", "3",
                         "--out", "draws.jsonl"],
        "sample-marginal": ["sample-marginal", "--model", "model.json", "--n", "3",
                            "--reps", "2", "--out", "obs.jsonl"],
        "posterior": ["posterior", "--model", "model.json", "--data", "data.jsonl",
                      "--out", "post.json"],
        # the smallest replicate counts the suites take
        **{
            f"verify-{suite}": ["verify", "--model", "model.json", "--suite", suite,
                                "--reps", "100"]
            for suite in ("assumptions", "oracle", "equivalence")
        },
    }[command]
    lines = run_python(
        "import json, sys\n"
        "from expcrm.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy.'))]))\n",
        tmp_path,
    )
    code, modules = json.loads(lines[-1])
    return code, modules


class TestUnusedImports:
    def test_scan_flags_an_unread_import(self):
        source = (
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "from json import (\n    dumps,\n    loads,  # noqa: F401\n)\n"
            "import sys\n"
            "print(sys.argv, dumps)\n"
        )
        assert unused_imports(source) == ["os", "osp"]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_module_reads_every_import(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestNoScipySolvers:
    def test_scan_sees_nested_and_from_imports(self):
        source = (
            "import scipy.special\n"
            "def f():\n"
            "    from scipy import optimize\n"
            "    import scipy.interpolate as si\n"
        )
        assert scipy_solvers(imported_modules(source)) == ["scipy.interpolate", "scipy.optimize"]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_module_imports_no_scipy_solver(self, path):
        assert scipy_solvers(imported_modules(path.read_text(encoding="utf-8"))) == []


class TestNoModuleLevelScipyStats:
    # named for the module-level scan it began as; it now scans every level

    def test_scan_sees_nested_and_from_imports(self):
        source = (
            "import scipy.special\n"
            "from scipy import stats\n"
            "class C:\n"
            "    from scipy.stats import norm\n"
            "def f():\n"
            "    from scipy.stats import ks_2samp\n"
        )
        assert scipy_stats(imported_modules(source)) == [
            "scipy.stats", "scipy.stats.ks_2samp", "scipy.stats.norm",
        ]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_module_does_not_import_scipy_stats(self, path):
        assert scipy_stats(imported_modules(path.read_text(encoding="utf-8"))) == []


class TestNoGeneratorRewinds:
    def test_scan_sees_reads_and_assignments(self):
        source = (
            "def f(gen):\n"
            "    saved = gen.bit_generator.state\n"
            "    gen.bit_generator.state = saved\n"
            "    return gen.bit_generator.seed_seq, gen.state\n"
        )
        assert state_accesses(source) == [2, 3]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_module_never_touches_generator_state(self, path):
        assert state_accesses(path.read_text(encoding="utf-8")) == []


class TestOneQuadratureEngine:
    def test_scan_sees_rules_and_private_names(self):
        source = (
            "import scipy.special\n"
            "from scipy.special import roots_jacobi\n"
            "from .quadrature import PanelLaw, _Panels\n"
            "from expcrm.quadrature import _gl_rule\n"
            "from .size_biased import _literal_integral\n"
            "def f(n):\n"
            "    return scipy.special.roots_legendre(n)\n"
        )
        assert quadrature_engine_names(source) == [
            "_Panels", "_gl_rule", "roots_jacobi", "roots_legendre",
        ]

    @pytest.mark.parametrize(
        "path", [p for p in MODULES if p.name != "quadrature.py"], ids=lambda p: p.name
    )
    def test_only_quadrature_builds_rules(self, path):
        assert quadrature_engine_names(path.read_text(encoding="utf-8")) == []


# the engine calls only ``quadrature.checked_law`` makes
GATED = ("PanelLaw", "probed_orders")


def calls_to(source: str, names) -> list[str]:
    """The calls in ``source`` of any of ``names``, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in names:
                found.append(called)
    return sorted(found)


class TestOneQuadratureGate:
    def test_scan_sees_bare_and_attribute_calls(self):
        source = (
            "from .quadrature import PanelLaw, probed_orders\n"
            "from . import quadrature\n"
            "def f(spec) -> PanelLaw:\n"
            "    low, up = probed_orders(spec)\n"
            "    return PanelLaw(spec, 1e-10), quadrature.PanelLaw(spec, 1e-10)\n"
        )
        assert calls_to(source, GATED) == ["PanelLaw", "PanelLaw", "probed_orders"]

    @pytest.mark.parametrize(
        "path", [p for p in MODULES if p.name != "quadrature.py"], ids=lambda p: p.name
    )
    def test_only_the_gate_builds_laws(self, path):
        assert calls_to(path.read_text(encoding="utf-8"), GATED) == []

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_second_way_to_shift_a_kernel(self, path):
        assert names_read(path.read_text(encoding="utf-8"), "relative_to_peak") == []


def names_read(source: str, name: str) -> list[int]:
    """Lines where ``source`` imports, reads or defines ``name``, or reads it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for alias in node.names if alias.name.split(".")[-1] == name]
        elif isinstance(node, ast.Name) and node.id == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            lines.append(node.lineno)
    return sorted(lines)


# the modules that may ask the catalog for a family's entry: the registry,
# ``family_of`` and the oracle's declared orders and report label
ENTRY_LOOKUPS = ("catalog.py", "checks.py", "exp_family.py")


class TestOneFamilyDecision:
    def test_scan_sees_imports_reads_and_attributes(self):
        source = (
            "from .catalog import entry_for as lookup\n"
            "import expcrm.catalog\n"
            "x = expcrm.catalog.entry_for(like)\n"
            "y = entry_for\n"
            "z = 'entry_for'\n"
        )
        assert names_read(source, "entry_for") == [1, 3, 4]

    @pytest.mark.parametrize(
        "path", [p for p in MODULES if p.name not in ENTRY_LOOKUPS], ids=lambda p: p.name
    )
    def test_only_family_of_chooses_closed_forms_or_quadrature(self, path):
        assert names_read(path.read_text(encoding="utf-8"), "entry_for") == []


class TestExportTable:
    def test_all_is_pinned(self):
        assert expcrm.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_modules_object(self, name):
        owners = [
            m for m in SUBMODULES if name in vars(importlib.import_module(f"expcrm.{m}"))
        ]
        assert owners
        for module in owners:
            assert getattr(expcrm, name) is getattr(sys.modules[f"expcrm.{module}"], name)

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodule_attribute(self, module):
        assert getattr(expcrm, module) is importlib.import_module(f"expcrm.{module}")

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from expcrm import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert all(namespace[name] is getattr(expcrm, name) for name in PUBLIC)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            expcrm.no_such_name  # noqa: B018
        assert not hasattr(expcrm, "no_such_name")

    def test_dir_lists_the_public_names(self):
        assert set(PUBLIC) | set(SUBMODULES) <= set(dir(expcrm))


class TestLazyLoading:
    def test_import_loads_no_submodule_and_no_scipy(self, tmp_path):
        (line,) = run_python(
            "import json, sys\n"
            "import expcrm\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m.startswith(('expcrm.', 'scipy.')) or m == 'scipy')))\n",
            tmp_path,
        )
        assert json.loads(line) == []

    def test_submodule_attribute_loads_on_first_read(self, tmp_path):
        (line,) = run_python(
            "import expcrm\n"
            "print(expcrm.quadrature.__name__, expcrm.checks.run_suite is expcrm.run_suite)\n",
            tmp_path,
        )
        assert line == "expcrm.quadrature True"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_command_loads_scipy_stats(self, tmp_path, command):
        code, modules = cli_modules(tmp_path, command)
        assert (code, scipy_stats(modules)) == (0, [])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_loads_no_scipy_solver(self, tmp_path, command):
        code, modules = cli_modules(tmp_path, command)
        assert (code, scipy_solvers(modules)) == (0, [])
