"""What the package imports, and what ``expcrm`` exports.

An ``ast`` scan keeps every module free of imports it never reads.  The
export table in ``expcrm/__init__.py`` is checked against a pinned copy
of the public names, each name against the object its module defines,
and, in fresh interpreters, that ``import expcrm`` loads no submodule,
that the catalog lookup answers alike before and after the catalog loads,
and that no command, each ``verify`` suite included, loads ``scipy.stats``,
``scipy.interpolate`` or ``scipy.optimize`` through the package.  A second
scan keeps every module from importing ``scipy.stats`` or either solver
package at any level, and a third from reading or assigning a generator's
``bit_generator.state``: draws read the stream forward only.  A fourth
keeps Gauss rules and private ``quadrature`` names inside ``quadrature.py``,
so the package has one quadrature engine, and a fifth keeps every call of
``PanelLaw`` and ``probed_orders`` there too, so every law passes its gate,
``checked_law``.  A sixth keeps the model schema's ``"fixed_atoms"`` key, as a dict key or
an index, in ``config.py``: the one module that reads and writes model blocks.
A seventh finds one ``.poisson(`` call in the package, in ``size_biased.py``:
both samplers draw their newborn atoms through it (a likelihood's
``sample_fn``, which draws observed counts, is exempt).  An eighth finds
one running sum of exponentiated log pmfs, in ``walk_counts``, and a ninth
one ``TailBoundError`` built, in ``RateTable._certificate``: the table
checks the count-cap budget for both samplers.  A tenth finds, in the two
samplers, no ``rng`` parameter with a default and no generator a sampler
holds: every draw takes its rng.  An eleventh finds no ``rate_M`` or
``round_total`` on a family class in ``catalog.py`` or ``exp_family.py``:
the helpers of those names in ``size_biased.py`` each read one
``rate_rows`` call.  A twelfth finds no ``from_arrays``, ``_unzip_atoms``
or ``_steps`` name in the package: each measure type has one constructor,
which takes its columns, and the marginal sampler one stream, ``stream``,
which yields columns.  A thirteenth finds ``.phi(`` called only in
``ExpCrmLikelihood``'s own methods, ``QuadratureFamily.phi_rows`` and
``_kernel_spec`` (the phi(0) of l(0|theta)), and no ``_shifted_params``,
``xi_plus`` or ``pmf`` name in the package: every shifted (xi, lam) comes
from ``exp_family.shifted_params`` over the family's ``phi_rows``, and no
sampler calls the likelihood's ``phi`` once per atom.  A fourteenth finds
no ``suite_reps`` or ``suite_truncation`` anywhere in the package text:
``run_suite`` returns the one record of what a suite ran, its replicates
and truncation included.  Last, in fresh
interpreters again, no command leaves a BLAS worker thread running unless
the caller asks for one.
"""

import ast
import importlib
import json
import os
import re
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
    "weight_dist_params", "weight_rate_density",
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


def run_python(code: str, cwd, environ=os.environ) -> list[str]:
    """Run ``code`` in a fresh interpreter on this package, in ``environ``; its stdout lines."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**environ, "PYTHONPATH": path},
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


def cli_argv(tmp_path, command: str) -> list[str]:
    """The arguments of one of ``COMMANDS``, with the files it reads written to ``tmp_path``."""
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
    return {
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


def cli_modules(tmp_path, command: str) -> tuple[int, list[str]]:
    """Run one CLI command in a fresh interpreter: its exit code and the scipy modules it loaded."""
    lines = run_python(
        "import json, sys\n"
        "from expcrm.cli import main\n"
        f"code = main({cli_argv(tmp_path, command)!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy.'))]))\n",
        tmp_path,
    )
    code, modules = json.loads(lines[-1])
    return code, modules


def cli_threads(tmp_path, command: str, blas_threads: str | None = None) -> list:
    """Run one CLI command in a fresh interpreter: its exit code, the OS threads the process
    holds when ``main`` returns, and ``OPENBLAS_NUM_THREADS`` then.

    The caller's environment goes in without ``OPENBLAS_NUM_THREADS``, or with it set to
    ``blas_threads``: importing ``expcrm.cli`` in this process has put it in ``os.environ``.
    """
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        environ["OPENBLAS_NUM_THREADS"] = blas_threads
    lines = run_python(
        "import json, os\n"
        "from expcrm.cli import main\n"
        f"code = main({cli_argv(tmp_path, command)!r})\n"
        "print(json.dumps([code, len(os.listdir('/proc/self/task')),\n"
        "    os.environ.get('OPENBLAS_NUM_THREADS')]))\n",
        tmp_path,
        environ,
    )
    return json.loads(lines[-1])


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


def json_keys(source: str, key: str) -> list[int]:
    """Lines where ``source`` writes or reads ``key`` as a dict key, outside ``_descriptor`` values.

    A key counts in a dict display or as the index of a subscript.  A
    catalog entry's ``_descriptor`` is its ``families list`` text, whose
    ``fixed_atoms`` line states where a fixed atom is valid: it describes
    the family, not a model.
    """
    tree = ast.parse(source)
    described = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_descriptor" for t in node.targets)
        for inner in ast.walk(node.value)
    }
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and id(node) not in described:
            keys += node.keys
        elif isinstance(node, ast.Subscript):
            keys.append(node.slice)
    return sorted(k.lineno for k in keys if isinstance(k, ast.Constant) and k.value == key)


class TestOneModelWriter:
    def test_scan_sees_keys_and_skips_descriptors(self):
        source = (
            "model = {'fixed_atoms': []}\n"
            "class Entry:\n"
            "    _descriptor = {'fixed_atoms': 'xi_fix > -1'}\n"
            "rows = model['fixed_atoms']\n"
            "object.__setattr__(model, 'fixed_atoms', rows)\n"
            "note = {'note': 'fixed_atoms'}\n"
        )
        assert json_keys(source, "fixed_atoms") == [1, 4]

    @pytest.mark.parametrize(
        "path", [p for p in MODULES if p.name != "config.py"], ids=lambda p: p.name
    )
    def test_only_config_writes_a_model_block(self, path):
        assert json_keys(path.read_text(encoding="utf-8"), "fixed_atoms") == []


def poisson_calls(source: str) -> list[int]:
    """Lines where ``source`` calls ``.poisson(``, outside a likelihood's ``sample_fn`` lambda.

    A catalog likelihood's ``sample_fn`` draws observed counts, not atoms.
    """
    tree = ast.parse(source)
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "sample_fn"
        and isinstance(node.value, ast.Lambda)
        for inner in ast.walk(node.value)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "poisson"
        and id(node) not in exempt
    )


class TestOneNewbornDraw:
    def test_scan_sees_calls_and_skips_sample_fn(self):
        source = (
            "k = gen.poisson(total)\n"
            "like = Likelihood(sample_fn=lambda gen, th: gen.poisson(th))\n"
            "draw = lambda gen: gen.poisson(1.0)\n"
            "n = np.random.default_rng(0).poisson(lam=2.0, size=3)\n"
        )
        assert poisson_calls(source) == [1, 3, 4]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_only_the_superposition_draws_an_atom_count(self, path):
        calls = poisson_calls(path.read_text(encoding="utf-8"))
        assert len(calls) == (path.name == "size_biased.py")


def exp_running_sums(source: str) -> list[str]:
    """The functions of ``source`` that keep a running sum of exponentiated values, once per sum.

    ``cumsum(exp(...))`` or ``+= exp(...)``: the cdf of a pmf given in logs,
    which only an inverse-cdf count walk needs.
    """

    def calls(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        )

    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (calls(node, "cumsum") and node.args and calls(node.args[0], "exp")) or (
            isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            and calls(node.value, "exp")
        ):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


class TestOneCountWalk:
    def test_scan_sees_both_sums_and_names_their_functions(self):
        source = (
            "def chunked(p, acc):\n"
            "    return acc + np.cumsum(np.exp(p), axis=1)\n"
            "def scalar(p):\n"
            "    acc = 0.0\n"
            "    for v in p:\n"
            "        acc += math.exp(v)\n"
            "def neither(p, x):\n"
            "    x += 1\n"
            "    return np.cumsum(p), np.exp(p).sum(), x\n"
            "class Walker:\n"
            "    def bare(self, p):\n"
            "        return cumsum(exp(p))\n"
            "top = np.cumsum(np.exp([0.0]))\n"
        )
        assert exp_running_sums(source) == ["chunked", "scalar", "bare", None]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_only_the_count_walk_sums_a_pmf(self, path):
        found = exp_running_sums(path.read_text(encoding="utf-8"))
        assert found == (["walk_counts"] if path.name == "exp_family.py" else [])


def tail_bound_errors(source: str) -> list[str | None]:
    """Where ``source`` builds a ``TailBoundError``: ``Class.function`` (or the
    function, or None at module level), once per call."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name if owner is None else f"{owner}.{node.name}"
        if isinstance(node, ast.Call) and "TailBoundError" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


class TestOneCountCapBudget:
    def test_scan_sees_every_construction_and_names_its_function(self):
        source = (
            "class TailBoundError(ValueError):\n"
            "    pass\n"
            "class Table:\n"
            "    def check(self, cert):\n"
            "        raise TailBoundError('over', certificate=cert)\n"
            "def stream(n):\n"
            "    try:\n"
            "        pass\n"
            "    except TailBoundError:\n"
            "        raise errors.TailBoundError('again')\n"
            "error = TailBoundError('top')\n"
        )
        assert tail_bound_errors(source) == ["Table.check", "stream", None]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_only_the_rate_table_checks_the_budget(self, path):
        found = tail_bound_errors(path.read_text(encoding="utf-8"))
        assert found == (["RateTable._certificate"] if path.name == "size_biased.py" else [])


def defaulted_rngs(source: str) -> list[str]:
    """The functions of ``source`` with a parameter named ``rng`` that has a default, once each."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
            ]
            if any(arg.arg == "rng" for arg in defaulted):
                found.append(getattr(node, "name", "<lambda>"))
    return found


# the modules that draw: the two samplers
SAMPLERS = [p for p in MODULES if p.name in ("marginal.py", "size_biased.py")]


class TestOneWayToDraw:
    def test_scan_sees_positional_keyword_and_lambda_defaults(self):
        source = (
            "def draw(self, rng=None):\n"
            "    pass\n"
            "def sample(n, rng, *, seed=0):\n"
            "    pass\n"
            "def stream(*, rng=None, other=None):\n"
            "    pass\n"
            "def kw(*, rng, tail=1):\n"
            "    pass\n"
            "pick = lambda rng=0: rng\n"
            "def late(a, rng, b=1):\n"
            "    pass\n"
        )
        assert defaulted_rngs(source) == ["draw", "stream", "<lambda>"]

    @pytest.mark.parametrize("path", SAMPLERS, ids=lambda p: p.name)
    def test_every_draw_takes_its_rng(self, path):
        assert defaulted_rngs(path.read_text(encoding="utf-8")) == []

    @pytest.mark.parametrize("path", SAMPLERS, ids=lambda p: p.name)
    def test_no_sampler_holds_a_generator(self, path):
        source = path.read_text(encoding="utf-8")
        assert (names_read(source, "_gen"), names_read(source, "_generator")) == ([], [])

    def test_scan_sees_a_held_generator(self):
        source = (
            "class Sampler:\n"
            "    def __init__(self, rng):\n"
            "        self._gen = rng\n"
            "    def _generator(self, rng):\n"
            "        return rng or self._gen\n"
        )
        assert (names_read(source, "_gen"), names_read(source, "_generator")) == ([3, 5], [4])


def class_members(source: str, names) -> list[str]:
    """``Class.name`` for each method or class attribute of ``source`` named in ``names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    members = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    members = []
                found += [f"{node.name}.{m}" for m in members if m in names]
    return found


def attribute_calls(source: str, function: str, attr: str) -> int:
    """How many ``.attr(...)`` calls the module-level ``function`` of ``source`` makes."""
    (node,) = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function]
    return sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == attr
        for n in ast.walk(node)
    )


PER_CELL = ("rate_M", "round_total")
FAMILY_MODULES = [p for p in MODULES if p.name in ("catalog.py", "exp_family.py")]


class TestOneFamilyProtocol:
    def test_scan_sees_methods_and_class_attributes(self):
        source = (
            "def rate_M(prior, m, x):\n"
            "    pass\n"
            "class Family:\n"
            "    def rate_M(self, m, x):\n"
            "        pass\n"
            "    class Inner:\n"
            "        round_total = staticmethod(total)\n"
            "    def rate_rows(self, ms, xs):\n"
            "        round_total = 0\n"
        )
        assert class_members(source, PER_CELL) == ["Family.rate_M", "Inner.round_total"]

    @pytest.mark.parametrize("path", FAMILY_MODULES, ids=lambda p: p.name)
    def test_families_answer_no_per_cell_rate(self, path):
        assert class_members(path.read_text(encoding="utf-8"), PER_CELL) == []

    @pytest.mark.parametrize("function", PER_CELL)
    def test_the_helpers_read_one_rate_rows_call(self, function):
        source = (ROOT / "src" / "expcrm" / "size_biased.py").read_text(encoding="utf-8")
        assert attribute_calls(source, function, "rate_rows") == 1


RETIRED = ("from_arrays", "_unzip_atoms", "_steps")


class TestOneConstructor:
    def test_scan_sees_methods_calls_and_attributes(self):
        source = (
            "class Measure:\n"
            "    @classmethod\n"
            "    def from_arrays(cls, *fields):\n"
            "        return _unzip_atoms(fields)\n"
            "steps = sampler._steps(rng)\n"
        )
        assert [names_read(source, name) for name in RETIRED] == [[3], [4], [5]]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_measures_take_columns_and_the_stream_is_public(self, path):
        source = path.read_text(encoding="utf-8")
        assert {name: names_read(source, name) for name in RETIRED} == dict.fromkeys(RETIRED, [])


def phi_calls(source: str) -> list[str | None]:
    """Where ``source`` calls ``.phi(...)``: ``Class.function`` (or the function, or None at
    module level), once per call."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name if owner is None else f"{owner}.{node.name}"
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "phi":
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


# the one likelihood's own methods, the family's column of phi, and the phi(0) of l(0|theta)
PHI_CALLERS = ("ExpCrmLikelihood.", "QuadratureFamily.phi_rows", "_kernel_spec")
SHIFTS_RETIRED = ("_shifted_params", "xi_plus", "pmf")


class TestOneConjugateShift:
    def test_scan_sees_calls_and_names_their_functions(self):
        source = (
            "class Likelihood:\n"
            "    def dim(self):\n"
            "        return len(self.phi(0))\n"
            "def stream(like, counts):\n"
            "    return [like.phi(x) for x in counts]\n"
            "phi = like.phi\n"
            "top = phi(0), like.phi(1)\n"
        )
        assert phi_calls(source) == ["Likelihood.dim", "stream", None]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_only_the_family_calls_phi(self, path):
        found = phi_calls(path.read_text(encoding="utf-8"))
        callers = PHI_CALLERS if path.name == "exp_family.py" else ()
        assert [f for f in found if not (f or "").startswith(callers)] == []

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_second_shift(self, path):
        source = path.read_text(encoding="utf-8")
        assert {name: names_read(source, name) for name in SHIFTS_RETIRED} == dict.fromkeys(SHIFTS_RETIRED, [])


def mentions(source: str, name: str) -> list[int]:
    """Lines where ``name`` appears in ``source`` as a whole word, strings and comments included."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return [i for i, line in enumerate(source.splitlines(), start=1) if word.search(line)]


SUITE_RETIRED = ("suite_reps", "suite_truncation")


class TestOneSuiteRun:
    def test_scan_sees_code_strings_and_comments(self):
        source = (
            "__all__ = ['suite_truncation']\n"
            "from .checks import suite_reps  # suite_truncation too\n"
            "my_suite_reps = 1\n"
        )
        assert [mentions(source, name) for name in SUITE_RETIRED] == [[2], [1, 2]]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_run_suite_is_the_one_record_of_a_run(self, path):
        source = path.read_text(encoding="utf-8")
        assert {name: mentions(source, name) for name in SUITE_RETIRED} == dict.fromkeys(SUITE_RETIRED, [])


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

    def test_catalog_lookup_ignores_what_was_imported_or_built_before(self, tmp_path):
        # no catalog module yet, and no entry of shape 3
        (line,) = run_python(
            "import dataclasses, math, sys\n"
            "import numpy as np\n"
            "from expcrm.exp_family import ExpCrmLikelihood, WeightDomain, family_of\n"
            "like = ExpCrmLikelihood('poisson', lambda x: -math.lgamma(x + 1.0),\n"
            "    lambda x: (float(x),), lambda th: np.log(th)[:, None], lambda th: th,\n"
            "    None, WeightDomain(math.inf))\n"
            "loaded = 'expcrm.catalog' in sys.modules\n"
            "entry = family_of(like)\n"
            "from expcrm import catalog\n"
            "unbuilt = 'negative_binomial(3)' not in catalog._ENTRIES\n"
            "nb = family_of(dataclasses.replace(like, family='negative_binomial(3)'))\n"
            "def shape(r):\n"
            "    try:\n"
            "        return catalog.get_entry('negative_binomial', r).family\n"
            "    except catalog.DomainError:\n"
            "        return 'DomainError'\n"
            "# a numpy shape and a bool, each before and after the entry it names is built\n"
            "shapes = [shape(np.int64(7)), shape(7), shape(np.int64(7)),\n"
            "          shape(True), shape(1), shape(True)]\n"
            "print(loaded, entry is catalog.POISSON_GAMMA, unbuilt,\n"
            "      nb is catalog.get_entry('negative_binomial', 3), *shapes)\n",
            tmp_path,
        )
        assert line.split() == ["False", "True", "True", "True"] + ["negative_binomial(7)"] * 3 + [
            "DomainError", "negative_binomial(1)", "DomainError"
        ]

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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread /proc entries")
class TestBlasThreads:
    """The CLI runs BLAS on one thread: an OpenBLAS worker busy-waits after it starts and
    after every threaded call, and the CLI spreads replicates over processes instead."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_command_starts_a_blas_thread(self, tmp_path, command):
        assert cli_threads(tmp_path, command) == [0, 1, "1"]

    def test_a_callers_blas_thread_count_is_kept(self, tmp_path):
        code, threads, blas_threads = cli_threads(tmp_path, "posterior", "2")
        assert (code, blas_threads) == (0, "2")
        if len(os.sched_getaffinity(0)) > 1:
            # the thread count sees BLAS workers where they can start
            assert threads > 1
