"""The import graph follows the layer table the code lint enforces.

``code-upward-import`` checks each import statement and each entry of a
package init's export table; these tests check what an import actually
loads.  Every package init and every rank-0 leaf is imported first in a
clean module table, every name its ``__all__`` lists is then resolved,
and each ``repro`` module that loads must rank at or below it — ranks
come from the lint rule's own :func:`~repro.lint.code.layer_rank`.  The
top-level init is stubbed out, as the rule exempts it: Python runs it
before any other ``repro`` module, so it would otherwise hide every
leaf's own dependencies.  A bare package init loads nothing but the
export helper.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.lint.code import LAYERS, layer_rank

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

#: Imports ``repro.core`` for real and resolves its names, then each
#: target in a purged module table under a stub top-level package;
#: prints one JSON document.
PROBE = """
import sys
import repro.core
for name in repro.core.__all__:
    getattr(repro.core, name)
first = {
    name: name in sys.modules
    for name in ("repro.core.certificate", "hashlib", "json")
}
import importlib, json, types
bare, loaded = {}, {}
for target in sys.argv[1].split(","):
    for name in [n for n in sys.modules if n.split(".")[0] == "repro"]:
        del sys.modules[name]
    if target != "repro":
        stub = types.ModuleType("repro")
        stub.__path__ = [sys.argv[2]]
        sys.modules["repro"] = stub
    try:
        module = importlib.import_module(target)
        bare[target] = sorted(
            n for n in sys.modules if n.startswith("repro.")
        )
        for name in getattr(module, "__all__", ()):
            getattr(module, name)
    except Exception as exc:
        loaded[target] = {"error": repr(exc)}
        continue
    loaded[target] = sorted(n for n in sys.modules if n.startswith("repro."))
print(json.dumps({"first": first, "bare": bare, "loaded": loaded}))
"""


def _package_inits():
    inits = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        if "__init__.py" in filenames:
            relative = os.path.relpath(dirpath, os.path.dirname(PACKAGE_DIR))
            inits.append(relative.replace(os.sep, "."))
    return inits


def _leaves():
    return [key.replace(".__init__", "") for key in LAYERS[0]]


TARGETS = list(dict.fromkeys(_package_inits() + _leaves()))


def _env():
    """This process's environment with the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.dirname(PACKAGE_DIR)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture(scope="module")
def probe():
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(TARGETS), PACKAGE_DIR],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_targets_cover_every_package_and_leaf():
    assert "repro" in TARGETS and "repro.scheduler" in TARGETS
    assert {"repro.obs.trace", "repro.resilience.budget"} <= set(TARGETS)
    assert all(layer_rank(target) is not None for target in TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_import_loads_only_equal_or_lower_ranks(probe, target):
    modules = probe["loaded"][target]
    assert isinstance(modules, list), modules  # the import succeeded
    assert target == "repro" or target in modules
    own = layer_rank(target)
    above = [
        module for module in modules
        if layer_rank(module) is None or layer_rank(module) > own
    ]
    assert above == [], "%s (rank %d) loads %s" % (target, own, above)


def test_import_core_skips_certificates_hashlib_and_json(probe):
    assert probe["first"] == {
        "repro.core.certificate": False,
        "hashlib": False,
        "json": False,
    }


@pytest.mark.parametrize("target", _package_inits())
def test_bare_package_init_loads_only_the_export_helper(probe, target):
    own = target.split(".")
    parents = {".".join(own[:end]) for end in range(2, len(own) + 1)}
    assert set(probe["bare"][target]) <= parents | {"repro._exports"}


@pytest.mark.parametrize("package", _package_inits())
def test_package_init_imports_nothing_but_the_export_helper(package):
    path = os.path.join(
        os.path.dirname(PACKAGE_DIR), *package.split("."), "__init__.py"
    )
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imports = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert set(imports) <= {"from repro._exports import export_table"}


#: Runs ``argv[1]`` (Python source) and prints the ``repro`` modules
#: loaded when it finishes, even by ``SystemExit``.
LOADED_PROBE = """
import json, sys
try:
    exec(sys.argv[1])
except SystemExit:
    pass
sys.stdout = sys.__stdout__
print(json.dumps(sorted(
    n for n in sys.modules if n == "repro" or n.startswith("repro.")
)))
"""


def _loaded(source):
    completed = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, source],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _within(modules, packages):
    return [
        module for module in modules
        if any(module == p or module.startswith(p + ".") for p in packages)
    ]


def test_import_repro_loads_no_subpackage():
    assert _loaded("import repro") == ["repro", "repro._exports"]


def test_fuzz_generator_loads_no_oracle_lint_resilience_or_query():
    loaded = _loaded("import repro.fuzz.mdlgen")
    assert "repro.fuzz.mdlgen" in loaded
    assert _within(loaded, (
        "repro.fuzz.oracle", "repro.lint", "repro.resilience", "repro.query",
    )) == []


def test_zoo_setup_loads_at_most_30_modules():
    """What the e2e reduce-zoo set-up imports: the reduction, the fuzz
    generator and seven machines (70 modules under eager inits)."""
    loaded = _loaded(
        "from repro.core import reduce_machine\n"
        "from repro.fuzz.mdlgen import PROFILES, generate_machine\n"
        "from repro.machines import (alpha21064, buffered_pu,"
        " clustered_vliw, cydra5_subset, example_machine, mips_r3000,"
        " playdoh)\n"
    )
    assert len(loaded) <= 30, loaded


def test_cli_help_loads_no_subsystem():
    loaded = _loaded(
        "import io, contextlib\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['--help'])\n"
    )
    assert loaded == ["repro", "repro._exports", "repro.cli", "repro.errors"]


def test_cli_reduce_loads_no_scheduling_or_tooling():
    loaded = _loaded(
        "import io, contextlib\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['reduce', 'cydra5']) == 0\n"
    )
    assert "repro.core.reduce" in loaded
    assert _within(loaded, (
        "repro.scheduler", "repro.query", "repro.resilience",
        "repro.workloads", "repro.fuzz",
    )) == []


def test_cli_corpus_loads_no_certificate_checker():
    """``CorpusResult.digest`` hashes the MDL text itself: a corpus run
    imports neither the certificate checker nor any tooling."""
    loaded = _loaded(
        "import io, contextlib\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['schedule', 'cydra5-subset', '--corpus',"
        " '--loops', '4']) == 0\n"
    )
    assert "repro.scheduler.corpus" in loaded
    assert _within(loaded, (
        "repro.core.certificate", "repro.core.reduce",
        "repro.resilience.reduction_cache", "repro.lint", "repro.fuzz",
        "repro.bench", "repro.analysis",
    )) == []


def test_cli_reduce_loads_only_the_named_machine():
    """A built-in name resolves to its own module: reducing Cydra 5
    compiles none of the other machine descriptions."""
    loaded = _loaded(
        "import io, contextlib\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['reduce', 'cydra5']) == 0\n"
    )
    assert _within(loaded, ("repro.machines",)) == [
        "repro.machines", "repro.machines.builtin", "repro.machines.cydra5",
    ]


def test_cli_corpus_without_policy_loads_no_fallback_rung():
    """The scheduling ladder loads the list scheduler only when its flat
    rung runs, and the selection objectives never."""
    loaded = _loaded(
        "import io, contextlib\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['schedule', 'cydra5-subset', '--corpus',"
        " '--loops', '4']) == 0\n"
    )
    assert "repro.scheduler.ladder" in loaded
    assert _within(loaded, (
        "repro.core.selection", "repro.core.elementary",
        "repro.scheduler.list_scheduler", "repro.mdl",
    )) == []


#: Runs one ``benchmarks/e2e`` workload's set-up and quick pass, and
#: prints the ``repro`` modules the pass imports first, which of
#: ``hashlib``/``_hashlib`` are loaded at the end, and whether
#: ``random`` alone loaded one.
E2E_PASS_PROBE = """
import json, sys
import random
by_random = "hashlib" in sys.modules or "_hashlib" in sys.modules
sys.path.insert(0, sys.argv[2])
import child
config = json.loads(sys.argv[1])
inputs = child.setup(config)
before = set(sys.modules)
items, finish = child.run_pass(config, inputs, None)
finish()
print(json.dumps({
    "first": sorted(
        n for n in set(sys.modules) - before
        if n == "repro" or n.startswith("repro.")
    ),
    "hashlib": [n for n in ("hashlib", "_hashlib") if n in sys.modules],
    "random": by_random,
}))
"""


def _e2e_pass(workload, representation):
    config = {
        "workload": workload, "seed": 0, "quick": True,
        "rep": representation, "mode": "pass", "traced": False,
        "inputs": False,
    }
    e2e = os.path.join(
        os.path.dirname(os.path.dirname(PACKAGE_DIR)), "benchmarks", "e2e"
    )
    completed = subprocess.run(
        [sys.executable, "-c", E2E_PASS_PROBE, json.dumps(config), e2e],
        capture_output=True, text=True, env=_env(), timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["ims-suite", "corpus-suite"])
def test_suite_setup_and_pass_load_no_hashlib(workload):
    """Nothing a suite run does hashes: the corpus digest is computed on
    first read, and loading OpenSSL costs megabytes of resident set."""
    found = _e2e_pass(workload, "discrete")
    if found["random"]:
        pytest.skip("this interpreter's random module loads hashlib")
    assert found["hashlib"] == []


@pytest.mark.parametrize("workload, representation", [
    ("reduce-cydra5", "discrete"),
    ("reduce-zoo", "discrete"),
    ("ims-suite", "discrete"),
    ("ims-suite", "bitvector"),
    ("ims-suite", "compiled"),
    ("corpus-suite", "discrete"),
])
def test_e2e_pass_imports_no_repro_module(workload, representation):
    """An import deferred into code a timed pass runs would be timed:
    each workload's set-up must load everything its pass uses."""
    assert _e2e_pass(workload, representation)["first"] == []
