"""The import graph follows the layer table the code lint enforces.

``code-upward-import`` checks each import statement; these tests check
what an import actually loads.  Every package init and every rank-0 leaf
is imported first in a clean module table, and each ``repro`` module
that import loads must rank at or below it — ranks come from the lint
rule's own :func:`~repro.lint.code.layer_rank`.  The top-level init is
stubbed out, as the rule exempts it: Python runs it before any other
``repro`` module, so it would otherwise hide every leaf's own
dependencies.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.lint.code import LAYERS, layer_rank

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

#: Imports ``repro.core`` for real, then each target in a purged module
#: table under a stub top-level package; prints one JSON document.
PROBE = """
import sys
import repro.core
first = {
    name: name in sys.modules
    for name in ("repro.core.certificate", "hashlib", "json")
}
import importlib, json, types
loaded = {}
for target in sys.argv[1].split(","):
    for name in [n for n in sys.modules if n.split(".")[0] == "repro"]:
        del sys.modules[name]
    if target != "repro":
        stub = types.ModuleType("repro")
        stub.__path__ = [sys.argv[2]]
        sys.modules["repro"] = stub
    try:
        importlib.import_module(target)
    except Exception as exc:
        loaded[target] = {"error": repr(exc)}
        continue
    loaded[target] = sorted(n for n in sys.modules if n.startswith("repro."))
print(json.dumps({"first": first, "loaded": loaded}))
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


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ)
    src = os.path.dirname(PACKAGE_DIR)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(TARGETS), PACKAGE_DIR],
        capture_output=True, text=True, env=env, timeout=120,
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
