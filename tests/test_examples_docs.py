"""The shipped examples run, and the docs' import lines resolve.

Each ``examples/*.py`` script runs in its own interpreter and must exit
0.  Every ``from repro... import ...`` (or ``import repro...``)
statement inside a ``python`` block of ``README.md`` or ``docs/*.md``
must name modules and attributes that exist, so a moved name cannot
leave a stale import path in the documentation.  Each case is named by
its document and statement, not its line, so a prose edit above a
python block renames no test.
"""

import ast
import glob
import importlib
import importlib.util
import os
import re
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
DOCS = [os.path.join(ROOT, "README.md")] + sorted(
    glob.glob(os.path.join(ROOT, "docs", "*.md"))
)
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
_PROMPT = re.compile(r"^(>>> |\.\.\. )")


def _doc_imports():
    """``(doc, line, statement)`` for every repro import in a python
    block."""
    found = []
    for path in DOCS:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for block in _PYTHON_BLOCK.finditer(text):
            first_line = text.count("\n", 0, block.start(1)) + 1
            lines = [_PROMPT.sub("", line).strip()
                     for line in block.group(1).split("\n")]
            index = 0
            while index < len(lines):
                line = lines[index]
                start = index
                index += 1
                if not re.match(r"(from|import) repro\b", line):
                    continue
                statement = line
                while statement.count("(") > statement.count(")"):
                    statement += " " + lines[index]
                    index += 1
                found.append((
                    os.path.relpath(path, ROOT), first_line + start,
                    statement,
                ))
    return found


DOC_IMPORTS = _doc_imports()


def _resolves(module, name):
    return hasattr(importlib.import_module(module), name) or (
        importlib.util.find_spec(module + "." + name) is not None
    )


def test_examples_and_doc_imports_are_found():
    assert len(EXAMPLES) >= 8
    assert len(DOC_IMPORTS) >= 20


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, path], cwd=str(tmp_path), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]


@pytest.mark.parametrize(
    "doc, line, statement", DOC_IMPORTS,
    ids=["%s %s" % (doc, statement) for doc, _, statement in DOC_IMPORTS],
)
def test_doc_import_resolves(doc, line, statement):
    node = ast.parse(statement).body[0]
    if isinstance(node, ast.Import):
        for alias in node.names:
            importlib.import_module(alias.name)
        return
    missing = [
        alias.name for alias in node.names
        if not _resolves(node.module, alias.name)
    ]
    assert missing == [], "%s:%d: %s" % (doc, line, statement)
