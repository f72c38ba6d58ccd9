"""Every docstring example under ``src/repro`` runs as shown.

Each ``>>>`` example is a doctest: this module imports every module of
the package (but ``repro.__main__``), collects the docstrings that hold
examples, and runs each one, so an example whose output drifts from the
code fails here.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _examples():
    finder = doctest.DocTestFinder()
    # ``repro.__main__`` runs the CLI on import.
    names = [repro.__name__] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    )
    found = []
    for name in names:
        module = importlib.import_module(name)
        for test in finder.find(module, name):
            if test.examples and test.name not in {t.name for t in found}:
                found.append(test)
    return found


EXAMPLES = _examples()


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize(
    "test", EXAMPLES, ids=[test.name for test in EXAMPLES]
)
def test_docstring_example(test):
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    result = runner.run(test, out=report.append)
    assert result.failed == 0, "".join(report)
