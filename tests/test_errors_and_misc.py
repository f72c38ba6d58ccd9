"""Tests for the error hierarchy and miscellaneous public surface."""

import pytest

from repro import __version__
from repro.errors import (
    EquivalenceError,
    MachineDescriptionError,
    ParseError,
    QueryError,
    ReductionError,
    ReproError,
    ScheduleError,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            MachineDescriptionError,
            ReductionError,
            EquivalenceError,
            ScheduleError,
            QueryError,
            ParseError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_equivalence_is_a_reduction_error(self):
        assert issubclass(EquivalenceError, ReductionError)

    def test_equivalence_carries_mismatches(self):
        mismatches = [("A", "B", frozenset({1}), frozenset())]
        error = EquivalenceError("boom", mismatches)
        assert error.mismatches == mismatches
        assert EquivalenceError("boom").mismatches == []

    def test_equivalence_rendering_capped_at_20_pairs(self):
        from repro.errors import MISMATCH_RENDER_LIMIT

        mismatches = [
            ("op%03d" % i, "op%03d" % i, frozenset({1}), frozenset())
            for i in range(MISMATCH_RENDER_LIMIT + 7)
        ]
        text = str(EquivalenceError("boom", mismatches))
        assert "… and 7 more" in text
        assert "op%03d" % (MISMATCH_RENDER_LIMIT - 1) in text
        assert "op%03d" % MISMATCH_RENDER_LIMIT not in text
        # At or under the cap, no suffix appears.
        short = str(
            EquivalenceError("boom", mismatches[:MISMATCH_RENDER_LIMIT])
        )
        assert "more" not in short

    def test_schedule_error_attributes(self):
        error = ScheduleError(
            "gave up", ii_range=(3, 7), attempts=["a"],
            budget_exceeded=True,
        )
        assert error.ii_range == (3, 7)
        assert error.attempts == ["a"]
        assert error.budget_exceeded is True
        bare = ScheduleError("plain")
        assert bare.ii_range is None
        assert bare.attempts == []
        assert bare.budget_exceeded is False

    def test_budget_and_artifact_errors_are_repro_errors(self):
        from repro.errors import ArtifactIntegrityError, BudgetExceeded

        assert issubclass(BudgetExceeded, ReproError)
        assert issubclass(ArtifactIntegrityError, ReproError)
        error = BudgetExceeded(
            "late", phase="ims", elapsed_s=2.0, deadline_s=1.0,
            units=10, max_units=5, progress="II=4", partial={"ii": 4},
        )
        assert error.phase == "ims"
        assert error.partial == {"ii": 4}

    def test_parse_error_formats_line(self):
        error = ParseError("bad token", line=7)
        assert "line 7" in str(error)
        assert error.line == 7
        assert ParseError("no line").line is None

    def test_single_catch_covers_library(self):
        from repro import mdl

        with pytest.raises(ReproError):
            mdl.loads("not a machine at all\n")


class TestPackageSurface:
    def test_version_string(self):
        assert __version__.count(".") == 2

    def test_root_reexports(self):
        import repro

        for name in (
            "MachineDescription",
            "reduce_machine",
            "example_machine",
            "ForbiddenLatencyMatrix",
        ):
            assert hasattr(repro, name)

    def test_main_module_runs(self, capsys):
        import runpy
        import sys

        argv = sys.argv
        sys.argv = ["repro", "stats", "example", "--word-cycles", "1"]
        try:
            with pytest.raises(SystemExit) as info:
                runpy.run_module("repro", run_name="__main__")
            assert info.value.code == 0
        finally:
            sys.argv = argv
        assert "paper-example" in capsys.readouterr().out

    def test_cli_table_command(self, capsys):
        from repro.cli import main

        assert main(["table", "example", "--word-cycles", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "4-cycle-word" in out
        assert "resources" in out


class TestFullCydraReduction:
    def test_full_machine_reduces_exactly(self):
        """The big one: the complete Cydra 5 model, both objectives."""
        from repro.core import matrices_equal, reduce_machine
        from repro.machines import cydra5

        machine = cydra5()
        for kwargs in (
            {},
            {"objective": "word-uses", "word_cycles": 4},
        ):
            reduction = reduce_machine(machine, **kwargs)
            assert matrices_equal(machine, reduction.reduced)
            assert reduction.reduced.num_resources < machine.num_resources
