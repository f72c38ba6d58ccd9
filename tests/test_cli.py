"""Tests for the command-line interface."""

from repro import mdl
from repro.cli import main
from repro.machines import example_machine


class TestReduce:
    def test_reduce_builtin(self, capsys):
        assert main(["reduce", "example"]) == 0
        out = capsys.readouterr().out
        assert "5 -> 2 resources" in out

    def test_reduce_writes_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "reduced.mdl")
        assert main(["reduce", "example", "-o", out_path]) == 0
        reduced = mdl.load_file(out_path)
        assert reduced.num_resources == 2

    def test_reduce_word_objective(self, capsys):
        assert main(
            ["reduce", "example", "--objective", "word-uses",
             "--word-cycles", "4"]
        ) == 0
        assert "k=4" in capsys.readouterr().out

    def test_reduce_mdl_file(self, tmp_path, capsys):
        path = str(tmp_path / "m.mdl")
        mdl.dump_file(example_machine(), path)
        assert main(["reduce", path]) == 0


class TestVerify:
    def test_equivalent(self, tmp_path, capsys):
        out_path = str(tmp_path / "r.mdl")
        main(["reduce", "example", "-o", out_path])
        assert main(["verify", "example", out_path]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_not_equivalent(self, tmp_path, capsys):
        path = str(tmp_path / "broken.mdl")
        with open(path, "w") as handle:
            handle.write("machine broken\noperation A\n  r0: 0\n"
                         "operation B\n  r0: 0\n")
        assert main(["verify", "example", path]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out


class TestStats:
    def test_stats_output(self, capsys):
        assert main(["stats", "mips-r3000", "--word-cycles", "1", "9"]) == 0
        out = capsys.readouterr().out
        assert "operation classes:      15" in out
        assert "9-cycle-word" in out


class TestShow:
    def test_show_dumps_mdl(self, capsys):
        assert main(["show", "example"]) == 0
        out = capsys.readouterr().out
        assert "machine paper-example" in out
        assert "operation B" in out

    def test_show_round_trips(self, capsys):
        main(["show", "cydra5-subset"])
        out = capsys.readouterr().out
        assert mdl.loads(out).num_operations == 12


class TestSchedule:
    def test_kernel(self, capsys):
        assert main(
            ["schedule", "cydra5-subset", "--kernel", "daxpy"]
        ) == 0
        out = capsys.readouterr().out
        assert "daxpy" in out
        assert "scheduled at MII" in out

    def test_generated_loops(self, capsys):
        assert main(
            ["schedule", "cydra5-subset", "--loops", "3",
             "--representation", "bitvector", "--word-cycles", "4"]
        ) == 0

    def test_missing_machine_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/machine.mdl"]) == 2
        err = capsys.readouterr().err
        assert "cannot read machine file" in err

    def test_unknown_machine_name_exits_2(self, capsys):
        assert main(["stats", "no-such-machine"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err
        assert "cydra5" in err  # the error lists the built-ins


class TestReport:
    def test_report_basic(self, capsys):
        assert main(["report", "example"]) == 0
        out = capsys.readouterr().out
        assert "forbidden latencies: 6 (max 3)" in out

    def test_report_with_reduction(self, capsys):
        assert main(["report", "example", "--reduce"]) == 0
        out = capsys.readouterr().out
        assert "state bits/cycle: 5 -> 2" in out


class TestDiff:
    def test_diff_equivalent(self, tmp_path, capsys):
        path = str(tmp_path / "copy.mdl")
        mdl.dump_file(example_machine(), path)
        assert main(["diff", "example", path]) == 0

    def test_diff_not_equivalent(self, tmp_path, capsys):
        path = str(tmp_path / "other.mdl")
        with open(path, "w") as handle:
            handle.write("machine o\noperation A\n r: 0\noperation B\n r: 0\n")
        assert main(["diff", "example", path]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out


class TestExpand:
    def test_expand_kernel(self, capsys):
        assert main(
            ["expand", "cydra5-subset", "--kernel", "daxpy",
             "--iterations", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "kernel (II=" in out
        assert "[2]" in out  # third iteration appears in the timeline


class TestAutomata:
    def test_automata_report(self, capsys):
        assert main(["automata", "example"]) == 0
        out = capsys.readouterr().out
        assert "monolithic automaton: 116 states" in out
        assert "reserved bits per cycle" in out

    def test_automata_cap(self, capsys):
        assert main(
            ["automata", "mips-r3000", "--max-states", "2000",
             "--factor", "resource"]
        ) == 0
        out = capsys.readouterr().out
        assert "exceeds 2000 states" in out


class TestPlayDohBuiltin:
    def test_playdoh_available(self, capsys):
        assert main(["stats", "playdoh", "--word-cycles", "1"]) == 0
        assert "playdoh" in capsys.readouterr().out


class TestExitCodes:
    def test_budget_exceeded_exits_3(self, capsys):
        assert main(["reduce", "example", "--deadline", "0"]) == 3
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "Traceback" not in err

    def test_budget_exceeded_schedule_exits_3(self, capsys):
        assert main(
            ["schedule", "cydra5-subset", "--kernel", "daxpy",
             "--max-units", "0"]
        ) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        # ``repro reduce`` imports the reduction when it runs, from its
        # defining module.
        import repro.core.reduce as reduce_module

        def interrupt(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(reduce_module, "reduce_machine", interrupt)
        assert main(["reduce", "example"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_interrupt_leaves_no_partial_output(self, tmp_path, capsys,
                                                monkeypatch):
        from repro._atomic import atomic_write_text as real_write

        def interrupted_write(path, text, encoding="utf-8"):
            raise KeyboardInterrupt

        import repro.resilience.artifacts as artifacts_module

        monkeypatch.setattr(
            artifacts_module, "atomic_write_text", interrupted_write
        )
        out_path = tmp_path / "r.mdl"
        assert main(["reduce", "example", "-o", str(out_path)]) == 130
        assert not out_path.exists()
        assert list(tmp_path.iterdir()) == []
        assert real_write  # silence unused-import linters

    def test_fallback_converts_budget_failure_to_success(self, capsys):
        assert main(
            ["reduce", "example", "--deadline", "0", "--fallback"]
        ) == 0
        out = capsys.readouterr().out
        assert "rung 'original'" in out
        assert "verified" in out

    def test_usage_error_still_exits_2(self, capsys):
        assert main(["reduce", "no-such-machine"]) == 2


class TestChaosCommand:
    def test_chaos_ok_exits_0(self, capsys, tmp_path):
        assert main(
            ["chaos", "example", "--seed", "0",
             "--workdir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "result: OK (9/9 steps handled)" in out

    def test_chaos_report_artifact(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "report.json"
        assert main(
            ["chaos", "example", "--seed", "3", "--out", str(out_file),
             "--workdir", str(tmp_path / "work")]
        ) == 0
        document = json.loads(out_file.read_text())
        assert document["schema"] == "repro-chaos-report"
        assert document["version"] == 2
        assert document["ok"] is True
        # The report itself is a checksummed artifact.
        assert (tmp_path / "report.json.sum.json").exists()


class TestArtifactOutput:
    def test_reduce_output_has_sidecar(self, tmp_path, capsys):
        from repro.resilience import artifacts

        out_path = str(tmp_path / "reduced.mdl")
        assert main(["reduce", "example", "-o", out_path]) == 0
        assert artifacts.has_sidecar(out_path)
        loaded = artifacts.load_machine(out_path)
        assert loaded.num_resources == 2

    def test_schedule_fallback_flag(self, capsys):
        assert main(
            ["schedule", "cydra5-subset", "--kernel", "daxpy",
             "--fallback"]
        ) == 0
        out = capsys.readouterr().out
        assert "rung" in out and "ims" in out


class TestCommandTable:
    """``repro.cli.COMMANDS`` is the one list of commands; handlers are
    imported on dispatch, so an import they defer must still resolve."""

    def test_every_handler_and_argument_builder_resolves(self):
        import argparse

        from repro.cli import COMMANDS, GROUPS, _function, build_parser

        for command in COMMANDS:
            if command.name not in GROUPS:
                assert callable(_function(command)), command.name
            assert callable(_function(command, "_arguments")), command.name
            assert isinstance(
                build_parser(command.name), argparse.ArgumentParser
            )

    def test_group_help_has_its_description(self, capsys):
        """A group describes itself the way a leaf does, from a string
        its parser set-up assigns (a docstring would vanish under
        ``python -OO``)."""
        import pytest

        for group, text in (
            ("bench", "Record schema-versioned"),
            ("runs", "Query the persistent"),
        ):
            with pytest.raises(SystemExit) as info:
                main([group, "--help"])
            assert info.value.code == 0
            assert text in capsys.readouterr().out

    def test_deferred_imports_resolve(self):
        """Every import inside a CLI function names a real module and
        real attributes; otherwise it would fail only when its command
        runs."""
        import ast
        import glob
        import importlib
        import os

        import repro

        package = os.path.dirname(os.path.abspath(repro.__file__))
        paths = [os.path.join(package, "cli.py")] + sorted(
            glob.glob(os.path.join(package, "commands", "*.py"))
        )
        checked = 0
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            importlib.import_module(alias.name)
                            checked += 1
                    elif isinstance(node, ast.ImportFrom):
                        module = importlib.import_module(node.module)
                        for alias in node.names:
                            name = "%s.%s" % (node.module, alias.name)
                            assert hasattr(module, alias.name) or (
                                importlib.import_module(name)
                            ), "%s: %s" % (path, name)
                            checked += 1
        assert checked > 50

    def test_recorded_commands(self):
        from repro.cli import COMMANDS

        assert {c.name for c in COMMANDS if c.recorded} == {
            "reduce", "certify", "profile", "bench run", "schedule",
            "explain", "chaos", "fuzz",
        }

    def test_named_command(self):
        from repro.cli import _named_command

        assert _named_command(["bench", "run", "-o", "x.json"]) == "bench run"
        assert _named_command(["bench", "--help"]) == "bench"
        assert _named_command(["reduce", "cydra5"]) == "reduce"
        assert _named_command(["runs", "gc", "--keep", "1"]) == "runs gc"
        assert _named_command(["--help"]) is None
        assert _named_command(["nope"]) is None
        assert _named_command([]) is None

    def test_unknown_command_exits_2(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as info:
            main(["nope"])
        assert info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
