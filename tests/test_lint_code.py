"""The code-plane analyzer: rule fixtures, determinism, baseline, CLI."""

import json
import textwrap

import pytest

from repro.lint import Baseline, lint_code_paths
from repro.lint.code import CODE_REPORT_NAME, iter_python_files, layer_rank


def _lint_snippet(tmp_path, source, name="repro/core/snippet.py", **kwargs):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_code_paths(
        paths=[str(path)], root=str(tmp_path), **kwargs
    )


def _rules(report):
    return [d.rule for d in report.diagnostics]


class TestUnorderedIteration:
    def test_for_loop_over_set_literal_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def pick(items):
                for item in {1, 2, 3}:
                    yield item
            """,
        )
        assert _rules(report) == ["code-unordered-iteration"]
        diag = report.diagnostics[0]
        assert diag.location.file == "repro/core/snippet.py"
        assert diag.location.symbol == "pick"
        assert diag.location.line is not None

    def test_list_of_set_call_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def order(names):
                return list(set(names))
            """,
        )
        assert _rules(report) == ["code-unordered-iteration"]

    def test_comprehension_over_set_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def squares(names):
                return [n * n for n in set(names)]
            """,
        )
        assert _rules(report) == ["code-unordered-iteration"]

    def test_sorted_and_reductions_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def fine(names):
                ordered = sorted(set(names))
                total = sum(n for n in {1, 2, 3})
                count = len({1, 2})
                biggest = max(set(names))
                unique = {n for n in set(names)}
                return ordered, total, count, biggest, unique
            """,
        )
        assert _rules(report) == []

    def test_for_loop_over_sorted_set_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def fine(names):
                for name in sorted(set(names)):
                    yield name
            """,
        )
        assert _rules(report) == []


class TestUnchargedLoop:
    def test_query_loop_without_charge_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            class Backend:
                def scan(self, cycles):
                    hits = []
                    for cycle in cycles:
                        hits.append(cycle)
                    return hits
            """,
            name="repro/query/backend.py",
        )
        assert _rules(report) == ["code-uncharged-loop"]
        assert report.diagnostics[0].location.symbol == "Backend.scan"

    def test_charging_loop_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            class Backend:
                def scan(self, cycles):
                    units = 0
                    for cycle in cycles:
                        units += 1
                    self.work.charge("check", units)
            """,
            name="repro/query/backend.py",
        )
        assert _rules(report) == []

    def test_delegating_loop_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            class Backend:
                def first(self, op, cycles):
                    for cycle in cycles:
                        if self.check(op, cycle):
                            return cycle
                    return None
            """,
            name="repro/query/backend.py",
        )
        assert _rules(report) == []

    def test_rule_only_applies_to_query_subsystem(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def scan(cycles):
                hits = []
                for cycle in cycles:
                    hits.append(cycle)
                return hits
            """,
            name="repro/stats/backend.py",
        )
        assert _rules(report) == []


class TestMissingBudgetCheckpoint:
    def test_budget_loop_without_checkpoint_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def search(items, budget):
                best = None
                for item in items:
                    best = item
                return best
            """,
        )
        assert _rules(report) == ["code-missing-budget-checkpoint"]
        assert report.diagnostics[0].location.symbol == "search"

    def test_checkpointing_loop_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def search(items, budget):
                for index, item in enumerate(items):
                    if budget is not None:
                        budget.checkpoint("search", units=1, progress=index)
                return None
            """,
        )
        assert _rules(report) == []

    def test_forwarding_budget_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def outer(items, budget):
                for item in items:
                    inner(item, budget=budget)
            """,
        )
        assert _rules(report) == []

    def test_rule_only_applies_to_core_and_scheduler(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def search(items, budget):
                for item in items:
                    pass
            """,
            name="repro/workloads/search.py",
        )
        assert _rules(report) == []


class TestNonatomicWrite:
    def test_open_for_write_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def dump(path, text):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            """,
        )
        assert _rules(report) == ["code-nonatomic-write"]

    def test_write_text_method_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def dump(path, text):
                path.write_text(text)
            """,
        )
        assert _rules(report) == ["code-nonatomic-write"]

    def test_reads_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def load(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return handle.read()

            def load_default_mode(path):
                with open(path) as handle:
                    return handle.read()
            """,
        )
        assert _rules(report) == []

    def test_atomic_module_is_exempt(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def atomic_write_text(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            name="repro/_atomic.py",
        )
        assert _rules(report) == []


class TestBroadExcept:
    def test_bare_except_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except:
                    pass
            """,
        )
        assert _rules(report) == ["code-broad-except"]

    def test_except_exception_without_reraise_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except Exception:
                    return None
            """,
        )
        assert _rules(report) == ["code-broad-except"]

    def test_reraising_handler_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def run(task, cleanup):
                try:
                    task()
                except BaseException:
                    cleanup()
                    raise
            """,
        )
        assert _rules(report) == []

    def test_narrow_handler_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except ValueError:
                    return None
            """,
        )
        assert _rules(report) == []


class TestUnseededRandom:
    def test_global_rng_draw_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            import random

            def jitter():
                return random.random() * 0.5
            """,
        )
        assert "code-unseeded-random" in _rules(report)

    def test_module_level_shuffle_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            import random

            def scramble(items):
                random.shuffle(items)
                return items
            """,
        )
        assert "code-unseeded-random" in _rules(report)

    def test_unseeded_constructor_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            import random

            def fresh():
                return random.Random()
            """,
        )
        assert _rules(report) == ["code-unseeded-random"]

    def test_system_random_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            import random

            def entropy():
                return random.SystemRandom().random()
            """,
        )
        assert "code-unseeded-random" in _rules(report)

    def test_seeded_instance_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            import random

            def stream(seed):
                rng = random.Random("mdlgen:%d" % seed)
                return rng.random()
            """,
        )
        assert "code-unseeded-random" not in _rules(report)

    def test_instance_draws_not_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            import random

            def draws(rng: random.Random):
                return [rng.random(), rng.choice([1, 2])]
            """,
        )
        assert "code-unseeded-random" not in _rules(report)


class TestDriver:
    def test_invalid_source_reported_not_raised(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def broken(:
                pass
            """,
        )
        assert _rules(report) == ["invalid-source"]
        assert report.diagnostics[0].severity == "error"

    def test_directory_discovery_is_sorted_and_skips_pycache(
        self, tmp_path
    ):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("")
        (tmp_path / "pkg" / "b.py").write_text("")
        (tmp_path / "pkg" / "a.py").write_text("")
        files = iter_python_files([str(tmp_path / "pkg")])
        assert [f.rsplit("/", 1)[-1] for f in files] == ["a.py", "b.py"]

    def test_unknown_path_is_a_config_error(self):
        from repro.errors import LintConfigError

        with pytest.raises(LintConfigError):
            iter_python_files(["/nonexistent/nowhere.py"])

    def test_repo_package_is_clean_under_checked_in_baseline(self):
        baseline = Baseline.load("lint-code-baseline.json")
        report = lint_code_paths(baseline=baseline)
        offenders = [str(d.location) for d in report.at_or_above("info")]
        assert offenders == []
        assert report.suppressed == len(baseline)

    def test_baseline_suppression_matches_file_and_symbol(self, tmp_path):
        source = """
        def run(task):
            try:
                task()
            except:
                pass
        """
        report = _lint_snippet(tmp_path, source)
        baseline = Baseline()
        baseline.add_report(report)
        suppressed = _lint_snippet(tmp_path, source, baseline=baseline)
        assert suppressed.diagnostics == []
        assert suppressed.suppressed == 1


class TestDeterminism:
    SOURCE = """
    def messy(names, budget):
        for item in {1, 2}:
            pass
        for name in list(set(names)):
            try:
                name()
            except Exception:
                continue
        with open("out", "w") as handle:
            handle.write("x")
    """

    def test_json_output_is_byte_deterministic(self, tmp_path):
        """Two runs over identical inputs render identical bytes — the
        regression test for the stable diagnostic ordering."""
        renders = []
        for _ in range(2):
            report = _lint_snippet(tmp_path, self.SOURCE)
            renders.append(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
            )
        assert renders[0] == renders[1]
        # Multiple findings on one line sort on the full key including
        # message, so the order is never dict- or discovery-dependent.
        parsed = json.loads(renders[0])
        assert parsed["machine"] == CODE_REPORT_NAME
        assert len(parsed["diagnostics"]) >= 4

    def test_sorted_key_covers_file_line_and_message(self, tmp_path):
        report = _lint_snippet(tmp_path, self.SOURCE)
        ordered = report.sorted().diagnostics
        keys = [
            (
                -d.rank,
                d.location.file or "",
                d.rule,
                d.location.symbol or "",
                d.location.line or -1,
                d.message,
            )
            for d in ordered
        ]
        assert keys == sorted(keys)


class TestUnregisteredCurrency:
    RULE = ["code-unregistered-currency"]

    def test_string_literal_off_registry_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def probe(qm):
                qm.work.charge("chekc", 4)
            """,
            rules=self.RULE,
        )
        assert _rules(report) == ["code-unregistered-currency"]
        assert "'chekc'" in report.diagnostics[0].message

    def test_unknown_constant_flagged(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            SAMPEL = "sampel"

            def probe(counters):
                counters.charge(SAMPEL, 1)
            """,
            rules=self.RULE,
        )
        assert _rules(report) == ["code-unregistered-currency"]

    def test_registered_string_and_constant_clean(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            from repro.query.work import CHECK, COMPILE

            def probe(self, work):
                work.charge("check", 4)
                work.charge(CHECK, 2)
                self.work.charge(COMPILE, 1)
            """,
            rules=self.RULE,
        )
        assert _rules(report) == []

    def test_dynamic_currency_is_unresolvable_and_skipped(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def probe(work, name):
                work.charge(name, 4)
                work.charge(name.lower(), 4)
            """,
            rules=self.RULE,
        )
        assert _rules(report) == []

    def test_non_counter_receivers_ignored(self, tmp_path):
        report = _lint_snippet(
            tmp_path,
            """
            def probe(battery):
                battery.charge("overnight", 8)
            """,
            rules=self.RULE,
        )
        assert _rules(report) == []


class TestUpwardImport:
    RULE = ["code-upward-import"]

    def _findings(self, tmp_path, source, name="repro/core/snippet.py"):
        report = _lint_snippet(tmp_path, source, name=name, rules=self.RULE)
        assert all(d.severity == "error" for d in report.diagnostics)
        return report.diagnostics

    def test_module_level_upward_import_flagged(self, tmp_path):
        [diag] = self._findings(
            tmp_path,
            """
            from repro.scheduler.modulo import IterativeModuloScheduler
            """,
        )
        assert diag.rule == "code-upward-import"
        assert diag.location.line == 2
        assert "repro.scheduler.modulo (rank 3)" in diag.message

    def test_function_level_upward_import_flagged(self, tmp_path):
        [diag] = self._findings(
            tmp_path,
            """
            def late():
                from repro.resilience.fallback import reduce_with_fallback
                return reduce_with_fallback
            """,
        )
        assert diag.location.symbol == "late"
        assert "repro.resilience.fallback (rank 5)" in diag.message

    def test_type_checking_upward_import_flagged(self, tmp_path):
        [diag] = self._findings(
            tmp_path,
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                import repro.analysis.explain
            """,
        )
        assert "repro.analysis (rank 5)" in diag.message

    def test_import_inside_leaf_package_init_flagged(self, tmp_path):
        diags = self._findings(
            tmp_path,
            """
            from repro.obs import export
            from repro.obs.trace import Tracer
            """,
            name="repro/obs/__init__.py",
        )
        assert [d.location.line for d in diags] == [2]
        assert diags[0].message.startswith("repro.obs (rank 0) imports "
                                           "repro.obs.export (rank 5)")

    def test_unranked_module_flagged(self, tmp_path):
        [diag] = self._findings(
            tmp_path,
            """
            from repro.core.machine import MachineDescription
            """,
            name="repro/plugins/extra.py",
        )
        assert "repro.plugins.extra has no rank" in diag.message

    def test_relative_upward_import_flagged(self, tmp_path):
        [diag] = self._findings(
            tmp_path,
            """
            from ..scheduler import ddg
            """,
        )
        assert "repro.scheduler.ddg (rank 3)" in diag.message

    def test_downward_and_leaf_imports_pass(self, tmp_path):
        assert self._findings(
            tmp_path,
            """
            import repro.obs.trace
            from repro import mdl
            from repro.core.machine import MachineDescription
            from repro.obs import metrics
            from repro.query.modulo import make_query_module
            from repro.resilience.budget import Budget
            from repro.scheduler.ladder import FallbackPolicy

            def late():
                from repro.query.work import FUNCTIONS
                return FUNCTIONS
            """,
            name="repro/scheduler/snippet.py",
        ) == []

    def test_export_table_entry_above_the_init_flagged(self, tmp_path):
        diags = self._findings(
            tmp_path,
            """
            from repro._exports import export_table

            __getattr__, __dir__, __all__ = export_table(__name__, {
                "core.reduce": ("reduce_machine",),
                "scheduler.modulo": ("IterativeModuloScheduler",),
            })
            """,
            name="repro/__init__.py",
        )
        assert len(diags) == 1 and diags[0].location.line == 4
        assert diags[0].message == (
            "repro (rank 2) imports repro.scheduler (rank 3), "
            "repro.scheduler.modulo (rank 3); imports must point down the "
            "layer table"
        )

    def test_export_table_submodule_entry_flagged(self, tmp_path):
        [diag] = self._findings(
            tmp_path,
            """
            from repro._exports import export_table

            __getattr__, __dir__, __all__ = export_table(__name__, {
                "trace": ("Tracer",),
                "": ("export",),
            })
            """,
            name="repro/obs/__init__.py",
        )
        assert "repro.obs.export (rank 5)" in diag.message
        assert "repro.obs.trace" not in diag.message

    def test_export_table_outside_an_init_is_not_an_import(self, tmp_path):
        assert self._findings(
            tmp_path,
            """
            table = export_table(__name__, {"scheduler.modulo": ("x",)})
            """,
        ) == []

    def test_layer_rank_resolves_longest_key_and_inits(self):
        assert layer_rank("repro.obs") == 0
        assert layer_rank("repro.obs.metrics") == 0
        assert layer_rank("repro.obs.export") == 5
        assert layer_rank("repro.resilience") == 0
        assert layer_rank("repro.resilience.fallback") == 5
        assert layer_rank("repro.core.certificate") == 1
        assert layer_rank("repro") == 2
        assert layer_rank("repro.cli") == 7
        assert layer_rank("repro.commands.machine") == 7
        assert layer_rank("repro._exports") == 0
        assert layer_rank("repro.plugins") is None
