"""Package inits are export tables (``repro._exports``).

Each init hands ``export_table`` one table of the names its submodules
define.  These tests pin what the tables serve: the same ``__all__``
sets as the eager inits they replaced, every name the very object its
defining module holds, and exported names that stay themselves after a
submodule of the same name is imported.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SRC = os.path.dirname(PACKAGE_DIR)

#: ``__all__`` of each exporting package, as the eager inits had it.
PINNED_ALL = {
    "repro": (
        "ForbiddenLatencyMatrix MachineBuilder MachineDescription "
        "RES_USES Reduction ReservationTable WORD_USES __version__ "
        "assert_equivalent example_machine matrices_equal reduce_machine "
    ),
    "repro.analysis": (
        "EXPLAIN_SCHEMA_NAME EXPLAIN_SCHEMA_VERSION build_explain_report "
        "describe_machine describe_reduction diff_constraints "
        "drop_resources explain_loop has_collision manually_optimize "
        "occupancy_chart redundant_resources render_explain_html "
        "render_explain_text validate_explain_report "
    ),
    "repro.automata": (
        "ADVANCE AutomatonQueryModule AutomatonTooLarge FactoredAutomata "
        "PER_RESOURCE PairedAutomatonQueryModule PipelineAutomaton UNIT "
        "factor_resources is_minimal minimize "
    ),
    "repro.bench": (
        "BenchCase BenchResult Comparison IMPROVEMENT MISSING_BASE "
        "MISSING_NEW MetricDelta NEUTRAL REGRESSION RESULT_SCHEMA_NAME "
        "RESULT_SCHEMA_VERSION compare_metric_maps compare_results "
        "default_meta ensure_comparable git_sha load_result "
        "render_comparison_text render_result_text save_result "
    ),
    "repro.core": (
        "ForbiddenLatencyMatrix MachineBuilder MachineDescription "
        "RES_USES Reduction ReservationTable Resource SearchExhausted "
        "SelectionResult TraceStep Usage WORD_USES Witness "
        "assert_equivalent build_generating_set canonical_instance "
        "differences elementary_pair elementary_pairs "
        "exact_minimum_cover find_witness generated_instances is_maximal "
        "machine_from_selection matrices_equal normalize_resource "
        "prune_covered_resources reduce_for_word_size reduce_machine "
        "resource_is_valid schedule_is_contention_free select_resources "
        "usages_compatible "
    ),
    "repro.fuzz": (
        "FAMILIES FUZZ_SCHEMA_NAME FUZZ_SCHEMA_VERSION FaultPlan "
        "GeneratorProfile OracleConfig OracleOutcome PHASES PROFILES "
        "PlanReport PlanStep STRUCTURAL_RULES ShrinkResult VERDICTS "
        "VERDICT_BUG VERDICT_HANDLED VERDICT_OK compose_plan "
        "generate_machine generate_workload load_repro_bundle "
        "machine_seed run_campaign run_oracle run_plan "
        "schedulable_opcodes shrink write_repro_bundle "
    ),
    "repro.lint": (
        "Baseline CODE_REPORT_NAME CodeContext Diagnostic LintContext "
        "LintReport LintRule Location REPORT_SCHEMA_VERSION SEVERITIES "
        "finding get_rules lint_code_paths lint_machine lint_source "
        "registered_rules rule severity_rank write_baseline "
    ),
    "repro.machines": (
        "CORPUS_MACHINES PLAYDOH_LATENCIES PLAYDOH_MIX STUDY_MACHINES "
        "SUBSET_OPERATIONS alpha21064 alternatives_machine buffered_pu "
        "clustered_vliw cydra5 cydra5_subset dense_conflict_machine "
        "empty_op_machine example_machine independent_ops_machine "
        "issue_limited_machine mips_r3000 playdoh single_op_machine "
    ),
    "repro.mdl": (
        "RawMachine RawOperation RawUsage dump_file dumps load_file loads "
        "parse parse_file "
    ),
    "repro.query": (
        "ASSIGN ASSIGN_FREE ATTRIBUTE BITVECTOR BLAME_RESERVED BLAME_SELF "
        "BitvectorQueryModule Blame CHECK CHECK_RANGE COMPILE COMPILED "
        "CompiledKernel CompiledQueryModule ContentionQueryModule "
        "DISCRETE DiscreteQueryModule FIRST_FIT FREE FUNCTIONS LEAST_USED "
        "POLICIES PredicateSpace PredicatedDiscreteQueryModule "
        "REPRESENTATIONS ROUND_ROBIN ScheduledToken TRUE WorkCounters "
        "clear_kernel_cache compiled_kernel make_query_module "
        "order_variants "
    ),
    "repro.scheduler": (
        "AttemptStats BlockScheduleResult CorpusResult CorpusScheduler "
        "Dependence DependenceGraph ExpandedSchedule "
        "IterativeModuloScheduler LoopOutcome ModuloScheduleResult "
        "Operation OperationDrivenScheduler SearchBudgetExceeded "
        "TraceScheduleResult TraceScheduler ValueLifetime chain "
        "compute_heights dangling_requirements expand find_schedule_at_ii "
        "is_ii_feasible lifetime_report max_live mii_attribution "
        "min_feasible_ii_for_op min_ii rec_mii register_requirement "
        "res_mii schedule_signature value_lifetimes "
    ),
    "repro.simulate": (
        "ConflictEvent SimulationReport simulate "
    ),
    "repro.stats": (
        "MachineStats average_usages_per_op average_word_usages "
        "cycles_per_word describe operation_frequencies "
        "render_reduction_table reserved_bits_per_cycle word_usage_count "
    ),
    "repro.workloads": (
        "CYDRA_TO_ALPHA CYDRA_TO_MIPS CYDRA_TO_PLAYDOH DEFAULT_MIX "
        "KERNELS MAX_OPS MIN_OPS PORTS RESULT_LATENCY all_kernels "
        "block_suite generate_block generate_loop graph_signature "
        "loop_suite port_graph translate_graph "
    ),
}


#: Exported names that are also submodules of their package.
SHADOWED = [
    ("repro.machines", "cydra5"),
    ("repro.machines", "playdoh"),
    ("repro.scheduler", "expand"),
    ("repro.fuzz", "shrink"),
    ("repro.automata", "minimize"),
]


def _table(package):
    """``{name: defining module}`` read from the init's export table."""
    path = os.path.join(PACKAGE_DIR, *package.split(".")[1:], "__init__.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    [call] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "export_table"
    ]
    owners = {}
    for key, names in zip(call.args[1].keys, call.args[1].values):
        for name in ast.literal_eval(names):
            owners[name] = package + "." + key.value
    return owners


@pytest.mark.parametrize("package", sorted(PINNED_ALL))
def test_all_is_the_eager_inits_set(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == PINNED_ALL[package].split()
    assert len(module.__all__) == len(set(module.__all__))


@pytest.mark.parametrize("package", sorted(PINNED_ALL))
def test_every_name_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    for name, owner in _table(package).items():
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(owner), name), name
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == owner, name
    assert set(dir(module)) >= set(module.__all__)


def test_unknown_name_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        repro.core.__getattr__("nope")
    assert not hasattr(repro.core, "nope")
    with pytest.raises(ImportError):
        from repro.core import nope  # noqa: F401


def test_e2e_scheduler_import_path():
    from repro.scheduler import CorpusScheduler, IterativeModuloScheduler
    from repro.scheduler.corpus import CorpusScheduler as defined_corpus
    from repro.scheduler.modulo import IterativeModuloScheduler as defined

    assert CorpusScheduler is defined_corpus
    assert IterativeModuloScheduler is defined


#: Imports the submodule first (directly, or through the package's
#: other name ``argv[3]`` it defines), then checks the package's name is
#: still the submodule's function.
SHADOW_PROBE = """
import importlib, inspect, sys
package, name, sibling = sys.argv[1:4]
if sibling:
    getattr(importlib.import_module(package), sibling)
else:
    importlib.import_module(package + "." + name)
assert package + "." + name in sys.modules
exec("from %s import %s as value" % (package, name))
assert callable(value) and not inspect.ismodule(value), value
assert getattr(sys.modules[package], name) is value
assert value is getattr(sys.modules[package + "." + name], name)
print("ok")
"""


@pytest.mark.parametrize("package, name", SHADOWED)
@pytest.mark.parametrize("route", ["submodule", "sibling"])
def test_shadowed_name_stays_the_function(package, name, route):
    sibling = ""
    if route == "sibling":
        owners = _table(package)
        sibling = next(
            other for other, owner in owners.items()
            if owner == owners[name] and other != name
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SHADOW_PROBE, package, name, sibling],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


def test_shadowed_names_are_every_exported_submodule():
    shadowed = []
    for package in sorted(PINNED_ALL):
        for name, owner in _table(package).items():
            if owner == package + "." + name:
                shadowed.append((package, name))
    assert sorted(shadowed) == sorted(SHADOWED)
