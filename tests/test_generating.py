"""Tests for Algorithm 1 — the generating set of maximal resources."""

from repro.core import (
    ForbiddenLatencyMatrix,
    MachineDescription,
    build_generating_set,
    generated_instances,
    is_maximal,
    normalize_resource,
    resource_is_valid,
)
from repro.machines import (
    example_machine,
    independent_ops_machine,
    single_op_machine,
)


def _matrix(md):
    return ForbiddenLatencyMatrix.from_machine(md)


class TestExampleMachine:
    """Figure 1c: the example machine has exactly two maximal resources."""

    def test_contains_both_maximal_resources(self, example_matrix):
        resources = build_generating_set(example_matrix)
        assert frozenset({("B", 0), ("A", 1)}) in resources
        assert (
            frozenset({("B", 0), ("B", 1), ("B", 2), ("B", 3)}) in resources
        )

    def test_all_resources_valid(self, example_matrix):
        for resource in build_generating_set(example_matrix):
            assert resource_is_valid(resource, example_matrix)

    def test_pruning_independent_of_flag(self, example_matrix):
        with_prune = set(build_generating_set(example_matrix, 1))
        without = set(build_generating_set(example_matrix, None))
        # Both contain all maximal resources; textbook mode may keep
        # additional submaximal ones.
        maximal = {r for r in without if is_maximal(r, example_matrix)}
        assert maximal <= with_prune
        assert maximal <= without

    def test_trace_records_rule_applications(self, example_matrix):
        """The exact Figure 3 sequence (benchmarks/results/
        fig3_generating_trace.txt): per pair, every (rule, target,
        result) and the generating set after the step."""
        a1b0 = [("A", 1), ("B", 0)]
        b01 = [("B", 0), ("B", 1)]
        b012 = [("B", 0), ("B", 1), ("B", 2)]
        b0123 = [("B", 0), ("B", 1), ("B", 2), ("B", 3)]
        expected = [
            (a1b0, [(3, None, a1b0)], [a1b0]),
            (b01, [(2, a1b0, None), (3, None, b01)], [a1b0, b01]),
            ([("B", 0), ("B", 2)], [(2, a1b0, None), (1, b01, b012)],
             [a1b0, b012]),
            ([("B", 0), ("B", 3)], [(2, a1b0, None), (1, b012, b0123)],
             [a1b0, b0123]),
        ]

        def listed(resource):
            return None if resource is None else sorted(resource)

        steps = []
        build_generating_set(example_matrix, trace=steps.append)
        actual = [
            (
                sorted(step.pair),
                [
                    (app.rule, listed(app.target), listed(app.result))
                    for app in step.applications
                ],
                [sorted(resource) for resource in step.resources],
            )
            for step in steps
        ]
        assert actual == expected


class TestTheoremOne:
    """Theorem 1 on a family of machines: every maximal resource appears,
    and nothing in the set forbids an allowed latency."""

    MACHINES = [
        example_machine(),
        single_op_machine(),
        independent_ops_machine(),
        MachineDescription("bus", {
            "P": {"bus": [0, 2]},
            "Q": {"bus": [1, 4]},
        }),
        MachineDescription("pipes", {
            "U": {"p": [0], "q": [1]},
            "V": {"q": [0], "r": [1, 2]},
            "W": {"r": [0], "p": [2]},
        }),
    ]

    def _all_maximal_resources(self, matrix):
        """Brute-force enumerate maximal resources by greedy closure from
        every elementary pair (sound for these small machines)."""
        from repro.core import elementary_pairs, usages_compatible

        span = matrix.max_latency
        candidates = set()
        universe = [
            (op, cycle)
            for op in matrix.operations
            if matrix.uses_resources(op)
            for cycle in range(0, 2 * span + 1)
        ]
        for pair in elementary_pairs(matrix):
            grown = set(pair)
            for usage in sorted(universe):
                if usage in grown:
                    continue
                if all(
                    usages_compatible(usage, existing, matrix)
                    for existing in grown
                ):
                    grown.add(usage)
            candidates.add(normalize_resource(grown))
        return {c for c in candidates if is_maximal(c, matrix)}

    def test_every_machine(self):
        for md in self.MACHINES:
            matrix = _matrix(md)
            generating = set(build_generating_set(matrix))
            for resource in generating:
                assert resource_is_valid(resource, matrix), md.name
            maximal = self._all_maximal_resources(matrix)
            for resource in maximal:
                assert any(
                    resource <= other for other in generating
                ), (md.name, sorted(resource))


class TestRuleFour:
    def test_isolated_ops_get_single_usage_resources(self):
        md = independent_ops_machine()
        resources = build_generating_set(_matrix(md))
        assert frozenset({("A", 0)}) in resources
        assert frozenset({("B", 0)}) in resources

    def test_not_added_when_op_in_other_resources(self, example_matrix):
        resources = build_generating_set(example_matrix)
        assert frozenset({("A", 0)}) not in resources


class TestCoverage:
    def test_generating_set_covers_all_instances(self):
        """The union of generated instances covers the whole matrix, for
        every study machine's matrix (prerequisite of selection)."""
        for md in (example_machine(), single_op_machine()):
            matrix = _matrix(md)
            resources = build_generating_set(matrix)
            covered = set()
            for resource in resources:
                covered |= generated_instances(resource)
            assert covered >= set(matrix.instances())

    def test_mips_coverage(self, mips):
        matrix = _matrix(mips)
        covered = set()
        for resource in build_generating_set(matrix):
            covered |= generated_instances(resource)
        assert covered >= set(matrix.instances())
