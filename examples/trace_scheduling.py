#!/usr/bin/env python
"""Trace scheduling across block boundaries.

Schedules a three-block trace on the Cydra 5 subset: a block issuing a
long-latency load late, a tiny middle block the load's return path
reaches *through*, and a block that must schedule around the dangling
reservations.
"""

from repro.core import schedule_is_contention_free
from repro.machines import cydra5_subset
from repro.scheduler import DependenceGraph, TraceScheduler


def make_blocks():
    head = DependenceGraph("head")
    head.add_operation("addr", "addr_gen")
    head.add_operation("late_load", "load_s")
    head.add_dependence("addr", "late_load", 2)

    middle = DependenceGraph("middle")
    middle.add_operation("cmp", "icmp")

    tail = DependenceGraph("tail")
    tail.add_operation("another_load", "load_s")
    tail.add_operation("use", "fadd_s")
    tail.add_dependence("another_load", "use", 18)
    return [head, middle, tail]


def main():
    machine = cydra5_subset()

    print("=" * 64)
    print("trace scheduling with dangling requirements")
    trace = TraceScheduler(machine).schedule(make_blocks())
    for index, block in enumerate(trace.blocks):
        print(
            "block %d (%s): length %d, boundary in: %s"
            % (
                index,
                block.graph.name,
                block.length,
                trace.boundaries[index - 1] if index else [],
            )
        )
        for name, time in sorted(block.times.items(), key=lambda kv: kv[1]):
            print("   t=%3d  %s" % (time, name))
    assert schedule_is_contention_free(machine, trace.flat_placements())
    print("flat trace verified contention-free "
          "(%d cycles total)" % trace.total_length)


if __name__ == "__main__":
    main()
