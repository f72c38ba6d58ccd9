"""Output checks that share no code with the library under test.

Every check here works on plain data (reservation tables as
``{op: [[resource, cycle], ...]}``, schedules as ``ii``/``times``/``chosen``)
that a benchmark child exported through the library's public API, so a
bug in the forbidden-matrix, reduction or scheduler code cannot also hide
itself in the check.

* :func:`check_reduction` recomputes the forbidden-latency sets of the
  original and the reduced machine by overlaying reservation tables and
  compares them: the paper's definition of an exact reduction.
* :func:`check_schedule` checks every dependence and every modulo
  reservation slot of a schedule against the *original* machine, not the
  reduced one the scheduler used: Theorem 1 made executable.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

Tables = Dict[str, Sequence[Sequence]]
ForbiddenSets = Dict[Tuple[str, str], Set[int]]


def digest(payload) -> str:
    """Stable fingerprint of any JSON-serializable output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def forbidden_sets(tables: Tables) -> ForbiddenSets:
    """``F[X][Y] = {y - z : resource r, z in X_r, y in Y_r}``, non-empty only.

    Overlaying Y's table on X's at offset ``f`` collides exactly when some
    resource row holds ``z`` in X and ``z + f`` in Y, so collecting the row
    differences enumerates every colliding offset.
    """
    users: Dict[str, List[Tuple[str, Set[int]]]] = defaultdict(list)
    for op, usages in tables.items():
        rows: Dict[str, Set[int]] = defaultdict(set)
        for resource, cycle in usages:
            rows[resource].add(cycle)
        for resource, cycles in rows.items():
            users[resource].append((op, cycles))
    sets: ForbiddenSets = defaultdict(set)
    for row in users.values():
        for op_x, cycles_x in row:
            for op_y, cycles_y in row:
                bucket = sets[(op_x, op_y)]
                for z in cycles_x:
                    for y in cycles_y:
                        bucket.add(y - z)
    return dict(sets)


def instance_count(sets: ForbiddenSets) -> int:
    """Canonical non-negative forbidden latencies (the selection universe).

    ``f in F[X][Y]`` and ``-f in F[Y][X]`` are one constraint, so count
    positive latencies of every ordered pair plus zero latencies once per
    unordered pair.
    """
    count = 0
    for (op_x, op_y), latencies in sets.items():
        count += sum(1 for f in latencies if f > 0)
        if 0 in latencies and op_x <= op_y:
            count += 1
    return count


def check_reduction(
    original: ForbiddenSets, reduced: Tables, resources: int, usages: int
) -> List[str]:
    """Problems with one reduced machine; empty when it is exact.

    ``original`` is the original machine's :func:`forbidden_sets`;
    ``resources``/``usages`` are the sizes the library reported for the
    reduced machine, which must agree with its tables.
    """
    problems = []
    table_usages = sum(len(rows) for rows in reduced.values())
    if table_usages != usages:
        problems.append(
            "reported %d usages but the tables hold %d" % (usages, table_usages)
        )
    used = {resource for rows in reduced.values() for resource, _ in rows}
    if len(used) > resources:
        problems.append(
            "reported %d resources but the tables use %d" % (resources, len(used))
        )
    mine = forbidden_sets(reduced)
    wrong = sorted(
        pair for pair in set(original) | set(mine)
        if original.get(pair, set()) != mine.get(pair, set())
    )
    if wrong:
        problems.append(
            "%d operation pairs change forbidden latencies, first %s"
            % (len(wrong), wrong[0])
        )
    return problems


def check_schedule(
    loop: dict, schedule: dict, tables: Tables, alternatives: Dict[str, List[str]]
) -> List[str]:
    """Problems with one modulo schedule; empty when it is legal.

    ``loop`` holds ``ops`` (``[name, opcode]``) and ``edges``
    (``[src, dst, latency, distance]``); ``schedule`` holds ``ii``,
    ``times`` and ``chosen`` as ``[name, value]`` lists; ``tables`` and
    ``alternatives`` describe the original machine.
    """
    ii = schedule["ii"]
    if not isinstance(ii, int) or ii < 1:
        return ["II %r is not a positive integer" % (ii,)]
    times = dict(schedule["times"])
    chosen = dict(schedule["chosen"])
    problems = []
    for name, opcode in loop["ops"]:
        if name not in times or name not in chosen:
            problems.append("%s is not scheduled" % name)
        elif chosen[name] not in alternatives.get(opcode, (opcode,)):
            problems.append(
                "%s runs as %s, not an alternative of %s"
                % (name, chosen[name], opcode)
            )
    if problems:
        return problems
    for src, dst, latency, distance in loop["edges"]:
        if times[dst] < times[src] + latency - ii * distance:
            problems.append(
                "dependence %s->%s violated at II=%d" % (src, dst, ii)
            )
    holder: Dict[Tuple[str, int], str] = {}
    for name, _opcode in loop["ops"]:
        for resource, cycle in tables[chosen[name]]:
            slot = (resource, (times[name] + cycle) % ii)
            if slot in holder:
                problems.append(
                    "resource %s collides at MRT slot %d between %s and %s"
                    % (resource, slot[1], holder[slot], name)
                )
            else:
                holder[slot] = name
    return problems
