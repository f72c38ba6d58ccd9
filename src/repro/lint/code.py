"""Code-plane lint: AST rules auditing the implementation itself.

The machine-plane rules (:mod:`repro.lint.rules`) audit *descriptions*;
the rules here audit the *code* that manipulates them, enforcing repo
invariants the test suite cannot see locally:

determinism
    Nothing order-sensitive may iterate a ``set`` — schedule priority,
    resource selection, and report layouts must not depend on hash
    order (``code-unordered-iteration``) — and every random draw must
    come from an *explicitly seeded* ``random.Random`` instance, never
    the process-seeded global RNG (``code-unseeded-random``).
accounting
    Every cycle loop in a query backend must charge
    :class:`~repro.query.work.WorkCounters` (or delegate to an entry
    point that does), so the paper's work-unit comparisons stay honest
    (``code-uncharged-loop``); and every charged currency must exist in
    the shared :data:`repro.query.work.FUNCTIONS` registry so no work
    is invisible to exporters (``code-unregistered-currency``).
budget + robustness invariants
    Long loops that carry a ``budget`` must checkpoint it
    (``code-missing-budget-checkpoint``); artifact writes must go
    through :mod:`repro._atomic` (``code-nonatomic-write``); and broad
    exception handlers must not swallow the structured error hierarchy
    (``code-broad-except``).
layering
    Every module has one rank in :data:`LAYERS`, and imports point only
    to equal or lower ranks (``code-upward-import``).

Rules register in the shared registry with ``scope="code"`` and run
over a :class:`CodeContext` per Python source file; findings ride the
same :class:`~repro.lint.diagnostics.Diagnostic` / baseline / report
machinery as machine findings, filed under the report name ``"code"``.
Entry point: :func:`lint_code_paths` (CLI: ``repro lint --code``).
"""

from __future__ import annotations

import ast
import os
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import LintConfigError
from repro.lint.diagnostics import Diagnostic, LintReport, Location
from repro.lint.registry import _run, finding, rule

#: Report (and baseline "machine") name for code-plane runs.
CODE_REPORT_NAME = "code"

#: Rule id stamped on files that do not parse.
INVALID_SOURCE_RULE = "invalid-source"


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
class CodeContext:
    """One Python source file under audit.

    Duck-typed against :class:`~repro.lint.registry.LintContext`: the
    ``is_code`` marker routes rule dispatch (machine rules skip code
    contexts and vice versa), and ``machine`` / ``raw`` / ``reference``
    are present-but-``None`` so the shared driver works unchanged.
    """

    is_code = True

    def __init__(
        self,
        path: str,
        display_path: str,
        source: str,
        tree: Optional[ast.AST],
        options: Optional[Mapping[str, object]] = None,
    ):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.options = dict(options or {})
        self.machine = None
        self.raw = None
        self.reference = None
        self._parents: Optional[Dict[int, ast.AST]] = None
        self._functions: Optional[List[Tuple[str, ast.AST]]] = None

    @property
    def basename(self) -> str:
        return self.display_path.rsplit("/", 1)[-1]

    @property
    def subsystem(self) -> str:
        """Package directory directly under ``repro`` ("core", "query", …)."""
        parts = self.display_path.split("/")
        if len(parts) >= 3 and parts[0] == "repro":
            return parts[1]
        return ""

    def option(self, name: str, default: object = None) -> object:
        return self.options.get(name, default)

    def locate(
        self,
        node: Optional[ast.AST] = None,
        line: Optional[int] = None,
        symbol: Optional[str] = None,
    ) -> Location:
        """A code location: this file, plus line and enclosing symbol."""
        if line is None and node is not None:
            line = getattr(node, "lineno", None)
        if symbol is None and node is not None:
            symbol = self.enclosing_symbol(node)
        return Location(file=self.display_path, line=line, symbol=symbol)

    def parent_map(self) -> Dict[int, ast.AST]:
        """Map ``id(child) -> parent`` over the whole tree (cached)."""
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            if self.tree is not None:
                for node in ast.walk(self.tree):
                    for child in ast.iter_child_nodes(node):
                        parents[id(child)] = node
            self._parents = parents
        return self._parents

    def functions(self) -> List[Tuple[str, ast.AST]]:
        """Every function definition as ``(qualname, node)``, in source
        order, with class and nesting prefixes (``Cls.method``)."""
        if self._functions is None:
            found: List[Tuple[str, ast.AST]] = []

            def visit(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qual = prefix + child.name
                        found.append((qual, child))
                        visit(child, qual + ".")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            if self.tree is not None:
                visit(self.tree, "")
            self._functions = found
        return self._functions

    def enclosing_symbol(self, node: ast.AST) -> Optional[str]:
        """Qualified name of the function containing ``node``, if any."""
        qual_of = {id(fn): qual for qual, fn in self.functions()}
        parents = self.parent_map()
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and id(current) in qual_of:
                return qual_of[id(current)]
            current = parents.get(id(current))
        return None


# ----------------------------------------------------------------------
# Shared AST predicates
# ----------------------------------------------------------------------
_SET_MAKERS = frozenset({"set", "frozenset"})

#: Consumers for which set iteration order cannot leak into results.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

#: Consumers that freeze iteration order into an ordered container.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_MAKERS and not node.keywords
    return False


def _call_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _loops(node: ast.AST) -> List[ast.AST]:
    return [
        n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))
    ]


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@rule(
    "code-unordered-iteration",
    severity="warning",
    summary="set iterated by an order-sensitive consumer "
    "(hash order leaks into results)",
    scope="code",
)
def _check_unordered_iteration(ctx: CodeContext) -> Iterator[Diagnostic]:
    tree = ctx.tree
    if tree is None:
        return
    parents = ctx.parent_map()
    for node in ast.walk(tree):
        if not _is_set_expr(node):
            continue
        parent = parents.get(id(node))
        consumer: Optional[str] = None
        if isinstance(parent, ast.For) and parent.iter is node:
            consumer = "a for loop"
        elif isinstance(parent, ast.comprehension) and parent.iter is node:
            comp = parents.get(id(parent))
            if isinstance(comp, ast.SetComp):
                continue  # set -> set: still unordered, no leak
            if isinstance(comp, ast.GeneratorExp):
                outer = parents.get(id(comp))
                if (
                    outer is not None
                    and _call_name(outer) in _ORDER_INSENSITIVE_CALLS
                ):
                    continue  # sorted(x for x in {…}) and friends
            consumer = "a comprehension"
        elif (
            isinstance(parent, ast.Call)
            and node in parent.args
            and _call_name(parent) in _ORDER_SENSITIVE_CALLS
        ):
            consumer = "%s()" % _call_name(parent)
        if consumer is None:
            continue
        yield finding(
            "iteration order of a set literal/constructor feeds %s; "
            "hash order is not deterministic across runs" % consumer,
            location=ctx.locate(node),
            hint="iterate sorted(...) over the set, or use an ordered "
            "container",
        )


#: Substrings in an identifier that indicate work accounting.
_CHARGE_HINTS = ("work", "units")

#: Method-name prefixes that delegate to a charging entry point.
_DELEGATE_PREFIXES = ("check", "assign", "free", "first_free", "charge")


def _charges_work(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            attr = sub.attr.lower()
            if attr.startswith(_DELEGATE_PREFIXES):
                return True
            if any(hint in attr for hint in _CHARGE_HINTS):
                return True
        elif isinstance(sub, ast.Name):
            name = sub.id.lower()
            if any(hint in name for hint in _CHARGE_HINTS):
                return True
    return False


@rule(
    "code-uncharged-loop",
    severity="warning",
    summary="query-backend loop never charges WorkCounters",
    scope="code",
)
def _check_uncharged_loop(ctx: CodeContext) -> Iterator[Diagnostic]:
    if ctx.tree is None or ctx.subsystem != "query":
        return
    if ctx.basename == "work.py":
        return  # the accounting module itself has nothing to charge
    for qualname, node in ctx.functions():
        if node.name.startswith("__"):
            continue  # constructors and protocol hooks set state, not work
        loops = _loops(node)
        if not loops or _charges_work(node):
            continue
        yield finding(
            "loop in query backend neither charges WorkCounters nor "
            "delegates to a charging check/assign/free entry point",
            location=ctx.locate(loops[0], symbol=qualname),
            hint="charge self.work in the loop, or route it through an "
            "entry point that does — unaccounted loops skew every "
            "work-unit comparison",
        )


def _has_budget_param(node: ast.AST) -> bool:
    args = node.args
    named = list(args.args) + list(args.kwonlyargs)
    if getattr(args, "posonlyargs", None):
        named.extend(args.posonlyargs)
    return any(a.arg == "budget" for a in named)


def _forwards_budget(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        values = list(sub.args) + [kw.value for kw in sub.keywords]
        for value in values:
            if isinstance(value, ast.Name) and value.id == "budget":
                return True
    return False


def _calls_checkpoint(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "checkpoint"
        ):
            return True
    return False


@rule(
    "code-missing-budget-checkpoint",
    severity="warning",
    summary="budget-carrying loop lacks a cooperative checkpoint",
    scope="code",
)
def _check_budget_checkpoint(ctx: CodeContext) -> Iterator[Diagnostic]:
    if ctx.tree is None or ctx.subsystem not in ("core", "scheduler"):
        return
    for qualname, node in ctx.functions():
        if not _has_budget_param(node):
            continue
        loops = _loops(node)
        if not loops:
            continue
        if _calls_checkpoint(node) or _forwards_budget(node):
            continue
        yield finding(
            "function accepts a budget and loops, but neither calls "
            "budget.checkpoint(...) nor forwards the budget to a callee",
            location=ctx.locate(loops[0], symbol=qualname),
            hint="checkpoint at iteration boundaries so deadlines and "
            "work caps can cancel cooperatively",
        )


_WRITE_MODE_CHARS = frozenset("wax+")


def _open_mode(node: ast.Call) -> Optional[ast.AST]:
    if len(node.args) >= 2:
        return node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


@rule(
    "code-nonatomic-write",
    severity="warning",
    summary="file write bypasses the atomic-write helper",
    scope="code",
)
def _check_nonatomic_write(ctx: CodeContext) -> Iterator[Diagnostic]:
    if ctx.tree is None or ctx.basename == "_atomic.py":
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if mode is None:
                continue  # default mode "r"
            if not (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
            ):
                continue  # dynamic mode: cannot judge statically
            if not (_WRITE_MODE_CHARS & set(mode.value)):
                continue
            what = "open(..., %r)" % mode.value
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            what = ".%s(...)" % func.attr
        else:
            continue
        yield finding(
            "%s writes in place; a crash mid-write leaves a torn file"
            % what,
            location=ctx.locate(node),
            hint="route writes through repro._atomic (atomic_write_text "
            "/ atomic_write_bytes: temp file + fsync + rename)",
        )


def _exception_names(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Tuple):
        names: List[str] = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    return []


@rule(
    "code-broad-except",
    severity="warning",
    summary="bare or blanket exception handler swallows structured errors",
    scope="code",
)
def _check_broad_except(ctx: CodeContext) -> Iterator[Diagnostic]:
    if ctx.tree is None:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            label = "bare `except:`"
        else:
            broad = [
                name
                for name in _exception_names(node.type)
                if name in ("Exception", "BaseException")
            ]
            if not broad:
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue  # catch-log-reraise is fine
            label = "`except %s` without re-raise" % broad[0]
        yield finding(
            "%s can swallow ReproError subclasses (and even "
            "BudgetExceeded), hiding failures the structured-error "
            "paths are built to surface" % label,
            location=ctx.locate(node),
            hint="catch the narrowest ReproError subclass, or re-raise "
            "after handling",
        )


#: Draw/state methods of the module-level (process-seeded) global RNG.
_GLOBAL_RNG_DRAWS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: RNG constructors that take a seed as their first positional argument.
_RNG_CONSTRUCTORS = frozenset({"Random"})


@rule(
    "code-unseeded-random",
    severity="warning",
    summary="random draw not tied to an explicit seed",
    scope="code",
)
def _check_unseeded_random(ctx: CodeContext) -> Iterator[Diagnostic]:
    """Every random draw must come from an explicitly seeded stream.

    The whole repo — fuzz generator, fault plans, workload suites —
    promises bit-for-bit reproducibility from a seed.
    Three constructions silently break that promise: calling a draw
    method on the ``random`` *module* (the hidden global ``Random``
    seeded from OS entropy at import), constructing ``Random()`` with
    no seed argument, and ``SystemRandom`` (OS entropy by design).  The
    repo idiom is a string-keyed instance per stream, e.g.
    ``random.Random("mdlgen:%s:%d" % (profile, seed))`` — string seeds
    are immune to ``PYTHONHASHSEED``.
    """
    if ctx.tree is None:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr in _GLOBAL_RNG_DRAWS
        ):
            yield finding(
                "random.%s() draws from the module-level global RNG, "
                "which is seeded from OS entropy at interpreter start"
                % func.attr,
                location=ctx.locate(node),
                hint="draw from an explicitly seeded random.Random "
                "instance (string-keyed, like the fuzz/chaos streams)",
            )
            continue
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name == "SystemRandom":
            yield finding(
                "SystemRandom draws OS entropy and can never replay "
                "from a seed",
                location=ctx.locate(node),
                hint="use a seeded random.Random unless this is "
                "explicitly cryptographic (it should not be, here)",
            )
        elif name in _RNG_CONSTRUCTORS and not node.args:
            yield finding(
                "Random() without a seed argument falls back to OS "
                "entropy; the stream cannot be replayed",
                location=ctx.locate(node),
                hint="pass an explicit seed — the repo idiom is a "
                "string key naming the stream and its parameters",
            )


#: Receiver names that identify a WorkCounters charge site
#: (``self.work.charge(...)``, ``counters.charge(...)``).
_COUNTER_RECEIVERS = frozenset({"work", "counters", "work_counters"})


def _registered_currencies() -> Tuple[frozenset, frozenset]:
    """(currency strings, constant names) of the shared registry.

    Imported lazily from :data:`repro.query.work.FUNCTIONS` so the lint
    plane always audits against the registry the runtime actually uses —
    adding a currency in one place updates the rule automatically.
    """
    from repro.query import work

    currencies = frozenset(work.FUNCTIONS)
    constants = frozenset(
        name for name in dir(work)
        if name.isupper() and getattr(work, name) in currencies
    )
    return currencies, constants


def _is_counter_receiver(func: ast.AST) -> bool:
    if not (isinstance(func, ast.Attribute) and func.attr == "charge"):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in _COUNTER_RECEIVERS
    if isinstance(receiver, ast.Name):
        return receiver.id in _COUNTER_RECEIVERS
    return False


@rule(
    "code-unregistered-currency",
    severity="warning",
    summary="WorkCounters charge of a currency not in the shared registry",
    scope="code",
)
def _check_unregistered_currency(ctx: CodeContext) -> Iterator[Diagnostic]:
    """Every charged currency must exist in ``repro.query.work.FUNCTIONS``.

    The work-unit registry is the shared vocabulary of the metrics JSON,
    the bench comparator, and the runlog: a charge under an unregistered
    name is invisible to ``query_summary`` (which iterates the
    registry), never gates a bench comparison, and reaches run records
    under a name no other export knows.  Charges through a string
    literal are checked against the registry values; ALL_CAPS name
    constants are checked against the registry's constant names (local
    variables and other expressions are unresolvable and skipped).
    """
    if ctx.tree is None:
        return
    currencies, constants = _registered_currencies()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if not _is_counter_receiver(node.func):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if first.value in currencies:
                continue
            charged = repr(first.value)
        elif isinstance(first, ast.Name) and first.id.isupper():
            if first.id in constants:
                continue
            charged = first.id
        else:
            continue  # dynamically computed currency: unresolvable
        yield finding(
            "charge of currency %s, which is not registered in "
            "repro.query.work.FUNCTIONS" % charged,
            location=ctx.locate(node),
            hint="register the currency constant in query/work.py so "
            "exporters, the bench comparator, and the runlog can see "
            "the work",
        )


# ----------------------------------------------------------------------
# Layering
# ----------------------------------------------------------------------
#: The package's layers, lowest first: the one table the import order
#: is read from (``docs/architecture.md``, "Layers").  A module may
#: import only modules of its own rank or lower (``code-upward-import``).
#: A key names a module and every module below it, and the longest
#: matching key wins; ``X.__init__`` names package ``X``'s init alone.
#: No key covers all of ``repro``, so a new subpackage or top-level
#: module is a finding until it is given a rank here.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    # 0: leaves any layer may import.
    (
        "repro.errors",
        "repro._atomic",
        "repro._exports",
        "repro.obs.__init__",
        "repro.obs.trace",
        "repro.obs.metrics",
        "repro.resilience.__init__",
        "repro.resilience.budget",
    ),
    # 1: the reduction (paper Steps 1-3) and the description format.
    ("repro.core", "repro.mdl"),
    # 2: machines, the contention query modules, statistics and the
    # pipeline simulator; the top-level init exports core and the
    # example machine.
    (
        "repro.__init__",
        "repro.machines",
        "repro.query",
        "repro.stats",
        "repro.simulate",
    ),
    # 3: the schedulers and automata that drive the query modules.
    ("repro.scheduler", "repro.automata"),
    # 4: kernels and loop suites, built as scheduler graphs.
    ("repro.workloads",),
    # 5: consumers of the whole pipeline.
    ("repro.resilience", "repro.analysis", "repro.obs"),
    # 6: tooling over the consumers.
    ("repro.lint", "repro.fuzz", "repro.bench"),
    # 7: entry points.
    ("repro.cli", "repro.commands", "repro.__main__"),
)

_RANKS: Dict[str, int] = {
    key: rank for rank, keys in enumerate(LAYERS) for key in keys
}


def layer_rank(module: str) -> Optional[int]:
    """Rank of dotted ``module`` in :data:`LAYERS` (``None``: unranked).

    A package's name stands for its init, as in ``sys.modules``.
    """
    rank = _RANKS.get(module + ".__init__")
    if rank is not None:
        return rank
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        rank = _RANKS.get(".".join(parts[:end]))
        if rank is not None:
            return rank
    return None


def _module_name(display_path: str) -> Optional[str]:
    """Dotted module name of a ``repro/...`` source path."""
    if not display_path.startswith("repro/"):
        return None
    if not display_path.endswith(".py"):
        return None
    parts = display_path[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_module(name: str) -> bool:
    """Whether dotted ``name`` is a module of the installed package."""
    base = os.path.join(default_code_root(), *name.split("."))
    return os.path.isfile(base + ".py") or os.path.isfile(
        os.path.join(base, "__init__.py")
    )


def _imported_modules(node: ast.AST, package: str) -> List[str]:
    """Every ``repro`` module an import statement runs.

    ``from X import name`` imports ``X.name`` too when that is a module,
    and importing ``repro.a.b`` runs the ``repro.a`` init first.  The
    top-level init is left out: Python runs it before any of them.
    """
    if isinstance(node, ast.Import):
        named = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            anchor = package.split(".")
            anchor = anchor[: len(anchor) - node.level + 1]
            base = ".".join(anchor + ([base] if base else []))
        named = [base] + [
            base + "." + alias.name
            for alias in node.names
            if _is_module(base + "." + alias.name)
        ]
    return _with_packages(named)


def _exported_modules(node: ast.AST, package: str) -> List[str]:
    """Every ``repro`` module an init's export table serves names from.

    ``export_table(__name__, {"key": (names...)})`` imports
    ``package.key`` on first use, or ``package.name`` for each name
    under the key ``""``; the rule ranks them like imports.
    """
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "export_table"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Dict)
    ):
        return []
    named = []
    for key, names in zip(node.args[1].keys, node.args[1].values):
        if not isinstance(key, ast.Constant):
            continue
        if key.value:
            named.append(package + "." + key.value)
        elif isinstance(names, (ast.Tuple, ast.List)):
            named.extend(
                package + "." + name.value for name in names.elts
                if isinstance(name, ast.Constant)
            )
    return _with_packages(named)


def _with_packages(named: Sequence[str]) -> List[str]:
    """``named``'s ``repro`` modules with the packages Python runs
    first, less the top-level init."""
    modules: List[str] = []
    for name in named:
        if not name.startswith("repro."):
            continue
        parts = name.split(".")
        modules.extend(
            ".".join(parts[:end]) for end in range(2, len(parts) + 1)
        )
    return list(dict.fromkeys(modules))


@rule(
    "code-upward-import",
    severity="error",
    summary="import of a higher-ranked module, or a module the layer "
    "table does not rank",
    scope="code",
)
def _check_upward_import(ctx: CodeContext) -> Iterator[Diagnostic]:
    """Imports point only down the paper's pipeline.

    Every module under ``repro`` has one rank in :data:`LAYERS`; an
    ``import`` or ``from`` statement naming a higher-ranked module is a
    finding wherever it stands — module level, inside a function, or
    under ``TYPE_CHECKING`` — because a lazy import hides a cycle
    rather than removing it.  For the same reason each module a package
    init's export table names counts as an import of that init.
    """
    module = _module_name(ctx.display_path)
    if ctx.tree is None or module is None:
        return
    own = layer_rank(module)
    if own is None:
        yield finding(
            "module %s has no rank in the layer table" % module,
            location=ctx.locate(),
            hint="give it a rank in LAYERS (repro/lint/code.py), the "
            "one source of the import order",
        )
        return
    if ctx.basename == "__init__.py":
        package = module
    else:
        package = module.rpartition(".")[0]
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            targets = _imported_modules(node, package)
        elif ctx.basename == "__init__.py":
            targets = _exported_modules(node, package)
        else:
            continue
        upward = []
        for target in targets:
            rank = layer_rank(target)
            if rank is not None and rank > own:
                upward.append("%s (rank %d)" % (target, rank))
        if not upward:
            continue
        yield finding(
            "%s (rank %d) imports %s; imports must point down the layer "
            "table" % (module, own, ", ".join(upward)),
            location=ctx.locate(node),
            hint="move the shared code down to the importer's rank or "
            "below, or change LAYERS in repro/lint/code.py; there are no "
            "per-file exceptions",
        )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def default_code_root() -> str:
    """Directory display paths are made relative to: the parent of the
    installed ``repro`` package, so findings read ``repro/core/x.py``."""
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    return os.path.dirname(package_dir)


def default_code_paths() -> List[str]:
    """What ``repro lint --code`` scans by default: the package itself."""
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise LintConfigError(
                "lint --code path %r is neither a file nor a directory"
                % path
            )
    return sorted(dict.fromkeys(os.path.abspath(f) for f in files))


def _display_path(path: str, root: Optional[str]) -> str:
    if root:
        relative = os.path.relpath(path, os.path.abspath(root))
        if not relative.startswith(".."):
            return relative.replace(os.sep, "/")
    return os.path.basename(path)


def lint_code_paths(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
    severity_overrides: Optional[Mapping[str, str]] = None,
    baseline=None,
    options: Optional[Mapping[str, object]] = None,
    root: Optional[str] = None,
) -> LintReport:
    """Run the code-plane rules over Python sources.

    Parameters mirror :func:`~repro.lint.registry.lint_machine`;
    ``paths`` defaults to the installed ``repro`` package and ``root``
    to its parent (making display paths read ``repro/...``).  Files
    that fail to parse yield an ``invalid-source`` error diagnostic
    instead of aborting the run.  Returns one aggregate report under
    the machine name ``"code"``, sorted byte-deterministically.
    """
    if paths is None:
        paths = default_code_paths()
    if root is None:
        root = default_code_root()
    files = iter_python_files(paths)
    diagnostics: List[Diagnostic] = []
    rules_run: Tuple[str, ...] = ()
    suppressed = 0
    for path in files:
        display = _display_path(path, root)
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        extra: List[Diagnostic] = []
        try:
            tree: Optional[ast.AST] = ast.parse(source, filename=display)
        except SyntaxError as exc:
            tree = None
            extra.append(
                Diagnostic(
                    rule=INVALID_SOURCE_RULE,
                    severity="error",
                    message="file does not parse: %s" % (exc.msg or exc),
                    location=Location(file=display, line=exc.lineno),
                    hint="fix the syntax error before code rules can run",
                )
            )
        ctx = CodeContext(path, display, source, tree, options=options)
        report = _run(
            ctx, CODE_REPORT_NAME, rules, severity_overrides, baseline,
            extra=extra,
        )
        diagnostics.extend(report.diagnostics)
        suppressed += report.suppressed
        if report.rules_run:
            rules_run = report.rules_run
    return LintReport(
        machine=CODE_REPORT_NAME,
        diagnostics=diagnostics,
        rules_run=rules_run,
        suppressed=suppressed,
    ).sorted()


__all__ = [
    "CODE_REPORT_NAME",
    "CodeContext",
    "INVALID_SOURCE_RULE",
    "LAYERS",
    "default_code_paths",
    "default_code_root",
    "iter_python_files",
    "layer_rank",
    "lint_code_paths",
]
