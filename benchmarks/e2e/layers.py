"""Per-layer timing of the traced pass, taken from outside the library.

The traced child wraps a fixed list of public names at the module
attribute where their callers look them up, so ``reduce_machine`` and
the schedulers run their real orchestration while each inner layer is
timed.  Every built query module is returned inside :class:`TimedModule`,
which times each public method call.  :class:`StackSampler` attributes
wall time to the leaf-most ``repro.*`` module of the main thread.

Nothing here is imported by an untraced pass.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: ``(module, attribute path, layer)``: what the traced pass wraps.  The
#: ``matrix`` layer is resolved per call (see :meth:`LayerClock.matrix_layer`).
HOOKS = (
    ("repro.core.reduce", "build_generating_set", "reduce.generating"),
    ("repro.core.reduce", "prune_covered_resources", "reduce.prune"),
    ("repro.core.reduce", "select_resources", "reduce.select"),
    ("repro.core.reduce", "machine_from_selection", "reduce.materialize"),
    ("repro.core.forbidden", "ForbiddenLatencyMatrix.from_machine", "matrix"),
    ("repro.core.generating", "elementary_pairs", "reduce.pairs"),
    ("repro.scheduler.modulo", "min_ii", "sched.mii"),
    ("repro.scheduler.modulo", "make_query_module", "query.build"),
    ("repro.scheduler.corpus", "make_query_module", "query.build"),
)

#: Layers whose result size is the work count they report.
SIZE_COUNTS = {
    "reduce.generating": "reduce.generating_size",
    "reduce.prune": "reduce.pruned_size",
    "reduce.pairs": "reduce.pairs",
}


class LayerClock:
    """Seconds, calls and work counts accumulated per layer."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._matrices_in_reduce: Optional[int] = None

    @contextmanager
    def reducing(self) -> Iterator[None]:
        """Mark one ``reduce_machine`` call, so matrix builds inside it
        split into Step 1 (the first) and verification (the rest)."""
        self._matrices_in_reduce = 0
        try:
            yield
        finally:
            self._matrices_in_reduce = None

    def matrix_layer(self) -> str:
        if self._matrices_in_reduce is None:
            return "sched.matrix"
        self._matrices_in_reduce += 1
        if self._matrices_in_reduce == 1:
            return "reduce.forbidden"
        return "reduce.verify"

    def timed(
        self, layer: str, fn: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """``fn`` with its wall time and calls charged to ``layer``;
        ``after(result)`` runs outside the timed interval."""
        seconds, calls = self.seconds, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[layer] += clock() - start
                calls[layer] += 1
            return after(result) if after is not None else result

        return wrapper

    def wrap(self, layer: str, fn: Callable) -> Callable:
        if layer == "matrix":
            def matrix(*args, **kwargs):
                return self.timed(self.matrix_layer(), fn)(*args, **kwargs)

            return matrix
        if layer == "query.build":
            return self.timed(layer, fn, lambda module: TimedModule(module, self))
        count = SIZE_COUNTS.get(layer)
        if count is not None:
            def size(result):
                self.counts[count] += len(result)
                return result

            return self.timed(layer, fn, size)
        return self.timed(layer, fn)


class TimedModule:
    """A query module whose public method calls are timed as ``query.<fn>``.

    Attribute reads and writes go to the wrapped module, so a scheduler
    sees the same ``work`` counters and policy fields.  Evictions returned
    by ``assign_free`` are counted, since each is a reversed decision.
    """

    def __init__(self, inner, clock: LayerClock) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_clock", clock)

    def __getattr__(self, name: str):
        value = getattr(self._inner, name)
        if name.startswith("_") or not callable(value):
            return value
        after = None
        if name == "assign_free":
            counts = self._clock.counts

            def after(result):
                counts["query.evicted"] += len(result[1])
                return result

        wrapped = self._clock.timed("query." + name, value, after)
        object.__setattr__(self, name, wrapped)
        return wrapped

    def __setattr__(self, name: str, value) -> None:
        setattr(self._inner, name, value)


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted path, or ``None`` if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if attribute not in vars(owner):
        return None
    return owner, attribute


@contextmanager
def hooked(clock: LayerClock, hooks=HOOKS) -> Iterator[LayerClock]:
    """Install every hook for the duration of the block.

    A hook whose name no longer exists is skipped and listed in
    ``clock.missing`` so its layer reports ``null``; every installed hook
    is restored on exit, including when the block raises.
    """
    saved = []
    try:
        for module_name, path, layer in hooks:
            found = _resolve(module_name, path)
            if found is None:
                clock.missing.append(layer)
                print(
                    "warning: %s.%s not found; its layer reports null"
                    % (module_name, path),
                    file=sys.stderr,
                )
                continue
            owner, attribute = found
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(clock.wrap(layer, original.__func__))
            else:
                replacement = clock.wrap(layer, original)
            setattr(owner, attribute, replacement)
            saved.append((owner, attribute, original))
        yield clock
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


class StackSampler:
    """Counts, every ``period`` seconds, the leaf-most ``repro.*`` module on
    one thread's stack (``outside`` when no library frame is active)."""

    def __init__(self, thread_id: int, period: float = 0.001) -> None:
        self.thread_id = thread_id
        self.period = period
        self.counts: Counter = Counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "StackSampler":
        # The sampler only runs when the main thread drops the interpreter
        # lock.  At the default 5 ms switch interval most drops are native
        # calls that release it (numpy), which piles samples there; a 1 us
        # interval hands the lock over almost as soon as a tick is due.
        # Some bias toward numpy-calling modules remains.
        self._interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            frame = sys._current_frames().get(self.thread_id)
            module = "outside"
            while frame is not None:
                name = frame.f_globals.get("__name__", "")
                if name.startswith("repro."):
                    module = name
                    break
                frame = frame.f_back
            self.counts[module] += 1
