"""Background sampling stack profiler (stdlib-only, off by default).

The span tracer only sees code that was instrumented; the sampler is its
complement for *un-instrumented* hot paths.  A daemon timer thread
periodically snapshots every other thread's Python stack via
:func:`sys._current_frames` and accumulates root-first collapsed stacks,
so a ``repro profile --sample`` flamegraph shows where wall time went
even inside plain library code.

Sampler ticks are not query work: they charge no work currency and
touch no tracer.  A sampler reports its ticks through
:attr:`StackSampler.samples` and its collapsed stacks only.

Determinism hooks for tests: the frames provider and the tick loop are
both injectable — call :meth:`StackSampler.sample_once` with a synthetic
frames mapping and no thread ever starts.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro._atomic import atomic_write_text

#: Default wall-clock seconds between samples.  5 ms keeps the sampler
#: under the <5% overhead guard with plenty of margin while still
#: collecting hundreds of stacks per second of profiled work.
DEFAULT_INTERVAL_S = 0.005
#: Stacks deeper than this are truncated at the root end; the leaf
#: frames (where time is actually spent) are always kept.
DEFAULT_MAX_DEPTH = 64


def frame_label(frame) -> str:
    """One collapsed-stack frame label: ``file.py:function``."""
    code = frame.f_code
    return "%s:%s" % (os.path.basename(code.co_filename), code.co_name)


def stack_path(frame, max_depth: int = DEFAULT_MAX_DEPTH) -> Tuple[str, ...]:
    """Root-first frame labels for one thread's current stack."""
    labels: List[str] = []
    while frame is not None and len(labels) < max_depth:
        labels.append(frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class StackSampler:
    """Periodic whole-process stack sampler.

    Parameters
    ----------
    interval_s:
        Seconds between samples; also the weight one sample contributes
        to the collapsed-stack export (a tick approximates
        ``interval_s`` of wall time on its stack).
    frames:
        Injectable provider returning a ``{thread_id: frame}`` mapping
        (the shape of :func:`sys._current_frames`).  Tests pass
        synthetic mappings for deterministic stacks.
    max_depth:
        Per-stack frame cap (root-end truncation).
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        frames: Optional[Callable[[], Dict[int, object]]] = None,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ):
        if interval_s <= 0:
            raise ValueError(
                "sampler interval must be positive, got %r" % interval_s
            )
        self.interval_s = interval_s
        self.max_depth = max_depth
        self._frames = frames if frames is not None else sys._current_frames
        self.counts: Dict[Tuple[str, ...], int] = {}
        self.samples = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- capture -------------------------------------------------------
    def sample_once(self) -> int:
        """Capture one snapshot of every other thread; returns stacks kept."""
        own = threading.get_ident()
        captured = 0
        for thread_id, frame in list(self._frames().items()):
            if thread_id == own:
                continue
            path = stack_path(frame, self.max_depth)
            if not path:
                continue
            self.counts[path] = self.counts.get(path, 0) + 1
            captured += 1
        self.samples += captured
        return captured

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackSampler":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5 * self.interval_s + 1.0)

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- export --------------------------------------------------------
    def collapsed_lines(self, root: str = "sampler") -> List[str]:
        """Collapsed-stack lines weighted in estimated microseconds.

        Each sample approximates ``interval_s`` of wall time, so values
        share the unit of the span tracer's collapsed export and the two
        merge into one flamegraph.  Every stack is rooted under ``root``
        so sampled frames stay distinguishable from instrumented spans.
        """
        interval_us = self.interval_s * 1e6
        lines = []
        for path in sorted(self.counts):
            value = int(round(self.counts[path] * interval_us))
            if value <= 0:
                continue
            frames = (root,) + path if root else path
            lines.append("%s %d" % (";".join(frames), value))
        return lines

    def write_collapsed(self, path: str, root: str = "sampler") -> None:
        """Write the collapsed export to ``path`` (``"-"`` for stdout)."""
        lines = self.collapsed_lines(root=root)
        text = "\n".join(lines) + "\n" if lines else ""
        if path == "-":
            sys.stdout.write(text)
            return
        atomic_write_text(path, text)

    def __repr__(self) -> str:
        return "StackSampler(%d samples, %d stacks, %s)" % (
            self.samples,
            len(self.counts),
            "running" if self.running else "stopped",
        )


__all__ = [
    "DEFAULT_INTERVAL_S",
    "DEFAULT_MAX_DEPTH",
    "StackSampler",
    "frame_label",
    "stack_path",
]
