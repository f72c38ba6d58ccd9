"""The background sampling profiler: synthetic frames, tick counts,
collapsed export, and thread lifecycle."""

import threading
import time

import pytest

from repro.obs import trace as obs
from repro.obs.export import collapsed_stack_lines
from repro.obs.sampler import (
    DEFAULT_INTERVAL_S,
    StackSampler,
    frame_label,
    stack_path,
)


class FakeFrame:
    """Just enough of a frame object for the sampler: code + back link."""

    class _Code:
        def __init__(self, filename, name):
            self.co_filename = filename
            self.co_name = name

    def __init__(self, filename, name, back=None):
        self.f_code = self._Code(filename, name)
        self.f_back = back


def _stack(*labels):
    """Build a leaf frame whose chain reads root-first as ``labels``."""
    frame = None
    for filename, name in labels:
        frame = FakeFrame(filename, name, back=frame)
    return frame


def _frames_provider(mapping):
    """Frames provider keyed away from the calling thread's ident."""
    def provider():
        own = threading.get_ident()
        return {
            own + 1 + offset: frame
            for offset, frame in enumerate(mapping)
        }
    return provider


LEAF = _stack(
    ("/repo/src/repro/cli.py", "main"),
    ("/repo/src/repro/query/discrete.py", "check"),
)


class TestFrameHelpers:
    def test_frame_label_is_basename_and_function(self):
        assert frame_label(LEAF) == "discrete.py:check"

    def test_stack_path_is_root_first(self):
        assert stack_path(LEAF) == ("cli.py:main", "discrete.py:check")

    def test_stack_path_truncates_at_root_end(self):
        deep = _stack(*[("f.py", "fn%d" % i) for i in range(10)])
        path = stack_path(deep, max_depth=3)
        assert len(path) == 3
        assert path[-1] == "f.py:fn9"  # leaves always kept


class TestSampleOnce:
    def test_counts_accumulate_deterministically(self):
        sampler = StackSampler(frames=_frames_provider([LEAF]))
        assert sampler.sample_once() == 1
        assert sampler.sample_once() == 1
        assert sampler.counts == {
            ("cli.py:main", "discrete.py:check"): 2
        }
        assert sampler.samples == 2

    def test_own_thread_is_excluded(self):
        def provider():
            return {threading.get_ident(): LEAF}
        sampler = StackSampler(frames=provider)
        assert sampler.sample_once() == 0
        assert sampler.counts == {}

    def test_active_tracer_sees_no_sampler_ticks(self):
        # Sampler ticks are not query work: they count in the sampler
        # alone, never in the active tracer's registry.
        with obs.tracing() as tracer:
            sampler = StackSampler(frames=_frames_provider([LEAF, LEAF]))
            assert sampler.sample_once() == 2
        assert sampler.samples == 2
        assert tracer.metrics.counters == {}
        assert tracer.metrics.timers == {}

    def test_no_tracer_charges_nothing(self):
        sampler = StackSampler(frames=_frames_provider([LEAF]))
        assert sampler.sample_once() == 1  # accumulates, never raises

    def test_empty_snapshot_charges_nothing(self):
        sampler = StackSampler(frames=lambda: {})
        assert sampler.sample_once() == 0
        assert sampler.samples == 0
        assert sampler.counts == {}

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            StackSampler(interval_s=0)
        with pytest.raises(ValueError):
            StackSampler(interval_s=-1.0)


class TestCollapsedExport:
    def _sampler(self, ticks=3):
        sampler = StackSampler(
            interval_s=0.002, frames=_frames_provider([LEAF])
        )
        for _ in range(ticks):
            sampler.sample_once()
        return sampler

    def test_lines_are_rooted_and_weighted_in_microseconds(self):
        lines = self._sampler(ticks=3).collapsed_lines()
        assert lines == [
            "sampler;cli.py:main;discrete.py:check 6000"
        ]

    def test_custom_and_empty_root(self):
        sampler = self._sampler(ticks=1)
        assert sampler.collapsed_lines(root="bg")[0].startswith("bg;")
        assert sampler.collapsed_lines(root="")[0].startswith("cli.py:")

    def test_write_collapsed(self, tmp_path):
        out = tmp_path / "stacks.txt"
        self._sampler().write_collapsed(str(out))
        text = out.read_text()
        assert text.endswith("\n")
        assert "sampler;cli.py:main" in text

    def test_write_collapsed_empty_sampler(self, tmp_path):
        out = tmp_path / "stacks.txt"
        StackSampler(frames=lambda: {}).write_collapsed(str(out))
        assert out.read_text() == ""

    def test_merges_with_span_tracer_export(self):
        # The two exports share the microsecond unit, so one flamegraph
        # file can carry both (this is what `profile --sample` writes).
        tracer = obs.Tracer()
        with obs.tracing(tracer=tracer):
            with obs.span("phase", obs.CAT_PROFILE):
                pass
        merged = collapsed_stack_lines(tracer) + (
            self._sampler(ticks=1).collapsed_lines()
        )
        assert any(line.startswith("profile.phase ") for line in merged)
        assert any(line.startswith("sampler;") for line in merged)


class TestLifecycle:
    def test_background_thread_samples_and_stops(self):
        sampler = StackSampler(
            interval_s=0.001, frames=_frames_provider([LEAF])
        )
        with sampler:
            assert sampler.running
            deadline = time.monotonic() + 2.0
            while sampler.samples == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert not sampler.running
        assert sampler.samples > 0
        taken = sampler.samples
        time.sleep(0.01)
        assert sampler.samples == taken  # really stopped

    def test_start_is_idempotent(self):
        sampler = StackSampler(interval_s=0.001, frames=lambda: {})
        try:
            thread_one = sampler.start()._thread
            assert sampler.start()._thread is thread_one
        finally:
            sampler.stop()

    def test_stop_without_start_is_harmless(self):
        StackSampler(frames=lambda: {}).stop()

    def test_default_interval_is_sane(self):
        assert 0 < DEFAULT_INTERVAL_S <= 0.1

    def test_repr_mentions_state(self):
        sampler = StackSampler(frames=_frames_provider([LEAF]))
        sampler.sample_once()
        assert "1 samples" in repr(sampler)
        assert "stopped" in repr(sampler)
