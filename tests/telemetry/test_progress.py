"""Progress reporting: the aggregator's rate/ETA engine and the
``--progress`` line writer over its snapshot."""

import io
import time

import pytest

from repro.observe.live import LiveAggregator, render_progress_line
from repro.observe.statusd import ProgressWriter
from repro.telemetry import InjectionEvent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class TtyStream(io.StringIO):
    def isatty(self) -> bool:
        return True


def injection(effective: int = 100) -> InjectionEvent:
    return InjectionEvent(
        0.0, thread=0, dyn_index=0, bit=0, model="iov", outcome="masked",
        fast_path=True, duration_s=0.0, effective_instructions=effective,
    )


def make(total=None, clock=None, kernel="", label=""):
    clock = clock if clock is not None else FakeClock()
    aggregator = LiveAggregator(
        total=total, kernel=kernel, label=label, clock=clock, monotonic=clock
    )
    aggregator.begin()
    return aggregator, clock


def fold(aggregator, n: int, effective: int = 100) -> None:
    for _ in range(n):
        aggregator.fold(injection(effective))


class TestRateAndEta:
    def test_rate_and_eta_from_clock(self):
        aggregator, clock = make(total=100)
        clock.advance(10.0)
        fold(aggregator, 20)
        assert aggregator.rolling_rate == 2.0
        assert aggregator.eta_s == 40.0

    def test_eta_none_without_total_or_rate(self):
        aggregator, _ = make()
        fold(aggregator, 3)
        assert aggregator.eta_s is None
        untimed, _ = make(total=5)
        assert untimed.eta_s is None  # no progress yet -> rate 0

    def test_eta_clamps_at_zero_when_overshooting(self):
        aggregator, clock = make(total=10)
        clock.advance(1.0)
        fold(aggregator, 15)
        assert aggregator.eta_s == 0.0

    def test_work_projected_eta_follows_falling_cost(self):
        aggregator, clock = make(total=100)
        for _ in range(10):  # 1 s per injection of 1,000 instructions
            clock.advance(1.0)
            fold(aggregator, 1, effective=1000)
        assert aggregator.eta_s == pytest.approx(10_000 * 90 / 10 / 1000)
        for _ in range(20):  # same throughput, a tenth of the work each
            clock.advance(0.1)
            fold(aggregator, 1, effective=100)
        # Remaining work at the observed 400 instructions per injection,
        # over the rolling 1,000 instructions/s.
        assert aggregator.rolling_effective_rate == pytest.approx(1000.0)
        assert aggregator.eta_s == pytest.approx(12_000 * 70 / 30 / 1000)

    def test_count_eta_without_effective_instructions(self):
        aggregator, clock = make(total=100)
        clock.advance(10.0)
        fold(aggregator, 20, effective=0)
        assert aggregator.eta_s == 40.0


class TestRendering:
    def test_stream_gets_throttled_updates_and_final_line(self):
        aggregator, _ = make(total=4, kernel="k", label="inj")
        stream = io.StringIO()
        writer = ProgressWriter(aggregator, stream)
        fold(aggregator, 3)  # folds never write: only ticks do
        fold(aggregator, 1)
        aggregator.finish()
        writer.stop()
        text = stream.getvalue()
        assert text.startswith("k [inj]: 4/4 (100.0%)")
        assert text.endswith(" done\n")
        assert "2/4" not in text
        assert "3/4" not in text

    def test_render_line_without_total(self):
        aggregator, _ = make()
        fold(aggregator, 7)
        assert render_progress_line(aggregator.snapshot()).startswith("7")

    def test_tty_redraws_in_place(self):
        aggregator, _ = make(total=10, label="camp")
        stream = TtyStream()
        writer = ProgressWriter(aggregator, stream)
        assert writer.interval_s == 1.0
        writer.write_once()
        fold(aggregator, 5)
        writer.write_once()
        assert "\n" not in stream.getvalue()
        writer.stop()
        text = stream.getvalue()
        assert text.count("\r") == 3
        assert text.endswith("\n") and text.count("\n") == 1
        assert "5/10 ( 50.0%)" in text.split("\r")[-1]


class TestHeartbeat:
    def test_heartbeats_are_periodic_newline_lines(self):
        aggregator, _ = make(total=100, label="camp")
        fold(aggregator, 3)
        stream = io.StringIO()
        assert ProgressWriter(aggregator, stream).interval_s == 5.0
        writer = ProgressWriter(aggregator, stream, interval_s=0.01)
        writer.start()
        deadline = time.monotonic() + 10.0
        while stream.getvalue().count("\n") < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        writer.stop()
        lines = stream.getvalue().splitlines()
        assert len(lines) >= 4  # at least three ticks plus the final line
        assert all(line.startswith("[camp]: 3/100 (  3.0%)") for line in lines)
        assert "\r" not in stream.getvalue()

    def test_rolling_rate_tracks_recent_speed(self):
        aggregator, clock = make(total=1000)
        # 100 units in the first 10s, then a slowdown to 1 unit/s.
        clock.advance(10.0)
        fold(aggregator, 100)
        for _ in range(11):
            clock.advance(1.0)
            fold(aggregator, 1)
        # Cumulative rate still remembers the fast start...
        assert aggregator.done / aggregator.elapsed_s > 5.0
        # ...the rolling window reports the current pace.
        assert aggregator.rolling_rate == pytest.approx(1.0, rel=0.3)
        assert aggregator.eta_s == pytest.approx(
            (1000 - aggregator.done) / aggregator.rolling_rate
        )

    def test_close_always_flushes_final_heartbeat(self):
        aggregator, _ = make(total=3, label="camp")
        stream = io.StringIO()
        writer = ProgressWriter(aggregator, stream, interval_s=60.0)
        writer.start()
        fold(aggregator, 3)
        aggregator.finish()
        writer.stop()  # short campaign: stopping writes the 3/3 line
        lines = stream.getvalue().splitlines()
        assert lines == ["[camp]: 3/3 (100.0%) 0.0 inj/s done"]

    def test_intermediate_updates_between_beats_are_silent(self):
        aggregator, _ = make(total=100, label="camp")
        stream = io.StringIO()
        writer = ProgressWriter(aggregator, stream, interval_s=60.0)
        writer.start()
        fold(aggregator, 4)  # within the period: silent
        assert stream.getvalue() == ""
        writer.stop()
        assert aggregator.done == 4
        assert stream.getvalue().count("\n") == 1
