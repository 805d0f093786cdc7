"""Dependency-free progress reporting with rate and ETA.

A :class:`ProgressReporter` has two faces:

* a **callable** ``(done, total)`` — the shape the campaign drivers call
  once per injection, so any plain function works in its place;
* a **renderer** that throttles carriage-return updates to a stream
  (stderr for the CLI) and fires an optional ``callback(reporter)`` on
  every advance for programmatic consumers.

With ``heartbeat_s`` set, carriage-return rendering is replaced by
periodic newline-terminated heartbeat lines carrying a *rolling*
rate (computed over the recent window, not since campaign start) and
ETA — the log-friendly mode for long unattended campaigns.  ``close()``
always flushes a final heartbeat so short campaigns aren't silent.

Injections are not uniform work units: fault depth and checkpoint
skipping make per-injection cost drift over a campaign (deep sites cost
more), so an ETA from the injection *count* rate is systematically wrong
on deep kernels.  Drivers that know the cumulative **effective-
instruction** total can feed it via :meth:`note_work`; the ETA then
projects remaining work in instructions and divides by the rolling
instruction rate, falling back to the count-based estimate when no work
units were reported.
"""

from __future__ import annotations

import time
from collections import deque


class ProgressReporter:
    """Tracks completed work and renders ``done/total rate eta`` lines."""

    def __init__(
        self,
        total: int | None = None,
        label: str = "",
        callback=None,
        stream=None,
        min_interval_s: float = 0.2,
        clock=time.monotonic,
        heartbeat_s: float | None = None,
    ) -> None:
        self.total = total
        self.label = label
        self.callback = callback
        self.stream = stream
        self.min_interval_s = min_interval_s
        self.heartbeat_s = heartbeat_s
        self._clock = clock
        self.done = 0
        self.started_at: float | None = None
        self._last_render = -float("inf")
        self._rendered = False
        self._last_heartbeat = -float("inf")
        self.heartbeats_emitted = 0
        #: Cumulative work units (effective instructions) reported via
        #: :meth:`note_work`; 0 means "count injections instead".
        self.work_done = 0
        # (timestamp, done, work) samples for the rolling rates; span kept
        # to roughly two heartbeat periods so rates track recent speed.
        self._window: deque[tuple[float, int, int]] = deque()

    # ------------------------------------------------------------ updates

    def start(self) -> None:
        if self.started_at is None:
            self.started_at = self._clock()

    def update(self, n: int = 1) -> None:
        """Advance by ``n`` completed units."""
        self.start()
        self.done += n
        self._after_advance()

    def __call__(self, done: int, total: int | None = None) -> None:
        """Campaign-driver hook: absolute position, optional total."""
        self.start()
        self.done = done
        if total is not None:
            self.total = total
        self._after_advance()

    def note_work(self, units: int | float) -> None:
        """Report the cumulative work-unit total (absolute, monotonic).

        Campaign drivers call this with the running effective-instruction
        count *before* the positional ``(done, total)`` call, so the next
        window sample pairs the two.  Ignored when ``units`` does not
        advance the known total — an uninstrumented campaign reporting 0
        keeps the count-based ETA.
        """
        if units > self.work_done:
            self.work_done = int(units)

    def _after_advance(self) -> None:
        if self.callback is not None:
            self.callback(self)
        now = self._clock()
        self._window.append((now, self.done, self.work_done))
        span = (self.heartbeat_s or self.min_interval_s) * 2
        while len(self._window) > 2 and now - self._window[0][0] > span:
            self._window.popleft()
        if self.stream is None:
            return
        if self.heartbeat_s is not None:
            if now - self._last_heartbeat >= self.heartbeat_s:
                self._emit_heartbeat(now)
            return
        finished = self.total is not None and self.done >= self.total
        if finished or now - self._last_render >= self.min_interval_s:
            self.stream.write("\r" + self.render_line())
            self.stream.flush()
            self._last_render = now
            self._rendered = True

    def _emit_heartbeat(self, now: float) -> None:
        self.stream.write(self.render_heartbeat() + "\n")
        self.stream.flush()
        self._last_heartbeat = now
        self.heartbeats_emitted += 1

    def close(self) -> None:
        """Final render plus newline, so the shell prompt stays clean.

        In heartbeat mode a final heartbeat is always flushed — campaigns
        shorter than one ``heartbeat_s`` period still report their rate.
        """
        if self.stream is None:
            return
        if self.heartbeat_s is not None:
            self._emit_heartbeat(self._clock())
            return
        if not self._rendered:
            self.stream.write(self.render_line())
        else:
            self.stream.write("\r" + self.render_line())
        self.stream.write("\n")
        self.stream.flush()

    def __enter__(self) -> "ProgressReporter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- stats

    @property
    def elapsed_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return self._clock() - self.started_at

    @property
    def rate(self) -> float:
        """Completed units per second (0 until the clock has advanced)."""
        elapsed = self.elapsed_s
        return self.done / elapsed if elapsed > 0 else 0.0

    @property
    def rolling_rate(self) -> float:
        """Units/second over the recent sample window (falls back to the
        cumulative :attr:`rate` until two window samples exist)."""
        if len(self._window) >= 2:
            (t0, d0, _), (t1, d1, _) = self._window[0], self._window[-1]
            if t1 > t0:
                return (d1 - d0) / (t1 - t0)
        return self.rate

    @property
    def rolling_work_rate(self) -> float:
        """Work units (effective instructions)/second over the window."""
        if len(self._window) >= 2:
            (t0, _, w0), (t1, _, w1) = self._window[0], self._window[-1]
            if t1 > t0:
                return (w1 - w0) / (t1 - t0)
        elapsed = self.elapsed_s
        return self.work_done / elapsed if elapsed > 0 else 0.0

    @property
    def eta_s(self) -> float | None:
        """Seconds remaining, or None when total/rate are unknown.

        Prefers the work-unit projection when :meth:`note_work` has been
        fed: remaining work is estimated by scaling the observed
        work-per-injection to the remaining injection count, then divided
        by the rolling work rate — so a campaign whose later injections
        are cheaper (warm checkpoints) or dearer (deep prefixes) projects
        from cost actually remaining, not injection count.
        """
        if self.total is None:
            return None
        if 0 < self.done < self.total and self.work_done > 0:
            work_rate = self.rolling_work_rate
            if work_rate > 0:
                projected_total = self.work_done * (self.total / self.done)
                return max(0.0, (projected_total - self.work_done) / work_rate)
        rate = self.rolling_rate or self.rate
        if rate == 0:
            return None
        return max(0.0, (self.total - self.done) / rate)

    def render_line(self) -> str:
        prefix = f"{self.label}: " if self.label else ""
        if self.total:
            pct = 100.0 * self.done / self.total
            line = f"{prefix}{self.done}/{self.total} ({pct:5.1f}%)"
        else:
            line = f"{prefix}{self.done}"
        if self.rate > 0:
            line += f" {self.rate:8.1f}/s"
        eta = self.eta_s
        if eta is not None:
            line += f" eta {_format_duration(eta)}"
        return line

    def render_heartbeat(self) -> str:
        prefix = f"{self.label}: " if self.label else ""
        if self.total:
            pct = 100.0 * self.done / self.total
            line = f"{prefix}heartbeat {self.done}/{self.total} ({pct:5.1f}%)"
        else:
            line = f"{prefix}heartbeat {self.done}"
        line += f" {self.rolling_rate:.1f}/s"
        work_rate = self.rolling_work_rate
        if self.work_done > 0 and work_rate > 0:
            line += f" {work_rate / 1e6:.2f}Minsn/s"
        eta = self.eta_s
        if eta is not None:
            line += f" eta {_format_duration(eta)}"
        return line


def _format_duration(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
