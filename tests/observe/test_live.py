"""Live campaign control plane: aggregation, equivalence, front-ends.

The standing invariant under test: the live plane is *advisory* — a
campaign with streaming telemetry attached (serial or pooled, any
backend) produces a byte-identical outcome profile to one without.  On
top of that, the units: delta-record construction, rolling aggregation,
convergence, flight-recorder dumps, the HTTP/status-file front-ends and
the ``repro watch`` loop.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import FaultInjector, load_instance, random_campaign, run_campaign
from repro.errors import FaultInjectionError, ReproError
from repro.faults.site import FaultSite
from repro.observe.live import (
    DEFAULT_RING_SIZE,
    LIVE_STATUS_VERSION,
    FlightRecorder,
    LiveAggregator,
    LiveChannel,
    check_convergence,
    load_flight_dump,
    max_half_width,
    render_live,
)
from repro.observe.statusd import StatusFileWriter, StatusServer, watch
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import MemorySink, Telemetry

START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

N_SITES = 40
SEED = 17


def make_runner(workers: int, chunk_size: int = 8) -> ParallelCampaignRunner:
    return ParallelCampaignRunner(
        workers, chunk_size=chunk_size, start_method=START_METHOD
    )


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def injection_record(
    worker: str = "w1",
    outcome: str = "masked",
    dyn_index: int = 5,
    duration_s: float = 0.01,
    **extra,
) -> dict:
    record = {
        "kind": "injection",
        "worker": worker,
        "ts": 0.0,
        "outcome": outcome,
        "thread": 0,
        "dyn_index": dyn_index,
        "duration_s": duration_s,
        "effective_instructions": 100,
        "spliced_instructions": 0,
        "checkpoint_hits": 0,
        "resync_hits": 0,
    }
    record.update(extra)
    return record


class TestConvergenceMath:
    def test_no_samples_is_unconverged(self):
        assert max_half_width({}, 0) is None
        assert not check_convergence({}, 0, until_ci=0.5)

    def test_width_shrinks_with_n(self):
        counts_small = {"masked": 5, "sdc": 5}
        counts_big = {"masked": 500, "sdc": 500}
        assert max_half_width(counts_big, 1000) < max_half_width(counts_small, 10)

    def test_convergence_threshold(self):
        counts = {"masked": 500, "sdc": 300, "crash": 200}
        width = max_half_width(counts, 1000)
        assert check_convergence(counts, 1000, until_ci=width + 1e-9)
        assert not check_convergence(counts, 1000, until_ci=width / 2)

    def test_deterministic_for_fixed_counts(self):
        counts = {"masked": 40, "crash": 8}
        assert max_half_width(counts, 48) == max_half_width(dict(counts), 48)


class TestLiveChannel:
    def test_note_ships_counter_deltas(self):
        telemetry = Telemetry(sink=MemorySink())
        pushed: list[dict] = []
        channel = LiveChannel(pushed.append, "w1", metrics=telemetry.metrics)
        telemetry.count("work.effective_instructions", 120)
        site = FaultSite(thread=3, dyn_index=9, bit=1)

        class Outcome:
            value = "sdc"

        channel.note(site, Outcome(), duration_s=0.5)
        telemetry.count("work.effective_instructions", 30)
        telemetry.count("work.spliced_instructions", 7)
        channel.note(site, Outcome(), duration_s=0.25)

        injections = [r for r in pushed if r["kind"] == "injection"]
        assert [r["effective_instructions"] for r in injections] == [120, 30]
        assert [r["spliced_instructions"] for r in injections] == [0, 7]
        assert injections[0]["thread"] == 3
        assert injections[0]["dyn_index"] == 9

    def test_resync_counters_reanchors_after_registry_reset(self):
        telemetry = Telemetry(sink=MemorySink())
        pushed: list[dict] = []
        channel = LiveChannel(pushed.append, "w1", metrics=telemetry.metrics)
        telemetry.count("work.effective_instructions", 50)
        telemetry.metrics.__init__()  # the worker chunk-reset idiom
        channel.resync_counters()
        telemetry.count("work.effective_instructions", 10)
        site = FaultSite(thread=0, dyn_index=0, bit=0)

        class Outcome:
            value = "masked"

        channel.note(site, Outcome(), duration_s=0.1)
        injections = [r for r in pushed if r["kind"] == "injection"]
        assert injections[-1]["effective_instructions"] == 10

    def test_ring_is_bounded(self):
        channel = LiveChannel(lambda record: None, "w1", ring_size=4)
        site = FaultSite(thread=0, dyn_index=0, bit=0)

        class Outcome:
            value = "masked"

        for _ in range(10):
            channel.note(site, Outcome(), duration_s=0.0)
        assert len(channel.ring) == 4

    def test_broken_push_never_raises(self):
        def explode(record):
            raise OSError("queue torn down")

        channel = LiveChannel(explode, "w1")
        channel.online()
        site = FaultSite(thread=0, dyn_index=0, bit=0)

        class Outcome:
            value = "masked"

        channel.note(site, Outcome(), duration_s=0.0)
        channel.crash(site, ValueError("boom"))

    def test_crash_ships_ring_and_traceback(self):
        pushed: list[dict] = []
        channel = LiveChannel(pushed.append, "w2", ring_size=8)
        site = FaultSite(thread=1, dyn_index=2, bit=3)

        class Outcome:
            value = "crash"

        channel.note(site, Outcome(), duration_s=0.0)
        channel.crash(site, ValueError("boom"))
        crash = pushed[-1]
        assert crash["kind"] == "crash"
        assert crash["worker"] == "w2"
        assert "boom" in crash["error"]
        assert len(crash["ring"]) == 1


class TestLiveAggregator:
    def make(self, **kwargs):
        clock = FakeClock(1000.0)
        mono = FakeClock(0.0)
        kwargs.setdefault("clock", clock)
        kwargs.setdefault("monotonic", mono)
        aggregator = LiveAggregator(**kwargs)
        return aggregator, clock, mono

    def test_snapshot_counts_and_shares(self):
        aggregator, _, mono = self.make(total=10, kernel="k", until_ci=0.5)
        aggregator.begin()
        for outcome in ("masked", "masked", "sdc", "crash"):
            mono.advance(1.0)
            aggregator.record(injection_record(outcome=outcome))
        snap = aggregator.snapshot()
        assert snap["version"] == LIVE_STATUS_VERSION
        assert snap["done"] == 4
        assert snap["total"] == 10
        shares = {row["outcome"]: row for row in snap["outcomes"]}
        assert shares["masked"]["count"] == 2
        assert shares["masked"]["share"] == pytest.approx(0.5)
        assert shares["masked"]["ci_low"] is not None
        assert snap["throughput"]["effective_instructions"] == 400

    def test_rolling_rate_uses_recent_window(self):
        aggregator, _, mono = self.make()
        aggregator.begin()
        for _ in range(5):
            mono.advance(2.0)
            aggregator.record(injection_record())
        assert aggregator.rolling_rate == pytest.approx(0.5)
        assert aggregator.rolling_effective_rate == pytest.approx(50.0)

    def test_eta_projection(self):
        aggregator, _, mono = self.make(total=100)
        aggregator.begin()
        for _ in range(10):
            mono.advance(1.0)
            aggregator.record(injection_record())
        snap = aggregator.snapshot()
        assert snap["eta_s"] == pytest.approx(90.0, rel=0.2)

    def test_worker_liveness_and_stall(self):
        aggregator, _, mono = self.make(stall_after_s=5.0)
        aggregator.begin()
        aggregator.record(injection_record(worker="a"))
        aggregator.record(injection_record(worker="b"))
        mono.advance(10.0)
        aggregator.record(injection_record(worker="b"))
        rows = {row["worker"]: row for row in aggregator.snapshot()["workers"]}
        assert rows["a"]["stalled"]
        assert not rows["b"]["stalled"]
        assert rows["b"]["done"] == 2

    def test_heartbeat_refreshes_liveness_without_counting(self):
        aggregator, _, mono = self.make(stall_after_s=5.0)
        aggregator.begin()
        aggregator.record(injection_record(worker="a"))
        mono.advance(10.0)
        aggregator.record(
            {"kind": "heartbeat", "worker": "a", "ts": 0.0, "done": 1,
             "state": "beat"}
        )
        rows = aggregator.snapshot()["workers"]
        assert not rows[0]["stalled"]
        assert aggregator.done == 1

    def test_convergence_signal_in_snapshot(self):
        aggregator, _, _ = self.make(until_ci=0.2)
        aggregator.begin()
        for _ in range(200):
            aggregator.record(injection_record(outcome="masked"))
        conv = aggregator.snapshot()["convergence"]
        assert conv["target"] == 0.2
        assert conv["converged"]
        assert conv["max_half_width"] < 0.2

    def test_crash_record_flips_worker_and_state(self):
        aggregator, _, _ = self.make()
        aggregator.begin()
        aggregator.record(
            {"kind": "crash", "worker": "a", "ts": 0.0, "site": "t0/i0/b0",
             "error": "ValueError('x')", "traceback": "tb", "ring": []}
        )
        aggregator.abort(ValueError("x"))
        snap = aggregator.snapshot()
        assert snap["state"] == "crashed"
        assert snap["crashes"][0]["worker"] == "a"

    def test_finish_states(self):
        aggregator, _, _ = self.make()
        aggregator.begin()
        aggregator.finish()
        assert aggregator.snapshot()["state"] == "done"
        aggregator, _, _ = self.make()
        aggregator.begin()
        aggregator.finish(converged=True)
        assert aggregator.snapshot()["state"] == "converged"

    def test_tertiles_split_by_depth(self):
        aggregator, _, _ = self.make()
        aggregator.begin()
        for depth in range(30):
            aggregator.record(
                injection_record(dyn_index=depth, duration_s=depth / 1000.0)
            )
        rows = {row["tertile"]: row for row in aggregator.snapshot()["tertiles"]}
        assert set(rows) == {"shallow", "middle", "deep"}
        assert rows["deep"]["mean_s"] > rows["shallow"]["mean_s"]

    def test_heartbeat_emits_event_into_telemetry(self):
        sink = MemorySink()
        telemetry = Telemetry(sink=sink)
        aggregator, _, _ = self.make()
        aggregator.begin(telemetry=telemetry)
        aggregator.record(
            {"kind": "heartbeat", "worker": "w1", "ts": 7.0, "done": 3,
             "state": "beat"}
        )
        beats = [e for e in sink.events if type(e).__name__ == "HeartbeatEvent"]
        assert len(beats) == 1
        assert beats[0].worker == "w1"
        assert beats[0].done == 3


class TestRenderLive:
    def test_dashboard_sections(self):
        aggregator = LiveAggregator(total=10, kernel="demo.k1", until_ci=0.3)
        aggregator.begin(label="random")
        for outcome in ("masked", "sdc", "crash", "masked"):
            aggregator.record(injection_record(outcome=outcome))
        text = render_live(aggregator.snapshot())
        assert "demo.k1" in text
        assert "state: running" in text
        assert "masked" in text and "sdc" in text
        assert "Wilson 95% CI" in text
        assert "workers:" in text
        assert "w1" in text

    def test_crash_rendered(self):
        aggregator = LiveAggregator()
        aggregator.begin()
        aggregator.record(
            {"kind": "crash", "worker": "w9", "ts": 0.0, "site": "t1/i2/b3",
             "error": "ValueError('dead')", "traceback": "", "ring": []}
        )
        assert "worker crash: w9" in render_live(aggregator.snapshot())


@pytest.fixture(scope="module")
def conv2d_serial():
    injector = FaultInjector(load_instance("2dconv.k1"), backend="interpreter")
    result = random_campaign(injector, N_SITES, rng=SEED)
    return result


class TestAdvisoryEquivalence:
    """Live-on campaigns must match live-off byte for byte."""

    @pytest.mark.parametrize("backend", ["interpreter", "compiled", "vectorized"])
    def test_serial_profiles_identical(self, conv2d_serial, backend):
        injector = FaultInjector(load_instance("2dconv.k1"), backend=backend)
        live = LiveAggregator()
        result = random_campaign(injector, N_SITES, rng=SEED, live=live)
        assert result.outcomes == conv2d_serial.outcomes
        assert result.profile.weights == conv2d_serial.profile.weights
        assert live.done == N_SITES
        assert "serial" in live.workers

    def test_pool_profiles_identical(self, conv2d_serial):
        injector = FaultInjector(load_instance("2dconv.k1"))
        live = LiveAggregator()
        result = random_campaign(
            injector, N_SITES, rng=SEED, executor=make_runner(2), live=live
        )
        assert result.outcomes == conv2d_serial.outcomes
        assert result.profile.weights == conv2d_serial.profile.weights
        assert live.done == N_SITES

    def test_pool_instrumented_profiles_identical(self, conv2d_serial):
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(load_instance("2dconv.k1"), telemetry=telemetry)
        live = LiveAggregator()
        result = random_campaign(
            injector, N_SITES, rng=SEED, executor=make_runner(2), live=live
        )
        assert result.outcomes == conv2d_serial.outcomes
        assert live.effective_instructions > 0
        counters = telemetry.metrics.snapshot()["counters"]
        assert live.effective_instructions == counters[
            "work.effective_instructions"
        ]

    def test_convergence_verdict_matches_across_executors(self):
        serial = random_campaign(
            FaultInjector(load_instance("2dconv.k1")),
            N_SITES,
            rng=SEED,
            until_ci=0.25,
            early_stop=True,
        )
        pooled = random_campaign(
            FaultInjector(load_instance("2dconv.k1")),
            N_SITES,
            rng=SEED,
            executor=make_runner(2),
            until_ci=0.25,
            early_stop=True,
        )
        assert serial.converged == pooled.converged
        assert serial.stopped_early == pooled.stopped_early
        assert serial.outcomes == pooled.outcomes

    def test_early_stop_truncates_sampled_campaign(self):
        injector = FaultInjector(load_instance("2dconv.k1"))
        result = random_campaign(
            injector, 200, rng=SEED, until_ci=0.3, early_stop=True
        )
        assert result.converged and result.stopped_early
        assert result.n_runs < 200
        # Without early stop the same campaign still reports the verdict.
        flagged = random_campaign(
            FaultInjector(load_instance("2dconv.k1")),
            200,
            rng=SEED,
            until_ci=0.3,
        )
        assert flagged.converged and not flagged.stopped_early
        assert flagged.n_runs == 200


class TestFlightRecorder:
    def crash_campaign(self, tmp_path, executor=None):
        dump_path = tmp_path / "flight.json"
        injector = FaultInjector(load_instance("2dconv.k1"))
        live = LiveAggregator()
        live.flight_recorder = FlightRecorder(dump_path)
        good = injector.space.sample(6, np.random.default_rng(3))
        bogus = FaultSite(thread=10**6, dyn_index=0, bit=0)
        with pytest.raises(FaultInjectionError):
            run_campaign(
                injector, list(good) + [bogus], executor=executor, live=live
            )
        return dump_path, live

    def test_serial_crash_writes_dump(self, tmp_path):
        dump_path, live = self.crash_campaign(tmp_path)
        assert dump_path.exists()
        dump = load_flight_dump(dump_path)
        assert dump["kind"] == "flight-recorder"
        assert dump["status"]["state"] == "crashed"
        assert "FaultInjectionError" in (dump["error"] or "")
        assert dump["traceback"]
        # The serial channel shipped its ring and crash context.
        assert dump["crashes"], "crash record missing from dump"
        assert dump["crashes"][0]["ring"]
        assert live.snapshot()["state"] == "crashed"

    def test_pool_crash_writes_dump(self, tmp_path):
        dump_path, _ = self.crash_campaign(tmp_path, executor=make_runner(2))
        dump = load_flight_dump(dump_path)
        assert dump["status"]["state"] == "crashed"
        assert dump["crashes"], "worker crash record missing from dump"
        assert dump["crashes"][0]["worker"].startswith(
            ("ForkPoolWorker", "SpawnPoolWorker", "ForkServerPoolWorker")
        )

    def test_load_rejects_non_dumps(self, tmp_path):
        path = tmp_path / "not-a-dump.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ReproError):
            load_flight_dump(path)
        newer = tmp_path / "newer.json"
        newer.write_text(
            json.dumps({"kind": "flight-recorder",
                        "version": LIVE_STATUS_VERSION + 1})
        )
        with pytest.raises(ReproError):
            load_flight_dump(newer)


class TestStatusServer:
    def serve(self):
        aggregator = LiveAggregator(total=4, kernel="demo.k1")
        aggregator.begin()
        aggregator.record(injection_record(outcome="masked"))
        server = StatusServer(aggregator, port=0)
        server.start()
        return aggregator, server

    def fetch(self, url: str) -> tuple[int, bytes]:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()

    def test_status_json(self):
        _, server = self.serve()
        try:
            status, body = self.fetch(server.url + "/status")
            assert status == 200
            snap = json.loads(body)
            assert snap["kernel"] == "demo.k1"
            assert snap["done"] == 1
        finally:
            server.stop()

    def test_html_dashboard_and_healthz(self):
        _, server = self.serve()
        try:
            status, body = self.fetch(server.url + "/")
            assert status == 200
            assert b"demo.k1" in body
            assert b"http-equiv" in body  # self-refreshing
            status, body = self.fetch(server.url + "/healthz")
            assert status == 200
        finally:
            server.stop()

    def test_404(self):
        _, server = self.serve()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                self.fetch(server.url + "/nope")
            assert err.value.code == 404
        finally:
            server.stop()


class TestStatusFileAndWatch:
    def test_writer_final_flush_records_terminal_state(self, tmp_path):
        path = tmp_path / "status.json"
        aggregator = LiveAggregator(kernel="demo.k1")
        aggregator.begin()
        writer = StatusFileWriter(aggregator, path, interval_s=60.0)
        writer.start()
        aggregator.record(injection_record())
        aggregator.finish()
        writer.stop()
        snap = json.loads(path.read_text())
        assert snap["state"] == "done"
        assert snap["done"] == 1

    def test_watch_once_renders_and_exits(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        aggregator = LiveAggregator(kernel="demo.k1")
        aggregator.begin()
        aggregator.record(injection_record())
        aggregator.finish()
        path.write_text(json.dumps(aggregator.snapshot()))
        assert watch(str(path), once=True) == 0
        out = capsys.readouterr().out
        assert "demo.k1" in out
        assert "state: done" in out

    def test_watch_json_mode(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        aggregator = LiveAggregator(kernel="demo.k1")
        aggregator.begin()
        path.write_text(json.dumps(aggregator.snapshot()))
        assert watch(str(path), once=True, as_json=True) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["kernel"] == "demo.k1"

    def test_watch_polls_until_terminal_state(self, tmp_path):
        path = tmp_path / "status.json"
        aggregator = LiveAggregator(kernel="demo.k1")
        aggregator.begin()
        ticks = {"n": 0}

        def fake_sleep(seconds):
            ticks["n"] += 1
            if ticks["n"] == 2:
                aggregator.finish(converged=True)
            path.write_text(json.dumps(aggregator.snapshot()))

        path.write_text(json.dumps(aggregator.snapshot()))
        stream = open(os.devnull, "w")
        try:
            code = watch(str(path), interval_s=0.0, stream=stream,
                         sleep=fake_sleep)
        finally:
            stream.close()
        assert code == 0
        assert ticks["n"] >= 2

    def test_watch_missing_target_times_out(self, tmp_path):
        clock = FakeClock(0.0)

        def fake_sleep(seconds):
            clock.advance(max(seconds, 1.0))

        code = watch(
            str(tmp_path / "never.json"),
            timeout_s=3.0,
            clock=clock,
            sleep=fake_sleep,
            stream=open(os.devnull, "w"),
        )
        assert code == 1

    def test_watch_crashed_campaign_exit_code(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        aggregator = LiveAggregator(kernel="demo.k1")
        aggregator.begin()
        aggregator.abort(ValueError("dead"))
        path.write_text(json.dumps(aggregator.snapshot()))
        assert watch(str(path), once=True) == 2


def test_default_ring_size_sane():
    assert DEFAULT_RING_SIZE >= 16
