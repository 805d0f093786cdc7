"""Live campaign control plane: aggregation, equivalence, front-ends.

The standing invariant under test: the live plane is *advisory* — a
campaign with streaming telemetry attached (serial or pooled, any
backend) produces a byte-identical outcome profile to one without.  On
top of that, the units: folding injection events, rolling aggregation,
convergence, crash context and flight-recorder dumps, the
HTTP/status-file front-ends and the ``repro watch`` loop.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import (
    FaultInjector,
    ProgressivePruner,
    load_instance,
    random_campaign,
    run_campaign,
)
from repro.errors import FaultInjectionError, ReproError
from repro.faults.site import FaultSite
from repro.observe.live import (
    DEFAULT_RING_SIZE,
    LIVE_STATUS_VERSION,
    FlightRecorder,
    LiveAggregator,
    check_convergence,
    load_flight_dump,
    max_half_width,
    render_live,
)
from repro.observe.statusd import StatusFileWriter, StatusServer, watch
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import (
    NULL_TELEMETRY,
    CampaignEvent,
    InjectionEvent,
    MemorySink,
    NullSink,
    Telemetry,
)

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


def injection_event(
    worker: str | None = "w1",
    outcome: str = "masked",
    dyn_index: int = 5,
    duration_s: float = 0.01,
    effective_instructions: int = 100,
) -> InjectionEvent:
    return InjectionEvent(
        0.0,
        thread=0,
        dyn_index=dyn_index,
        bit=0,
        model="iov",
        outcome=outcome,
        fast_path=True,
        duration_s=duration_s,
        effective_instructions=effective_instructions,
        worker=worker,
    )


def crashed(worker: str, site: str, error: Exception, ring=None) -> Exception:
    """``error`` as the shared injection helper re-raises it."""
    error.crash_context = {
        "worker": worker, "site": site, "traceback": "tb", "ring": ring,
    }
    return error


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
            aggregator.fold(injection_event(outcome=outcome))
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
            aggregator.fold(injection_event())
        assert aggregator.rolling_rate == pytest.approx(0.5)
        assert aggregator.rolling_effective_rate == pytest.approx(50.0)

    def test_eta_projection(self):
        aggregator, _, mono = self.make(total=100)
        aggregator.begin()
        for _ in range(10):
            mono.advance(1.0)
            aggregator.fold(injection_event())
        snap = aggregator.snapshot()
        assert snap["eta_s"] == pytest.approx(90.0, rel=0.2)

    def test_worker_liveness_and_stall(self):
        aggregator, _, mono = self.make(stall_after_s=5.0)
        aggregator.begin()
        aggregator.fold(injection_event(worker="a"))
        aggregator.fold(injection_event(worker="b"))
        mono.advance(10.0)
        aggregator.fold(injection_event(worker="b"))
        rows = {row["worker"]: row for row in aggregator.snapshot()["workers"]}
        assert rows["a"]["stalled"]
        assert not rows["b"]["stalled"]
        assert rows["b"]["done"] == 2

    def test_slow_chunks_are_not_stalls(self):
        # A pool worker reports once per chunk; one whose chunks take 30 s
        # is judged against 3x its own gap, not the 10 s floor.
        aggregator, _, mono = self.make()
        aggregator.begin()
        for _ in range(2):
            mono.advance(30.0)
            for _ in range(4):
                aggregator.fold(injection_event(worker="slow"))
        mono.advance(20.0)
        (row,) = aggregator.snapshot()["workers"]
        assert not row["stalled"]
        mono.advance(71.0)  # 91 s silent > 3 x 30 s
        (row,) = aggregator.snapshot()["workers"]
        assert row["stalled"]

    def test_ring_is_bounded(self):
        aggregator, _, _ = self.make(ring_size=4)
        aggregator.begin()
        for depth in range(10):
            aggregator.fold(injection_event(dyn_index=depth))
        assert [event.dyn_index for event in aggregator.ring] == [6, 7, 8, 9]

    def test_checkpoint_hits_counted_from_begin(self):
        telemetry = Telemetry(sink=NullSink())
        telemetry.count("checkpoint.thread_hits", 5)  # an earlier campaign
        aggregator, _, _ = self.make()
        aggregator.begin(telemetry=telemetry)
        telemetry.count("checkpoint.thread_hits", 2)
        telemetry.count("checkpoint.cta_hits", 3)
        assert aggregator.snapshot()["throughput"]["checkpoint_hits"] == 5
        aggregator.finish()
        telemetry.count("checkpoint.cta_hits", 7)  # after detach: not counted
        assert aggregator.snapshot()["throughput"]["checkpoint_hits"] == 5

    def test_convergence_signal_in_snapshot(self):
        aggregator, _, _ = self.make(until_ci=0.2)
        aggregator.begin()
        for _ in range(200):
            aggregator.fold(injection_event(outcome="masked"))
        conv = aggregator.snapshot()["convergence"]
        assert conv["target"] == 0.2
        assert conv["converged"]
        assert conv["max_half_width"] < 0.2

    def test_crash_record_flips_worker_and_state(self):
        aggregator, _, _ = self.make()
        aggregator.begin()
        aggregator.abort(crashed("a", "t0/i0/b0", ValueError("x"), ring=[]))
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
            aggregator.fold(
                injection_event(dyn_index=depth, duration_s=depth / 1000.0)
            )
        rows = {row["tertile"]: row for row in aggregator.snapshot()["tertiles"]}
        assert set(rows) == {"shallow", "middle", "deep"}
        assert rows["deep"]["mean_s"] > rows["shallow"]["mean_s"]


class TestRenderLive:
    def test_dashboard_sections(self):
        aggregator = LiveAggregator(total=10, kernel="demo.k1", until_ci=0.3)
        aggregator.begin(label="random")
        for outcome in ("masked", "sdc", "crash", "masked"):
            aggregator.fold(injection_event(outcome=outcome))
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
        aggregator.abort(crashed("w9", "t1/i2/b3", ValueError("dead"), ring=[]))
        assert "worker crash: w9" in render_live(aggregator.snapshot())

    def test_weighted_view_has_no_ci_or_convergence_line(self):
        aggregator = LiveAggregator(total=2, kernel="demo.k1")
        aggregator.begin(label="pruned-estimate")
        aggregator.fold(
            CampaignEvent(0.0, phase="start", campaign="pruned-estimate",
                          n_sites=2, profile={"masked": 6.0})
        )
        aggregator.fold(injection_event(outcome="sdc"))
        snap = aggregator.snapshot()
        shares = {row["outcome"]: row for row in snap["outcomes"]}
        assert (shares["masked"]["count"], shares["masked"]["weight"]) == (0, 6.0)
        assert shares["sdc"]["share"] == pytest.approx(1 / 7)
        assert all(row["ci_low"] is None for row in snap["outcomes"])
        assert snap["convergence"]["max_half_width"] is None
        text = render_live(snap)
        assert "outcomes (weighted):" in text
        assert "Wilson" not in text and "convergence:" not in text


@pytest.fixture(scope="module")
def conv2d_serial():
    injector = FaultInjector(load_instance("2dconv.k1"), backend="interpreter")
    result = random_campaign(injector, N_SITES, rng=SEED)
    return result


class TestAdvisoryEquivalence:
    """Live-on campaigns must match live-off byte for byte."""

    @pytest.mark.parametrize("backend", ["interpreter", "compiled", "vectorized"])
    def test_serial_profiles_identical(self, conv2d_serial, backend):
        injector = FaultInjector(
            load_instance("2dconv.k1"),
            backend=backend,
            telemetry=Telemetry(sink=NullSink()),
        )
        live = LiveAggregator()
        result = random_campaign(injector, N_SITES, rng=SEED, live=live)
        assert result.outcomes == conv2d_serial.outcomes
        assert result.profile.weights == conv2d_serial.profile.weights
        assert live.done == N_SITES
        assert "serial" in live.workers

    def test_pool_profiles_identical(self, conv2d_serial):
        injector = FaultInjector(
            load_instance("2dconv.k1"), telemetry=Telemetry(sink=NullSink())
        )
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

    def test_pool_totals_match_parent_counters(self):
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(load_instance("pathfinder.k1"), telemetry=telemetry)
        live = LiveAggregator()
        random_campaign(
            injector, N_SITES, rng=SEED, executor=make_runner(2), live=live
        )
        counters = telemetry.metrics.snapshot()["counters"]
        assert live.done == counters["injections.total"] == N_SITES
        assert live.outcome_counts == {
            name.removeprefix("outcome."): count
            for name, count in counters.items()
            if name.startswith("outcome.")
        }
        assert live.effective_instructions == counters["work.effective_instructions"]
        assert sum(row["done"] for row in live.snapshot()["workers"]) == N_SITES
        assert set(live.workers) <= {
            name.split(".")[2] for name in counters
            if name.startswith("parallel.worker.")
        }


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

    def test_serial_early_stop_runs_exactly_what_it_reports(self):
        """A serial early stop executes, counts and shows live exactly the
        injections its profile holds, and each outcome streams at once."""
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(load_instance("mvt.k1"), telemetry=telemetry)
        assert injector.checkpoints is not None
        live = LiveAggregator(until_ci=0.03)
        events_at_first_progress = []

        def progress(done, total):
            if not events_at_first_progress:
                events_at_first_progress.append(
                    len(telemetry.sink.of_type(InjectionEvent))
                )

        result = random_campaign(
            injector,
            1068,
            rng=2018,
            until_ci=0.03,
            early_stop=True,
            live=live,
            progress=progress,
        )
        assert result.stopped_early
        counters = telemetry.metrics.snapshot()["counters"]
        assert (
            len(telemetry.sink.of_type(InjectionEvent))
            == counters["injections.total"]
            == live.done
            == result.profile.n_injections
        )
        assert events_at_first_progress == [1]

    def test_pooled_early_stop_records_only_what_it_classified(self):
        """A pooled early stop absorbs each injection's events just before
        its outcome, so the chunk it stops in adds no unclassified ones."""
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(load_instance("mvt.k1"), telemetry=telemetry)
        live = LiveAggregator(until_ci=0.03)
        result = random_campaign(
            injector,
            1068,
            rng=2018,
            until_ci=0.03,
            early_stop=True,
            executor=make_runner(2, chunk_size=32),
            live=live,
        )
        assert result.stopped_early
        assert (
            len(telemetry.sink.of_type(InjectionEvent))
            == live.done
            == result.profile.n_injections
            == 961
        )
        # The metrics merge whole chunks: the executed ones count.
        assert telemetry.metrics.counter_value("injections.total") == 992

    def test_pruned_campaign_live_view_is_the_profile(self):
        telemetry = Telemetry(sink=NullSink())
        injector = FaultInjector(load_instance("gaussian.k125"), telemetry=telemetry)
        space = ProgressivePruner(num_loop_iters=4, n_bits=4).prune(injector)
        live = LiveAggregator()
        profile = space.estimate_profile(injector, live=live)
        assert space.static_masked_weight > 0
        snap = live.snapshot()
        shares = {row["outcome"]: row["share"] for row in snap["outcomes"]}
        pct = profile.as_percentages()
        assert 100 * shares["masked"] == pytest.approx(pct["masked"], abs=1e-9)
        assert 100 * shares["sdc"] == pytest.approx(pct["sdc"], abs=1e-9)
        assert 100 * (shares["crash"] + shares["hang"]) == pytest.approx(
            pct["other"], abs=1e-9
        )
        assert snap["done"] == space.n_injections
        assert snap["state"] == "done"
        assert snap["convergence"]["max_half_width"] is None


class TestAttachment:
    def test_live_needs_enabled_telemetry(self):
        injector = FaultInjector(load_instance("2dconv.k1"))
        assert injector.telemetry is NULL_TELEMETRY
        with pytest.raises(ValueError, match="enabled Telemetry"):
            random_campaign(injector, 4, rng=SEED, live=LiveAggregator())

    def test_detached_after_campaign(self):
        telemetry = Telemetry(sink=NullSink())
        injector = FaultInjector(load_instance("2dconv.k1"), telemetry=telemetry)
        live = LiveAggregator()
        result = random_campaign(injector, 6, rng=SEED, live=live)
        assert telemetry.listener is None
        # A later injection (e.g. the coherence audit) is not campaign work.
        injector.inject(result.sites[0])
        assert live.done == 6
        assert live.snapshot()["state"] == "done"


class TestFlightRecorder:
    def crash_campaign(self, tmp_path, executor=None):
        dump_path = tmp_path / "flight.json"
        injector = FaultInjector(
            load_instance("2dconv.k1"), telemetry=Telemetry(sink=NullSink())
        )
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

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_pool_crash_under_fork_carries_chunk_ring(self, tmp_path):
        runner = ParallelCampaignRunner(2, chunk_size=8, start_method="fork")
        dump_path, _ = self.crash_campaign(tmp_path, executor=runner)
        (crash,) = load_flight_dump(dump_path)["crashes"]
        assert crash["worker"].startswith("ForkPoolWorker")
        assert crash["site"] == "t1000000/i0/b0"
        assert "FaultInjectionError" in crash["traceback"]
        # The chunk's six good sites ran before the bogus one (it sorts
        # last), so the worker's unshipped events form the ring.
        assert len(crash["ring"]) == 6
        assert {record["event"] for record in crash["ring"]} == {"injection"}

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
        aggregator.fold(injection_event(outcome="masked"))
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
        aggregator.fold(injection_event())
        aggregator.finish()
        writer.stop()
        snap = json.loads(path.read_text())
        assert snap["state"] == "done"
        assert snap["done"] == 1

    def test_watch_once_renders_and_exits(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        aggregator = LiveAggregator(kernel="demo.k1")
        aggregator.begin()
        aggregator.fold(injection_event())
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
