"""Tests for the telemetry subsystem (registry, phases, trace, report).

Covers the properties the subsystem promises: exact counting under
concurrent writers, bounded-memory quantile accuracy, phase-timer
nesting, Chrome-trace JSON validity, and — the acceptance smoke test —
a 2-worker SEASGD run emitting all five eq.-(8) paper phases per worker
with main/update-thread overlap visible in the trace.
"""

import json
import logging
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.caffe.data import SyntheticImageDataset
from repro.caffe.models import scaled_spec
from repro.core.config import ShmCaffeConfig
from repro.core.trainer import DistributedTrainingManager
from repro.serve import ModelGateway
from repro.smb import ReplicaServer, SMBClient
from repro.smb.memory import DEFAULT_TENANT
from repro.smb.protocol import Op
from repro.smb.server import ServerStats, SMBServer
from repro.telemetry import (
    ALL_PHASES,
    MetricsRegistry,
    NULL_PHASE_TIMER,
    PAPER_PHASES,
    TelemetrySession,
    phase_metric,
)
from repro.telemetry.report import (
    format_report,
    load,
    report_from_session,
)
from repro.telemetry.logconfig import setup_logging


class TestRegistryThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 5000

        def writer():
            for _ in range(per_thread):
                registry.inc("hits")

        pool = [threading.Thread(target=writer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert registry.counter("hits").value == threads * per_thread

    def test_concurrent_histogram_observes_are_exact(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 2000

        def writer(seed):
            rng = np.random.default_rng(seed)
            for value in rng.uniform(0.0001, 1.0, per_thread):
                registry.observe("lat", float(value))

        pool = [
            threading.Thread(target=writer, args=(i,))
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        hist = registry.histogram("lat")
        assert hist.count == threads * per_thread
        assert 0.0001 <= hist.quantile(0.5) <= 1.0

    def test_concurrent_get_or_create_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def getter():
            barrier.wait()
            seen.append(registry.counter("shared"))

        pool = [threading.Thread(target=getter) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert all(c is seen[0] for c in seen)

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")


class TestHistogramQuantiles:
    def test_uniform_quantiles_within_bucket_error(self):
        hist = MetricsRegistry().histogram("h")
        rng = np.random.default_rng(42)
        values = rng.uniform(0.001, 1.0, 50_000)
        for value in values:
            hist.observe(float(value))
        values.sort()
        for q in (0.5, 0.95, 0.99):
            estimate = hist.quantile(q)
            truth = float(values[int(q * len(values)) - 1])
            assert abs(estimate - truth) / truth < 0.06, (q, estimate, truth)

    def test_bounded_memory(self):
        hist = MetricsRegistry().histogram("h")
        for value in np.geomspace(1e-7, 1e2, 100_000):
            hist.observe(float(value))
        # 9 decades at growth 1.1 is ~220 buckets, not 100k samples.
        assert len(hist._buckets) < 300

    def test_empty_and_single(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.quantile(0.5) == 0.0
        hist.observe(0.25)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["min"] <= snap["p50"] <= snap["max"]

    def test_quantile_never_exceeds_observed_range(self):
        hist = MetricsRegistry().histogram("h")
        for _ in range(100):
            hist.observe(0.01)
        assert hist.quantile(0.99) == pytest.approx(0.01)


class TestPhaseTimer:
    def test_records_histogram_per_phase(self):
        session = TelemetrySession("metrics")
        timer = session.phase_timer(3, "main")
        with timer.phase("comp"):
            pass
        snap = session.registry.snapshot()
        assert phase_metric(3, "comp") in snap
        assert snap[phase_metric(3, "comp")]["count"] == 1

    def test_nesting_records_both_levels_and_nests_trace(self):
        session = TelemetrySession("trace")
        timer = session.phase_timer(0, "main")
        with timer.phase("comp"):
            with timer.phase("rgw"):
                pass
        snap = session.registry.snapshot()
        assert snap[phase_metric(0, "comp")]["count"] == 1
        assert snap[phase_metric(0, "rgw")]["count"] == 1
        events = [
            e for e in session.trace.events() if e.get("ph") == "X"
        ]
        by_name = {e["name"]: e for e in events}
        outer, inner = by_name["comp"], by_name["rgw"]
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_disabled_session_returns_shared_null_timer(self):
        session = TelemetrySession("off")
        timer = session.phase_timer(0)
        assert timer is NULL_PHASE_TIMER
        with timer.phase("comp"):
            pass
        assert session.registry.snapshot() == {}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySession("everything")


class TestTraceExport:
    def test_export_is_valid_chrome_trace_json(self, tmp_path):
        session = TelemetrySession("trace")
        timer = session.phase_timer(1, "update")
        for _ in range(5):
            with timer.phase("wwi"):
                pass
        path = tmp_path / "trace.json"
        session.trace.export(str(path))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 5
        for event in complete:
            assert {"name", "cat", "pid", "tid", "ts", "dur"} <= set(event)
            assert event["pid"] == 1
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "worker 1") in names
        assert ("thread_name", "update") in names

    def test_buffer_is_bounded(self):
        session = TelemetrySession("trace", max_trace_events=10)
        timer = session.phase_timer(0)
        for _ in range(50):
            with timer.phase("comp"):
                pass
        assert len(session.trace) == 10
        assert session.trace.dropped == 40


class TestSessionScoping:
    def test_session_context_installs_and_restores(self):
        before = telemetry.current()
        with telemetry.session("metrics") as scoped:
            assert telemetry.current() is scoped
            assert scoped.enabled
        assert telemetry.current() is before

    def test_configure_replaces_current(self):
        from repro.telemetry import runtime

        original = telemetry.current()
        try:
            installed = telemetry.configure("metrics")
            assert telemetry.current() is installed
        finally:
            runtime._current = original  # restore for other tests


def _record_server(server):
    client = SMBClient.in_process(server, TelemetrySession("off"))
    array = client.create_array("w", 16)
    array.write(np.ones(16, dtype=np.float32))
    array.read()


def _serving_primary(**replica_kwargs):
    """A primary holding ``W_g`` and a replica of it; only the replica
    may record (where ``replica_kwargs`` says)."""
    quiet = TelemetrySession("off")
    server = SMBServer(capacity=1 << 20, telemetry=quiet)
    master = SMBClient.in_process(server, quiet)
    master.create_array("W_g", 16).write(np.ones(16, dtype=np.float32))
    replica = ReplicaServer(
        lambda: SMBClient.in_process(server, quiet), ["W_g"], name="r0",
        **replica_kwargs,
    )
    return master, replica


# Each builder makes one component under test (bound to whatever
# session is current) and returns (record, close, a metric it records).

def _build_server():
    server = SMBServer(capacity=1 << 20)
    return lambda: _record_server(server), lambda: None, "smb/server/ops/WRITE"


def _build_client():
    server = SMBServer(capacity=1 << 20, telemetry=TelemetrySession("off"))
    client = SMBClient.in_process(server)

    def record():
        array = client.create_array("w", 16)
        array.write(np.ones(16, dtype=np.float32))
    return record, client.close, "smb/client/time/WRITE"


def _build_replica():
    master, replica = _serving_primary()

    def record():
        replica.start()
        assert replica.wait_ready(5.0)
        replica.read("W_g")
    return record, lambda: (replica.stop(), master.close()), "serve/replica/reads"


def _build_gateway():
    master, replica = _serving_primary(telemetry=TelemetrySession("off"))
    gateway = ModelGateway([replica])

    def record():
        replica.start()
        assert replica.wait_ready(5.0)
        gateway.read(DEFAULT_TENANT, "W_g")
    return record, lambda: (replica.stop(), master.close()), "serve/gateway/reads"


class TestOneBinding:
    """A component records into the session it was built with."""

    def test_off_registry_records_nothing(self):
        registry = TelemetrySession("off").registry
        registry.inc("c")
        registry.set("g", 1.0)
        registry.observe("h", 0.5)
        registry.counter("c2").inc()
        assert registry.snapshot() == {}

    @pytest.mark.parametrize(
        "build", [_build_server, _build_client, _build_replica, _build_gateway],
        ids=["server", "client", "replica", "gateway"],
    )
    def test_records_into_the_session_it_was_built_in(self, build):
        with telemetry.session("metrics") as built_in:
            record, close, metric = build()
            try:
                with telemetry.session("metrics") as later:
                    record()
            finally:
                close()
        assert metric in built_in.registry.snapshot()
        assert later.registry.snapshot() == {}

    def test_a_server_built_outside_a_session_records_none_of_it(self):
        server = SMBServer(capacity=1 << 20)
        with telemetry.session("metrics") as tel:
            _record_server(server)
        assert tel.registry.snapshot() == {}


class TestServerStatsMigration:
    def test_counters_shape_preserved(self):
        stats = ServerStats()
        stats.record(Op.WRITE, 100)
        stats.record(Op.READ, 40)
        stats.record(Op.READ, 60)
        counters = stats.counters()
        assert counters["bytes_written"] == 100
        assert counters["bytes_read"] == 100
        assert counters["WRITE"] == 1
        assert counters["READ"] == 2

    def test_snapshot_alias_removed(self):
        # "snapshot" now belongs to the durability layer (a durable pool
        # image on disk); the deprecated stats alias is gone for good —
        # callers use counters().
        stats = ServerStats()
        assert not hasattr(stats, "snapshot")

    def test_byte_counters_and_op_counts_are_separate_namespaces(self):
        stats = ServerStats()
        stats.record(Op.READ, 1024)
        # The registry stores op counts under smb/server/ops/, so no
        # opcode can ever shadow the byte counters.
        assert stats.registry.counter("smb/server/ops/READ").value == 1
        assert stats.registry.counter("smb/server/bytes_read").value == 1024
        assert stats.op_counts == {"READ": 1}

    def test_server_folds_stats_into_session_registry(self):
        with telemetry.session("metrics") as tel:
            server = SMBServer(capacity=1 << 20, telemetry=tel)
            from repro.smb.client import SMBClient

            client = SMBClient.in_process(server, tel)
            array = client.create_array("x", 16)
            array.write(np.zeros(16, dtype=np.float32))
            snap = tel.registry.snapshot()
        assert snap["smb/server/ops/WRITE"]["value"] == 1
        assert "smb/server/time/WRITE" in snap
        assert "smb/client/time/WRITE" in snap
        assert snap["smb/server/bytes_written"]["value"] == 64


class TestSeasgdSmoke:
    """Acceptance: a 2-worker run emits the paper phases + trace.  The
    write side is one request, so its ``ugw`` span covers ``T_wwi +
    T_ugw`` and no ``wwi`` span is recorded."""

    @pytest.fixture(scope="class")
    def run_session(self):
        with telemetry.session("trace") as tel:
            dataset = SyntheticImageDataset(
                num_classes=4, image_size=8, train_per_class=20,
                test_per_class=5, seed=3,
            )
            manager = DistributedTrainingManager(
                spec_factory=lambda: scaled_spec(
                    "inception_v1", batch_size=4, image_size=8,
                    num_classes=4,
                ),
                config=ShmCaffeConfig(max_iterations=5),
                dataset=dataset,
                batch_size=4,
                num_workers=2,
                telemetry=tel,
            )
            result = manager.run()
            yield tel, result

    def test_all_five_phases_per_worker(self, run_session):
        tel, result = run_session
        # MASTER_STOP: the master runs exactly its target; the other
        # worker stops at the flag, however many iterations it managed.
        assert result.histories[0].completed_iterations >= 5
        assert all(h.completed_iterations >= 1 for h in result.histories)
        snap = tel.registry.snapshot()
        for worker in range(2):
            for phase in PAPER_PHASES:
                name = phase_metric(worker, phase)
                if phase == "wwi":
                    assert name not in snap, f"unexpected {name}"
                    continue
                assert name in snap, f"missing {name}"
                assert snap[name]["count"] > 0
        # The eq.-(8) stall is timed too.
        assert snap[phase_metric(0, "block")]["count"] > 0

    def test_control_traffic_is_timed_once_per_iteration(self, run_session):
        tel, result = run_session
        snap = tel.registry.snapshot()
        for worker, history in enumerate(result.histories):
            ctl = snap[phase_metric(worker, "ctl")]
            assert ctl["count"] == history.completed_iterations

    def test_trace_shows_main_and_update_threads(self, run_session):
        tel, _ = run_session
        events = tel.trace.events()
        lanes = {
            (e["pid"], e["tid"]) for e in events if e.get("ph") == "X"
        }
        for worker in range(2):
            assert (worker, 0) in lanes  # main thread
            assert (worker, 1) in lanes  # update thread
        json.dumps(tel.trace.to_dict())  # serialisable end-to-end

    def test_report_lists_every_phase(self, run_session):
        tel, _ = run_session
        meta = {"model": "inception_v1", "workers": 2,
                "platform": "shmcaffe_a"}
        text = report_from_session(tel, meta)
        assert "phase timings (eq. 8)" in text
        for phase in ALL_PHASES:
            if phase != "wwi":
                assert phase in text

    def test_save_and_reload_roundtrip(self, run_session, tmp_path):
        tel, _ = run_session
        paths = tel.save(
            str(tmp_path), {"model": "inception_v1", "workers": 2}
        )
        payload = load(paths["metrics"])
        assert payload["mode"] == "trace"
        text = format_report(payload)
        assert "phase timings (eq. 8)" in text
        with open(paths["trace"], "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]


class TestLogConfig:
    def test_accepts_known_levels(self):
        setup_logging("debug")
        assert logging.getLogger().level == logging.DEBUG
        setup_logging("warning")
        assert logging.getLogger().level == logging.WARNING

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            setup_logging("loud")
