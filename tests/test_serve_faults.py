"""Tests for the seeded serving fault layer.

Covers the plan/injector vocabulary (:mod:`repro.serve.faults`,
:mod:`repro.ir.faults`), the protocol's framing hardening
(:class:`~repro.serve.protocol.FrameAssembler`, oversized and torn
frames), the daemon's in-process wire chaos, the client's resilience
posture, and the backend failover ladder.
"""

import socket
import threading
import time

import pytest

from repro.common.errors import BackendUnavailableError, ReproError
from repro.ir.faults import BackendFaultPlan, FaultyBackend
from repro.serve import (
    ERR_OVERSIZED,
    FaultInjector,
    FrameAssembler,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeFaultPlan,
    ServerThread,
    encode_message,
)
from repro.serve.faults import garbage_line


# ----------------------------------------------------------------------
# plans


class TestServeFaultPlan:
    def test_rejects_out_of_range_rates(self):
        for knob in ("drop_rate", "truncate_rate", "garbage_rate",
                     "slow_rate"):
            with pytest.raises(ValueError):
                ServeFaultPlan(**{knob: 1.5})
            with pytest.raises(ValueError):
                ServeFaultPlan(**{knob: -0.1})
        with pytest.raises(ValueError):
            ServeFaultPlan(slow_ms=-1)

    def test_parse_bare_float_is_drop_rate(self):
        plan = ServeFaultPlan.parse("0.25", seed=9)
        assert plan.drop_rate == 0.25
        assert plan.seed == 9

    def test_parse_knob_list(self):
        plan = ServeFaultPlan.parse(
            "drop=0.1,truncate=0.2,garbage=0.05,slow=0.3,slow_ms=80")
        assert plan.drop_rate == 0.1
        assert plan.truncate_rate == 0.2
        assert plan.garbage_rate == 0.05
        assert plan.slow_rate == 0.3
        assert plan.slow_ms == 80.0

    def test_parse_rejects_unknown_knob(self):
        with pytest.raises(ValueError):
            ServeFaultPlan.parse("explode=1")

    def test_is_clean(self):
        assert ServeFaultPlan().is_clean
        assert not ServeFaultPlan(drop_rate=0.1).is_clean
        assert not ServeFaultPlan(garbage_on_frames=(3,)).is_clean

    def test_schedule_is_deterministic_and_seed_sensitive(self):
        plan = ServeFaultPlan(drop_rate=0.3, garbage_rate=0.3, seed=4)
        assert plan.schedule(40) == plan.schedule(40)
        other = ServeFaultPlan(drop_rate=0.3, garbage_rate=0.3, seed=5)
        assert plan.schedule(40) != other.schedule(40)

    def test_round_trip_preserves_schedule(self):
        plan = ServeFaultPlan(drop_rate=0.2, truncate_rate=0.2,
                              garbage_rate=0.2, slow_rate=0.2,
                              slow_ms=10.0, seed=7,
                              garbage_on_frames=(2, 5))
        clone = ServeFaultPlan.from_dict(plan.to_dict())
        assert clone.schedule(60) == plan.schedule(60)

    def test_forced_frames_beat_the_rates(self):
        plan = ServeFaultPlan(truncate_on_frames=(3,))
        schedule = plan.schedule(4)
        assert [d["fault"] for d in schedule] == [None, None,
                                                  "truncate", None]
        assert 0.0 < schedule[2]["keep_fraction"] < 1.0

    def test_first_fault_wins(self):
        plan = ServeFaultPlan(drop_on_frames=(1,),
                              garbage_on_frames=(1,))
        assert plan.fault_at(1)["fault"] == "drop"

    def test_garbage_lines_are_newline_free(self):
        plan = ServeFaultPlan(garbage_rate=1.0, seed=11)
        for decision in plan.schedule(50):
            line = garbage_line(decision)
            assert line.endswith(b"\n")
            assert b"\n" not in line[:-1]

    def test_slow_delay_within_bounds(self):
        plan = ServeFaultPlan(slow_rate=1.0, slow_ms=40.0, seed=2)
        for decision in plan.schedule(30):
            assert 10.0 <= decision["delay_ms"] <= 40.0

    def test_describe(self):
        assert ServeFaultPlan().describe() == "clean"
        text = ServeFaultPlan(drop_rate=0.1,
                              slow_on_frames=(1,)).describe()
        assert "drop=0.1" in text and "forced=1" in text


class TestFaultInjector:
    def test_counts_follow_the_schedule(self):
        plan = ServeFaultPlan(drop_on_frames=(1,),
                              garbage_on_frames=(2,))
        injector = FaultInjector(plan)
        assert injector.next_fault()["fault"] == "drop"
        assert injector.next_fault()["fault"] == "garbage"
        assert injector.next_fault()["fault"] is None
        snap = injector.snapshot()
        assert snap["injected"] == {"frames": 3, "drop": 1,
                                    "truncate": 0, "garbage": 1,
                                    "slow": 0}

    def test_thread_safe_ordinals(self):
        injector = FaultInjector(ServeFaultPlan(drop_rate=0.5, seed=0))
        seen = []

        def draw():
            for _ in range(200):
                seen.append(injector.next_fault()["frame"])

        threads = [threading.Thread(target=draw) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == list(range(1, 801))


class TestBackendFaultPlan:
    def test_parse_forms(self):
        assert BackendFaultPlan.parse("0.3").fail_rate == 0.3
        assert BackendFaultPlan.parse("fail=0.4").fail_rate == 0.4
        with pytest.raises(ValueError):
            BackendFaultPlan.parse("explode=1")

    def test_round_trip_and_determinism(self):
        plan = BackendFaultPlan(fail_rate=0.5, seed=3,
                                fail_on_calls=(7,))
        clone = BackendFaultPlan.from_dict(plan.to_dict())
        assert clone.schedule(40) == plan.schedule(40)
        assert plan.fault_at(7)["fault"] == "unavailable"

    def test_is_clean(self):
        assert BackendFaultPlan().is_clean
        assert not BackendFaultPlan(fail_rate=0.01).is_clean
        assert not BackendFaultPlan(fail_on_calls=(1,)).is_clean

    def test_describe(self):
        assert BackendFaultPlan().describe() == "clean"
        plan = BackendFaultPlan(fail_rate=0.3, seed=4,
                                fail_on_calls=(1, 2))
        assert plan.describe() == "fail=0.3,forced=2"
        assert repr(plan) == "BackendFaultPlan(fail=0.3,forced=2, seed=4)"


class _InnerBackend:
    backend_name = "sqlite"

    def __init__(self):
        self.ran = 0

    def run(self, plan, budget=None, spill_node_id=None,
            keep_rows=False):
        self.ran += 1
        return "rows-%d" % self.ran

    def true_selectivity(self):
        return 0.5


class TestFaultyBackend:
    def test_clean_plan_delegates_untouched(self):
        inner = _InnerBackend()
        backend = FaultyBackend(inner)
        assert backend.run(None) == "rows-1"
        assert backend.run(None) == "rows-2"
        assert backend.backend_name == "sqlite"
        assert backend.true_selectivity() == 0.5

    def test_forced_outage_names_the_backend(self):
        backend = FaultyBackend(_InnerBackend(),
                                BackendFaultPlan(fail_on_calls=(2,)))
        assert backend.run(None) == "rows-1"
        with pytest.raises(BackendUnavailableError) as exc:
            backend.run(None)
        assert exc.value.backend == "sqlite"
        # Only the scheduled call fails; service resumes after.
        assert backend.run(None) == "rows-2"

    def test_total_outage(self):
        backend = FaultyBackend(_InnerBackend(),
                                BackendFaultPlan(fail_rate=1.0))
        for _ in range(3):
            with pytest.raises(BackendUnavailableError):
                backend.run(None)
        assert backend.inner.ran == 0


# ----------------------------------------------------------------------
# framing


class TestFrameAssembler:
    def test_single_frame(self):
        assembler = FrameAssembler(64)
        assert assembler.feed(b'{"op":"health"}\n') == [
            ("frame", b'{"op":"health"}\n')]
        assert not assembler.pending

    def test_frame_split_across_chunks(self):
        assembler = FrameAssembler(64)
        assert assembler.feed(b'{"op":') == []
        assert assembler.pending
        assert assembler.feed(b'"health"}\n') == [
            ("frame", b'{"op":"health"}\n')]
        assert not assembler.pending

    def test_many_frames_in_one_chunk(self):
        assembler = FrameAssembler(64)
        events = assembler.feed(b"a\nb\nc\n")
        assert events == [("frame", b"a\n"), ("frame", b"b\n"),
                          ("frame", b"c\n")]

    def test_oversized_line_in_one_chunk(self):
        assembler = FrameAssembler(8)
        events = assembler.feed(b"x" * 20 + b"\nok\n")
        assert events == [("oversized", 21), ("frame", b"ok\n")]

    def test_oversized_line_streamed_is_bounded(self):
        assembler = FrameAssembler(8)
        total = 0
        for _ in range(100):
            assert assembler.feed(b"y" * 1000) == []
            total += 1000
            # The discard path never buffers more than the cap.
            assert len(assembler._buf) <= 8
        events = assembler.feed(b"\nnext\n")
        assert events == [("oversized", total + 1),
                          ("frame", b"next\n")]

    def test_pending_reports_torn_frame(self):
        assembler = FrameAssembler(8)
        assembler.feed(b"half")
        assert assembler.pending
        assembler.feed(b"y" * 100)  # now oversized and discarding
        assert assembler.pending

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            FrameAssembler(1)


# ----------------------------------------------------------------------
# the daemon under hostile bytes


@pytest.fixture(scope="module")
def hardened(tmp_path_factory):
    """A daemon with a small line cap, shared by the hostile-bytes
    tests (nothing here mutates artifact state)."""
    sock = str(tmp_path_factory.mktemp("faults") / "serve.sock")
    config = ServeConfig(path=sock, max_line_bytes=2048,
                         tenant_capacity=1000.0, tenant_rate=1000.0)
    server = ServerThread(config=config)
    server.start()
    try:
        yield server
    finally:
        if server._thread.is_alive():
            server.stop()


def _raw_connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(path)
    return sock


class TestHostileBytes:
    def test_oversized_line_gets_structured_error_not_teardown(
            self, hardened):
        path = hardened.daemon.config.path
        with ServeClient(path=path, max_line_bytes=1 << 20) as client:
            monster = {"op": "run", "query": "2D_Q91",
                       "tenant": "x" * 4000}
            response = client.request(monster)
            assert response["ok"] is False
            assert response["error"] == ERR_OVERSIZED
            assert "cap" in response["message"]
            # The same connection keeps serving.
            assert client.health()["result"]["ok"]

    def test_torn_frame_then_disconnect_is_harmless(self, hardened):
        path = hardened.daemon.config.path
        before = hardened.daemon.metrics.counter(
            "serve.errors.torn_frame").value
        raw = _raw_connect(path)
        raw.sendall(b'{"op":"heal')  # die mid-frame
        raw.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if hardened.daemon.metrics.counter(
                    "serve.errors.torn_frame").value > before:
                break
            time.sleep(0.01)
        assert hardened.daemon.metrics.counter(
            "serve.errors.torn_frame").value > before
        # The daemon is still serving fresh connections.
        with ServeClient(path=path) as client:
            assert client.health()["result"]["ok"]

    def test_garbage_line_does_not_poison_the_connection(
            self, hardened):
        path = hardened.daemon.config.path
        raw = _raw_connect(path)
        raw.sendall(b"\x00\xff\x17 not json \xfe\n")
        raw.sendall(encode_message({"op": "health", "id": 5}))
        recv = raw.makefile("rb")
        first = recv.readline()
        second = recv.readline()
        raw.close()
        assert b"bad-request" in first
        assert b'"id":5' in second and b'"ok":true' in second

    def test_request_split_across_many_sends_still_parses(
            self, hardened):
        path = hardened.daemon.config.path
        raw = _raw_connect(path)
        data = encode_message({"op": "health", "id": 6})
        for i in range(0, len(data), 3):
            raw.sendall(data[i:i + 3])
            time.sleep(0.001)
        line = raw.makefile("rb").readline()
        raw.close()
        assert b'"id":6' in line and b'"ok":true' in line


# ----------------------------------------------------------------------
# in-process wire chaos + client resilience


def _chaos_server(tmp_path, plan, **config_kwargs):
    sock = str(tmp_path / "serve.sock")
    config = ServeConfig(path=sock, fault_plan=plan,
                         tenant_capacity=1000.0, tenant_rate=1000.0,
                         **config_kwargs)
    return ServerThread(config=config)


class TestInjectedReplyFaults:
    @pytest.mark.parametrize("knob", ["drop_on_frames",
                                      "truncate_on_frames",
                                      "garbage_on_frames"])
    def test_client_rides_out_a_faulted_reply(self, tmp_path, knob):
        plan = ServeFaultPlan(**{knob: (1,)})
        server = _chaos_server(tmp_path, plan)
        server.start()
        try:
            with ServeClient(path=server.daemon.config.path,
                             retries=4) as client:
                response = client.health()
                assert response["result"]["ok"]
                assert client.last_attempts >= 2
            stats_fault = server.daemon._fault_injector.snapshot()
            assert sum(v for k, v in stats_fault["injected"].items()
                       if k != "frames") == 1
        finally:
            server.stop()

    def test_slow_reply_arrives_late_but_intact(self, tmp_path):
        plan = ServeFaultPlan(slow_on_frames=(1,), slow_ms=300.0)
        server = _chaos_server(tmp_path, plan)
        server.start()
        try:
            with ServeClient(path=server.daemon.config.path) as client:
                t0 = time.monotonic()
                assert client.health()["result"]["ok"]
                assert time.monotonic() - t0 >= 0.05
        finally:
            server.stop()

    def test_stats_surface_the_fault_plan(self, tmp_path):
        plan = ServeFaultPlan(garbage_on_frames=(99,), seed=6)
        server = _chaos_server(tmp_path, plan)
        server.start()
        try:
            with ServeClient(path=server.daemon.config.path) as client:
                client.health()  # one reply through the injector
                faults = client.stats()["faults"]
            assert faults["seed"] == 6
            assert faults["plan"] == "forced=1"
            assert faults["injected"]["frames"] >= 1
        finally:
            server.stop()

    def test_clean_plan_installs_no_injector(self, tmp_path):
        server = _chaos_server(tmp_path, ServeFaultPlan())
        server.start()
        try:
            assert server.daemon._fault_injector is None
            with ServeClient(path=server.daemon.config.path) as client:
                assert client.stats()["faults"] is None
        finally:
            server.stop()


class TestClientResilience:
    def test_oversized_request_refused_locally(self, tmp_path):
        server = _chaos_server(tmp_path, None)
        server.start()
        try:
            with ServeClient(path=server.daemon.config.path,
                             max_line_bytes=256) as client:
                with pytest.raises(ProtocolError):
                    client.request({"op": "run", "query": "2D_Q91",
                                    "tenant": "y" * 1000})
        finally:
            server.stop()

    def test_retry_reuses_the_request_id(self, tmp_path):
        plan = ServeFaultPlan(drop_on_frames=(1,))
        server = _chaos_server(tmp_path, plan)
        server.start()
        try:
            with ServeClient(path=server.daemon.config.path,
                             retries=4, raise_errors=False) as client:
                response = client.call({"op": "health",
                                        "id": "stable-7"})
            assert response["ok"] and response["id"] == "stable-7"
        finally:
            server.stop()

    def test_hedged_request_wins_despite_a_dropped_first_reply(
            self, tmp_path):
        # Frame 1 (the first attempt's reply) is dropped; the hedge
        # fires on a second connection and answers.
        plan = ServeFaultPlan(drop_on_frames=(1,))
        server = _chaos_server(tmp_path, plan)
        server.start()
        try:
            with ServeClient(path=server.daemon.config.path,
                             retries=3, hedge_ms=100.0) as client:
                assert client.health()["result"]["ok"]
        finally:
            server.stop()

    def test_garbage_toward_the_daemon_yields_structured_errors(
            self, tmp_path):
        server = _chaos_server(tmp_path, None)
        server.start()
        junk = garbage_line(
            ServeFaultPlan(garbage_on_frames=(1,)).fault_at(1))
        try:
            with ServeClient(path=server.daemon.config.path,
                             retries=4, raise_errors=False) as c:
                # The junk line precedes the real request; the daemon
                # answers both (bad-request, then ok) and the
                # id-matching client skips the former.
                c._sock.sendall(junk)
                response = c.call({"op": "health", "id": 42})
            assert response["ok"] and response["id"] == 42
            bad = server.daemon.metrics.counter(
                "serve.errors.bad_request").value
            assert bad >= 1
        finally:
            server.stop()

    def test_retries_exhausted_raises_the_transport_failure(
            self, tmp_path):
        plan = ServeFaultPlan(drop_rate=1.0)
        server = _chaos_server(tmp_path, plan)
        server.start()
        try:
            with ServeClient(path=server.daemon.config.path,
                             retries=2, raise_errors=False) as client:
                with pytest.raises((ReproError, OSError)):
                    client.call({"op": "health"})
                assert client.last_attempts == 3
        finally:
            server.stop()


# ----------------------------------------------------------------------
# backend failover ladder


@pytest.fixture(scope="module")
def failover_server(tmp_path_factory):
    """A daemon with a declarative row store, for row-backed specs."""
    tmp = tmp_path_factory.mktemp("failover")
    config = ServeConfig(path=str(tmp / "serve.sock"),
                         cache_dir=str(tmp / "cache"),
                         data_rng=0, data_rows=400,
                         tenant_capacity=1000.0, tenant_rate=1000.0)
    server = ServerThread(config=config)
    server.start()
    try:
        yield server
    finally:
        if server._thread.is_alive():
            server.stop()


class TestBackendFailover:
    RES = 4

    def _run(self, server, qa, engine, tenant="fo"):
        with ServeClient(path=server.daemon.config.path,
                         timeout=120.0) as client:
            return client.run("2D_Q91", resolution=self.RES, qa=qa,
                              engine=engine, tenant=tenant, rng=0)

    def test_unavailable_backend_fails_over_to_native(
            self, failover_server):
        response = self._run(failover_server, [0, 1],
                             "row(backend=sqlite,fail=1)")
        assert response["ok"]
        assert "backend-failover-sqlite-to-native" \
            in response["degraded_reasons"]
        result = response["result"]
        assert result["backend"] == "native"
        assert result["degraded"] is True
        assert result["sub_optimality"] >= 1.0

    def test_breaker_opens_after_threshold_and_fast_fails(
            self, failover_server):
        # Three more injected outages (distinct qa so nothing
        # coalesces) trip the backend breaker ...
        for i in range(3):
            response = self._run(failover_server,
                                 [i % self.RES, (i + 1) % self.RES],
                                 "row(backend=sqlite,fail=1)",
                                 tenant="fo-trip")
            assert response["ok"]
        board = failover_server.daemon.session.breakers
        breaker = board.breaker_for("backend:sqlite")
        assert breaker.is_open
        # ... and the next request skips the doomed attempt entirely.
        response = self._run(failover_server, [1, 3],
                             "row(backend=sqlite,fail=1)",
                             tenant="fo-trip")
        assert response["ok"]
        assert "backend-breaker-sqlite-to-native" \
            in response["degraded_reasons"]
        assert response["result"]["backend"] == "native"

    def test_stats_export_the_backend_breaker(self, failover_server):
        self._run(failover_server, [0, 2],
                  "row(backend=sqlite,fail=1)", tenant="fo-stats")
        with ServeClient(path=failover_server.daemon.config.path,
                         timeout=60.0) as client:
            breakers = client.stats()["breakers"]
        assert "backend:sqlite" in breakers

    def test_native_failover_answer_matches_a_direct_native_run(
            self, failover_server):
        faulted = self._run(failover_server, [2, 3],
                            "row(backend=sqlite,fail=1,fail_seed=5)",
                            tenant="fo-eq")
        native = self._run(failover_server, [2, 3], "row",
                           tenant="fo-eq")
        assert faulted["ok"] and native["ok"]
        assert faulted["result"]["sub_optimality"] \
            == native["result"]["sub_optimality"]
        assert faulted["result"]["total_cost"] \
            == native["result"]["total_cost"]
