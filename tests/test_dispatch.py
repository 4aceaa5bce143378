"""DispatchPool: preloaded worker engines, envelopes, and self-healing.

The pool's contracts: worker failures come back as *typed* wire errors
(never pickled tracebacks), per-worker metrics snapshots merge into one
aggregate that tells the truth across processes, and a worker killed
with SIGKILL costs the in-flight request an ``unavailable`` — not the
service its life — because the pool rebuilds itself.
"""

import os
import signal
import time

import pytest

from repro.service import protocol
from repro.service.dispatch import POOL_OPS, DispatchPool
from repro.service.engine import EngineError
from repro.service.metrics import Metrics

PROGRAM = 'int main() { int fd = open("a"); close(fd); close(fd); return 0; }'


@pytest.fixture(scope="module")
def pool():
    with DispatchPool(workers=1, preload=["full-privilege", "no-such"]) as p:
        yield p


class TestDispatch:
    def test_check_round_trip(self, pool):
        result = pool.execute(
            "check", {"program": PROGRAM, "property": "full-privilege"}
        )
        assert "violations" in result
        assert result["property"] == "full-privilege"

    def test_ping(self, pool):
        assert pool.execute("ping", {})["pong"] is True

    def test_unknown_property_is_typed(self, pool):
        with pytest.raises(EngineError) as err:
            pool.execute("check", {"program": PROGRAM, "property": "bogus"})
        assert err.value.code == protocol.E_UNSUPPORTED

    def test_parse_error_is_typed(self, pool):
        with pytest.raises(EngineError) as err:
            pool.execute(
                "check", {"program": "int main( {", "property": "full-privilege"}
            )
        assert err.value.code  # typed, whatever the engine chose

    def test_patch_refused(self, pool):
        """Patches mutate journaled sessions; the parent is the writer."""
        assert "patch" not in POOL_OPS
        with pytest.raises(EngineError) as err:
            pool.execute("patch", {"program": PROGRAM, "property": "full-privilege"})
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_worker_deadline_enforced(self, pool):
        with pytest.raises(EngineError) as err:
            pool.execute(
                "check",
                {
                    "program": PROGRAM,
                    "property": "full-privilege",
                    "deadline": time.time() - 1.0,
                },
            )
        assert err.value.code == protocol.E_DEADLINE

    def test_aggregate_metrics_reports_worker_truth(self, pool):
        pool.execute("check", {"program": PROGRAM, "property": "full-privilege"})
        merged = pool.aggregate_metrics()
        counters = merged["counters"]
        # The worker preloaded one real property and failed one fake.
        assert counters.get("preload.properties", 0) >= 1
        assert counters.get("preload.failed", 0) >= 1
        # Parent-side pool counters ride the same snapshot.
        assert counters.get("pool.dispatched", 0) >= 1
        base = Metrics()
        base.incr("pool.dispatched", 5)
        with_base = pool.aggregate_metrics(base)
        assert (
            with_base["counters"]["pool.dispatched"]
            == counters["pool.dispatched"] + 5
        )

    def test_remerge_replaces_not_accumulates(self, pool):
        """Aggregating twice must not double-count worker counters."""
        once = pool.aggregate_metrics()["counters"]
        twice = pool.aggregate_metrics()["counters"]
        assert once == twice

    def test_stats_shape(self, pool):
        stats = pool.stats()
        assert stats["workers"] == 1
        assert stats["preload"] == ["full-privilege", "no-such"]
        assert isinstance(stats["pids"], list)


class TestMetricsMerge:
    def test_counters_and_timers_add_gauges_sum(self):
        m = Metrics()
        m.incr("requests.total", 2)
        m.add_time("solve", 1.0)
        m.set_gauge("requests.inflight", 3)
        m.merge(
            {
                "counters": {"requests.total": 5, "new": 1},
                "gauges": {"requests.inflight": 2},
                "timers": {"solve": {"count": 4, "seconds": 2.5}},
            }
        )
        snap = m.snapshot()
        assert snap["counters"]["requests.total"] == 7
        assert snap["counters"]["new"] == 1
        assert snap["gauges"]["requests.inflight"] == 5
        assert snap["timers"]["solve"] == {"count": 5, "seconds": 3.5}

    def test_malformed_sections_ignored(self):
        m = Metrics()
        m.incr("kept")
        m.merge(
            {
                "counters": {"bad": "nope"},
                "gauges": "not-a-dict",
                "timers": {"t": "not-a-dict", "u": {"count": "x", "seconds": 1}},
            }
        )
        snap = m.snapshot()
        assert snap["counters"] == {"kept": 1}
        assert snap["timers"] == {}


class TestSelfHealing:
    def test_killed_worker_yields_unavailable_and_pool_rebuilds(self):
        with DispatchPool(workers=1, preload=["full-privilege"]) as pool:
            pool.execute(
                "check", {"program": PROGRAM, "property": "full-privilege"}
            )
            (pid,) = pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            # The dead worker surfaces as a typed retryable refusal on
            # some request soon after — not a traceback, not a hang.
            saw_unavailable = False
            deadline = time.time() + 60
            while time.time() < deadline:
                try:
                    pool.execute(
                        "check",
                        {"program": PROGRAM, "property": "full-privilege"},
                    )
                    if saw_unavailable:
                        break  # healed: a request succeeded post-refusal
                except EngineError as err:
                    assert err.code == protocol.E_UNAVAILABLE
                    saw_unavailable = True
                time.sleep(0.1)
            assert saw_unavailable, "SIGKILL never surfaced as unavailable"
            assert pool.rebuilds >= 1
            assert pool.worker_pids() != [pid]

    def test_closed_pool_refuses(self):
        pool = DispatchPool(workers=1)
        pool.shutdown()
        with pytest.raises(EngineError) as err:
            pool.execute("ping", {})
        assert err.value.code == protocol.E_SHUTTING_DOWN


class TestPreloadSpec:
    """Parent-resolved preload: one compile per fingerprint per worker."""

    def test_spec_resolves_fingerprints_once(self):
        from repro.service.dispatch import _resolve_preload

        spec = _resolve_preload(("full-privilege", "full-privilege"))
        assert len(spec) == 2
        (n1, fp1), (n2, fp2) = spec
        assert n1 == n2 == "full-privilege"
        assert fp1 == fp2 and fp1 is not None

    def test_unknown_names_ride_through_unresolved(self):
        from repro.service.dispatch import _resolve_preload

        spec = _resolve_preload(("no-such-property",))
        assert spec == (("no-such-property", None),)

    def test_duplicate_fingerprints_warm_one_algebra(self):
        """Satellite: ``--preload`` with repeated machines must not
        recompile — the worker counts a dedupe, not a second warm."""
        import repro.service.dispatch as dispatch

        spec = dispatch._resolve_preload(
            ("full-privilege", "full-privilege", "no-such")
        )
        saved_engine = dispatch._WORKER_ENGINE
        saved_handlers = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            dispatch._init_worker(spec, 8, None)
            engine = dispatch._WORKER_ENGINE
            metrics = engine.metrics
            assert metrics.get("preload.properties") == 1
            assert metrics.get("preload.deduped") == 1
            assert metrics.get("preload.failed") == 1  # the unknown name
            # One compiled algebra for the one fingerprint.
            assert len(engine._algebras) == 1
        finally:
            dispatch._WORKER_ENGINE = saved_engine
            for signum, handler in saved_handlers.items():
                signal.signal(signum, handler)

    def test_pool_stats_have_no_shard_or_shm_keys(self):
        with DispatchPool(workers=1, preload=["full-privilege"]) as pool:
            stats = pool.stats()
            assert stats["preload"] == ["full-privilege"]
            assert not {"shards", "partition", "shm"} & set(stats)

    def test_preloaded_worker_answers_with_warm_algebra(self):
        """End to end: a preloaded worker solves on its warm algebra."""
        with DispatchPool(workers=1, preload=["full-privilege"]) as pool:
            result = pool.execute(
                "check", {"program": PROGRAM, "property": "full-privilege"}
            )
            assert result["property"] == "full-privilege"
            counters = pool.aggregate_metrics().get("counters", {})
            assert counters.get("preload.properties", 0) >= 1
            assert counters.get("cache.machine.hits", 0) >= 1
