"""Tests of the benchmark's own harness: tracer, tail reporter, pacing."""

import json
import math
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.pacing import poisson_offsets, run_open_loop
from perfbench.speed import NEAREST, SpeedMeter
from perfbench.tracer import LayerTracer
from perfbench.workloads import (MIXED_RATE, MixedOp, _rng, build_cluster,
                                 execute_mixed)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self):
        return self.now


# ------------------------------------------------------------- self time


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf():
        clock.now += 30

    traced_leaf = tracer.wrap("storage", leaf)

    def unwrapped_helper():
        clock.now += 7  # not wrapped: stays in the caller's self time

    def middle():
        clock.now += 10
        traced_leaf()
        unwrapped_helper()
        traced_leaf()
        clock.now += 5

    traced_middle = tracer.wrap("cluster", middle)

    def top():
        clock.now += 1
        traced_middle()

    tracer.wrap("query", top)()

    assert tracer.calls == {"storage": 2, "cluster": 1, "query": 1}
    assert tracer.self_ns == {"storage": 60, "cluster": 22, "query": 1}
    assert sum(tracer.self_ns.values()) == clock.now


def test_self_time_survives_an_exception_in_a_nested_call():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def failing():
        clock.now += 4
        raise KeyError("boom")

    traced_failing = tracer.wrap("storage", failing)

    def caller():
        clock.now += 2
        with pytest.raises(KeyError):
            traced_failing()
        clock.now += 3

    tracer.wrap("cluster", caller)()
    assert tracer.self_ns == {"storage": 4, "cluster": 5}
    assert tracer._stack == []


# ---------------------------------------------------------- tail reporter


def test_tail_keeps_ten_samples_beyond_the_reported_percentile():
    for count in range(11, 2500, 37):
        values = [float(v) for v in range(1, count + 1)]
        report = stats.tail(values, 0.99)
        beyond = sum(1 for v in values if v > report["value"])
        assert beyond >= stats.MIN_BEYOND, count
        assert report["quantile"] <= 0.99
        assert report["samples"] == count


def test_tail_reports_the_target_when_samples_suffice_and_falls_back_otherwise():
    thousand = [float(v) for v in range(1, 1001)]
    assert stats.tail(thousand, 0.99) == {"value": 990.0, "quantile": 0.99,
                                          "samples": 1000}
    hundred = [float(v) for v in range(1, 101)]
    assert stats.tail(hundred, 0.99) == {"value": 90.0, "quantile": 0.9,
                                         "samples": 100}
    ten = [float(v) for v in range(1, 11)]
    assert stats.tail(ten, 0.99) == {"value": 10.0, "quantile": 1.0, "samples": 10}


def test_failed_ops_count_as_past_every_limit():
    values = [1.0] * 5 + [math.inf] * 6
    assert stats.median(values) == math.inf
    assert stats.finite_ms(math.inf) == 1e9


# ------------------------------------------------------------- open loop


class FakeTime:
    """Clock plus a sleep that overshoots by a fixed amount."""

    def __init__(self, overshoot: float) -> None:
        self.now = 0.0
        self.overshoot = overshoot

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + self.overshoot


def test_open_loop_times_from_due_and_counts_lag_only_when_it_slept():
    fake = FakeTime(overshoot=0.001)
    offsets = [0.1, 0.2, 0.25, 1.0]
    cost = {0: 0.2, 1: 0.3, 2: 0.05, 3: 0.01}

    def execute(index: int) -> bool:
        fake.now += cost[index]
        return index != 2

    run = run_open_loop(offsets, 0.5, execute, clock=fake.clock, sleep=fake.sleep)
    # op0 slept and woke 1 ms late; op1/op2 were queued (no lag sample);
    # op3 slept again.
    assert run.lags == pytest.approx([0.001, 0.001])
    assert run.latencies[0] == pytest.approx(0.301 - 0.1)
    assert run.latencies[1] == pytest.approx(0.601 - 0.2)  # includes queueing
    assert run.latencies[2] == math.inf  # failed
    assert run.latencies[3] == pytest.approx(0.011)
    assert run.service == pytest.approx([0.2, 0.3, 0.05, 0.01])
    # At the window's end (0.5 s) op1 was running and op2 (due 0.25) waited.
    assert run.backlog_end == 1


def test_open_loop_reports_no_backlog_when_it_keeps_up():
    fake = FakeTime(overshoot=0.0)
    offsets = poisson_offsets(50.0, 2.0, _rng(7, "arrivals"))

    def execute(index: int) -> bool:
        fake.now += 1e-6
        return True

    run = run_open_loop(offsets, 2.0, execute, clock=fake.clock, sleep=fake.sleep)
    assert run.backlog_end == 0
    assert len(run.lags) == len(offsets)
    assert max(run.latencies) == pytest.approx(1e-6)


def test_open_loop_idles_only_in_gaps_longer_than_the_slack():
    fake = FakeTime(overshoot=0.0)
    idled = []

    def idle() -> None:
        idled.append(fake.now)
        fake.now += 0.01

    def execute(index: int) -> bool:
        fake.now += 0.001
        return True

    # Slack before each op: 0.05 s, then 0.004 s (no probe), then 0.037 s.
    run = run_open_loop([0.05, 0.055, 0.093], 1.0, execute, clock=fake.clock,
                        sleep=fake.sleep, idle=idle, idle_slack=0.025)
    assert idled == pytest.approx([0.0, 0.01, 0.02, 0.056, 0.066])
    assert run.lags == pytest.approx([0.0, 0.0, 0.0])
    assert run.latencies == pytest.approx([0.001, 0.001, 0.001])


def test_speed_factor_uses_the_nearest_probes_in_time():
    fake = FakeTime(overshoot=0.0)
    cost = iter([0.015] * NEAREST + [0.0075] * NEAREST)
    meter = SpeedMeter(clock=fake.clock,
                       job=lambda: setattr(fake, "now", fake.now + next(cost)))
    meter.burst()            # slow machine: the job takes twice its nominal time
    fake.now = 100.0
    meter.burst()            # back to nominal speed
    assert meter.factor_at(0.05) == pytest.approx(0.5)
    assert meter.factor_at(100.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SpeedMeter().factor_at(0.0)


def test_poisson_offsets_repeat_for_a_seed():
    first = poisson_offsets(80.0, 3.0, _rng(3, "arrivals"))
    assert first == poisson_offsets(80.0, 3.0, _rng(3, "arrivals"))
    assert first == sorted(first) and all(0 <= t < 3.0 for t in first)
    assert 150 < len(first) < 330


# ------------------------------------------------------ ledger identity


def _drive(cluster, wrapper):
    from repro.query import QueryEngine

    engine = QueryEngine(cluster)
    first = [(1000 + i, i % 16, 1000 + i) for i in range(20)]
    ops = [
        MixedOp("insert", inserts=tuple(first)),
        MixedOp("delete", deletes=tuple(first[:5])),
        MixedOp("update", updates=tuple(
            (row, (row[0], (row[1] + 1) % 16, row[2])) for row in first[5:10])),
        MixedOp("txn", inserts=tuple((2000 + i, i % 16, 2000 + i) for i in range(20)),
                deletes=tuple(first[10:15]), rollback=True),
        MixedOp("txn", inserts=tuple((3000 + i, i % 16, 3000 + i) for i in range(20)),
                deletes=tuple(first[15:20])),
        MixedOp("read", read_e=3005,
                expected=tuple((3005, 5 * 4 + i) for i in range(4))),
    ]
    for op in ops:
        assert execute_mixed(cluster, engine, op)
    wrapper.refresh()


@pytest.mark.parametrize("method", ["naive", "auxiliary", "global_index"])
def test_tracer_leaves_ledger_cells_bit_identical(method):
    from repro.cluster.cluster import Cluster
    from repro.storage.heap import HeapTable

    originals = (Cluster.insert, HeapTable.__iter__, HeapTable.scan)
    resident = [(a, a % 16, a) for a in range(200)]
    plain, plain_wrapper = build_cluster(method, 16, 4, resident, deferred=True)
    _drive(plain, plain_wrapper)

    traced, traced_wrapper = build_cluster(method, 16, 4, resident, deferred=True)
    tracer = LayerTracer()
    with tracer:
        _drive(traced, traced_wrapper)

    assert plain.ledger.diff(traced.ledger) == {}
    for view in ("JV", "JV2"):
        assert sorted(plain.view_rows(view)) == sorted(traced.view_rows(view))
    assert (Cluster.insert, HeapTable.__iter__, HeapTable.scan) == originals
    # 3 autocommit statements; each transaction is transaction() + 2 statements
    assert tracer.calls["cluster"] == 3 + 2 * 3
    assert tracer.counts["transactions"] == 2
    assert tracer.counts["heap_rows_deleted"] > 0
    assert tracer.counts["heap_rows_visited"] > 0


# ------------------------------------------------------ benchmark file


def test_benchmark_json_states_the_mixed_rate():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}["mixed"]
    assert f"{MIXED_RATE:g} ops/s" in why
