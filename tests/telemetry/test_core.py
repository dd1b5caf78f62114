"""Tests for the span tracer: nesting, exception safety, the global hook."""

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)


def make_clock(step: float = 1.0):
    """A deterministic monotonic clock advancing ``step`` seconds per call."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


class TestSpans:
    def test_nested_spans_record_hierarchical_paths(self):
        telemetry = Telemetry(clock=make_clock(), pid=1)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        assert [event.path for event in telemetry.events] == ["outer/inner", "outer"]
        assert [event.name for event in telemetry.events] == ["inner", "outer"]

    def test_span_durations_come_from_the_injected_clock(self):
        telemetry = Telemetry(clock=make_clock(step=0.5), pid=1)
        # epoch=0.5; outer start=1.0, inner start=1.5, inner end=2.0, outer end=2.5
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        inner, outer = telemetry.events
        assert inner.start_s == pytest.approx(1.0)
        assert inner.duration_s == pytest.approx(0.5)
        assert outer.start_s == pytest.approx(0.5)
        assert outer.duration_s == pytest.approx(1.5)

    def test_sibling_spans_do_not_nest(self):
        telemetry = Telemetry(clock=make_clock(), pid=1)
        with telemetry.span("first"):
            pass
        with telemetry.span("second"):
            pass
        assert [event.path for event in telemetry.events] == ["first", "second"]

    def test_span_args_are_recorded(self):
        telemetry = Telemetry(clock=make_clock(), pid=1)
        with telemetry.span("job", task="dvs_run", cycles=1000):
            pass
        assert telemetry.events[0].args == {"task": "dvs_run", "cycles": 1000}

    def test_name_is_usable_as_a_span_annotation(self):
        # The span's own name is positional-only, so instrumentation can
        # attach a "name" key (e.g. the experiment a job runs).
        telemetry = Telemetry(clock=make_clock(), pid=1)
        with telemetry.span("job", name="fig5"):
            pass
        assert telemetry.events[0].name == "job"
        assert telemetry.events[0].args == {"name": "fig5"}

    def test_exception_closes_span_restores_stack_and_propagates(self):
        telemetry = Telemetry(clock=make_clock(), pid=1)
        with pytest.raises(ValueError, match="boom"):
            with telemetry.span("outer"):
                with telemetry.span("failing"):
                    raise ValueError("boom")
        # Both spans recorded, the failing one annotated; stack fully unwound.
        assert [event.path for event in telemetry.events] == ["outer/failing", "outer"]
        assert telemetry.events[0].args["error"] == "ValueError"
        assert telemetry.events[1].args.get("error") == "ValueError"
        with telemetry.span("after"):
            pass
        assert telemetry.events[-1].path == "after"

    def test_record_span_nests_under_open_spans(self):
        telemetry = Telemetry(clock=make_clock(), pid=1)
        with telemetry.span("run"):
            start = telemetry.now()
            end = telemetry.now()
            telemetry.record_span("stream:crafty", start, end, cycles=42)
        stream = telemetry.events[0]
        assert stream.path == "run/stream:crafty"
        assert stream.duration_s == pytest.approx(1.0)
        assert stream.args == {"cycles": 42}


class TestGlobalHook:
    def test_default_collector_is_the_null_collector(self):
        assert get_telemetry() is NULL_TELEMETRY
        assert not get_telemetry().enabled

    def test_use_telemetry_installs_and_restores(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry) as installed:
            assert installed is telemetry
            assert get_telemetry() is telemetry
            assert get_telemetry().enabled
        assert get_telemetry() is NULL_TELEMETRY

    def test_use_telemetry_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_telemetry(Telemetry()):
                raise RuntimeError
        assert get_telemetry() is NULL_TELEMETRY

    def test_use_telemetry_nests(self):
        outer, inner = Telemetry(label="outer"), Telemetry(label="inner")
        with use_telemetry(outer):
            with use_telemetry(inner):
                assert get_telemetry() is inner
            assert get_telemetry() is outer

    def test_set_telemetry_none_restores_the_null_collector(self):
        previous = set_telemetry(Telemetry())
        try:
            assert get_telemetry().enabled
        finally:
            set_telemetry(None)
        assert get_telemetry() is NULL_TELEMETRY
        assert previous is NULL_TELEMETRY


class TestNullTelemetry:
    def test_every_operation_is_a_noop(self):
        null = NullTelemetry()
        with null.span("anything", key="value"):
            pass
        null.record_span("x", 0.0, 1.0)
        null.count("c")
        null.gauge("g", 1.0)
        null.observe("h", 1.0)
        null.merge_snapshot({"events": [{"name": "x"}]})
        assert null.events == []
        assert null.metrics.counters == {}
        assert null.metrics.gauges == {}
        assert null.metrics.histograms == {}

    def test_null_span_is_shared(self):
        null = NullTelemetry()
        assert null.span("a") is null.span("b")


class TestSnapshotMerge:
    def test_snapshot_round_trips_events_and_metrics(self):
        child = Telemetry(label="worker", clock=make_clock(), pid=2)
        with child.span("job", task="t"):
            child.count("dvs.cycles_simulated", 1000)
        parent = Telemetry(label="main", clock=make_clock(), pid=1)
        parent.merge_snapshot(child.snapshot())
        assert [event.path for event in parent.events] == ["job"]
        assert parent.events[0].pid == 2
        assert parent.metrics.counters["dvs.cycles_simulated"] == 1000

    def test_merge_rebases_child_events_onto_the_parent_epoch(self):
        # Shared clock, different epochs: the child starts 2 ticks after the
        # parent, so its events shift +2 on the parent timeline.
        clock = make_clock()
        parent = Telemetry(label="main", clock=clock, pid=1)  # epoch 1.0
        child = Telemetry(label="worker", clock=clock, pid=2)  # epoch 2.0
        with child.span("job"):  # start 3.0, end 4.0 -> start_s 1.0
            pass
        parent.merge_snapshot(child.snapshot())
        assert parent.events[0].start_s == pytest.approx(2.0)  # 1.0 + (2.0 - 1.0)

    def test_merge_is_associative_across_workers(self):
        def worker(pid: int) -> dict:
            child = Telemetry(clock=make_clock(), pid=pid)
            child.count("jobs", 1)
            child.observe("latency", float(pid))
            return child.snapshot()

        left = Telemetry(clock=make_clock(), pid=1)
        for snapshot in [worker(2), worker(3), worker(4)]:
            left.merge_snapshot(snapshot)
        right = Telemetry(clock=make_clock(), pid=1)
        for snapshot in reversed([worker(2), worker(3), worker(4)]):
            right.merge_snapshot(snapshot)
        assert left.metrics.snapshot() == right.metrics.snapshot()
        assert left.metrics.counters["jobs"] == 3
        assert left.metrics.histograms["latency"].count == 3
