"""The span tracer: nesting, threads, caps, determinism, null cost."""

import json
import threading

import pytest

from repro.obs import NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.obs import trace_enabled_from_env
from repro.resilience.context import SimulatedClock


class TestSpanTree:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        root = tracer.finish()
        assert [c.name for c in root.children] == ["outer"]
        outer = root.children[0]
        assert [c.name for c in outer.children] == ["inner", "sibling"]

    def test_durations_come_from_the_clock(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.advance(0.25)
        assert span.duration == pytest.approx(0.25)
        clock.advance(1.0)
        root = tracer.finish()
        assert root.duration == pytest.approx(1.25)

    def test_event_is_a_zero_duration_child(self):
        tracer = Tracer(clock=SimulatedClock())
        tracer.event("structure.reuse", kind="mst")
        root = tracer.finish()
        (event,) = root.children
        assert event.name == "structure.reuse"
        assert event.duration == 0.0
        assert event.attrs == {"kind": "mst"}

    def test_annotate_targets_the_innermost_open_span(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("probe"):
            tracer.annotate(rows=7)
        tracer.annotate(late=True)  # nothing open -> root
        root = tracer.finish()
        assert root.children[0].attrs == {"rows": 7}
        assert root.attrs == {"late": True}

    def test_find_all_and_walk(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("window.group"):
            with tracer.span("probe"):
                pass
            with tracer.span("probe"):
                pass
        root = tracer.finish()
        assert len(root.find_all("probe")) == 2
        assert [s.name for s in root.walk()] == [
            "query", "window.group", "probe", "probe"]


class TestThreading:
    def test_worker_spans_anchor_to_the_submitting_span(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("window.group") as group:
            anchor = tracer.current()

            def work():
                with tracer.span("task", parent=anchor):
                    pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        root = tracer.finish()
        assert group.children[0].name == "task"
        # First-seen thread ordinals: main thread is t0, the worker t1.
        assert root.thread == 0
        assert group.children[0].thread == 1

    def test_worker_without_parent_lands_on_the_root(self):
        tracer = Tracer(clock=SimulatedClock())

        def work():
            with tracer.span("task"):
                pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        root = tracer.finish()
        assert [c.name for c in root.children] == ["task"]


class TestBounds:
    def test_span_cap_drops_and_counts(self):
        tracer = Tracer(clock=SimulatedClock(), max_spans=3)
        handles = [tracer.span(f"s{i}") for i in range(5)]
        for handle in handles:
            handle.__exit__(None, None, None)
        assert tracer.dropped == 3  # root + 2 recorded, 3 dropped
        assert handles[2] is NULL_SPAN
        assert "dropped" in tracer.render()

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.annotate(rows=1)


class TestExport:
    def test_render_is_deterministic_under_a_simulated_clock(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("parse", chars=12):
            pass
        tracer.finish()
        assert tracer.render() == ("query 0.000ms [t0]\n"
                                   "  parse 0.000ms [t0] chars=12")

    def test_render_elides_past_max_children(self):
        tracer = Tracer(clock=SimulatedClock())
        for i in range(5):
            tracer.event(f"e{i}")
        tracer.finish()
        text = tracer.root.render(max_children=2)
        assert "... (+3 more)" in "\n".join(text)

    def test_to_json_round_trips(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("probe", rows=3):
            clock.advance(0.002)
        tracer.finish()
        payload = json.loads(tracer.to_json())
        assert payload["name"] == "query"
        assert payload["start_ms"] == 0.0
        (probe,) = payload["children"]
        assert probe["duration_ms"] == pytest.approx(2.0)
        assert probe["attrs"] == {"rows": 3}


class TestNullTracer:
    def test_everything_is_a_no_op(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("x") is NULL_SPAN
        NULL_TRACER.event("x")
        NULL_TRACER.annotate(rows=1)
        assert NULL_TRACER.current() is NULL_SPAN
        assert NULL_TRACER.finish() is None
        assert NULL_TRACER.render() == ""
        assert NULL_TRACER.to_dict() == {}


class TestEnvSwitch:
    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("", False), ("off", False),
    ])
    def test_recognised_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert trace_enabled_from_env() is expected

    def test_unset_uses_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_enabled_from_env() is False
        assert trace_enabled_from_env(default=True) is True
