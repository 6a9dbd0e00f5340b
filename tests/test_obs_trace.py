"""Unit tests for repro.obs.trace: the tracer, sampling, export, composition."""

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import trace
from repro.obs.trace import (
    TRACE_SCHEMA,
    Tracer,
    load_jsonl,
    render_summary,
    render_waterfall,
    write_jsonl,
)


@pytest.fixture()
def traced():
    """Install a tracer (``traced(seed=..., sample=...)``) on a fresh
    registry, so ``obs.region`` records trace spans into it."""
    with obs.use_registry(obs.Registry("traced")):
        yield trace.install


class TestTracerBasics:
    def test_span_assigns_trace_and_span_ids(self, traced):
        tracer = traced(seed=0)
        with obs.region("outer.op.run") as outer:
            assert outer.sampled
            assert outer.trace_id is not None
            assert outer.parent_id is None
            with obs.region("inner.op.run") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        records = tracer.records()
        assert [r["name"] for r in records] == ["inner.op.run", "outer.op.run"]
        assert all(r["kind"] == "span" for r in records)
        assert records[0]["parent"] == records[1]["span"]
        assert records[1]["parent"] is None

    def test_event_attaches_to_innermost_span(self, traced):
        tracer = traced(seed=0)
        with obs.region("outer.op.run"), obs.region("inner.op.run") as inner:
            tracer.event("thing.happened", value=3)
        event = next(r for r in tracer.records() if r["kind"] == "event")
        assert event["trace"] == inner.trace_id
        assert event["parent"] == inner.span_id
        assert event["attrs"] == {"value": 3}

    def test_event_outside_span_is_traceless(self):
        tracer = Tracer(seed=0)
        tracer.event("orphan.event.fired")
        (record,) = tracer.records()
        assert record["trace"] is None
        assert record["parent"] is None
        assert record["kind"] == "event"

    def test_exception_inside_span_records_error_attr(self, traced):
        tracer = traced(seed=0)
        with pytest.raises(ValueError):
            with obs.region("bad.op.run"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "ValueError"
        assert record["dur"] >= 0.0

    def test_attrs_are_coerced_to_json_atoms(self):
        tracer = Tracer(seed=0)
        tracer.event(
            "coerce.check.run",
            items={"b", "a"},
            mapping={1: object},
            uri=pytest,  # arbitrary non-atom -> str()
        )
        attrs = tracer.records()[0]["attrs"]
        assert attrs["items"] == ["a", "b"]
        assert isinstance(attrs["uri"], str)
        assert list(attrs["mapping"]) == ["1"]

    def test_invalid_construction_rejected(self):
        with pytest.raises(ObsError):
            Tracer(capacity=0)
        with pytest.raises(ObsError):
            Tracer(sample=1.5)


class TestDeterminism:
    def test_seeded_tracers_produce_identical_ids(self):
        def run(seed):
            with obs.use_registry():
                tracer = trace.install(seed=seed)
                with obs.region("a.b.c", n=1):
                    tracer.event("a.b.d")
                    with obs.region("a.b.e"):
                        pass
            return [(r["trace"], r["span"], r["parent"]) for r in tracer.records()]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestSampling:
    def test_sample_zero_records_nothing(self, traced):
        tracer = traced(sample=0.0, seed=0)
        with obs.region("never.kept.run") as handle:
            assert not handle.sampled
            assert handle.trace_id is None
            tracer.event("inner.event.fired")
            handle.event("direct.event.fired")
        assert len(tracer) == 0

    def test_sampling_decision_made_at_root_and_inherited(self, traced):
        tracer = traced(sample=0.5, seed=1)
        kept = 0
        for _ in range(50):
            with obs.region("root.op.run") as root:
                with obs.region("child.op.run") as child:
                    assert child.sampled == root.sampled
                kept += 1 if root.sampled else 0
        assert 0 < kept < 50
        # every buffered record belongs to a sampled trace
        assert all(r["trace"] is not None for r in tracer.records())


class TestRingBuffer:
    def test_capacity_evicts_oldest_and_counts_dropped(self):
        tracer = Tracer(capacity=4, seed=0)
        for index in range(10):
            tracer.event("tick.event.fired", index=index)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [r["attrs"]["index"] for r in tracer.records()] == [6, 7, 8, 9]

    def test_compaction_keeps_order_over_many_wraps(self):
        tracer = Tracer(capacity=3, seed=0)
        for index in range(100):
            tracer.event("tick.event.fired", index=index)
        assert [r["attrs"]["index"] for r in tracer.records()] == [97, 98, 99]
        assert tracer.dropped == 97

    def test_clear_resets_buffer_and_dropped(self):
        tracer = Tracer(capacity=2, seed=0)
        for _ in range(5):
            tracer.event("tick.event.fired")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path, traced):
        tracer = traced(seed=7)
        with obs.region("root.op.run", n=2):
            tracer.event("leaf.event.fired", q=0.5)
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        payload = load_jsonl(path)
        assert payload["schema"] == TRACE_SCHEMA
        assert payload["records"] == tracer.records()
        assert payload["dropped"] == 0

    def test_truncated_file_fails_loudly(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, [{"name": "a.b.c"}, {"name": "a.b.d"}])
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ObsError, match="truncated"):
            load_jsonl(path)

    def test_non_trace_file_rejected(self, tmp_path):
        path = str(tmp_path / "junk.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": "something-else"}\n')
        with pytest.raises(ObsError):
            load_jsonl(path)
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        with pytest.raises(ObsError, match="empty"):
            load_jsonl(empty)


class TestModuleApi:
    def test_install_active_uninstall(self):
        with obs.use_registry(obs.Registry("t")):
            assert trace.active() is None
            with obs.region("noop.span.run") as untraced:
                assert trace.current_trace_id() is None
            assert untraced.trace_id is None and untraced.elapsed is not None
            tracer = trace.install(seed=0)
            assert trace.active() is tracer
            with obs.region("mod.api.run") as handle:
                trace.event("mod.event.fired")
                assert trace.current_trace_id() == handle.trace_id
            assert trace.current_trace_id() is None
            removed = trace.uninstall()
            assert removed is tracer
            assert trace.active() is None
        assert len(tracer) == 2


class TestRegistryComposition:
    def test_snapshot_holds_instruments_only(self):
        with obs.use_registry(obs.Registry("traced")) as registry:
            tracer = trace.install(seed=0)
            obs.inc("work.items.done")
            trace.event("worker.event.fired", partition=0)
            snap = registry.snapshot()
        assert len(tracer) == 1
        assert set(snap) == {
            "format_version", "registry", "counters", "gauges", "histograms",
        }


class TestRendering:
    def _tracer(self):
        with obs.use_registry():
            tracer = trace.install(seed=0)
            with obs.region("root.op.run"):
                tracer.event("leaf.event.fired", k="v")
                with obs.region("child.op.run"):
                    pass
            tracer.event("orphan.event.fired")
        return tracer

    def test_render_summary_counts_and_slowest(self):
        tracer = self._tracer()
        text = render_summary(tracer.records(), dropped=tracer.dropped)
        assert "4 record(s) in 1 trace(s) + 1 trace-less" in text
        assert "events by type:" in text
        assert "slowest spans" in text
        assert "root.op.run" in text

    def test_render_waterfall_tree_and_filter(self):
        tracer = self._tracer()
        records = tracer.records()
        text = render_waterfall(records)
        assert "root.op.run" in text
        assert "  child.op.run" in text  # indented under the root
        assert "1 trace-less event(s):" in text
        trace_id = next(r["trace"] for r in records if r["trace"])
        assert render_waterfall(records, trace_id=trace_id[:6]).startswith("trace ")
        assert render_waterfall(records, trace_id="zzzz") == "no trace matching 'zzzz'"
