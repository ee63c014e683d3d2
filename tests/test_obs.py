"""Tests for the observability subsystem: metrics registry, span tracer,
exporters, trace determinism and the disabled-path guarantees."""

import json
import math

import numpy as np
import pytest

from repro.eval import ExperimentSpec, run_experiment
from repro.eval.cli import main as cli_main
from repro.obs import (
    FRAME_BUDGET_MS,
    NULL_METRICS,
    NULL_TRACER,
    Counter,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    evaluate_slo,
    exact_percentile,
    mean_frame_latency_ms,
    stage_summary,
    stage_table,
    to_jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)


def traced_spec(**overrides) -> ExperimentSpec:
    base = dict(
        system="edgeis",
        dataset="xiph_like",
        num_frames=70,
        resolution=(160, 120),
        trace=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(4)
        assert registry.counter("requests") is counter
        assert counter.value == 5
        registry.gauge("depth").set(3)
        assert registry.gauge("depth").value == 3.0

    def test_gauge_envelope(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        assert gauge.changes == 0
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(7.0)  # no-op write: not a change
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.min_value == 1.0
        assert gauge.max_value == 7.0
        assert gauge.changes == 3
        assert gauge.last_change == -6.0
        snap = registry.snapshot()["gauges"]["depth"]
        assert snap == {"value": 1.0, "min": 1.0, "max": 7.0, "changes": 3}

    def test_unwritten_gauge_snapshot_collapses_envelope(self):
        registry = MetricsRegistry()
        registry.gauge("idle")
        snap = registry.snapshot()["gauges"]["idle"]
        assert snap == {"value": 0.0, "min": 0.0, "max": 0.0, "changes": 0}

    def test_registry_value_views(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc()
        registry.gauge("g").set(4.5)
        assert registry.counter_values() == {"a": 1, "b": 2}
        assert registry.gauge_values() == {"g": 4.5}

    def test_histogram_quantiles(self):
        hist = Histogram("lat", buckets=(1.0, 2.0, 5.0, 10.0))
        for value in (0.5, 1.5, 1.6, 3.0, 7.0, 20.0):
            hist.observe(value)
        assert hist.count == 6
        assert hist.mean == pytest.approx(33.6 / 6)
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 20.0
        assert 1.0 <= hist.quantile(0.5) <= 5.0
        assert hist.quantile(0.95) >= 5.0

    def test_empty_histogram(self):
        hist = Histogram("lat")
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0

    def test_snapshot_sorted_and_serializable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must be JSON-clean

    def test_null_registry_is_inert(self):
        handle = NULL_METRICS.counter("anything")
        handle.inc(100)
        handle.observe(5.0)
        handle.set(2.0)
        assert NULL_METRICS.snapshot()["counters"] == {}
        assert not NULL_METRICS.enabled


class TestTracer:
    def test_span_nesting_records_parent(self):
        tracer = Tracer()
        with tracer.span("outer", start_ms=0.0, dur_ms=10.0):
            with tracer.span("inner", start_ms=2.0, dur_ms=3.0):
                pass
        inner = next(s for s in tracer.spans if s.name == "inner")
        outer = next(s for s in tracer.spans if s.name == "outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.end_ms == 5.0

    def test_set_now_anchors_events(self):
        tracer = Tracer()
        tracer.set_now(123.0)
        event = tracer.event("tick", reason="test")
        assert event.ts_ms == 123.0
        assert event.attrs["reason"] == "test"

    def test_deferred_duration_assignment(self):
        tracer = Tracer()
        with tracer.span("work", start_ms=1.0) as span:
            span.dur_ms = 42.0
        assert tracer.spans[0].dur_ms == 42.0

    def test_records_are_seq_ordered(self):
        tracer = Tracer()
        tracer.event("first")
        tracer.add_span("second", dur_ms=1.0)
        tracer.event("third")
        assert [r["seq"] for r in tracer.records()] == [0, 1, 2]

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("x", frame=1) as span:
            span.dur_ms = 5.0
            span.annotate(a=1)
        NULL_TRACER.event("y", reason="z")
        NULL_TRACER.add_span("w", dur_ms=1.0)
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.events == ()
        assert not NULL_TRACER.enabled

    def test_null_tracer_mirrors_tracer_api(self):
        """Instrumented code never branches on the tracer type, so every
        public attribute of a live Tracer must exist on NULL_TRACER."""
        real = Tracer()
        for name in dir(real):
            if name.startswith("_"):
                continue
            assert hasattr(NULL_TRACER, name), f"NullTracer lacks {name!r}"

    def test_null_span_mirrors_active_span_api(self):
        from repro.obs.trace import _NULL_SPAN_RECORD

        real = Tracer()
        with real.span("probe", start_ms=0.0, dur_ms=1.0) as live:
            live_names = [n for n in dir(live) if not n.startswith("_")]
        null = NULL_TRACER.span("probe")
        for name in live_names:
            assert hasattr(null, name), f"_NullSpan lacks {name!r}"
        # Writes are swallowed, the record sink is shared, chaining works.
        null.dur_ms = 99.0
        assert null.dur_ms == 0.0
        assert null.set_sim(start_ms=1.0, dur_ms=2.0) is null
        assert null.span is _NULL_SPAN_RECORD


class TestPipelineTracing:
    def test_traced_run_matches_untraced_run(self):
        plain = run_experiment(traced_spec(trace=False)).result
        traced = run_experiment(traced_spec()).result
        assert traced.mean_iou() == plain.mean_iou()
        assert traced.mean_latency_ms() == plain.mean_latency_ms()
        assert traced.offload_count == plain.offload_count

    def test_trace_is_deterministic(self):
        first = run_experiment(traced_spec()).tracer
        second = run_experiment(traced_spec()).tracer
        lines_first = to_jsonl_lines(first)
        lines_second = to_jsonl_lines(second)
        assert lines_first == lines_second  # byte-identical JSONL
        assert "\n".join(lines_first) == "\n".join(lines_second)

    def test_disabled_tracing_adds_no_events(self):
        outcome = run_experiment(traced_spec(trace=False))
        assert outcome.tracer is None
        # The shared no-op tracer must have stayed empty.
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.events == ()

    def test_lanes_and_offload_reasons(self):
        tracer = run_experiment(traced_spec()).tracer
        assert set(tracer.lanes()) == {"client", "channel", "server"}
        reasons = {
            event.attrs["reason"]
            for event in tracer.events
            if event.name == "offload.decision"
        }
        assert reasons  # decisions carry their reasons
        dispatch_reasons = {
            event.attrs["reason"]
            for event in tracer.events
            if event.name == "offload.dispatch"
        }
        assert dispatch_reasons <= {
            "initializing",
            "new-content",
            "object-motion",
            "refresh",
            "best-effort",
        }

    def test_mean_latency_reconciles_within_1_percent(self):
        outcome = run_experiment(traced_spec(num_frames=90))
        traced_ms = mean_frame_latency_ms(
            outcome.tracer, warmup_frames=outcome.spec.warmup_frames
        )
        reported_ms = outcome.result.mean_latency_ms()
        assert traced_ms == pytest.approx(reported_ms, rel=0.01)

    def test_client_stage_spans_tile_the_process_span(self):
        tracer = run_experiment(traced_spec()).tracer
        process_spans = {
            s.span_id: s for s in tracer.spans if s.name == "client.process"
        }
        children: dict[int, list] = {}
        for span in tracer.spans:
            if span.parent_id in process_spans:
                children.setdefault(span.parent_id, []).append(span)
        assert children
        for parent_id, stage_spans in children.items():
            parent = process_spans[parent_id]
            total = sum(s.dur_ms for s in stage_spans)
            assert total == pytest.approx(parent.dur_ms, abs=1e-6)

    def test_server_metrics_and_events(self):
        tracer = run_experiment(traced_spec()).tracer
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["server.requests"] >= 1
        assert counters["model.anchors_evaluated"] > 0
        infer_spans = [s for s in tracer.spans if s.name == "server.infer"]
        assert infer_spans
        assert all(s.lane == "server" for s in infer_spans)
        assert all("anchors_evaluated" in s.attrs for s in infer_spans)
        queue_events = [e for e in tracer.events if e.name == "server.queue_enter"]
        assert queue_events
        assert all("was_free" in e.attrs for e in queue_events)

    def test_vo_state_transitions_traced(self):
        tracer = run_experiment(traced_spec()).tracer
        transitions = [
            e for e in tracer.events if e.name == "vo.state_transition"
        ]
        assert transitions  # at least initializing -> tracking
        assert transitions[0].attrs["from_state"] == "initializing"
        assert transitions[0].attrs["to_state"] == "tracking"

    def test_cfrs_encode_budget_events(self):
        tracer = run_experiment(traced_spec()).tracer
        encodes = [e for e in tracer.events if e.name == "cfrs.encode"]
        assert encodes
        for event in encodes:
            assert event.attrs["total_bytes"] > 0
            assert "bytes_high" in event.attrs and "tiles_low" in event.attrs


class TestExporters:
    def test_chrome_trace_structure(self):
        tracer = run_experiment(traced_spec()).tracer
        payload = chrome_trace(tracer)
        json.dumps(payload)  # serializable
        events = payload["traceEvents"]
        assert events
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes == {"client", "channel", "server"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
        # Distinct tids per lane.
        assert len({e["tid"] for e in complete}) == 3

    def test_write_exports(self, tmp_path):
        tracer = run_experiment(traced_spec()).tracer
        jsonl_path = write_jsonl(tracer, tmp_path / "t.jsonl")
        chrome_path = write_chrome_trace(tracer, tmp_path / "t.json")
        lines = jsonl_path.read_text().strip().splitlines()
        assert len(lines) == len(tracer.spans) + len(tracer.events)
        for line in lines:
            json.loads(line)
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]

    def test_stage_table_lists_stages(self):
        tracer = run_experiment(traced_spec()).tracer
        summary = stage_summary(tracer)
        names = {name for _, name in summary}
        assert {"client.process", "mamt.predict", "server.infer"} <= names
        rendered = stage_table(tracer).render()
        assert "server.infer" in rendered
        assert "mean ms" in rendered


class TestMultiClientTracing:
    @staticmethod
    def _run_sessions(count: int) -> set[str]:
        """Trace ``count`` edgeIS sessions on one bare server; the lanes."""
        from repro.eval import build_client
        from repro.model import SimulatedSegmentationModel
        from repro.network import make_channel
        from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline
        from repro.synthetic import make_dataset

        tracer = Tracer()
        sessions = []
        for index in range(count):
            video = make_dataset(
                "davis_like", num_frames=40, resolution=(160, 120), seed=index
            )
            sessions.append(
                ClientSession(
                    video=video,
                    client=build_client("edgeis", video, seed=index, tracer=tracer),
                    channel=make_channel("wifi_5ghz", np.random.default_rng(index)),
                )
            )
        server = EdgeServer(
            SimulatedSegmentationModel(rng=np.random.default_rng(7))
        )
        results = MultiClientPipeline(
            sessions, server, warmup_frames=5, tracer=tracer
        ).run()
        assert len(results) == count
        return set(tracer.lanes())

    def test_lanes_per_session(self):
        lanes = self._run_sessions(2)
        assert {"client0", "client1"} <= lanes
        assert "server" in lanes  # shared lane wired via attach_tracer

    def test_single_session_keeps_plain_lanes(self):
        # A one-device run is the single-client experiment: its lanes are
        # the unnumbered ones trace exports and dashboards key on.
        assert self._run_sessions(1) == {"client", "channel", "server"}


class TestHistogramPercentile:
    def test_empty_histogram(self):
        assert Histogram("h").percentile(50.0) == 0.0
        assert Histogram("h").percentile(99.0) == 0.0

    def test_single_bucket(self):
        hist = Histogram("h", buckets=(10.0,))
        hist.observe(5.0)
        assert hist.percentile(0.0) == 5.0
        assert hist.percentile(50.0) == 5.0
        assert hist.percentile(100.0) == 5.0

    def test_values_beyond_last_bucket_clamp_to_max(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(50.0)
        hist.observe(60.0)
        # Both land in the implicit overflow bucket; the estimate must
        # stay inside the recorded sample range, never inf.
        assert 50.0 <= hist.percentile(50.0) <= 60.0
        assert hist.percentile(99.0) <= 60.0

    def test_matches_quantile(self):
        hist = Histogram("h")
        for value in (0.4, 1.5, 3.0, 7.0, 30.0, 400.0):
            hist.observe(value)
        assert hist.percentile(95.0) == hist.quantile(0.95)
        assert hist.percentile(50.0) == hist.quantile(0.5)


class TestExactPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(exact_percentile([], 50.0))
        assert math.isnan(exact_percentile([], 99.0))

    def test_single_sample(self):
        assert exact_percentile([7.5], 99.0) == 7.5
        assert exact_percentile([7.5], 0.0) == 7.5

    def test_empty_slo_report_is_nan(self):
        report = evaluate_slo(Tracer())
        assert report["frames"] == 0
        assert report["misses"] == 0
        assert math.isnan(report["miss_rate"])
        assert math.isnan(report["latency_p50_ms"])
        assert math.isnan(report["latency_p99_ms"])

    def test_interpolation(self):
        samples = list(range(1, 11))  # 1..10
        assert exact_percentile(samples, 0.0) == 1.0
        assert exact_percentile(samples, 100.0) == 10.0
        assert exact_percentile(samples, 50.0) == pytest.approx(5.5)
        assert exact_percentile(samples, 90.0) == pytest.approx(9.1)

    def test_order_independent(self):
        assert exact_percentile([3.0, 1.0, 2.0], 50.0) == 2.0


class TestEmptyTracerExports:
    def test_stage_summary_empty(self):
        assert stage_summary(Tracer()) == {}

    def test_stage_table_renders_header_only(self):
        rendered = stage_table(Tracer(), title="empty run").render()
        assert "empty run" in rendered
        assert "mean ms" in rendered

    def test_mean_frame_latency_zero(self):
        assert mean_frame_latency_ms(Tracer()) == 0.0

    def test_jsonl_empty(self):
        assert to_jsonl_lines(Tracer()) == []

    def test_evaluate_slo_empty(self):
        report = evaluate_slo(Tracer())
        assert report["frames"] == 0
        assert math.isnan(report["miss_rate"])
        assert report["worst_streak"] == 0
        assert report["attribution"] == {}


def _synthetic_frames(latencies_and_stages):
    """Build a tracer with one top-level client span per frame.

    Each entry is (dur_ms, {stage: dur}) for a processed frame, or
    (dur_ms, None) for a stale frame.
    """
    tracer = Tracer()
    for index, (dur, stages) in enumerate(latencies_and_stages):
        now = index * FRAME_BUDGET_MS
        if stages is None:
            tracer.add_span(
                "client.stale_wait",
                lane="client",
                frame=index,
                start_ms=now,
                dur_ms=dur,
            )
            continue
        with tracer.span(
            "client.process", lane="client", frame=index, start_ms=now, dur_ms=dur
        ):
            for name, stage_dur in stages.items():
                tracer.add_span(
                    name, lane="client", frame=index, start_ms=now, dur_ms=stage_dur
                )
    return tracer


class TestSloEvaluation:
    def test_miss_rate_streak_and_attribution(self):
        tracer = _synthetic_frames(
            [
                (10.0, {"mamt.predict": 8.0, "mamt.features": 2.0}),
                (50.0, {"mamt.predict": 40.0, "mamt.features": 10.0}),
                (60.0, {"mamt.predict": 45.0, "mamt.features": 15.0}),
                (10.0, {"mamt.predict": 8.0, "mamt.features": 2.0}),
                (40.0, {"mamt.features": 30.0, "mamt.predict": 10.0}),
                (10.0, {"mamt.predict": 8.0, "mamt.features": 2.0}),
                (100.0, None),  # stale frame: client never got to it
            ]
        )
        report = evaluate_slo(tracer)
        assert report["frames"] == 7
        assert report["misses"] == 4
        assert report["miss_rate"] == pytest.approx(4 / 7, abs=1e-6)
        assert report["worst_streak"] == 2
        assert report["max_over_ms"] == pytest.approx(100.0 - FRAME_BUDGET_MS, abs=1e-5)
        assert report["attribution"] == {
            "mamt.predict": 2,
            "mamt.features": 1,
            "client.stale_wait": 1,
        }
        assert sum(report["attribution"].values()) == report["misses"]

    def test_warmup_frames_excluded(self):
        tracer = _synthetic_frames(
            [(100.0, None), (100.0, None), (10.0, {"mamt.predict": 10.0})]
        )
        report = evaluate_slo(tracer, warmup_frames=2)
        assert report["frames"] == 1
        assert report["misses"] == 0
        assert report["worst_streak"] == 0

    def test_all_frames_missing_is_one_long_streak(self):
        tracer = _synthetic_frames([(50.0, None)] * 5)
        report = evaluate_slo(tracer)
        assert report["misses"] == 5
        assert report["worst_streak"] == 5
        assert report["attribution"] == {"client.stale_wait": 5}

    def test_streak_resets_on_met_deadline(self):
        tracer = _synthetic_frames(
            [(50.0, None), (10.0, {"a": 10.0}), (50.0, None), (50.0, None)]
        )
        assert evaluate_slo(tracer)["worst_streak"] == 2

    def test_no_misses(self):
        tracer = _synthetic_frames([(10.0, {"a": 10.0})] * 4)
        report = evaluate_slo(tracer)
        assert report["misses"] == 0
        assert report["total_over_ms"] == 0.0
        assert report["attribution"] == {}

    def test_custom_budget(self):
        tracer = _synthetic_frames([(10.0, {"a": 10.0})] * 4)
        assert evaluate_slo(tracer, budget_ms=5.0)["misses"] == 4

    def test_processed_frame_without_stage_children_blames_itself(self):
        tracer = Tracer()
        tracer.add_span(
            "client.process", lane="client", frame=0, start_ms=0.0, dur_ms=90.0
        )
        report = evaluate_slo(tracer)
        assert report["attribution"] == {"client.process": 1}


class TestPipelineDeadlineEvents:
    def test_deadline_miss_events_and_counters(self):
        import numpy as np

        from repro.eval import build_client
        from repro.model import SimulatedSegmentationModel
        from repro.network import make_channel
        from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline
        from repro.synthetic import make_dataset

        video = make_dataset(
            "davis_like", num_frames=30, resolution=(160, 120), seed=0
        )
        tracer = Tracer()
        client = build_client("edgeis", video, seed=0, tracer=tracer)
        server = EdgeServer(
            SimulatedSegmentationModel(rng=np.random.default_rng(7)),
            tracer=tracer,
        )
        channel = make_channel("wifi_5ghz", np.random.default_rng(1))
        pipeline = MultiClientPipeline(
            [ClientSession(video, client, channel)],
            server,
            warmup_frames=5,
            tracer=tracer,
            deadline_budget_ms=0.5,  # impossible budget: every frame misses
        )
        pipeline.run()
        events = [e for e in tracer.events if e.name == "frame.deadline_miss"]
        assert len(events) == 30
        for event in events:
            assert event.attrs["budget_ms"] == 0.5
            assert event.attrs["over_ms"] > 0.0
            assert event.attrs["latency_ms"] > 0.5
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["pipeline.deadline_miss"] == 30
        assert counters["pipeline.frames"] == 30
        histograms = tracer.metrics.snapshot()["histograms"]
        assert histograms["pipeline.frame_latency_ms"]["count"] == 30

    def test_default_budget_is_frame_interval(self):
        tracer = run_experiment(
            ExperimentSpec(
                system="edgeis",
                num_frames=70,
                resolution=(160, 120),
                trace=True,
            )
        ).tracer
        events = [e for e in tracer.events if e.name == "frame.deadline_miss"]
        # The traced run has stale frames, and a stale frame's latency is
        # at least one frame interval over budget by construction.
        assert events
        interval = 1000.0 / 30.0
        for event in events:
            assert event.attrs["budget_ms"] == pytest.approx(interval, abs=1e-4)
            # Miss events must agree with the recorded frame spans.
            assert event.attrs["latency_ms"] > event.attrs["budget_ms"]


class TestTraceCli:
    def test_trace_command_writes_exports(self, tmp_path, capsys):
        out_dir = tmp_path / "trace"
        code = cli_main(
            ["trace", "fig9", "--frames", "60", "--out", str(out_dir)]
        )
        assert code == 0
        chrome = json.loads((out_dir / "trace_chrome.json").read_text())
        assert chrome["traceEvents"]  # non-empty Chrome trace
        assert (out_dir / "trace.jsonl").stat().st_size > 0
        assert "reconciliation" in capsys.readouterr().out
