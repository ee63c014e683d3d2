"""Per-layer metrics, the layer self-time table and the span file of one
traced run."""

from __future__ import annotations

import json
from collections import defaultdict

from layers import SPAN_FIELDS
from measure import nearest_rank, ratio, self_time, union_length
from workloads import session_results

# (name, unit, probed span it is read from or None) of every per-layer
# metric, in report order.  A metric whose span has no probe target left
# in the program is reported absent.
LAYER_METRICS = (
    ("synthetic.render.calls", "count", "synthetic.render"),
    ("synthetic.render.ms", "ms", "synthetic.render"),
    ("synthetic.frame_at.hit_ratio", "ratio", "synthetic.frame_at"),
    ("features.match.calls", "count", "features.match"),
    ("features.match.ms", "ms", "features.match"),
    ("features.hamming.calls", "count", "features.hamming"),
    ("features.hamming.ms", "ms", "features.hamming"),
    ("features.hamming.pairs", "count", "features.hamming"),
    ("vo.observe.calls", "count", "vo.observe"),
    ("vo.observe.ms", "ms", "vo.observe"),
    ("vo.track.calls", "count", "vo.track"),
    ("vo.track.ms", "ms", "vo.track"),
    ("vo.track.tracking_ratio", "ratio", "vo.track"),
    ("vo.apply.calls", "count", "vo.apply"),
    ("vo.apply.accepted_ratio", "ratio", "vo.apply"),
    ("vo.keyframes", "count", "vo.keyframe"),
    ("geometry.pose.calls", "count", "geometry.pose"),
    ("geometry.pose.ms", "ms", "geometry.pose"),
    ("geometry.init.ms", "ms", "geometry.init"),
    ("transfer.predict.calls", "count", "transfer.predict"),
    ("transfer.predict.ms", "ms", "transfer.predict"),
    ("transfer.masks_per_call", "masks/call", "transfer.predict"),
    ("encoding.decide.calls", "count", "encoding.decide"),
    ("encoding.decide.send_ratio", "ratio", "encoding.decide"),
    ("encoding.encode.calls", "count", "encoding.encode"),
    ("encoding.encode.ms", "ms", "encoding.encode"),
    ("encoding.bytes_per_offload", "bytes", "encoding.encode"),
    ("core.process_frame.calls", "count", "core.process_frame"),
    ("core.process_frame.ms", "ms", "core.process_frame"),
    ("core.stale_frame_ratio", "ratio", None),
    ("network.uplink.calls", "count", "network.uplink"),
    ("network.bytes_up", "bytes", None),
    ("network.bytes_down", "bytes", None),
    ("model.infer.calls", "count", "model.infer"),
    ("model.infer.ms", "ms", "model.infer"),
    ("model.infer.sim_ms", "sim-ms", "model.infer"),
    ("model.anchors_evaluated", "count", "model.infer"),
    ("serve.submit.calls", "count", "serve.submit"),
    ("serve.submit.ms", "ms", "serve.submit"),
    ("serve.advance.calls", "count", "serve.advance"),
    ("serve.advance.ms", "ms", "serve.advance"),
    ("serve.admit_ratio", "ratio", "serve.submit"),
    ("serve.on_time_ratio", "ratio", "serve.advance"),
    ("serve.shed", "count", "serve.advance"),
    ("serve.batch.mean_size", "items/batch", "serve.advance"),
    ("serve.sim_sojourn_ms_p50", "sim-ms", "serve.advance"),
    ("serve.busy_ms_per_completion", "sim-ms", "serve.advance"),
    ("runtime.ticks", "count", None),
    ("runtime.self_ms", "ms", None),
    ("obs.analytics.ms", "ms", "obs.analytics"),
    ("obs.tracer_overhead_pct", "%", None),
    ("chaos.tick.calls", "count", "chaos.tick"),
    ("chaos.tick.ms", "ms", "chaos.tick"),
    ("bench.trace_overhead_pct", "%", None),
)


def span_self_times(spans) -> list[float]:
    """Self time in seconds of every span, aligned with ``spans``."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    return [self_time(span[2], span[3], children[span[0]]) for span in spans]


def tick_breakdown(spans, rep) -> tuple[list[float], list[bool], float]:
    """Self time in seconds of every span, whether the span lies inside
    the ticks, and ``runtime.self_ms``: the tick time no top-level span
    covers."""
    selfs = span_self_times(spans)
    lo, hi = rep.clock.tick_starts[0], rep.clock.closed
    inside = [lo <= span[2] and span[3] <= hi for span in spans]
    roots = [(span[2], span[3]) for span, ok in zip(spans, inside) if ok and span[4] is None]
    return selfs, inside, sum(rep.tick_ms) - union_length(roots, lo, hi) * 1e3


def absent_spans(probes) -> set[str]:
    """Span names none of whose probe targets exist in the program."""
    present = {t.span for t in probes.targets} - set(probes.missing)
    return set(probes.missing) - present


def layer_metrics(probes, rep, tracer_overhead_pct: float, untraced_wall_s: float):
    """``({name: (value, unit)}, extra)`` for one traced repetition.

    ``extra`` holds the base of every ratio and the additivity check:
    the self times of all spans inside the ticks plus ``runtime.self_ms``
    must add up to the total tick time."""
    spans = probes.spans
    selfs, inside, runtime_self_ms = tick_breakdown(spans, rep)
    calls = defaultdict(int)
    ms = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[1]] += 1
        ms[span[1]] += own * 1e3
    rendered_under = {span[4] for span in spans if span[1] == "synthetic.render"}
    frame_at_ids = [span[0] for span in spans if span[1] == "synthetic.frame_at"]
    hits = sum(span_id not in rendered_under for span_id in frame_at_ids)
    tick_total_ms = sum(rep.tick_ms)
    layers_ms = sum(own for own, ok in zip(selfs, inside) if ok) * 1e3
    additive = abs(layers_ms + runtime_self_ms - tick_total_ms) <= 1e-6 * tick_total_ms

    counts = probes.counts
    outcome = rep.clock.outcome
    results = session_results(outcome)
    scheduler = getattr(outcome, "scheduler", None)
    stats = scheduler.stats() if scheduler is not None else {}
    completed = counts.get("serve.completed", 0)
    dispatches = stats.get("batching", {}).get("batches", completed)
    frames = [frame for result in results for frame in result.frames]
    stale = sum(not frame.client_processed for frame in frames)
    sojourn = counts.get("serve.sojourn_ms", [])
    busy_ms = scheduler.busy_ms_total if scheduler is not None else 0.0

    bases = {
        "synthetic.frame_at.hit_ratio": (hits, len(frame_at_ids)),
        "vo.track.tracking_ratio": (counts.get("vo.track.tracking", 0), calls["vo.track"]),
        "vo.apply.accepted_ratio": (counts.get("vo.apply.accepted", 0), calls["vo.apply"]),
        "transfer.masks_per_call": (counts.get("transfer.masks", 0), calls["transfer.predict"]),
        "encoding.decide.send_ratio": (
            counts.get("encoding.decide.send", 0), calls["encoding.decide"]),
        "encoding.bytes_per_offload": (counts.get("encoding.bytes", 0), calls["encoding.encode"]),
        "core.stale_frame_ratio": (stale, len(frames)),
        "serve.admit_ratio": (counts.get("serve.admitted", 0), calls["serve.submit"]),
        "serve.on_time_ratio": (counts.get("serve.on_time", 0), completed),
        "serve.batch.mean_size": (completed, dispatches),
        "serve.busy_ms_per_completion": (busy_ms, completed),
    }
    values = {name: ratio(*base) for name, base in bases.items()}
    values.update({
        "features.hamming.pairs": counts.get("features.hamming.pairs", 0),
        "vo.keyframes": calls["vo.keyframe"],
        "network.bytes_up": sum(result.bytes_up for result in results),
        "network.bytes_down": sum(result.bytes_down for result in results),
        "model.infer.sim_ms": counts.get("model.infer.sim_ms", 0.0),
        "model.anchors_evaluated": counts.get("model.anchors_evaluated", 0),
        "serve.shed": counts.get("serve.shed", 0),
        "serve.sim_sojourn_ms_p50": nearest_rank(sojourn, 50.0) if sojourn else 0.0,
        "runtime.ticks": len(rep.tick_ms),
        "runtime.self_ms": runtime_self_ms,
        "obs.tracer_overhead_pct": tracer_overhead_pct,
        "bench.trace_overhead_pct": (rep.wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
    })
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".calls"):
            values.setdefault(name, calls[name[: -len(".calls")]])
        elif name.endswith(".ms"):
            values.setdefault(name, ms[name[: -len(".ms")]])

    absent = absent_spans(probes)
    metrics = {
        name: (None if span in absent else values[name], unit)
        for name, unit, span in LAYER_METRICS
    }
    extra = {
        "additive": additive,
        "tick_total_ms": tick_total_ms,
        "layers_self_ms": layers_ms,
        "ratio_bases": {name: list(base) for name, base in bases.items()},
    }
    return metrics, extra


def layer_table(probes, rep) -> str:
    """Self time per layer and span name, with its share of tick time."""
    spans = probes.spans
    selfs, inside, runtime_ms = tick_breakdown(spans, rep)
    tick_total_ms = sum(rep.tick_ms)
    rows = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self ms inside ticks, outside
    for span, own, ok in zip(spans, selfs, inside):
        row = rows[span[1]]
        row[0] += 1
        row[1 if ok else 2] += own * 1e3
    layers = defaultdict(float)
    for name, row in rows.items():
        layers[name.split(".")[0]] += row[1]
    layers["runtime"] += runtime_ms

    lines = [f"{'layer':<11}{'span':<22}{'calls':>8}{'self ms':>12}{'% tick':>8}"]
    for layer, total in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(
            f"{layer:<11}{'':<22}{'':>8}{total:>12.2f}{100 * total / tick_total_ms:>8.2f}"
        )
        for name, row in sorted(rows.items(), key=lambda item: -item[1][1]):
            if name.split(".")[0] == layer:
                lines.append(
                    f"{'':<11}{name:<22}{row[0]:>8d}{row[1]:>12.2f}"
                    f"{100 * row[1] / tick_total_ms:>8.2f}"
                )
    lines.append(f"{'ticks':<33}{len(rep.tick_ms):>8d}{tick_total_ms:>12.2f}{100.0:>8.2f}")
    outside = {name: row[2] for name, row in rows.items() if row[2]}
    for name, value in sorted(outside.items()):
        lines.append(f"outside ticks: {name} {value:.2f} ms")
    return "\n".join(lines) + "\n"


def write_spans(path, probes, clock) -> None:
    """One JSON line per tick and per span; times in ms from the
    entry-point call."""
    origin = clock.entered
    with open(path, "w") as out:
        ends = clock.tick_starts[1:] + [clock.closed]
        for index, (start, end) in enumerate(zip(clock.tick_starts, ends)):
            out.write(json.dumps({
                "tick": index,
                "start_ms": round((start - origin) * 1e3, 4),
                "end_ms": round((end - origin) * 1e3, 4),
            }) + "\n")
        for span in probes.spans:
            record = dict(zip(SPAN_FIELDS, span))
            record["start"] = round((span[2] - origin) * 1e3, 4)
            record["end"] = round((span[3] - origin) * 1e3, 4)
            out.write(json.dumps(record) + "\n")
