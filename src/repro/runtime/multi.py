"""The mobile/edge pipeline: N devices frame-locked against edge inference.

The paper's field deployment connects *eight* mobile devices to a single
Jetson AGX Xavier (Section VI-G); a single-device experiment is the same
topology with one session.  :class:`MultiClientPipeline` interleaves any
number of (video, client, channel) sessions against either

* one bare :class:`~repro.runtime.pipeline.EdgeServer` — the paper's
  deployment topology: a single-inference-at-a-time FIFO queue, unbounded
  and deadline-blind; or
* a :class:`~repro.serve.scheduler.FleetScheduler` — the ``repro.serve``
  policy layer: N server replicas, pluggable placement, bounded
  deadline-checked admission, shedding, and MAMT-fallback degradation
  (see ``docs/serving.md``).

Timeline per frame tick (camera at ``fps``), for every session in turn:

1. pending edge results whose downlink completed are delivered;
2. if the client is free, it processes the frame (tracker / VO / local
   model), yielding display masks, a compute time, and possibly an offload;
   if it is still busy with an earlier frame, the *previous* display masks
   are re-rendered (that is the paper's "latency accumulates and results in
   a delayed mask rendering");
3. an offload is encoded, shipped over the channel, queued on the edge,
   run through the simulated model and shipped back.

Per-frame metrics record the IoU of whatever was on screen against the
frame's ground truth — the exact quantity behind every accuracy figure in
the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..encoding.mask_codec import encoded_size_bytes
from ..image.masks import InstanceMask, mask_iou
from ..network.channel import Channel
from ..obs.trace import NULL_TRACER, RequestContext, Tracer
from ..synthetic.world import SyntheticVideo
from .interface import ClientSystem
from .pipeline import FrameMetric, RunResult

__all__ = ["ClientSession", "MultiClientPipeline"]

RESULT_HEADER_BYTES = 200  # transport/container overhead per result


def _channel_transfer_attrs(channel: Channel) -> dict:
    """Span attrs describing the channel's most recent transfer: the
    stall the partition window added (when any) and the carrying link
    (only when a scheduled handoff moved it off the base profile)."""
    attrs = {}
    if channel.last_stall_ms > 0.0:
        attrs["stall_ms"] = round(channel.last_stall_ms, 6)
    if channel.last_link != channel.profile.name:
        attrs["link"] = channel.last_link
    return attrs


@dataclass
class _PendingDelivery:
    arrive_ms: float
    frame_index: int
    masks: list[InstanceMask]


@dataclass
class ClientSession:
    """One device in the fleet."""

    video: SyntheticVideo
    client: ClientSystem
    channel: Channel
    # Mutable run state:
    busy_until_ms: float = 0.0
    last_masks: list[InstanceMask] = field(default_factory=list)
    pending: list[_PendingDelivery] = field(default_factory=list)
    metrics: list[FrameMetric] = field(default_factory=list)
    offload_count: int = 0
    # Trace lane names (numbered by the pipeline when it has >1 session).
    client_lane: str = "client"
    channel_lane: str = "channel"


class MultiClientPipeline:
    """Drive N clients frame-locked against shared edge inference."""

    def __init__(
        self,
        sessions: list[ClientSession],
        server,
        warmup_frames: int = 45,
        min_gt_area: int = 200,
        tracer: Tracer | None = None,
        deadline_budget_ms: float | None = None,
        sampler=None,
        chaos=None,
        autoscaler=None,
    ):
        if not sessions:
            raise ValueError("MultiClientPipeline needs at least one session")
        lengths = {len(s.video) for s in sessions}
        if len(lengths) != 1:
            raise ValueError("all session videos must have the same length")
        rates = {s.video.fps for s in sessions}
        if len(rates) != 1:
            raise ValueError(
                "all session videos must share the same fps; got "
                f"{sorted(rates)} — the frame clock is fleet-wide, so a "
                "mixed-fps fleet would mis-time every session but the first"
            )
        self.sessions = sessions
        # ``server`` is either a bare EdgeServer (the paper's FIFO
        # topology) or a repro.serve FleetScheduler (anything with
        # submit/advance/stats is treated as a scheduler).
        self.scheduler = server if hasattr(server, "advance") else None
        self.server = None if self.scheduler is not None else server
        self.warmup_frames = warmup_frames
        # Ground-truth slivers below this pixel count are not measured —
        # video-segmentation datasets do not annotate barely-visible
        # occlusion remnants either.
        self.min_gt_area = min_gt_area
        self._frame_interval = 1000.0 / sessions[0].video.fps
        # Per-frame display deadline; None = one frame interval (the
        # paper's 30 fps real-time budget at the default frame rate).
        self._deadline_ms = (
            deadline_budget_ms
            if deadline_budget_ms is not None
            else self._frame_interval
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        backend = self.scheduler if self.scheduler is not None else self.server
        if self.tracer.enabled and not backend.tracer.enabled:
            backend.attach_tracer(self.tracer)
        # Optional repro.obs.timeline.TimelineSampler, ticked once per
        # frame tick so fleet gauges become fixed-interval time series.
        self.sampler = sampler
        # Optional repro.chaos.ChaosInjector, ticked at the top of every
        # frame tick so faults land at deterministic sim-clock instants.
        self.chaos = chaos
        # Optional repro.tenancy.Autoscaler, ticked right after chaos so
        # capacity reacts to faults within the same simulated frame.
        self.autoscaler = autoscaler
        # Tenant attribution for contexts minted on the client lanes
        # (the scheduler stamps its own); None outside tenancy runs.
        directory = getattr(self.scheduler, "tenancy", None)
        self._tenant_of = (
            directory.tenant_of if directory is not None else lambda index: None
        )
        # The scheduler's per-tenant meter (downlink bytes are only
        # known here, after the result is encoded for delivery).
        self._meter = getattr(self.scheduler, "meter", None)
        metrics = self.tracer.metrics
        self._m_frames = metrics.counter("pipeline.frames")
        self._m_deadline_miss = metrics.counter("pipeline.deadline_miss")
        self._h_frame_latency = metrics.histogram("pipeline.frame_latency_ms")
        # Live gauges the timeline sampler snapshots: an EWMA of display
        # latency and the number of results still in flight.
        self._g_latency_ewma = metrics.gauge("pipeline.frame_latency_ewma_ms")
        self._g_pending = metrics.gauge("pipeline.pending_deliveries")
        self._latency_ewma: float | None = None
        # One client+channel lane pair per device, one shared server lane;
        # a lone device keeps the plain ``client``/``channel`` names.
        numbered = len(self.sessions) > 1
        for index, session in enumerate(self.sessions):
            suffix = str(index) if numbered else ""
            session.client_lane = f"client{suffix}"
            session.channel_lane = f"channel{suffix}"
        # Last offload-mode pushed to each client (scheduler path only).
        self._offload_enabled = [True] * len(self.sessions)

    @property
    def _server_busy_ms(self) -> float:
        if self.scheduler is not None:
            return self.scheduler.busy_ms_total
        return self.server.busy_ms_total

    def run(self) -> list[RunResult]:
        num_frames = len(self.sessions[0].video)

        for frame_index in range(num_frames):
            now = frame_index * self._frame_interval
            self.tracer.set_now(now)
            if self.chaos is not None:
                self.chaos.tick(now)
            if self.autoscaler is not None:
                self.autoscaler.tick(now)
            if self.scheduler is not None:
                self._service_scheduler(now)
            for session_index, session in enumerate(self.sessions):
                self._step_session(session, session_index, frame_index, now)
            self._g_pending.set(
                sum(len(session.pending) for session in self.sessions)
            )
            if self.sampler is not None:
                self.sampler.tick(now)

        duration = num_frames * self._frame_interval
        return [
            RunResult(
                system=session.client.name,
                frames=session.metrics,
                warmup_frames=self.warmup_frames,
                offload_count=session.offload_count,
                bytes_up=session.channel.bytes_up,
                bytes_down=session.channel.bytes_down,
                server_busy_ms=self._server_busy_ms,
                duration_ms=duration,
            )
            for session in self.sessions
        ]

    # ------------------------------------------------------------------
    # Scheduler plumbing
    # ------------------------------------------------------------------
    def _service_scheduler(self, now: float) -> None:
        """Drain the fleet scheduler and apply its verdicts: deliver
        completions through each session's downlink, notify clients of
        sheds, and push degrade/recover mode flips to the clients."""
        tracer = self.tracer
        for outcome in self.scheduler.advance(now):
            session = self.sessions[outcome.item.session_index]
            if outcome.kind == "shed":
                session.client.offload_rejected(outcome.item.frame_index, now)
                continue
            result_bytes = encoded_size_bytes(outcome.masks) + RESULT_HEADER_BYTES
            if self._meter is not None and outcome.item.tenant is not None:
                self._meter.add(
                    outcome.item.tenant, "bytes_down", float(result_bytes)
                )
            downlink = session.channel.downlink_ms(
                result_bytes, now_ms=outcome.completion_ms
            )
            if tracer.enabled:
                tracer.add_span(
                    "channel.downlink",
                    lane=session.channel_lane,
                    frame=outcome.item.frame_index,
                    start_ms=outcome.completion_ms,
                    dur_ms=downlink,
                    ctx=outcome.item.ctx,
                    payload_bytes=int(result_bytes),
                    num_masks=len(outcome.masks),
                    server=outcome.server_index,
                    **_channel_transfer_attrs(session.channel),
                )
            session.pending.append(
                _PendingDelivery(
                    arrive_ms=outcome.completion_ms + downlink,
                    frame_index=outcome.item.frame_index,
                    masks=outcome.masks,
                )
            )

        for index, session in enumerate(self.sessions):
            enabled = not self.scheduler.is_degraded(index)
            if enabled != self._offload_enabled[index]:
                self._offload_enabled[index] = enabled
                session.client.set_offload_enabled(enabled)
            if enabled and self.scheduler.take_keyframe_request(index):
                session.client.request_keyframe()

    # ------------------------------------------------------------------
    def _step_session(self, session, session_index, frame_index, now) -> None:
        frame, truth = session.video.frame_at(frame_index)
        tracer = self.tracer

        ready = [d for d in session.pending if d.arrive_ms <= now]
        session.pending = [d for d in session.pending if d.arrive_ms > now]
        for delivery in sorted(ready, key=lambda d: d.arrive_ms):
            integration = session.client.receive_result(
                delivery.frame_index, delivery.masks, now
            )
            integration_start = max(session.busy_until_ms, now)
            session.busy_until_ms = integration_start + integration
            if tracer.enabled:
                delivery_ctx = RequestContext(
                    session_index,
                    delivery.frame_index,
                    tenant=self._tenant_of(session_index),
                )
                tracer.event(
                    "client.result_delivered",
                    lane=session.client_lane,
                    frame=delivery.frame_index,
                    ctx=delivery_ctx,
                    arrive_ms=round(delivery.arrive_ms, 6),
                    num_masks=len(delivery.masks),
                )
                tracer.add_span(
                    "client.integrate",
                    lane=session.client_lane,
                    frame=delivery.frame_index,
                    start_ms=integration_start,
                    dur_ms=integration,
                    ctx=delivery_ctx,
                )

        offloaded = False
        frame_ctx = RequestContext(
            session_index, frame_index, tenant=self._tenant_of(session_index)
        )
        if session.busy_until_ms <= now:
            with tracer.span(
                "client.process",
                lane=session.client_lane,
                frame=frame_index,
                start_ms=now,
                ctx=frame_ctx,
            ) as span:
                output = session.client.process_frame(frame, truth, now)
                span.dur_ms = output.compute_ms
            session.busy_until_ms = now + output.compute_ms
            session.last_masks = output.masks
            latency = output.compute_ms
            processed = True
            if output.offload is not None:
                offloaded = True
                session.offload_count += 1
                self._dispatch(
                    session,
                    session_index,
                    output.offload,
                    now + output.compute_ms,
                    now,
                )
        else:
            latency = (session.busy_until_ms - now) + self._frame_interval
            processed = False
            tracer.add_span(
                "client.stale_wait",
                lane=session.client_lane,
                frame=frame_index,
                start_ms=now,
                dur_ms=latency,
                ctx=frame_ctx,
                busy_until_ms=round(session.busy_until_ms, 6),
            )

        # A displayed frame later than one budget behind capture is a
        # first-class miss event.
        deadline_ms = self._deadline_ms
        self._m_frames.inc()
        self._h_frame_latency.observe(latency)
        if self._latency_ewma is None:
            self._latency_ewma = latency
        else:
            self._latency_ewma += 0.2 * (latency - self._latency_ewma)
        self._g_latency_ewma.set(self._latency_ewma)
        if latency > deadline_ms:
            self._m_deadline_miss.inc()
            if tracer.enabled:
                tracer.event(
                    "frame.deadline_miss",
                    lane=session.client_lane,
                    frame=frame_index,
                    ctx=frame_ctx,
                    latency_ms=round(latency, 6),
                    budget_ms=round(deadline_ms, 6),
                    over_ms=round(latency - deadline_ms, 6),
                    processed=processed,
                )

        rendered = {m.instance_id: m for m in session.last_masks}
        object_ious, object_areas = {}, {}
        for gt in truth.masks:
            if gt.area < self.min_gt_area:
                continue
            prediction = rendered.get(gt.instance_id)
            object_ious[gt.instance_id] = (
                mask_iou(prediction.mask, gt.mask) if prediction is not None else 0.0
            )
            object_areas[gt.instance_id] = gt.area
        session.metrics.append(
            FrameMetric(
                frame_index=frame_index,
                object_ious=object_ious,
                object_areas=object_areas,
                latency_ms=latency,
                client_processed=processed,
                offloaded=offloaded,
                num_rendered=len(session.last_masks),
            )
        )

    def _dispatch(self, session, session_index, request, send_time_ms, now) -> None:
        frame, truth = session.video.frame_at(request.frame_index)
        tracer = self.tracer
        ctx = RequestContext(
            session_index, request.frame_index, tenant=self._tenant_of(session_index)
        )
        if tracer.enabled:
            tracer.event(
                "offload.dispatch",
                lane=session.channel_lane,
                ts_ms=send_time_ms,
                frame=request.frame_index,
                ctx=ctx,
                reason=request.reason,
                payload_bytes=int(request.payload_bytes),
                encode_ms=round(request.encode_ms, 6),
            )
        uplink = session.channel.uplink_ms(
            request.payload_bytes, now_ms=send_time_ms + request.encode_ms
        )
        arrive = send_time_ms + request.encode_ms + uplink

        if self.scheduler is not None:
            backend_free = self.scheduler.is_free_at(arrive)
        else:
            backend_free = self.server.is_free_at(arrive)
        if tracer.enabled:
            tracer.add_span(
                "channel.uplink",
                lane=session.channel_lane,
                frame=request.frame_index,
                start_ms=send_time_ms + request.encode_ms,
                dur_ms=uplink,
                ctx=ctx,
                payload_bytes=int(request.payload_bytes),
                server_free_on_arrival=backend_free,
                **_channel_transfer_attrs(session.channel),
            )

        if self.scheduler is not None:
            admitted, _status = self.scheduler.submit(
                session_index,
                request,
                truth.masks,
                frame.shape,
                send_time_ms,
                arrive,
                self._deadline_ms,
                now,
            )
            if not admitted:
                session.client.offload_rejected(request.frame_index, now)
            return

        completion, detections = self.server.submit(
            request, truth.masks, frame.shape, arrive, ctx=ctx
        )
        result_bytes = encoded_size_bytes(detections) + RESULT_HEADER_BYTES
        downlink = session.channel.downlink_ms(result_bytes, now_ms=completion)
        if tracer.enabled:
            tracer.add_span(
                "channel.downlink",
                lane=session.channel_lane,
                frame=request.frame_index,
                start_ms=completion,
                dur_ms=downlink,
                ctx=ctx,
                payload_bytes=int(result_bytes),
                num_masks=len(detections),
                **_channel_transfer_attrs(session.channel),
            )
        session.pending.append(
            _PendingDelivery(
                arrive_ms=completion + downlink,
                frame_index=request.frame_index,
                masks=detections,
            )
        )
