"""Building blocks of the mobile/edge pipeline: per-frame metrics, the
run result, and the edge server.

The frame loop that drives them is
:class:`~repro.runtime.multi.MultiClientPipeline`; a single-device
experiment is a one-session run of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..image.masks import InstanceMask
from ..model.degrade import degrade_mask_to_iou
from ..model.maskrcnn import SimulatedSegmentationModel
from ..obs.trace import NULL_TRACER, RequestContext, Tracer
from .interface import OffloadRequest

__all__ = [
    "FrameMetric",
    "RunResult",
    "EdgeServer",
]

@dataclass
class FrameMetric:
    """Everything measured for one displayed frame."""

    frame_index: int
    object_ious: dict[int, float]
    object_areas: dict[int, int]
    latency_ms: float
    client_processed: bool  # False = client was busy, stale display
    offloaded: bool
    num_rendered: int

    @property
    def mean_iou(self) -> float:
        if not self.object_ious:
            return 1.0  # empty scene, nothing to segment
        return float(np.mean(list(self.object_ious.values())))


@dataclass
class RunResult:
    """Aggregated outcome of one pipeline run."""

    system: str
    frames: list[FrameMetric]
    warmup_frames: int
    offload_count: int
    bytes_up: int
    bytes_down: int
    server_busy_ms: float
    duration_ms: float

    def _measured(self) -> list[FrameMetric]:
        return [f for f in self.frames if f.frame_index >= self.warmup_frames]

    def per_object_ious(self) -> np.ndarray:
        values = [
            iou for f in self._measured() for iou in f.object_ious.values()
        ]
        return np.asarray(values) if values else np.zeros(0)

    def mean_iou(self) -> float:
        ious = self.per_object_ious()
        return float(ious.mean()) if len(ious) else 1.0

    def false_rate(self, threshold: float = 0.75) -> float:
        ious = self.per_object_ious()
        if len(ious) == 0:
            return 0.0
        return float((ious < threshold).mean())

    def mean_latency_ms(self) -> float:
        measured = self._measured()
        if not measured:
            return 0.0
        return float(np.mean([f.latency_ms for f in measured]))

    def iou_cdf(self, grid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(grid, P[IoU <= grid]) over measured per-object IoUs."""
        ious = self.per_object_ious()
        if grid is None:
            grid = np.linspace(0.0, 1.0, 101)
        if len(ious) == 0:
            return grid, np.zeros_like(grid)
        cdf = np.array([(ious <= g).mean() for g in grid])
        return grid, cdf

    def server_utilization(self) -> float:
        return self.server_busy_ms / max(self.duration_ms, 1e-9)

    def to_dict(self, include_frames: bool = False) -> dict:
        """JSON-serializable summary (optionally with the per-frame trace)."""
        payload = {
            "system": self.system,
            "warmup_frames": self.warmup_frames,
            "num_frames": len(self.frames),
            "mean_iou": self.mean_iou(),
            "false_rate_75": self.false_rate(0.75),
            "false_rate_50": self.false_rate(0.5),
            "mean_latency_ms": self.mean_latency_ms(),
            "offload_count": self.offload_count,
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
            "server_utilization": self.server_utilization(),
        }
        if include_frames:
            payload["frames"] = [
                {
                    "frame": f.frame_index,
                    "ious": {str(k): v for k, v in f.object_ious.items()},
                    "latency_ms": f.latency_ms,
                    "processed": f.client_processed,
                    "offloaded": f.offloaded,
                }
                for f in self.frames
            ]
        return payload


class EdgeServer:
    """A single-GPU edge node running the (simulated) segmentation model."""

    def __init__(
        self,
        model: SimulatedSegmentationModel,
        rng: np.random.Generator | None = None,
        tracer: Tracer | None = None,
    ):
        self.model = model
        self._rng = rng or np.random.default_rng(7)
        self.free_at_ms = 0.0
        self.busy_ms_total = 0.0
        # Runtime service-time multiplier — the chaos straggler fault
        # flips this mid-run (1.0 = exact pre-chaos latency, since
        # ``x * 1.0 == x`` for every finite float).
        self.latency_scale = 1.0
        # Trace lane; a ServerPool renames its replicas server0..serverN.
        self.lane = "server"
        self.attach_tracer(tracer if tracer is not None else NULL_TRACER)

    def attach_tracer(self, tracer: Tracer) -> None:
        """(Re)bind a tracer — pipelines wire their own through here."""
        self.tracer = tracer
        metrics = tracer.metrics
        self._m_requests = metrics.counter("server.requests")
        self._h_queue_wait = metrics.histogram("server.queue_wait_ms")
        self._h_infer = metrics.histogram("server.infer_ms")
        self.model.attach_metrics(metrics)

    def batch_setup_ms(self) -> float:
        """Fixed per-call cost of one inference pass on this device.

        Calibrates the batched latency model ``setup + k * n**alpha``:
        the fixed RPN/backbone and second-stage entry costs are paid once
        per batch, the per-item work ``k`` amortizes sub-linearly.
        """
        return self.model.device.scale(
            self.model.cost.rpn_fixed_ms + self.model.cost.inference_fixed_ms
        )

    def _infer_one(
        self,
        request: OffloadRequest,
        truth_masks: list[InstanceMask],
        image_shape: tuple[int, int],
    ):
        """Model pass + encoded-fidelity degradation for one request."""
        result = self.model.infer(
            truth_masks,
            image_shape,
            instructions=request.instructions,
            use_dynamic_anchors=request.use_dynamic_anchors,
            use_roi_pruning=request.use_roi_pruning,
        )
        detections = result.masks
        # Coarsely-encoded object tiles cost the model boundary accuracy.
        if request.encoded is not None:
            degraded = []
            for detection in detections:
                box = detection.box
                if box is None:
                    continue
                fidelity = request.encoded.fidelity_for_box(box)
                if fidelity < 0.98:
                    target = 0.55 + 0.45 * fidelity
                    detection = InstanceMask(
                        instance_id=detection.instance_id,
                        class_label=detection.class_label,
                        mask=degrade_mask_to_iou(
                            detection.mask, target, self._rng
                        ),
                        score=detection.score,
                    )
                degraded.append(detection)
            detections = degraded
        return result, detections

    def submit(
        self,
        request: OffloadRequest,
        truth_masks: list[InstanceMask],
        image_shape: tuple[int, int],
        arrive_ms: float,
        ctx: RequestContext | None = None,
    ) -> tuple[float, list[InstanceMask]]:
        """Run inference; returns (completion time ms, detections)."""
        start = max(arrive_ms, self.free_at_ms)
        tracer = self.tracer
        if tracer.enabled:
            if 0.0 < self.free_at_ms < arrive_ms:
                tracer.add_span(
                    "server.idle",
                    lane=self.lane,
                    start_ms=self.free_at_ms,
                    dur_ms=arrive_ms - self.free_at_ms,
                )
            tracer.event(
                "server.queue_enter",
                lane=self.lane,
                ts_ms=arrive_ms,
                frame=request.frame_index,
                ctx=ctx,
                was_free=self.is_free_at(arrive_ms),
            )
        result, detections = self._infer_one(request, truth_masks, image_shape)
        service_ms = result.total_ms * self.latency_scale
        completion = start + service_ms
        self.free_at_ms = completion
        self.busy_ms_total += service_ms
        self._m_requests.inc()
        self._h_queue_wait.observe(start - arrive_ms)
        self._h_infer.observe(service_ms)
        if tracer.enabled:
            tracer.event(
                "server.queue_exit",
                lane=self.lane,
                ts_ms=start,
                frame=request.frame_index,
                ctx=ctx,
                queue_wait_ms=round(start - arrive_ms, 6),
            )
            attrs = {
                "rpn_ms": round(result.rpn_ms, 6),
                "inference_ms": round(result.inference_ms, 6),
                "anchors_evaluated": result.anchors_evaluated,
                "num_proposals": result.num_proposals,
                "num_rois": result.num_rois,
                "num_detections": len(detections),
                "location_fraction": round(result.location_fraction, 6),
            }
            if result.pruning is not None:
                attrs["rois_pruned_dominated"] = result.pruning.num_pruned_dominated
                attrs["rois_pruned_nms"] = result.pruning.num_pruned_nms
            tracer.add_span(
                "server.infer",
                lane=self.lane,
                frame=request.frame_index,
                start_ms=start,
                dur_ms=service_ms,
                ctx=ctx,
                **attrs,
            )
        return completion, detections

    def submit_batch(
        self,
        entries: list[tuple],
        start_ms: float,
        alpha: float,
    ) -> tuple[float, list[list[InstanceMask]], list[float]]:
        """Serve several requests as one batched inference call.

        ``entries`` are ``(request, truth_masks, image_shape, arrive_ms,
        ctx)`` tuples (``ctx`` a :class:`RequestContext` or None);
        ``start_ms`` is when the scheduler dispatches the batch.
        Latency follows the calibrated sub-linear model::

            batch_ms = setup + k * n**alpha,   k = mean(solo_ms) - setup

        where ``setup`` (:meth:`batch_setup_ms`) is the device-scaled
        fixed cost paid once per call and ``solo_ms`` are the per-item
        latencies the cost model charges when served alone — so a batch
        of one reproduces the solo latency exactly.  Returns
        ``(completion_ms, per-item detections, per-item solo_ms)``; every
        item completes when the batch does.
        """
        if not entries:
            raise ValueError("submit_batch needs at least one entry")
        start = max(start_ms, self.free_at_ms)
        tracer = self.tracer
        results = []
        all_detections: list[list[InstanceMask]] = []
        for request, truth_masks, image_shape, arrive_ms, ctx in entries:
            if tracer.enabled:
                tracer.event(
                    "server.queue_enter",
                    lane=self.lane,
                    ts_ms=arrive_ms,
                    frame=request.frame_index,
                    ctx=ctx,
                    was_free=self.is_free_at(arrive_ms),
                )
            result, detections = self._infer_one(
                request, truth_masks, image_shape
            )
            results.append(result)
            all_detections.append(detections)
        solo_ms = [result.total_ms for result in results]
        setup = self.batch_setup_ms()
        size = len(entries)
        per_item = max(sum(solo_ms) / size - setup, 0.0)
        batch_ms = (setup + per_item * size**alpha) * self.latency_scale
        completion = start + batch_ms
        self.free_at_ms = completion
        self.busy_ms_total += batch_ms
        for (request, _, _, arrive_ms, ctx), result in zip(entries, results):
            self._m_requests.inc()
            self._h_queue_wait.observe(start - arrive_ms)
            if tracer.enabled:
                tracer.event(
                    "server.queue_exit",
                    lane=self.lane,
                    ts_ms=start,
                    frame=request.frame_index,
                    ctx=ctx,
                    queue_wait_ms=round(start - arrive_ms, 6),
                )
        self._h_infer.observe(batch_ms)
        if tracer.enabled:
            member_traces = [
                entry[4].trace_id for entry in entries if entry[4] is not None
            ]
            tracer.add_span(
                "server.infer",
                lane=self.lane,
                frame=entries[0][0].frame_index,
                start_ms=start,
                dur_ms=batch_ms,
                ctx=entries[0][4],
                batch_size=size,
                setup_ms=round(setup, 6),
                solo_total_ms=round(sum(solo_ms), 6),
                traces=member_traces,
            )
        return completion, all_detections, solo_ms

    def is_free_at(self, now_ms: float) -> bool:
        """True when a request arriving at ``now_ms`` would start at once
        instead of queueing behind an earlier inference."""
        return self.free_at_ms <= now_ms
