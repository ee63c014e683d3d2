"""The compared systems (Section VI-B).

* :class:`MobileOnlyClient` — the whole DL model on the phone (TFLite):
  seconds per frame, so almost every displayed frame is stale.
* :class:`BestEffortEdgeClient` — ship frames to the edge whenever the
  previous answer came back, track the cached masks locally with motion
  vectors in between.
* :class:`EAARClient` — EAAR's per-object motion-vector tracker and
  motion-predicted RoI encoding (object boxes high quality, background
  medium), full-frame Mask R-CNN on the edge.
* :class:`EdgeDuetClient` — EdgeDuet's KCF-class correlation tracker and
  tile-level offloading that prioritizes *small* objects in high quality
  (the paper notes this harms large objects), full-frame Mask R-CNN.

Per-frame compute costs are explicit constants calibrated to the paper's
mobile-side latency comparison (Fig. 11: EAAR ~41 ms, EdgeDuet ~49 ms
against edgeIS ~28 ms).
"""

from __future__ import annotations

import numpy as np

from ..encoding.tiles import TileGrid, TileQuality, encode_frame
from ..image.masks import InstanceMask
from ..model.maskrcnn import SimulatedSegmentationModel
from ..runtime.interface import ClientFrameOutput, OffloadRequest
from .trackers import MosseTracker, MotionVectorTracker

__all__ = [
    "MobileOnlyClient",
    "BestEffortEdgeClient",
    "EAARClient",
    "EdgeDuetClient",
]


class MobileOnlyClient:
    """Run the segmentation model on the device itself (TFLite baseline)."""

    name = "mobile_only"

    def __init__(self, rng: np.random.Generator | None = None):
        self.model = SimulatedSegmentationModel(
            "mask_rcnn_r101", "mobile_npu", rng or np.random.default_rng(11)
        )

    def process_frame(self, frame, truth, now_ms) -> ClientFrameOutput:
        result = self.model.infer(truth.masks, frame.shape)
        return ClientFrameOutput(masks=result.masks, compute_ms=result.total_ms)

    def receive_result(self, frame_index, masks, now_ms) -> float:
        return 0.0  # never offloads

    def offload_rejected(self, frame_index, now_ms) -> None:
        pass  # never offloads, nothing in flight

    def set_offload_enabled(self, enabled) -> None:
        pass  # never offloads

    def request_keyframe(self) -> None:
        pass  # never offloads

    def memory_bytes(self) -> int:
        return 350 * 1024 * 1024  # resident model weights


class _TrackedOffloadClient:
    """Shared machinery: local tracker + one-in-flight offloading."""

    # Per-frame compute model (ms); subclasses override.
    tracker_base_ms = 8.0
    tracker_per_object_ms = 2.0
    encode_ms = 12.0
    integrate_ms = 8.0

    def __init__(self, frame_shape: tuple[int, int], rng=None):
        self.grid = TileGrid(frame_shape[0], frame_shape[1], 16)
        self._rng = rng or np.random.default_rng(13)
        self._outstanding = 0
        self._last_gray = None

    # subclasses provide: self.tracker, _encode(frame, gray) -> EncodedFrame
    def _tracker_update(self, gray) -> list[InstanceMask]:
        return self.tracker.update(gray)

    def process_frame(self, frame, truth, now_ms) -> ClientFrameOutput:
        gray = frame.gray
        masks = self._tracker_update(gray)
        compute = self.tracker_base_ms + self.tracker_per_object_ms * len(masks)
        offload = None
        if self._outstanding == 0:
            encoded = self._encode(frame, gray, masks)
            offload = OffloadRequest(
                frame_index=frame.index,
                payload_bytes=encoded.total_bytes,
                encode_ms=self.encode_ms,
                instructions=None,  # no CIIA in the compared systems
                use_dynamic_anchors=False,
                use_roi_pruning=False,
                encoded=encoded,
                reason="best-effort",
            )
            compute += self.encode_ms
            self._outstanding += 1
        self._last_gray = gray
        return ClientFrameOutput(masks=masks, compute_ms=compute, offload=offload)

    def receive_result(self, frame_index, masks, now_ms) -> float:
        self._outstanding = max(0, self._outstanding - 1)
        if self._last_gray is not None:
            self.tracker.reset(masks, self._last_gray)
        return self.integrate_ms

    def offload_rejected(self, frame_index, now_ms) -> None:
        # Free the slot; the tracker keeps coasting on its current state.
        self._outstanding = max(0, self._outstanding - 1)

    def set_offload_enabled(self, enabled) -> None:
        pass  # no degraded mode: offloads whenever a slot is free

    def request_keyframe(self) -> None:
        pass  # every offload is already a whole encoded frame

    def memory_bytes(self) -> int:
        return 80 * 1024 * 1024

    # ------------------------------------------------------------------
    def _encode(self, frame, gray, masks):  # pragma: no cover - abstract
        raise NotImplementedError


class BestEffortEdgeClient:
    """Send frames at full quality as fast as the pipe allows and render
    whatever masks last came back, unmodified.

    No local adaptation at all: the displayed result is always one
    round-trip (plus queueing) stale, which is why the paper measures a
    60% false rate for this strategy.
    """

    name = "edge_best_effort"
    render_ms = 6.0
    encode_ms = 14.0  # full-quality whole frame
    integrate_ms = 5.0
    max_outstanding = 3  # naive pipelining: an in-flight queue builds up

    def __init__(self, frame_shape, rng=None):
        self.grid = TileGrid(frame_shape[0], frame_shape[1], 16)
        self._rng = rng or np.random.default_rng(13)
        self._outstanding = 0
        self._masks: list[InstanceMask] = []

    def process_frame(self, frame, truth, now_ms) -> ClientFrameOutput:
        compute = self.render_ms
        offload = None
        if self._outstanding < self.max_outstanding:
            qualities = np.full(
                (self.grid.rows, self.grid.cols), int(TileQuality.HIGH), dtype=int
            )
            encoded = encode_frame(frame.gray, qualities, self.grid, frame.index)
            offload = OffloadRequest(
                frame_index=frame.index,
                payload_bytes=encoded.total_bytes,
                encode_ms=self.encode_ms,
                use_dynamic_anchors=False,
                use_roi_pruning=False,
                encoded=encoded,
                reason="best-effort",
            )
            compute += self.encode_ms
            self._outstanding += 1
        return ClientFrameOutput(
            masks=list(self._masks), compute_ms=compute, offload=offload
        )

    def receive_result(self, frame_index, masks, now_ms) -> float:
        self._outstanding = max(0, self._outstanding - 1)
        self._masks = masks
        return self.integrate_ms

    def offload_rejected(self, frame_index, now_ms) -> None:
        # Free the slot; keep rendering the last delivered masks.
        self._outstanding = max(0, self._outstanding - 1)

    def set_offload_enabled(self, enabled) -> None:
        pass  # no degraded mode: offloads whenever a slot is free

    def request_keyframe(self) -> None:
        pass  # every offload is already a full-quality frame

    def memory_bytes(self) -> int:
        return 60 * 1024 * 1024


class EAARClient(_TrackedOffloadClient):
    """EAAR: motion-vector tracker + motion-predicted RoI encoding."""

    name = "eaar"
    tracker_base_ms = 12.0
    tracker_per_object_ms = 6.5  # per-object block matching, Fig. 11: ~41 ms
    encode_ms = 10.0

    def __init__(self, frame_shape, rng=None):
        super().__init__(frame_shape, rng)
        self.tracker = MotionVectorTracker()

    def _encode(self, frame, gray, masks):
        # Object areas (predicted by the tracker's boxes) in high quality,
        # background medium — EAAR's RoI prediction is box-coarse, leaving
        # "room for further compression" (Section VI-C3).
        qualities = np.full(
            (self.grid.rows, self.grid.cols), int(TileQuality.MEDIUM), dtype=int
        )
        for mask in masks:
            box = mask.box
            if box is None:
                continue
            rows, cols = self.grid.tiles_overlapping_box(box)
            qualities[rows, cols] = int(TileQuality.HIGH)
        return encode_frame(gray, qualities, self.grid, frame.index)


class EdgeDuetClient(_TrackedOffloadClient):
    """EdgeDuet: KCF-class tracker + small-object-priority tile offloading."""

    name = "edgeduet"
    tracker_base_ms = 16.0
    tracker_per_object_ms = 7.0  # correlation filters, Fig. 11: ~49 ms
    encode_ms = 9.0
    small_object_area = 1200  # px: objects below this ship in high quality

    def __init__(self, frame_shape, rng=None):
        super().__init__(frame_shape, rng)
        self.tracker = MosseTracker()

    def _encode(self, frame, gray, masks):
        # Small objects high, everything else (including *large* objects)
        # low — the behaviour the paper calls out as harming large-object
        # accuracy (Section VI-C3).
        qualities = np.full(
            (self.grid.rows, self.grid.cols), int(TileQuality.LOW), dtype=int
        )
        for mask in masks:
            box = mask.box
            if box is None:
                continue
            rows, cols = self.grid.tiles_overlapping_box(box)
            if mask.area <= self.small_object_area:
                qualities[rows, cols] = int(TileQuality.HIGH)
        return encode_frame(gray, qualities, self.grid, frame.index)
