"""Client-system interface for the mobile/edge pipeline.

Every compared system (edgeIS, EAAR, EdgeDuet, best-effort, mobile-only)
implements :class:`ClientSystem`; the
:class:`~repro.runtime.multi.MultiClientPipeline` owns the clock, the
channels, and the edge backend, and drives each client frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..encoding.tiles import EncodedFrame
from ..image.frame import VideoFrame
from ..image.masks import InstanceMask
from ..model.acceleration import InferenceInstruction
from ..synthetic.world import GroundTruth

__all__ = ["OffloadRequest", "ClientFrameOutput", "ClientSystem"]


@dataclass
class OffloadRequest:
    """A frame the client wants segmented by the edge."""

    frame_index: int
    payload_bytes: int
    encode_ms: float
    instructions: list[InferenceInstruction] | None = None
    use_dynamic_anchors: bool = True
    use_roi_pruning: bool = True
    encoded: EncodedFrame | None = None  # for per-box fidelity lookups
    reason: str = ""


@dataclass
class ClientFrameOutput:
    """What the client produced for one captured frame."""

    masks: list[InstanceMask]
    compute_ms: float
    offload: OffloadRequest | None = None


@runtime_checkable
class ClientSystem(Protocol):
    """A mobile-side system under test."""

    name: str

    def process_frame(
        self, frame: VideoFrame, truth: GroundTruth, now_ms: float
    ) -> ClientFrameOutput:
        """Handle a captured frame; return display masks + offload intent.

        ``truth`` is available *only* for sanctioned simulation paths
        (oracle feature frontend, on-device model simulation) — never for
        producing display masks directly.
        """
        ...

    def receive_result(
        self, frame_index: int, masks: list[InstanceMask], now_ms: float
    ) -> float:
        """Integrate a segmentation result from the edge.

        Returns the integration cost in ms (added to the client's busy
        time).
        """
        ...

    def memory_bytes(self) -> int:
        """Approximate live client memory (for the resource study)."""
        ...

    def offload_rejected(self, frame_index: int, now_ms: float) -> None:
        """The serving layer dropped this offload (admission reject or
        deadline shed) — release any in-flight accounting and carry on
        rendering from local state.  No result will arrive."""
        ...

    def set_offload_enabled(self, enabled: bool) -> None:
        """Degrade/recover hook from the serving layer: while disabled the
        client renders from local state without offloading."""
        ...

    def request_keyframe(self) -> None:
        """One-shot request that the next offload be a full-quality
        keyframe, so the edge can re-anchor the client's state."""
        ...
