"""Discrete-event mobile/edge runtime: pipeline, metrics and the mobile
resource/power models."""

from .interface import ClientFrameOutput, ClientSystem, OffloadRequest
from .pipeline import EdgeServer, FrameMetric, RunResult
from .multi import ClientSession, MultiClientPipeline
from .resources import (
    DEVICE_POWER,
    DevicePowerProfile,
    ResourceMonitor,
    ResourceTrace,
)

__all__ = [
    "ClientFrameOutput",
    "ClientSystem",
    "OffloadRequest",
    "EdgeServer",
    "ClientSession",
    "MultiClientPipeline",
    "FrameMetric",
    "RunResult",
    "DEVICE_POWER",
    "DevicePowerProfile",
    "ResourceMonitor",
    "ResourceTrace",
]
