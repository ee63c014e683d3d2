"""Design-choice ablation: CFRS's new-content threshold t.

The paper sets t = 0.25: "if the proportion of the features matched with
unlabeled points is larger than a threshold t, edgeIS will take it as that
a large area of the frame is new".  Lower t offloads more (bandwidth,
server load) for marginal accuracy; higher t reacts too late to new
content.
"""

from __future__ import annotations

import numpy as np

from repro.core import SystemConfig
from repro.encoding import CFRSConfig
from repro.eval import ExperimentSpec, Table
from repro.eval.experiments import _make_video
from repro.model import SimulatedSegmentationModel
from repro.network import make_channel
from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline

THRESHOLDS = (0.05, 0.15, 0.25, 0.5, 0.8)


def _run_with_threshold(threshold: float, num_frames: int, seed: int):
    from repro.core.system import EdgeISSystem

    spec = ExperimentSpec(system="edgeis", dataset="kitti_like", num_frames=num_frames, seed=seed)
    video = _make_video(spec)
    config = SystemConfig(seed=seed, cfrs=CFRSConfig(unlabeled_threshold=threshold))
    client = EdgeISSystem(
        video.camera,
        (video.camera.height, video.camera.width),
        config=config,
        world=video.world,
    )
    channel = make_channel("wifi_5ghz", np.random.default_rng(seed + 17))
    server = EdgeServer(
        SimulatedSegmentationModel("mask_rcnn_r101", "jetson_tx2", np.random.default_rng(seed + 29))
    )
    return MultiClientPipeline([ClientSession(video, client, channel)], server).run()[0]


def run_cfrs_ablation(num_frames: int = 150, seed: int = 0, quiet: bool = False) -> dict:
    summary: dict[float, dict[str, float]] = {}
    for threshold in THRESHOLDS:
        result = _run_with_threshold(threshold, num_frames, seed)
        summary[threshold] = {
            "mean_iou": result.mean_iou(),
            "false_rate_75": result.false_rate(0.75),
            "offloads": result.offload_count,
            "uplink_kb": result.bytes_up / 1024,
        }
    if not quiet:
        table = Table(
            "Ablation — CFRS new-content threshold t (kitti_like, WiFi 5 GHz)",
            ["t", "mean IoU", "false@0.75", "offloads", "uplink kB"],
        )
        for threshold, row in summary.items():
            marker = "  <- paper" if threshold == 0.25 else ""
            table.add_row(
                f"{threshold}{marker}",
                row["mean_iou"],
                row["false_rate_75"],
                row["offloads"],
                row["uplink_kb"],
            )
        table.print()
    return summary


def bench_ablation_cfrs_threshold(benchmark):
    summary = benchmark.pedantic(
        run_cfrs_ablation,
        kwargs={"num_frames": 110, "quiet": True},
        rounds=1,
        iterations=1,
    )
    # More sensitive thresholds offload at least as often.
    assert summary[0.05]["offloads"] >= summary[0.8]["offloads"]
    # The paper's operating point stays accurate.
    assert summary[0.25]["mean_iou"] > 0.7


if __name__ == "__main__":
    run_cfrs_ablation()
