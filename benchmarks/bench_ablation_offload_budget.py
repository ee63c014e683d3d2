"""Design-choice ablation: offload refresh budget vs accuracy.

CFRS's fallback refresh interval bounds how stale a cached mask can get
when nothing triggers an offload.  This sweep shows the trade-off between
edge/server load (offload count, bytes) and accuracy, and that the
default (20 frames) sits on the knee of the curve.
"""

from __future__ import annotations

import numpy as np

from repro.core import SystemConfig
from repro.core.system import EdgeISSystem
from repro.encoding import CFRSConfig
from repro.eval import ExperimentSpec, Table
from repro.eval.experiments import _make_video
from repro.model import SimulatedSegmentationModel
from repro.network import make_channel
from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline

INTERVALS = (10, 20, 40, 80)


def run_offload_ablation(num_frames: int = 180, seed: int = 0, quiet: bool = False) -> dict:
    summary: dict[int, dict[str, float]] = {}
    for interval in INTERVALS:
        spec = ExperimentSpec(
            system="edgeis", dataset="davis_like", num_frames=num_frames, seed=seed
        )
        video = _make_video(spec)
        config = SystemConfig(
            seed=seed, cfrs=CFRSConfig(max_interval_frames=interval)
        )
        client = EdgeISSystem(
            video.camera,
            (video.camera.height, video.camera.width),
            config=config,
            world=video.world,
        )
        channel = make_channel("wifi_5ghz", np.random.default_rng(seed + 17))
        server = EdgeServer(
            SimulatedSegmentationModel(
                "mask_rcnn_r101", "jetson_tx2", np.random.default_rng(seed + 29)
            )
        )
        session = ClientSession(video, client, channel)
        result = MultiClientPipeline([session], server).run()[0]
        summary[interval] = {
            "mean_iou": result.mean_iou(),
            "offloads": result.offload_count,
            "server_util": result.server_utilization(),
        }
    if not quiet:
        table = Table(
            "Ablation — CFRS fallback refresh interval (davis_like)",
            ["interval (frames)", "mean IoU", "offloads", "server util"],
        )
        for interval, row in summary.items():
            marker = "  <- default" if interval == 20 else ""
            table.add_row(
                f"{interval}{marker}", row["mean_iou"], row["offloads"], row["server_util"]
            )
        table.print()
    return summary


def bench_ablation_offload_budget(benchmark):
    summary = benchmark.pedantic(
        run_offload_ablation,
        kwargs={"num_frames": 130, "quiet": True},
        rounds=1,
        iterations=1,
    )
    # More frequent refresh costs more offloads ...
    assert summary[10]["offloads"] >= summary[80]["offloads"]
    # ... and accuracy does not collapse at the default.
    assert summary[20]["mean_iou"] > 0.75


if __name__ == "__main__":
    run_offload_ablation()
