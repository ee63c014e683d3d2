"""Visualize MAMT mask transfer frame by frame.

Runs edgeIS on a dynamic scene and writes PPM images comparing the
transferred masks (left) with the ground truth (right) every half second,
plus a difference strip showing where the prediction misses.  The output
directory is printed at the end; PPM files open in any image viewer (or
convert with ImageMagick).

Run:  python examples/visualize_transfer.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.eval.experiments import ExperimentSpec, _make_video, build_client
from repro.image import mask_iou, overlay_masks, save_ppm
from repro.model import SimulatedSegmentationModel
from repro.network import make_channel
from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/transfer_viz")
    spec = ExperimentSpec(
        system="edgeis", dataset="davis_like", num_frames=150, dynamic=True
    )
    video = _make_video(spec)
    client = build_client("edgeis", video)

    captured: dict[int, list] = {}
    original = client.process_frame

    def capture(frame, truth, now_ms):
        output = original(frame, truth, now_ms)
        captured[frame.index] = output.masks
        return output

    client.process_frame = capture
    channel = make_channel("wifi_5ghz", np.random.default_rng(7))
    server = EdgeServer(SimulatedSegmentationModel("mask_rcnn_r101", "jetson_tx2"))
    session = ClientSession(video, client, channel)
    result = MultiClientPipeline([session], server).run()[0]

    saved = 0
    for frame_index in range(45, spec.num_frames, 15):
        frame, truth = video.frame_at(frame_index)
        predictions = captured.get(frame_index, [])
        left = overlay_masks(frame.image, predictions)
        right = overlay_masks(frame.image, truth.masks)
        # Difference strip: symmetric difference of prediction vs truth.
        diff = np.zeros(frame.shape, dtype=bool)
        truth_by_id = {m.instance_id: m for m in truth.masks}
        for prediction in predictions:
            gt = truth_by_id.get(prediction.instance_id)
            if gt is not None:
                diff |= prediction.mask ^ gt.mask
        middle = frame.image.copy()
        middle[diff] = (255, 40, 40)
        panel = np.concatenate([left, middle, right], axis=1)
        save_ppm(out_dir / f"frame_{frame_index:04d}.ppm", panel)
        saved += 1
        ious = [
            mask_iou(p.mask, truth_by_id[p.instance_id].mask)
            for p in predictions
            if p.instance_id in truth_by_id
        ]
        print(
            f"frame {frame_index}: {len(predictions)} transferred masks, "
            f"mean IoU {np.mean(ious):.3f}" if ious else f"frame {frame_index}: no masks yet"
        )

    print(
        f"\nwrote {saved} panels (prediction | error | ground truth) to {out_dir}/"
        f"\nrun summary: mean IoU {result.mean_iou():.3f}, "
        f"false rate {result.false_rate(0.75):.1%}"
    )


if __name__ == "__main__":
    main()
