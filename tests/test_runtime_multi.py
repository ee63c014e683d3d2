"""Tests for the multi-client shared-server pipeline."""

import numpy as np
import pytest

from repro.eval.experiments import ExperimentSpec, _make_video, build_client
from repro.model import SimulatedSegmentationModel
from repro.network import make_channel
from repro.runtime import ClientSession, EdgeServer, MultiClientPipeline


def make_sessions(count, system="edge_best_effort", frames=40, resolution=(160, 120)):
    sessions = []
    for index in range(count):
        spec = ExperimentSpec(
            system=system,
            dataset="xiph_like",
            num_frames=frames,
            resolution=resolution,
            seed=index,
        )
        video = _make_video(spec)
        client = build_client(system, video, seed=index)
        channel = make_channel("wifi_5ghz", np.random.default_rng(index))
        sessions.append(ClientSession(video=video, client=client, channel=channel))
    return sessions


def make_server():
    return EdgeServer(
        SimulatedSegmentationModel("mask_rcnn_r101", "jetson_tx2", np.random.default_rng(9))
    )


class TestMultiClientPipeline:
    def test_requires_sessions(self):
        with pytest.raises(ValueError):
            MultiClientPipeline([], make_server())

    def test_mismatched_lengths_rejected(self):
        sessions = make_sessions(1, frames=30) + make_sessions(1, frames=40)
        with pytest.raises(ValueError):
            MultiClientPipeline(sessions, make_server())

    def test_mismatched_fps_rejected(self):
        sessions = make_sessions(2, frames=30)
        sessions[1].video.fps = 60.0
        with pytest.raises(ValueError, match="same fps"):
            MultiClientPipeline(sessions, make_server())

    def test_per_session_results(self):
        sessions = make_sessions(2, frames=40)
        results = MultiClientPipeline(sessions, make_server(), warmup_frames=10).run()
        assert len(results) == 2
        for result in results:
            assert len(result.frames) == 40
            assert result.offload_count >= 1

    def test_contention_serializes_server(self):
        # Four clients saturate the shared server far more than one.
        solo = MultiClientPipeline(make_sessions(1, frames=40), make_server()).run()
        fleet = MultiClientPipeline(make_sessions(4, frames=40), make_server()).run()
        assert fleet[0].server_utilization() > solo[0].server_utilization()

    def test_shared_field_study_runs(self):
        from repro.eval.field_study import run_field_study

        study = run_field_study(num_frames=40, resolution=(160, 120), shared_server=True)
        assert len(study.per_device_iou) == 8
