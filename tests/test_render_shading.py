"""Geometry every frame, colour on first read.

``Renderer.render`` writes depth and labels and leaves the frame's colour
to be shaded the first time ``image`` or ``gray`` is read.  These tests
hold that split to the eagerly shaded ``Renderer._render_reference`` bit
for bit, and check that only readers of colour pay for shading.
"""

import numpy as np
import pytest

from repro.chaos.scenarios import build_video, make_scenario
from repro.encoding.cfrs import ContentRoiSelector
from repro.eval.experiments import FleetSpec, run_fleet
from repro.geometry import SE3, PinholeCamera
from repro.synthetic import (
    DATASET_NAMES,
    ProceduralTexture,
    Renderer,
    SceneObject,
    StaticMotion,
    make_box_mesh,
    make_dataset,
)
from repro.synthetic import renderer as renderer_module


def assert_same_rasters(result, reference):
    assert np.array_equal(result.depth, reference.depth)
    assert np.array_equal(result.label_map, reference.label_map)
    assert np.array_equal(result.frame.image, reference.frame.image)
    assert result.object_poses_wo.keys() == reference.object_poses_wo.keys()


def render_both(video, index):
    time = index / video.fps
    pose = video.trajectory.pose_cw(time)
    renderer = video._renderer
    return (
        renderer.render(pose, time, frame_index=index),
        renderer._render_reference(pose, time, frame_index=index),
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("resolution", [(160, 120), (320, 240)])
@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_lazy_render_matches_reference(dataset, resolution, seed):
    video = make_dataset(dataset, num_frames=90, resolution=resolution, seed=seed)
    for index in (0, 47, 89):
        assert_same_rasters(*render_both(video, index))


def test_late_shading_uses_the_frames_own_time():
    """A pre-flip frame shaded after a post-flip frame was rendered and
    shaded still shows the pre-flip lighting."""
    spec = make_scenario("lighting-flip")
    video = build_video(spec, num_frames=60, resolution=(160, 120))
    before_index = int(spec.lighting_shift_at_s * video.fps) - 3
    after_index = before_index + 6
    before, before_reference = render_both(video, before_index)
    after, after_reference = render_both(video, after_index)
    after_image = after.frame.image
    assert_same_rasters(before, before_reference)
    assert np.array_equal(after_image, after_reference.frame.image)
    assert after_image.mean() < 0.8 * before.frame.image.mean()


def test_near_plane_clipped_faces_match_reference(monkeypatch):
    camera = PinholeCamera.with_fov(160, 120, 64.0)
    box = SceneObject(
        1,
        "box",
        make_box_mesh((2.0, 2.0, 2.0)),
        ProceduralTexture((150, 120, 90), seed=5),
        StaticMotion(SE3(np.eye(3), [0.3, 0.2, 0.9])),
    )
    renderer = Renderer(camera, [box])
    clips = []
    clip = renderer_module._clip_polygon_near
    monkeypatch.setattr(
        renderer_module,
        "_clip_polygon_near",
        lambda *args: clips.append(1) or clip(*args),
    )
    result = renderer.render(SE3.identity(), 0.0)
    assert clips, "the pose must cut faces with the near plane"
    assert (result.label_map == 1).any()
    assert_same_rasters(result, renderer._render_reference(SE3.identity(), 0.0))


def test_frame_size_never_shades(monkeypatch):
    shaded = []
    shade = renderer_module._shade
    monkeypatch.setattr(
        renderer_module, "_shade", lambda *args: shaded.append(1) or shade(*args)
    )
    video = make_dataset("xiph_like", num_frames=10, resolution=(160, 120))
    frame, _ = video.frame_at(3)
    assert frame.shape == (120, 160)
    assert (frame.height, frame.width) == (120, 160)
    assert not shaded
    gray = frame.gray
    assert len(shaded) == 1
    assert frame.image.shape == (120, 160, 3) and frame.gray is gray
    assert len(shaded) == 1
    assert frame._shade is None  # the winner buffer is released


def test_fleet_shades_exactly_the_encoded_frames(monkeypatch):
    shaded, encoded = [], []
    shade = renderer_module._shade
    monkeypatch.setattr(
        renderer_module, "_shade", lambda *args: shaded.append(1) or shade(*args)
    )
    for name in ("encode", "encode_uniform"):
        method = getattr(ContentRoiSelector, name)
        monkeypatch.setattr(
            ContentRoiSelector,
            name,
            lambda self, *args, _method=method, **kwargs: encoded.append(1)
            or _method(self, *args, **kwargs),
        )
    run_fleet(FleetSpec(num_clients=2, system="baseline+mamt", num_frames=40))
    assert encoded
    assert len(shaded) == len(encoded)
