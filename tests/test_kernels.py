"""Property-style equivalence tests: every vectorized hot-path kernel
against its retained scalar ``*_reference`` implementation.

These are the correctness contract behind the ``micro`` bench suite
(:mod:`repro.obs.kernelbench`): the bench gates *speed*, these tests gate
*equivalence* — over random seeds, degenerate shapes, and the branch
points of each kernel (empty inputs, dense-vs-sparse paths, clamps).
Most pairs are bit-identical, and the RNG-consuming ones also leave the
generator in the same state; the k-NN depth lookup is atol-bounded
because ``cKDTree`` and the argsort reference may order exact distance
ties differently.
"""

import numpy as np
import pytest
from types import SimpleNamespace

from repro.features.brief import _hamming_distance_reference, hamming_distance
from repro.features.fast import (
    _max_consecutive_true_reference,
    arc_run_at_least,
)
from repro.features.matcher import _match_descriptors_reference, match_descriptors
from repro.geometry.bundle_adjustment import (
    _dlt_rows,
    _dlt_rows_reference,
    _residuals_and_jacobian,
    _residuals_and_jacobian_reference,
    _score_hypotheses_reference,
)
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3
from repro.geometry.triangulation import reprojection_errors_batch
from repro.model.acceleration import InferenceInstruction
from repro.model.maskrcnn import SimulatedSegmentationModel
from repro.model.rpn import _assemble_proposals_reference
from repro.synthetic import make_dataset
from repro.synthetic.objects import (
    LinearMotion,
    ProceduralTexture,
    SceneObject,
    StaticMotion,
    make_box_mesh,
)
from repro.synthetic.world import World
from repro.transfer.mask_transfer import (
    _contour_depths_reference,
    contour_depths,
)
from repro.vo import OracleFrontend
from repro.vo import frontend as frontend_module
from repro.vo.frontend import _noisy_descriptors_reference, noisy_descriptors

CAMERA = PinholeCamera(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
CAMERA_MATRIX = np.array(
    [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
)


def random_points(rng, n, z_low=2.0, z_high=8.0):
    return np.column_stack(
        [
            rng.uniform(-2.0, 2.0, n),
            rng.uniform(-1.5, 1.5, n),
            rng.uniform(z_low, z_high, n),
        ]
    )


class TestArcRun:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.9])
    def test_matches_reference_both_branches(self, seed, density):
        # density 0.9 forces the dense BLAS-pack branch, the sparse
        # densities the per-plane gather branch.
        rng = np.random.default_rng(seed)
        flags = rng.random((16, 500)) < density
        for arc in (1, 5, 9, 12, 16):
            vec = arc_run_at_least(flags, arc)
            ref = _max_consecutive_true_reference(flags) >= arc
            assert np.array_equal(vec, ref), (seed, density, arc)

    def test_2d_inner_shape_preserved(self):
        rng = np.random.default_rng(3)
        flags = rng.random((16, 12, 17)) < 0.4
        vec = arc_run_at_least(flags, 9)
        ref = _max_consecutive_true_reference(flags) >= 9
        assert vec.shape == (12, 17)
        assert np.array_equal(vec, ref)

    def test_empty_input(self):
        flags = np.zeros((16, 0), dtype=bool)
        assert arc_run_at_least(flags, 9).shape == (0,)

    def test_wraparound_run(self):
        # A run crossing the circular boundary: flags set at indices
        # 12..15 and 0..4 form a contiguous circular run of 9.
        flags = np.zeros((16, 1), dtype=bool)
        flags[list(range(12, 16)) + list(range(0, 5)), 0] = True
        assert arc_run_at_least(flags, 9)[0]
        assert not arc_run_at_least(flags, 10)[0]

    def test_all_true_is_run_16(self):
        flags = np.ones((16, 3), dtype=bool)
        assert arc_run_at_least(flags, 16).all()

    def test_rejects_wrong_leading_axis(self):
        with pytest.raises(ValueError):
            arc_run_at_least(np.zeros((8, 4), dtype=bool), 9)


class TestRPNAssemble:
    @pytest.mark.parametrize("seed", range(5))
    def test_gt_index_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        boxes = rng.uniform(0.0, 320.0, (n, 4))
        scores = rng.uniform(0.0, 1.0, n)
        best_index = rng.integers(0, 6, n)
        best_iou = rng.uniform(0.0, 1.0, n)
        gt_index = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
        proposals = _assemble_proposals_reference(
            boxes, scores, best_index, best_iou
        )
        assert np.array_equal(
            gt_index, np.array([p.best_gt_index for p in proposals])
        )
        assert np.allclose(scores, [p.objectness for p in proposals])

    def test_empty(self):
        empty = np.zeros(0)
        assert (
            _assemble_proposals_reference(
                np.zeros((0, 4)), empty, empty.astype(int), empty
            )
            == []
        )

    def test_threshold_idempotent(self):
        # Feeding an already-thresholded index column back through the
        # assembly leaves it unchanged: the -1 sentinel never flips back.
        rng = np.random.default_rng(11)
        n = 64
        best_index = rng.integers(0, 4, n)
        best_iou = rng.uniform(0.0, 1.0, n)
        once = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
        twice = np.where(best_iou >= 0.3, once, -1).astype(np.int64)
        assert np.array_equal(once, twice)


class TestClassConfidences:
    @pytest.mark.parametrize("seed", range(4))
    def test_stream_identical_to_reference(self, seed):
        # Same-seeded Generators: one size-n normal draw consumes the
        # stream exactly like n scalar draws, so the outputs are
        # bit-identical, not merely close.
        rng = np.random.default_rng(seed)
        n = 100
        classes = ["person", "car", "chair", "dog"]
        gt_instances = [SimpleNamespace(class_label=c) for c in classes]
        instructions = [
            InferenceInstruction(
                box=np.array([0.0, 0.0, 32.0, 32.0]), class_label=c
            )
            for c in classes[:2]
        ]
        boxes = rng.uniform(0.0, 320.0, (n, 4))
        scores = rng.uniform(0.0, 1.0, n)
        best_index = rng.integers(0, len(classes), n)
        best_iou = rng.uniform(0.0, 1.0, n)
        gt_index = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
        proposals = _assemble_proposals_reference(
            boxes, scores, best_index, best_iou
        )
        vec = SimulatedSegmentationModel._class_confidences(
            SimpleNamespace(_rng=np.random.default_rng(seed + 99)),
            best_iou,
            gt_index,
            instructions,
            gt_instances,
        )
        ref = SimulatedSegmentationModel._class_confidences_reference(
            SimpleNamespace(_rng=np.random.default_rng(seed + 99)),
            proposals,
            instructions,
            gt_instances,
        )
        assert np.array_equal(vec, ref)

    def test_no_gt_instances(self):
        rng = np.random.default_rng(0)
        best_iou = rng.uniform(0.0, 1.0, 16)
        gt_index = np.full(16, -1, dtype=np.int64)
        vec = SimulatedSegmentationModel._class_confidences(
            SimpleNamespace(_rng=np.random.default_rng(5)),
            best_iou,
            gt_index,
            [],
            [],
        )
        ref = SimulatedSegmentationModel._class_confidences_reference(
            SimpleNamespace(_rng=np.random.default_rng(5)),
            _assemble_proposals_reference(
                rng.uniform(0.0, 320.0, (16, 4)),
                best_iou,
                np.zeros(16, dtype=int),
                np.zeros(16),  # iou 0 => all background
            ),
            [],
            [],
        )
        assert vec.shape == ref.shape == (16,)
        assert ((0.0 <= vec) & (vec <= 1.0)).all()


class TestBundleAdjustmentKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_jacobian_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        pose = SE3.exp(rng.normal(scale=0.05, size=6))
        points = random_points(rng, 120)
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (120, 2))
        res_v, jac_v, valid_v = _residuals_and_jacobian(
            CAMERA, pose, points, pixels
        )
        res_r, jac_r, valid_r = _residuals_and_jacobian_reference(
            CAMERA, pose, points, pixels
        )
        assert np.array_equal(valid_v, valid_r)
        assert np.array_equal(res_v, res_r)
        assert np.array_equal(jac_v, jac_r)

    def test_jacobian_behind_camera_points_flagged(self):
        # Points at or behind the camera plane exercise the safe-z branch
        # in both implementations identically.
        rng = np.random.default_rng(7)
        points = random_points(rng, 40, z_low=-1.0, z_high=1.0)
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (40, 2))
        pose = SE3.identity()
        res_v, jac_v, valid_v = _residuals_and_jacobian(
            CAMERA, pose, points, pixels
        )
        res_r, jac_r, valid_r = _residuals_and_jacobian_reference(
            CAMERA, pose, points, pixels
        )
        assert not valid_v.all()  # some depths really were invalid
        assert np.array_equal(valid_v, valid_r)
        assert np.array_equal(res_v, res_r)
        assert np.array_equal(jac_v, jac_r)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("num_poses", [1, 3, 17])
    def test_ransac_scores_match_reference(self, seed, num_poses):
        rng = np.random.default_rng(seed)
        poses = [
            SE3.exp(rng.normal(scale=0.1, size=6)) for _ in range(num_poses)
        ]
        points = random_points(rng, 60)
        pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (60, 2))
        vec = reprojection_errors_batch(CAMERA_MATRIX, poses, points, pixels)
        ref = _score_hypotheses_reference(CAMERA_MATRIX, poses, points, pixels)
        assert vec.shape == (num_poses, 60)
        assert np.allclose(vec, ref, rtol=0.0, atol=1e-9)

    def test_ransac_empty_pose_list(self):
        points = np.zeros((5, 3))
        pixels = np.zeros((5, 2))
        vec = reprojection_errors_batch(CAMERA_MATRIX, [], points, pixels)
        ref = _score_hypotheses_reference(CAMERA_MATRIX, [], points, pixels)
        assert vec.shape == ref.shape == (0, 5)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 6, 50])
    def test_dlt_rows_match_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        normalized = rng.normal(size=(n, 2))
        homogeneous = np.column_stack([rng.normal(size=(n, 3)), np.ones(n)])
        vec = _dlt_rows(normalized, homogeneous)
        ref = _dlt_rows_reference(normalized, homogeneous)
        assert vec.shape == (2 * n, 12)
        assert np.array_equal(vec, ref)


class TestContourDepths:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_reference(self, seed, k):
        rng = np.random.default_rng(seed)
        contour_uv = rng.uniform((0.0, 0.0), (640.0, 480.0), (50, 2))
        feature_pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (80, 2))
        depths = rng.uniform(2.0, 8.0, 80)
        vec = contour_depths(contour_uv, feature_pixels, depths, k)
        ref = _contour_depths_reference(contour_uv, feature_pixels, depths, k)
        # Not bit-identical by design: cKDTree and the argsort reference
        # may break exact distance ties differently (measure zero here).
        assert np.allclose(vec, ref, rtol=0.0, atol=1e-9)

    def test_k_clamped_to_feature_count(self):
        rng = np.random.default_rng(2)
        contour_uv = rng.uniform((0.0, 0.0), (64.0, 64.0), (10, 2))
        feature_pixels = rng.uniform((0.0, 0.0), (64.0, 64.0), (3, 2))
        depths = np.array([1.0, 2.0, 3.0])
        vec = contour_depths(contour_uv, feature_pixels, depths, 50)
        ref = _contour_depths_reference(contour_uv, feature_pixels, depths, 50)
        # k > population: every estimate is the global mean.
        assert np.allclose(vec, depths.mean())
        assert np.allclose(vec, ref)

    def test_single_neighbor_branch(self):
        # k=1: cKDTree returns a 1-D index array; the reshape branch must
        # keep the per-pixel mean well-formed.
        contour_uv = np.array([[0.0, 0.0], [10.0, 10.0]])
        feature_pixels = np.array([[0.1, 0.0], [10.0, 10.1]])
        depths = np.array([4.0, 6.0])
        vec = contour_depths(contour_uv, feature_pixels, depths, 1)
        assert np.allclose(vec, [4.0, 6.0])

    def test_prebuilt_tree_equivalent(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(8)
        contour_uv = rng.uniform((0.0, 0.0), (640.0, 480.0), (30, 2))
        feature_pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (60, 2))
        depths = rng.uniform(2.0, 8.0, 60)
        tree = cKDTree(feature_pixels)
        assert np.array_equal(
            contour_depths(contour_uv, feature_pixels, depths, 5, tree=tree),
            contour_depths(contour_uv, feature_pixels, depths, 5),
        )


def random_descriptors(rng, n):
    return rng.integers(0, 256, size=(n, 32), dtype=np.uint8)


class TestHammingDistance:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape", [(250, 300), (0, 7), (7, 0), (1, 9), (9, 1), (1, 1)])
    def test_matches_reference(self, seed, shape):
        rng = np.random.default_rng(seed)
        a = random_descriptors(rng, shape[0])
        b = random_descriptors(rng, shape[1])
        vec = hamming_distance(a, b)
        ref = _hamming_distance_reference(a, b)
        assert vec.dtype == ref.dtype == np.int32
        assert vec.shape == ref.shape == shape
        assert np.array_equal(vec, ref)

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(7)
        a = random_descriptors(rng, 40)
        b = random_descriptors(rng, 30)
        wide = rng.integers(0, 256, size=(20, 64), dtype=np.uint8)
        for query, train in [
            (a[::2], b),
            (a, b[::3]),
            (a[[5, 1, 1, 38]], b[np.array([29, 0, 4])]),
            (a[np.arange(40) % 3 == 0], b[::-1]),
            (wide[:, 16:48], wide[::2, 1:33]),
        ]:
            assert np.array_equal(
                hamming_distance(query, train), _hamming_distance_reference(query, train)
            )

    def test_single_descriptor_vectors(self):
        rng = np.random.default_rng(8)
        a, b = random_descriptors(rng, 2)
        assert np.array_equal(hamming_distance(a, b), _hamming_distance_reference(a, b))
        assert hamming_distance(a, b).shape == (1, 1)


class TestMatchDescriptors:
    @staticmethod
    def noisy_copies(rng, train, n, flip_rate):
        flips = np.packbits(rng.random((n, 256)) < flip_rate, axis=1)
        return train[rng.integers(0, len(train), n)] ^ flips

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cross_check", [True, False])
    def test_matches_reference(self, seed, cross_check):
        rng = np.random.default_rng(seed)
        train = random_descriptors(rng, 60)
        query = self.noisy_copies(rng, train, 80, 0.04)
        for max_distance in (0, 12, 64, 256):
            for ratio in (0.6, 0.8, 1.0):
                vec = match_descriptors(query, train, max_distance, ratio, cross_check)
                ref = _match_descriptors_reference(
                    query, train, max_distance, ratio, cross_check
                )
                assert vec == ref, (max_distance, ratio)
        assert vec, "the fixture must produce matches"

    @pytest.mark.parametrize("cross_check", [True, False])
    def test_single_train_column(self, cross_check):
        # One train row: no second best, so the ratio test is skipped.
        rng = np.random.default_rng(3)
        train = random_descriptors(rng, 1)
        query = self.noisy_copies(rng, train, 12, 0.05)
        vec = match_descriptors(query, train, cross_check=cross_check)
        assert vec == _match_descriptors_reference(query, train, cross_check=cross_check)
        assert len(vec) == (1 if cross_check else 12)

    @pytest.mark.parametrize("cross_check", [True, False])
    def test_tied_minima(self, cross_check):
        # Duplicate train rows tie the best and second best (ratio test
        # fails unless ratio >= 1) and duplicate query rows tie the
        # reverse argmin (first index wins the cross check).
        rng = np.random.default_rng(4)
        train = random_descriptors(rng, 6)
        train = np.concatenate([train, train[:3]])
        query = np.concatenate([train[:5], train[:5]])
        for ratio in (0.8, 1.0):
            vec = match_descriptors(query, train, ratio=ratio, cross_check=cross_check)
            ref = _match_descriptors_reference(
                query, train, ratio=ratio, cross_check=cross_check
            )
            assert vec == ref
        assert vec, "ratio 1.0 must keep the tied rows"

    def test_distance_equal_to_max_distance_is_kept(self):
        train = np.zeros((2, 32), dtype=np.uint8)
        train[1] = 0xFF
        query = np.zeros((1, 32), dtype=np.uint8)
        query[0, :2] = 0xFF  # 16 bits from train[0], 240 from train[1]
        for fn in (match_descriptors, _match_descriptors_reference):
            kept = fn(query, train, max_distance=16)
            assert [(m.query_index, m.train_index, m.distance) for m in kept] == [(0, 0, 16.0)]
            assert fn(query, train, max_distance=15) == []

    def test_calls_hamming_once_through_module_name(self, monkeypatch):
        from repro.features import matcher

        calls = []

        def counting(a, b):
            calls.append((len(a), len(b)))
            return hamming_distance(a, b)

        monkeypatch.setattr(matcher, "hamming_distance", counting)
        rng = np.random.default_rng(5)
        match_descriptors(random_descriptors(rng, 8), random_descriptors(rng, 9))
        assert calls == [(8, 9)]


class TestNoisyDescriptors:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("flip_bits", [0, 1, 5, 6])
    @pytest.mark.parametrize("rows", [0, 1, 37])
    def test_stream_identical_to_reference(self, seed, flip_bits, rows):
        descriptors = random_descriptors(np.random.default_rng(seed), rows)
        vec_rng = np.random.default_rng(seed + 100)
        ref_rng = np.random.default_rng(seed + 100)
        # Start from a half-used 64-bit word, as mid-frame streams do.
        vec_rng.integers(0, 256, size=3)
        ref_rng.integers(0, 256, size=3)
        vec = noisy_descriptors(descriptors, vec_rng, flip_bits)
        ref = _noisy_descriptors_reference(descriptors, ref_rng, flip_bits)
        assert vec.dtype == np.uint8 and vec.shape == descriptors.shape
        assert np.array_equal(vec, ref)
        assert vec_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_repeated_flip_toggles_back(self):
        class Fixed:
            def integers(self, low, high, size):
                return np.full(size, 9)

        # Bit 9 is bit 1 of byte 1: odd repeat counts set it, even clear it.
        descriptors = np.zeros((2, 32), dtype=np.uint8)
        for flip_bits, byte_value in [(1, 2), (2, 0), (3, 2)]:
            expected = descriptors.copy()
            expected[:, 1] = byte_value
            for fn in (noisy_descriptors, _noisy_descriptors_reference):
                assert np.array_equal(fn(descriptors, Fixed(), flip_bits), expected)

    def test_input_untouched(self):
        descriptors = random_descriptors(np.random.default_rng(1), 4)
        before = descriptors.copy()
        noisy_descriptors(descriptors, np.random.default_rng(2), 6)
        assert np.array_equal(descriptors, before)

    def test_oracle_frame_identical_to_reference(self, monkeypatch):
        video = make_dataset("davis_like", num_frames=3, resolution=(160, 120))
        frames = [video.frame_at(i) for i in range(3)]

        def observe_all():
            frontend = OracleFrontend(video.world, video.camera, seed=11)
            observations = [frontend.observe(frame, truth) for frame, truth in frames]
            return observations, frontend._rng.bit_generator.state

        vec, vec_state = observe_all()
        monkeypatch.setattr(frontend_module, "noisy_descriptors", _noisy_descriptors_reference)
        ref, ref_state = observe_all()
        assert vec_state == ref_state
        for a, b in zip(vec, ref):
            assert len(a) > 0
            assert np.array_equal(a.descriptors, b.descriptors)
            assert np.array_equal(a.pixels, b.pixels)


class TestSiteWorldPositions:
    @staticmethod
    def world():
        texture = ProceduralTexture((100, 100, 100), 0)
        parked = SceneObject(
            1, "car", make_box_mesh((1, 1, 1)), texture,
            StaticMotion(SE3(np.eye(3), [2.0, 0.0, 6.0])),
        )
        mover = SceneObject(
            2, "car", make_box_mesh((1, 1, 1)), texture,
            LinearMotion(
                SE3(np.eye(3), [0.0, 0.0, 5.0]),
                velocity=[1.0, 0.0, 0.0],
                angular_velocity=[0.0, 0.3, 0.0],
            ),
        )
        return World([parked, mover])

    @pytest.mark.parametrize("time", [0.0, 2.0])
    def test_cached_equals_per_site(self, time):
        world = self.world()
        for _ in range(2):  # first call fills the cache, second reads it
            vec = world.site_world_positions(time)
            assert vec.tobytes() == world._site_world_positions_reference(time).tobytes()

    @pytest.mark.parametrize("name", ["davis_like", "xiph_like"])
    def test_dataset_worlds(self, name):
        world = make_dataset(name, num_frames=2, resolution=(160, 120)).world
        for time in (0.0, 2.0, 0.5):
            vec = world.site_world_positions(time)
            assert vec.tobytes() == world._site_world_positions_reference(time).tobytes()

    def test_returned_array_is_fresh(self):
        world = self.world()
        first = world.site_world_positions(0.0)
        first[:] = np.nan
        again = world.site_world_positions(2.0)
        assert np.isfinite(again).all()
        assert again.tobytes() == world._site_world_positions_reference(2.0).tobytes()
        assert again is not world.site_world_positions(2.0)
