"""Per-kernel micro-benchmarks: vectorized hot paths vs their scalar
references.

Every vectorized kernel in the repo keeps its pre-vectorization
implementation as a ``*_reference`` function; this module times both on
representative inputs, checks equivalence, and emits one JSON-clean cell
per kernel for the ``micro`` bench suite (``BENCH_micro_*.json``).  The
``speedup_x`` field is the gated metric — ``repro bench compare`` fails
CI when a kernel's speedup collapses (see
:func:`repro.obs.compare.policy_for`).

Wall-clock timings (``vectorized_us`` / ``reference_us`` / ``speedup_x``)
are the only non-deterministic fields of a BENCH artifact;
:data:`TIMING_KEYS` names them so :func:`repro.obs.bench.strip_timing`
can carve them out of the byte-identity contract.  The
``serve.batch_latency`` cell is fully deterministic — it evaluates the
calibrated batch latency model, not the wall clock.

Imports of the kernels under test live inside the runner functions:
``repro.obs`` must stay importable without the model/geometry packages
(they import ``repro.obs`` themselves).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["KERNEL_NAMES", "TIMING_KEYS", "run_kernel"]

# The wall-clock fields of a kernel cell — everything else in a BENCH
# artifact is deterministic and byte-identical across runs.
TIMING_KEYS = ("vectorized_us", "reference_us", "speedup_x")


def _best_us(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time in microseconds (the standard
    micro-benchmark estimator: the minimum is the least noisy sample of
    the true cost)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def _cell(
    name: str,
    n: int,
    repeats: int,
    vec_fn,
    ref_fn,
    max_abs_err: float,
    atol: float,
) -> dict:
    vectorized_us = _best_us(vec_fn, repeats)
    reference_us = _best_us(ref_fn, repeats)
    return {
        "name": name,
        "n": n,
        "repeats": repeats,
        "equivalent": bool(max_abs_err <= atol),
        "max_abs_err": float(max_abs_err),
        "atol": float(atol),
        "vectorized_us": round(vectorized_us, 3),
        "reference_us": round(reference_us, 3),
        "speedup_x": round(reference_us / vectorized_us, 3)
        if vectorized_us
        else 0.0,
    }


# ----------------------------------------------------------------------
# Kernel runners
# ----------------------------------------------------------------------
def _kernel_fast_arc_run(seed: int, repeats: int) -> dict:
    from ..features.fast import _max_consecutive_true_reference, arc_run_at_least

    rng = np.random.default_rng(seed)
    # QVGA-sized flag stack at a sparsity where the count prefilter keeps
    # a realistic few-percent candidate set (P[Bin(16, .3) >= 9] ~ 2%).
    flags = rng.random((16, 240 * 320)) < 0.3
    arc = 9
    vec = arc_run_at_least(flags, arc)
    ref = _max_consecutive_true_reference(flags) >= arc
    err = float(np.abs(vec.astype(int) - ref.astype(int)).max()) if vec.size else 0.0
    return _cell(
        "fast.arc_run",
        flags.shape[1],
        repeats,
        lambda: arc_run_at_least(flags, arc),
        lambda: _max_consecutive_true_reference(flags) >= arc,
        err,
        0.0,
    )


def _kernel_rpn_assemble(seed: int, repeats: int) -> dict:
    from ..model.rpn import _assemble_proposals_reference

    rng = np.random.default_rng(seed)
    n = 4000
    boxes = rng.uniform(0.0, 320.0, (n, 4))
    scores = rng.uniform(0.0, 1.0, n)
    best_index = rng.integers(0, 6, n)
    best_iou = rng.uniform(0.0, 1.0, n)

    def vectorized():
        return np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)

    proposals = _assemble_proposals_reference(boxes, scores, best_index, best_iou)
    err = float(
        np.abs(
            vectorized() - np.array([p.best_gt_index for p in proposals])
        ).max()
    )
    return _cell(
        "rpn.assemble",
        n,
        repeats,
        vectorized,
        lambda: _assemble_proposals_reference(boxes, scores, best_index, best_iou),
        err,
        0.0,
    )


def _kernel_rpn_confidence(seed: int, repeats: int) -> dict:
    from types import SimpleNamespace

    from ..model.acceleration import InferenceInstruction
    from ..model.maskrcnn import SimulatedSegmentationModel
    from ..model.rpn import _assemble_proposals_reference

    rng = np.random.default_rng(seed)
    n = 3000
    classes = ["person", "car", "chair", "dog", "cat", "plant"]
    gt_instances = [SimpleNamespace(class_label=c) for c in classes]
    instructions = [
        InferenceInstruction(box=np.array([0.0, 0.0, 32.0, 32.0]), class_label=c)
        for c in classes[:3]
    ]
    boxes = rng.uniform(0.0, 320.0, (n, 4))
    scores = rng.uniform(0.0, 1.0, n)
    best_index = rng.integers(0, len(classes), n)
    best_iou = rng.uniform(0.0, 1.0, n)
    gt_index = np.where(best_iou >= 0.3, best_index, -1).astype(np.int64)
    proposals = _assemble_proposals_reference(boxes, scores, best_index, best_iou)

    # Bound methods over a stub carrying only the RNG the heads consume;
    # fresh same-seeded streams make the two paths comparable.
    def vectorized():
        stub = SimpleNamespace(_rng=np.random.default_rng(seed + 1))
        return SimulatedSegmentationModel._class_confidences(
            stub, best_iou, gt_index, instructions, gt_instances
        )

    def reference():
        stub = SimpleNamespace(_rng=np.random.default_rng(seed + 1))
        return SimulatedSegmentationModel._class_confidences_reference(
            stub, proposals, instructions, gt_instances
        )

    err = float(np.abs(vectorized() - reference()).max())
    return _cell("rpn.confidence", n, repeats, vectorized, reference, err, 0.0)


def _kernel_ba_jacobian(seed: int, repeats: int) -> dict:
    from ..geometry.bundle_adjustment import (
        _residuals_and_jacobian,
        _residuals_and_jacobian_reference,
    )
    from ..geometry.camera import PinholeCamera
    from ..geometry.se3 import SE3

    rng = np.random.default_rng(seed)
    camera = PinholeCamera(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    pose = SE3.exp(rng.normal(scale=0.05, size=6))
    n = 800
    points = np.column_stack(
        [
            rng.uniform(-2.0, 2.0, n),
            rng.uniform(-1.5, 1.5, n),
            rng.uniform(2.0, 8.0, n),
        ]
    )
    pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (n, 2))
    res_v, jac_v, _ = _residuals_and_jacobian(camera, pose, points, pixels)
    res_r, jac_r, _ = _residuals_and_jacobian_reference(camera, pose, points, pixels)
    err = float(
        max(np.abs(res_v - res_r).max(), np.abs(jac_v - jac_r).max())
    )
    return _cell(
        "ba.jacobian",
        n,
        repeats,
        lambda: _residuals_and_jacobian(camera, pose, points, pixels),
        lambda: _residuals_and_jacobian_reference(camera, pose, points, pixels),
        err,
        0.0,
    )


def _kernel_ba_ransac_score(seed: int, repeats: int) -> dict:
    from ..geometry.bundle_adjustment import _score_hypotheses_reference
    from ..geometry.se3 import SE3
    from ..geometry.triangulation import reprojection_errors_batch

    rng = np.random.default_rng(seed)
    camera_matrix = np.array(
        [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
    )
    poses = [SE3.exp(rng.normal(scale=0.1, size=6)) for _ in range(32)]
    n = 400
    points = np.column_stack(
        [
            rng.uniform(-2.0, 2.0, n),
            rng.uniform(-1.5, 1.5, n),
            rng.uniform(2.0, 8.0, n),
        ]
    )
    pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (n, 2))
    vec = reprojection_errors_batch(camera_matrix, poses, points, pixels)
    ref = _score_hypotheses_reference(camera_matrix, poses, points, pixels)
    err = float(np.abs(vec - ref).max())
    return _cell(
        "ba.ransac_score",
        len(poses) * n,
        repeats,
        lambda: reprojection_errors_batch(camera_matrix, poses, points, pixels),
        lambda: _score_hypotheses_reference(camera_matrix, poses, points, pixels),
        err,
        0.0,
    )


def _kernel_ba_dlt_rows(seed: int, repeats: int) -> dict:
    from ..geometry.bundle_adjustment import _dlt_rows, _dlt_rows_reference

    rng = np.random.default_rng(seed)
    n = 300
    normalized = rng.normal(size=(n, 2))
    homogeneous = np.column_stack([rng.normal(size=(n, 3)), np.ones(n)])
    err = float(
        np.abs(
            _dlt_rows(normalized, homogeneous)
            - _dlt_rows_reference(normalized, homogeneous)
        ).max()
    )
    return _cell(
        "ba.dlt_rows",
        n,
        repeats,
        lambda: _dlt_rows(normalized, homogeneous),
        lambda: _dlt_rows_reference(normalized, homogeneous),
        err,
        0.0,
    )


def _kernel_transfer_contour_depth(seed: int, repeats: int) -> dict:
    from ..transfer.mask_transfer import _contour_depths_reference, contour_depths

    rng = np.random.default_rng(seed)
    contour_uv = rng.uniform((0.0, 0.0), (640.0, 480.0), (192, 2))
    feature_pixels = rng.uniform((0.0, 0.0), (640.0, 480.0), (500, 2))
    depths = rng.uniform(2.0, 8.0, 500)
    k = 5
    vec = contour_depths(contour_uv, feature_pixels, depths, k)
    ref = _contour_depths_reference(contour_uv, feature_pixels, depths, k)
    err = float(np.abs(vec - ref).max())
    return _cell(
        "transfer.contour_depth",
        len(contour_uv),
        repeats,
        lambda: contour_depths(contour_uv, feature_pixels, depths, k),
        lambda: _contour_depths_reference(contour_uv, feature_pixels, depths, k),
        err,
        1e-9,
    )


def _descriptor_sets(rng, num_query: int, num_train: int) -> tuple[np.ndarray, np.ndarray]:
    """A train set of random 32-byte descriptors and a query set of noisy
    copies of its rows: a tracking frame's match problem."""
    train = rng.integers(0, 256, size=(num_train, 32), dtype=np.uint8)
    flips = np.packbits(rng.random((num_query, 256)) < 0.03, axis=1)
    query = train[rng.integers(0, num_train, num_query)] ^ flips
    return query, train


def _kernel_brief_hamming(seed: int, repeats: int) -> dict:
    from ..features.brief import _hamming_distance_reference, hamming_distance

    query, train = _descriptor_sets(np.random.default_rng(seed), 250, 300)
    vec = hamming_distance(query, train)
    ref = _hamming_distance_reference(query, train)
    err = float(np.abs(vec - ref).max())
    return _cell(
        "brief.hamming",
        vec.size,
        repeats,
        lambda: hamming_distance(query, train),
        lambda: _hamming_distance_reference(query, train),
        err,
        0.0,
    )


def _kernel_matcher_match(seed: int, repeats: int) -> dict:
    from ..features.matcher import _match_descriptors_reference, match_descriptors

    query, train = _descriptor_sets(np.random.default_rng(seed), 250, 300)
    # Both paths call the same Hamming kernel, so the speedup is that of
    # match selection, diluted by the shared distance matrix.
    err = float(
        match_descriptors(query, train) != _match_descriptors_reference(query, train)
    )
    return _cell(
        "matcher.match",
        len(query),
        repeats,
        lambda: match_descriptors(query, train),
        lambda: _match_descriptors_reference(query, train),
        err,
        0.0,
    )


def _kernel_frontend_noisy_descriptor(seed: int, repeats: int) -> dict:
    from ..vo.frontend import _noisy_descriptors_reference, noisy_descriptors

    rng = np.random.default_rng(seed)
    # One oracle frame at the frontend's default cap and flip count.
    descriptors = rng.integers(0, 256, size=(400, 32), dtype=np.uint8)
    flip_bits = 6

    # Fresh same-seeded streams make the two paths comparable; equivalence
    # covers the generator state they leave behind.
    def run(fn):
        generator = np.random.default_rng(seed + 1)
        return fn(descriptors, generator, flip_bits), generator.bit_generator.state

    vec, vec_state = run(noisy_descriptors)
    ref, ref_state = run(_noisy_descriptors_reference)
    # A diverged generator state counts as an error of at least one.
    err = max(
        float(np.abs(vec.astype(int) - ref.astype(int)).max()),
        float(vec_state != ref_state),
    )
    return _cell(
        "frontend.noisy_descriptor",
        len(descriptors),
        repeats,
        lambda: run(noisy_descriptors),
        lambda: run(_noisy_descriptors_reference),
        err,
        0.0,
    )


def _kernel_synthetic_render(seed: int, repeats: int) -> dict:
    """The geometry pass against the eagerly shaded reference loop on a
    few frames of one video.  The geometry pass leaves colour unshaded;
    equivalence shades it and compares depth, label map and RGB."""
    from ..synthetic.datasets import make_dataset

    video = make_dataset("xiph_like", num_frames=90, resolution=(160, 120), seed=seed)
    renderer = video._renderer
    views = [
        (video.trajectory.pose_cw(index / video.fps), index / video.fps, index)
        for index in (0, 30, 60, 89)
    ]

    def run(render):
        return [render(pose, time, frame_index=index) for pose, time, index in views]

    # One count per raster that differs anywhere.
    err = float(
        sum(
            not np.array_equal(lazy_raster, eager_raster)
            for lazy, eager in zip(run(renderer.render), run(renderer._render_reference))
            for lazy_raster, eager_raster in (
                (lazy.depth, eager.depth),
                (lazy.label_map, eager.label_map),
                (lazy.frame.image, eager.frame.image),
            )
        )
    )
    return _cell(
        "synthetic.render",
        len(views),
        repeats,
        lambda: run(renderer.render),
        lambda: run(renderer._render_reference),
        err,
        0.0,
    )


def _kernel_serve_batch_latency(seed: int, repeats: int) -> dict:
    """Deterministic cell: the calibrated batch latency model at the
    fleet's operating point (TX2-scaled fixed cost, the admission
    controller's solo prior).  ``speedup_x`` is the amortization factor
    of a full batch — total solo time over batch time."""
    from ..model.costs import DEVICES, MODEL_COSTS
    from ..serve.admission import AdmissionConfig
    from ..serve.batching import BatchConfig, estimate_batch_ms

    cfg = BatchConfig()
    cost = MODEL_COSTS["mask_rcnn_r101"]
    device = DEVICES["jetson_tx2"]
    setup_ms = device.scale(cost.rpn_fixed_ms + cost.inference_fixed_ms)
    solo_ms = AdmissionConfig().est_infer_prior_ms
    by_size = {
        str(size): round(estimate_batch_ms(solo_ms, setup_ms, size, cfg.alpha), 6)
        for size in range(1, cfg.max_size + 1)
    }
    full = estimate_batch_ms(solo_ms, setup_ms, cfg.max_size, cfg.alpha)
    return {
        "name": "serve.batch_latency",
        "n": cfg.max_size,
        "alpha": cfg.alpha,
        "setup_ms": round(setup_ms, 6),
        "solo_ms": round(solo_ms, 6),
        "batch_ms_by_size": by_size,
        # A batch of one must reproduce the solo latency exactly — the
        # max_size=1 byte-identity contract of the fleet scheduler.
        "equivalent": estimate_batch_ms(solo_ms, setup_ms, 1, cfg.alpha)
        == solo_ms,
        "speedup_x": round(cfg.max_size * solo_ms / full, 3),
    }


_KERNELS = {
    "fast.arc_run": _kernel_fast_arc_run,
    "rpn.assemble": _kernel_rpn_assemble,
    "rpn.confidence": _kernel_rpn_confidence,
    "ba.jacobian": _kernel_ba_jacobian,
    "ba.ransac_score": _kernel_ba_ransac_score,
    "ba.dlt_rows": _kernel_ba_dlt_rows,
    "transfer.contour_depth": _kernel_transfer_contour_depth,
    "serve.batch_latency": _kernel_serve_batch_latency,
    "brief.hamming": _kernel_brief_hamming,
    "matcher.match": _kernel_matcher_match,
    "frontend.noisy_descriptor": _kernel_frontend_noisy_descriptor,
    "synthetic.render": _kernel_synthetic_render,
}

KERNEL_NAMES = tuple(sorted(_KERNELS))


def run_kernel(name: str, seed: int = 0, repeats: int = 7) -> dict:
    """Run one registered kernel cell and return its JSON-clean payload."""
    if name not in _KERNELS:
        raise KeyError(
            f"unknown kernel {name!r}; available: {', '.join(KERNEL_NAMES)}"
        )
    return _KERNELS[name](seed, repeats)
