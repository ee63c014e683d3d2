"""BRIEF binary descriptors (rotation-aware, i.e. the "rBRIEF" of ORB).

A descriptor is 256 pairwise intensity comparisons inside a smoothed patch
around the keypoint, packed into a 32-byte ``uint8`` vector.  Rotating the
sampling pattern by the keypoint orientation gives in-plane rotation
invariance.
"""

from __future__ import annotations

import numpy as np

from ..image.frame import gaussian_blur
from .fast import Keypoint

__all__ = ["BriefDescriptorExtractor", "hamming_distance"]

_PATCH_RADIUS = 15
_NUM_BITS = 256


def _sampling_pattern(rng_seed: int = 1234) -> tuple[np.ndarray, np.ndarray]:
    """Fixed Gaussian test-pair pattern, shared by all extractors.

    Pairs are drawn once from N(0, (patch/5)^2) clipped to the patch, the
    distribution recommended in the BRIEF paper.
    """
    rng = np.random.default_rng(rng_seed)
    scale = _PATCH_RADIUS / 2.5
    points_a = np.clip(
        rng.normal(scale=scale, size=(_NUM_BITS, 2)), -_PATCH_RADIUS, _PATCH_RADIUS
    )
    points_b = np.clip(
        rng.normal(scale=scale, size=(_NUM_BITS, 2)), -_PATCH_RADIUS, _PATCH_RADIUS
    )
    return points_a, points_b


_PATTERN_A, _PATTERN_B = _sampling_pattern()

# 256-entry popcount table of the uint8-lane reference Hamming distance.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


class BriefDescriptorExtractor:
    """Computes rotated-BRIEF descriptors for FAST keypoints."""

    def __init__(self, blur_sigma: float = 2.0):
        self.blur_sigma = blur_sigma

    def compute(self, gray: np.ndarray, keypoints: list[Keypoint]) -> tuple[list[Keypoint], np.ndarray]:
        """Return (kept keypoints, (N, 32) uint8 descriptor matrix).

        Keypoints too close to the border for a full patch are dropped —
        the same contract as OpenCV's ORB.
        """
        gray = np.asarray(gray, dtype=np.float32)
        smoothed = gaussian_blur(gray, sigma=self.blur_sigma)
        height, width = gray.shape

        kept: list[Keypoint] = []
        bits_rows: list[np.ndarray] = []
        margin = _PATCH_RADIUS + 2
        for keypoint in keypoints:
            r, c = keypoint.row, keypoint.col
            if not (margin <= r < height - margin and margin <= c < width - margin):
                continue
            cos_a, sin_a = np.cos(keypoint.angle), np.sin(keypoint.angle)
            rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
            # Pattern points are (dr, dc); rotate them by the orientation.
            rotated_a = _PATTERN_A @ rotation.T
            rotated_b = _PATTERN_B @ rotation.T
            rows_a = np.clip(np.round(r + rotated_a[:, 0]).astype(int), 0, height - 1)
            cols_a = np.clip(np.round(c + rotated_a[:, 1]).astype(int), 0, width - 1)
            rows_b = np.clip(np.round(r + rotated_b[:, 0]).astype(int), 0, height - 1)
            cols_b = np.clip(np.round(c + rotated_b[:, 1]).astype(int), 0, width - 1)
            bits = smoothed[rows_a, cols_a] < smoothed[rows_b, cols_b]
            bits_rows.append(bits)
            kept.append(keypoint)

        if not kept:
            return [], np.zeros((0, _NUM_BITS // 8), dtype=np.uint8)
        descriptors = np.packbits(np.asarray(bits_rows, dtype=bool), axis=1)
        return kept, descriptors


def hamming_distance(descriptors_a: np.ndarray, descriptors_b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distance matrix between two (N, 32) uint8 sets.

    Each descriptor is read as four ``uint64`` lanes; the lanes are XORed
    pairwise and popcounted one lane at a time into an ``(N, M)`` int32
    matrix, so no ``(N, M, 32)`` intermediate is built.
    """
    lanes_a = _uint64_lanes(descriptors_a)
    lanes_b = _uint64_lanes(descriptors_b)
    distances = np.zeros((len(lanes_a), len(lanes_b)), dtype=np.int32)
    for lane in range(lanes_a.shape[1]):
        distances += np.bitwise_count(lanes_a[:, lane, None] ^ lanes_b[None, :, lane])
    return distances


def _uint64_lanes(descriptors: np.ndarray) -> np.ndarray:
    """(N, 32) uint8 descriptors as (N, 4) uint64 lanes (copied only when
    not already C-contiguous, e.g. a strided row subset)."""
    return np.ascontiguousarray(np.atleast_2d(descriptors), dtype=np.uint8).view(np.uint64)


def _hamming_distance_reference(
    descriptors_a: np.ndarray, descriptors_b: np.ndarray
) -> np.ndarray:
    """Scalar-lane reference for :func:`hamming_distance`: a uint8
    popcount table over the full (N, M, 32) XOR cube."""
    descriptors_a = np.atleast_2d(descriptors_a)
    descriptors_b = np.atleast_2d(descriptors_b)
    xored = descriptors_a[:, None, :] ^ descriptors_b[None, :, :]
    return _POPCOUNT[xored].sum(axis=2).astype(np.int32)
