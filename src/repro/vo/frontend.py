"""VO frontends: turning a frame into feature observations.

Two interchangeable implementations:

* :class:`FastBriefFrontend` — the real pipeline (FAST + rotated BRIEF on
  the rendered image).  Used in the examples and the frontend tests.
* :class:`OracleFrontend` — the *simulation* frontend used by the large
  experiment grids.  It projects the world's stable feature sites through
  the ground-truth camera, keeps those that survive a depth-buffer
  visibility test, perturbs the pixels with detection noise and emits a
  deterministic per-site descriptor with random bit flips.  Matching,
  triangulation and PnP downstream run unchanged and still have to cope
  with noise, occlusion and wrong matches — but frame processing becomes
  fast and seed-reproducible, which a 6-system x 4-dataset x 3-network
  evaluation grid needs.  (DESIGN.md section 2 records this substitution.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features.orb import OrbFeatureExtractor
from ..geometry.camera import PinholeCamera
from ..image.frame import VideoFrame
from ..synthetic.world import GroundTruth, World

__all__ = ["Observation", "FastBriefFrontend", "OracleFrontend", "noisy_descriptors"]


@dataclass
class Observation:
    """Features of one frame, frontend-agnostic."""

    pixels: np.ndarray  # (N, 2) float (u, v)
    descriptors: np.ndarray  # (N, 32) uint8

    def __len__(self) -> int:
        return len(self.pixels)

    def subset(self, indices: np.ndarray) -> "Observation":
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        return Observation(self.pixels[indices], self.descriptors[indices])


class FastBriefFrontend:
    """Real feature extraction on the frame image."""

    def __init__(self, max_features: int = 400, threshold: float = 18.0):
        self._extractor = OrbFeatureExtractor(
            threshold=threshold, max_keypoints=max_features
        )

    def observe(self, frame: VideoFrame, truth: GroundTruth | None = None) -> Observation:
        features = self._extractor.extract(frame.gray)
        return Observation(pixels=features.pixels, descriptors=features.descriptors)


class OracleFrontend:
    """Deterministic feature sites projected through ground truth."""

    def __init__(
        self,
        world: World,
        camera: PinholeCamera,
        max_features: int = 400,
        pixel_noise: float = 0.4,
        descriptor_flip_bits: int = 6,
        dropout: float = 0.05,
        depth_tolerance: float = 0.02,
        seed: int = 0,
    ):
        self.world = world
        self.camera = camera
        self.max_features = max_features
        self.pixel_noise = pixel_noise
        self.descriptor_flip_bits = descriptor_flip_bits
        self.dropout = dropout
        self.depth_tolerance = depth_tolerance
        self._rng = np.random.default_rng(seed)
        self._descriptor_cache: dict[int, np.ndarray] = {}

    def _site_descriptor(self, site_id: int) -> np.ndarray:
        cached = self._descriptor_cache.get(site_id)
        if cached is None:
            site_rng = np.random.default_rng(0x9E3779B9 ^ (site_id * 2654435761 % 2**32))
            cached = site_rng.integers(0, 256, size=32, dtype=np.uint8)
            self._descriptor_cache[site_id] = cached
        return cached

    def observe(self, frame: VideoFrame, truth: GroundTruth) -> Observation:
        sites = self.world.feature_sites
        positions = self.world.site_world_positions(frame.timestamp)
        pixels, depths, visible = self.camera.visible_world_points(
            truth.pose_cw, positions, margin=-2.0
        )
        # Depth-buffer test: the site must actually be the front surface.
        candidate = np.flatnonzero(visible)
        cols = np.clip(np.round(pixels[candidate, 0]).astype(int), 0, self.camera.width - 1)
        rows = np.clip(np.round(pixels[candidate, 1]).astype(int), 0, self.camera.height - 1)
        buffer_depth = truth.depth[rows, cols]
        unoccluded = depths[candidate] <= buffer_depth * (1.0 + self.depth_tolerance) + 0.05
        candidate = candidate[unoccluded]

        # Random detection dropout, then keep at most max_features.  The
        # cap is applied in site-id order so consecutive frames observe a
        # highly overlapping subset — the way stable FAST corners behave —
        # instead of resampling a nearly disjoint set each frame.
        keep = self._rng.uniform(size=len(candidate)) >= self.dropout
        candidate = candidate[keep]
        if len(candidate) > self.max_features:
            # Deterministic hash order interleaves sites of all objects
            # (plain site-id order would starve late-generated objects).
            priority = (candidate.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(2**32)
            candidate = candidate[np.argsort(priority)][: self.max_features]

        noisy_pixels = pixels[candidate] + self._rng.normal(
            scale=self.pixel_noise, size=(len(candidate), 2)
        )
        descriptors = (
            np.stack([self._site_descriptor(sites[i].site_id) for i in candidate])
            if len(candidate)
            else np.zeros((0, 32), dtype=np.uint8)
        )
        descriptors = noisy_descriptors(descriptors, self._rng, self.descriptor_flip_bits)
        return Observation(pixels=noisy_pixels, descriptors=descriptors)


def noisy_descriptors(
    descriptors: np.ndarray, rng: np.random.Generator, flip_bits: int
) -> np.ndarray:
    """Copy of (N, 32) uint8 ``descriptors`` with ``flip_bits`` random bit
    flips per row (a bit drawn twice toggles back).

    One ``(N, flip_bits)`` draw consumes ``rng`` exactly as N row-by-row
    draws of ``flip_bits`` would: a power-of-two range never rejects, and
    numpy's default PCG64 generator keeps the unused half of a 64-bit word
    between calls.
    """
    flips = rng.integers(0, 256, size=(len(descriptors), flip_bits)).ravel()
    rows = np.repeat(np.arange(len(descriptors)), flip_bits)
    noisy = descriptors.copy()
    np.bitwise_xor.at(noisy, (rows, flips // 8), (1 << (flips % 8)).astype(np.uint8))
    return noisy


def _noisy_descriptors_reference(
    descriptors: np.ndarray, rng: np.random.Generator, flip_bits: int
) -> np.ndarray:
    """Row-by-row reference for :func:`noisy_descriptors`."""
    noisy = descriptors.copy()
    for descriptor in noisy:
        flips = rng.integers(0, 256, size=flip_bits)
        for flip in flips:
            descriptor[flip // 8] ^= np.uint8(1 << (flip % 8))
    return noisy
