"""Video frame container and basic raster operations.

This module stands in for the slice of OpenCV the paper's client uses for
"feeding video frames at fixed 30 fps" — grayscale conversion, Gaussian
smoothing, gradients and pyramids, all in numpy/scipy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import ndimage

__all__ = [
    "VideoFrame",
    "to_grayscale",
    "gaussian_blur",
    "sobel_gradients",
    "downsample",
    "image_entropy",
    "block_entropy",
]


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """ITU-R BT.601 luma conversion to float32 in [0, 255]."""
    image = np.asarray(image)
    if image.ndim == 2:
        return image.astype(np.float32)
    if image.ndim == 3 and image.shape[2] == 3:
        weights = np.array([0.299, 0.587, 0.114], dtype=np.float32)
        return image.astype(np.float32) @ weights
    raise ValueError(f"expected (H, W) or (H, W, 3) image, got {image.shape}")


def gaussian_blur(image: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    return ndimage.gaussian_filter(np.asarray(image, dtype=np.float32), sigma=sigma)


def sobel_gradients(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) Sobel gradients of a grayscale image."""
    gray = np.asarray(gray, dtype=np.float32)
    gx = ndimage.sobel(gray, axis=1)
    gy = ndimage.sobel(gray, axis=0)
    return gx, gy


def downsample(gray: np.ndarray, factor: int = 2) -> np.ndarray:
    """Anti-aliased decimation for image pyramids."""
    if factor <= 1:
        return np.asarray(gray, dtype=np.float32)
    blurred = gaussian_blur(gray, sigma=0.5 * factor)
    return blurred[::factor, ::factor]


def resize_bilinear(gray: np.ndarray, scale: float) -> np.ndarray:
    """Bilinear resize by an arbitrary scale factor (ORB pyramid levels)."""
    gray = np.asarray(gray, dtype=np.float32)
    if scale == 1.0:
        return gray.copy()
    if scale < 1.0:
        gray = gaussian_blur(gray, sigma=0.5 / scale - 0.5)
    out_h = max(int(round(gray.shape[0] * scale)), 1)
    out_w = max(int(round(gray.shape[1] * scale)), 1)
    ys = np.linspace(0, gray.shape[0] - 1, out_h)
    xs = np.linspace(0, gray.shape[1] - 1, out_w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gray.shape[0] - 1)
    x1 = np.minimum(x0 + 1, gray.shape[1] - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = gray[np.ix_(y0, x0)] * (1 - wx) + gray[np.ix_(y0, x1)] * wx
    bottom = gray[np.ix_(y1, x0)] * (1 - wx) + gray[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def image_entropy(gray: np.ndarray, bins: int = 32) -> float:
    """Shannon entropy of the intensity histogram, in bits.

    The tile encoder's rate model treats entropy as a proxy for how many
    bits a region costs to encode at a given quality.
    """
    gray = np.asarray(gray, dtype=np.float32)
    if gray.size == 0:
        return 0.0
    hist, _ = np.histogram(gray, bins=bins, range=(0.0, 255.0))
    total = hist.sum()
    if total == 0:
        return 0.0
    probabilities = hist[hist > 0] / total
    return float(-np.sum(probabilities * np.log2(probabilities)))


def block_entropy(gray: np.ndarray, block: int) -> np.ndarray:
    """Per-block entropy map of a grayscale image.

    Returns an array of shape ``(ceil(H/block), ceil(W/block))``.
    """
    gray = np.asarray(gray, dtype=np.float32)
    rows = int(np.ceil(gray.shape[0] / block))
    cols = int(np.ceil(gray.shape[1] / block))
    out = np.zeros((rows, cols), dtype=np.float32)
    for r in range(rows):
        for c in range(cols):
            tile = gray[r * block : (r + 1) * block, c * block : (c + 1) * block]
            out[r, c] = image_entropy(tile)
    return out


class VideoFrame:
    """One frame of a 30 fps stream.

    Attributes
    ----------
    index:
        Sequence number in the video.
    timestamp:
        Capture time in seconds (index / fps for synthetic streams).
    image:
        (H, W, 3) uint8 RGB raster.

    The image is either given up front or shaded on demand.  A frame
    built with ``shape`` and ``shade`` (a zero-argument callable that
    returns the raster) calls ``shade`` once, on the first read of
    ``image`` or ``gray``, and then drops it together with whatever it
    holds.  ``height``, ``width`` and ``shape`` come from the frame size
    and never shade.
    """

    __slots__ = ("index", "timestamp", "_image", "_shape", "_shade", "_gray")

    def __init__(
        self,
        index: int,
        timestamp: float,
        image: np.ndarray | None = None,
        *,
        shape: tuple[int, int] | None = None,
        shade: Callable[[], np.ndarray] | None = None,
    ):
        self.index = index
        self.timestamp = timestamp
        self._gray: np.ndarray | None = None
        self._shade = None
        if image is not None:
            self._image = _checked_image(image)
            self._shape = self._image.shape[:2]
        elif shape is not None and shade is not None:
            self._image = None
            self._shape = (int(shape[0]), int(shape[1]))
            self._shade = shade
        else:
            raise ValueError("VideoFrame needs an image, or a shape and a shade callable")

    @property
    def image(self) -> np.ndarray:
        if self._image is None:
            image = _checked_image(self._shade())
            if image.shape[:2] != self._shape:
                raise ValueError(
                    f"shaded image is {image.shape[:2]}, frame is {self._shape}"
                )
            self._image, self._shade = image, None
        return self._image

    @property
    def height(self) -> int:
        return self._shape[0]

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def gray(self) -> np.ndarray:
        """Cached float32 grayscale raster."""
        if self._gray is None:
            self._gray = to_grayscale(self.image)
        return self._gray


def _checked_image(image) -> np.ndarray:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("VideoFrame.image must be (H, W, 3)")
    return image
