"""Image substrate: frames, contour tracing (findContours equivalent),
polygon rasterization, instance masks and the IoU metric (Eq. 8)."""

from .frame import (
    VideoFrame,
    block_entropy,
    downsample,
    gaussian_blur,
    resize_bilinear,
    image_entropy,
    sobel_gradients,
    to_grayscale,
)
from .contours import (
    fill_contour,
    find_contours,
    largest_contour,
    mask_boundary,
    resample_contour,
)
from .draw import draw_boxes, instance_color, overlay_masks, save_pgm, save_ppm
from .masks import (
    InstanceMask,
    bounding_box,
    box_iou,
    label_map_to_masks,
    mask_area,
    mask_iou,
    masks_to_label_map,
)

__all__ = [
    "VideoFrame",
    "block_entropy",
    "downsample",
    "gaussian_blur",
    "resize_bilinear",
    "image_entropy",
    "sobel_gradients",
    "to_grayscale",
    "fill_contour",
    "find_contours",
    "largest_contour",
    "mask_boundary",
    "resample_contour",
    "draw_boxes",
    "instance_color",
    "overlay_masks",
    "save_pgm",
    "save_ppm",
    "InstanceMask",
    "bounding_box",
    "box_iou",
    "label_map_to_masks",
    "mask_area",
    "mask_iou",
    "masks_to_label_map",
]
