"""Z-buffer software renderer.

Produces, for each requested camera pose and time, the three rasters the
rest of the system consumes:

* an RGB frame (the "camera image"),
* a pixel-perfect instance-id map (the ground-truth segmentation the
  paper's IoU metric needs),
* a depth map (used for oracle feature visibility checks).

Rendering is split in two.  The *geometry pass* (:meth:`Renderer.render`)
runs on every frame: it writes depth, the label map and, per pixel, the
index of the triangle that won the depth test.  *Shading* runs on demand,
the first time the frame's ``image`` or ``gray`` is read (see
:class:`~repro.image.frame.VideoFrame`); most simulated frames are only
ever read through their depth and labels.  Shading evaluates the same
perspective-correct UV expression the eager loop evaluates, on each
winning triangle's pixels only, so all three rasters are bit-identical to
:meth:`Renderer._render_reference`, the eager loop kept as the reference.

Triangle rasterization uses perspective-correct barycentric interpolation
and Sutherland-Hodgman clipping against the near plane, vectorized per
triangle with numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..geometry.camera import PinholeCamera
from ..geometry.se3 import SE3
from ..image.frame import VideoFrame
from .objects import SceneObject

__all__ = ["RenderResult", "Renderer"]

_NEAR_PLANE = 0.05
_SKY = 110.0  # sky/haze grey behind every object

# A triangle record is one float64 row: the projected corners
# (ax, ay, bx, by, cx, cy), the signed doubled area, the corner depths,
# the corner UVs (u0, v0, u1, v1, u2, v2), the face shade and the index
# of the owning object.
_AREA, _UV, _SHADE, _OWNER = 6, slice(10, 16), 16, 17


@dataclass
class RenderResult:
    """Everything the simulator knows about one rendered frame."""

    frame: VideoFrame
    label_map: np.ndarray  # (H, W) int32 instance ids, 0 = background
    depth: np.ndarray  # (H, W) float32, inf where nothing was drawn
    pose_cw: SE3
    object_poses_wo: dict[int, SE3]
    time: float

    def instance_mask(self, instance_id: int) -> np.ndarray:
        return self.label_map == instance_id

    @property
    def visible_instance_ids(self) -> list[int]:
        ids = np.unique(self.label_map)
        return [int(i) for i in ids if i != 0]


def _clip_polygon_near(
    points_camera: np.ndarray, uvs: np.ndarray, near: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of a polygon against the z=near plane.

    Interpolates UVs along clipped edges.  Returns possibly-empty arrays.
    """
    output_points: list[np.ndarray] = []
    output_uvs: list[np.ndarray] = []
    count = len(points_camera)
    for i in range(count):
        current, current_uv = points_camera[i], uvs[i]
        nxt, next_uv = points_camera[(i + 1) % count], uvs[(i + 1) % count]
        current_in = current[2] >= near
        next_in = nxt[2] >= near
        if current_in:
            output_points.append(current)
            output_uvs.append(current_uv)
        if current_in != next_in:
            t = (near - current[2]) / (nxt[2] - current[2])
            output_points.append(current + t * (nxt - current))
            output_uvs.append(current_uv + t * (next_uv - current_uv))
    if not output_points:
        return np.zeros((0, 3)), np.zeros((0, 2))
    return np.asarray(output_points), np.asarray(output_uvs)


def _face_shades(triangles_camera: np.ndarray) -> np.ndarray:
    """Lambert-ish shade of (N, 3, 3) camera-frame triangles from their
    normals' z component.  ``vecdot`` runs the same dot kernel as
    ``np.linalg.norm`` of one vector, so the values match a per-face
    evaluation bit for bit."""
    normal = np.cross(
        triangles_camera[:, 1] - triangles_camera[:, 0],
        triangles_camera[:, 2] - triangles_camera[:, 0],
    )
    norm = np.sqrt(np.vecdot(normal, normal))
    return 0.65 + 0.35 * np.abs(normal[:, 2]) / np.maximum(norm, 1e-12)


def _triangle_records(
    pixels: np.ndarray, z: np.ndarray, uvs: np.ndarray, shade, owner
) -> np.ndarray:
    """(N, 18) records of N triangles from their (N, 3, 2) projected
    corners, (N, 3) depths and (N, 3, 2) UVs; ``shade`` and ``owner``
    are per triangle or shared."""
    count = len(pixels)
    ax, ay = pixels[:, 0, 0], pixels[:, 0, 1]
    bx, by = pixels[:, 1, 0], pixels[:, 1, 1]
    cx, cy = pixels[:, 2, 0], pixels[:, 2, 1]
    area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return np.column_stack(
        [
            pixels.reshape(count, 6),
            area,
            z,
            uvs.reshape(count, 6),
            np.broadcast_to(shade, count),
            np.broadcast_to(owner, count),
        ]
    )


def _shade(
    winner: np.ndarray, records: list[np.ndarray], textures: list, time: float
) -> np.ndarray:
    """The RGB frame of one geometry pass: each winning triangle's texels
    over the sky, from the per-pixel expression of the eager loop."""
    color = np.full(winner.shape + (3,), _SKY, dtype=np.float32)
    rows, cols = np.nonzero(winner >= 0)
    if len(rows):
        table = np.stack(records)
        # One row per record field, one column per winning pixel.
        per_pixel = table.T[:, winner[rows, cols]]
        ax, ay, bx, by, cx, cy, area, z0, z1, z2 = per_pixel[:10]
        u0, v0, u1, v1, u2, v2 = per_pixel[_UV]
        x = cols + 0.5
        y = rows + 0.5
        w_c = ((bx - ax) * (y - ay) - (by - ay) * (x - ax)) / area
        w_b = ((x - ax) * (cy - ay) - (y - ay) * (cx - ax)) / area
        w_a = 1.0 - w_b - w_c
        inv_z = w_a * (1.0 / z0) + w_b * (1.0 / z1) + w_c * (1.0 / z2)
        pixel_z = 1.0 / np.maximum(inv_z, 1e-12)
        u = (w_a * (u0 / z0) + w_b * (u1 / z1) + w_c * (u2 / z2)) * pixel_z
        v = (w_a * (v0 / z0) + w_b * (v1 / z1) + w_c * (v2 / z2)) * pixel_z
        shade = per_pixel[_SHADE, :, None]
        owner = per_pixel[_OWNER]
        for index in np.unique(table[:, _OWNER]):
            texture = textures[int(index)]
            # Time-varying textures (e.g. the chaos lighting shift) shade
            # at the frame's own time, however late the frame is read.
            set_time = getattr(texture, "set_time", None)
            if set_time is not None:
                set_time(time)
            mine = owner == index
            color[rows[mine], cols[mine]] = (
                texture.sample(u[mine], v[mine]) * shade[mine]
            )
    return np.clip(color, 0.0, 255.0).astype(np.uint8)


class Renderer:
    """Renders a list of :class:`SceneObject` through a pinhole camera."""

    def __init__(self, camera: PinholeCamera, objects: list[SceneObject]):
        self.camera = camera
        self.objects = objects

    def render(self, pose_cw: SE3, time: float, frame_index: int = 0) -> RenderResult:
        """Geometry pass: depth, label map and a lazily shaded frame."""
        height, width = self.camera.height, self.camera.width
        depth = np.full((height, width), np.inf, dtype=np.float32)
        label_map = np.zeros((height, width), dtype=np.int32)
        winner = np.full((height, width), -1, dtype=np.int32)
        records: list[np.ndarray] = []

        object_poses: dict[int, SE3] = {}
        vertices, faces, face_uvs, owners = [], [], [], []
        offset = 0
        for owner, scene_object in enumerate(self.objects):
            pose_wo = scene_object.pose_wo(time)
            if not scene_object.is_background:
                object_poses[scene_object.instance_id] = pose_wo
            pose_co = pose_cw @ pose_wo  # object -> camera
            mesh = scene_object.mesh
            vertices.append(pose_co.transform(mesh.vertices))
            faces.append(mesh.faces + offset)
            face_uvs.append(mesh.face_uvs)
            owners.append(np.full(mesh.num_faces, owner))
            offset += len(mesh.vertices)
        if faces:
            self._draw_faces(
                np.concatenate(vertices),
                np.concatenate(faces),
                np.concatenate(face_uvs),
                np.concatenate(owners),
                depth,
                label_map,
                winner,
                records,
            )

        textures = [scene_object.texture for scene_object in self.objects]
        frame = VideoFrame(
            index=frame_index,
            timestamp=time,
            shape=(height, width),
            shade=functools.partial(_shade, winner, records, textures, time),
        )
        return RenderResult(
            frame=frame,
            label_map=label_map,
            depth=depth,
            pose_cw=pose_cw,
            object_poses_wo=object_poses,
            time=time,
        )

    # ------------------------------------------------------------------
    def _draw_faces(
        self,
        vertices_camera: np.ndarray,
        faces: np.ndarray,
        face_uvs: np.ndarray,
        owners: np.ndarray,
        depth: np.ndarray,
        label_map: np.ndarray,
        winner: np.ndarray,
        records: list[np.ndarray],
    ) -> None:
        """Raster every object's faces, object by object and face by face
        in mesh order (the order decides depth ties)."""
        instance_ids = [scene_object.instance_id for scene_object in self.objects]
        pixels, z = self.camera.project(vertices_camera)
        face_z = z[faces]
        below = face_z < _NEAR_PLANE
        in_front = ~below.any(axis=1)
        # Faces wholly in front of the near plane are culled in one test:
        # an empty on-screen bounding box or a degenerate projection
        # draws nothing.  Faces the plane cuts keep the scalar clip path;
        # faces wholly behind it are dropped.
        front = np.flatnonzero(in_front)
        front_records = _triangle_records(
            pixels[faces[front]],
            face_z[front],
            face_uvs[front],
            _face_shades(vertices_camera[faces[front]]),
            owners[front],
        )
        bounds = self._bounds(front_records)
        drawable = (bounds[1] > bounds[0]) & (bounds[3] > bounds[2])
        drawable &= np.abs(front_records[:, _AREA]) >= 1e-9
        draw = np.zeros(len(faces), dtype=bool)
        draw[front[drawable]] = True
        draw |= below.any(axis=1) & ~below.all(axis=1)
        row_of = np.cumsum(in_front) - 1  # face index -> front_records row
        for face_index in np.flatnonzero(draw):
            owner = int(owners[face_index])
            if in_front[face_index]:
                row = row_of[face_index]
                self._raster_triangle(
                    front_records[row],
                    bounds[:, row],
                    instance_ids[owner],
                    depth,
                    label_map,
                    winner,
                    records,
                )
                continue
            polygon, polygon_uv = _clip_polygon_near(
                vertices_camera[faces[face_index]], face_uvs[face_index], _NEAR_PLANE
            )
            if len(polygon) < 3:
                continue
            # Fan-triangulate the clipped polygon.
            fan = [[0, k, k + 1] for k in range(1, len(polygon) - 1)]
            polygon_pixels, polygon_z = self.camera.project(polygon)
            fan_records = _triangle_records(
                polygon_pixels[fan],
                polygon_z[fan],
                polygon_uv[fan],
                _face_shades(polygon[None, :3])[0],
                owner,
            )
            fan_bounds = self._bounds(fan_records)
            for k, record in enumerate(fan_records):
                x0, x1, y0, y1 = fan_bounds[:, k]
                if x1 <= x0 or y1 <= y0 or abs(record[_AREA]) < 1e-9:
                    continue
                self._raster_triangle(
                    record,
                    fan_bounds[:, k],
                    instance_ids[owner],
                    depth,
                    label_map,
                    winner,
                    records,
                )

    def _bounds(self, records: np.ndarray) -> np.ndarray:
        """(4, N) clamped pixel bounding boxes ``x0, x1, y0, y1`` of the
        records' projected triangles (``x1``/``y1`` exclusive)."""
        xs = records[:, 0:6:2]
        ys = records[:, 1:6:2]
        return np.stack(
            [
                np.maximum(np.floor(xs.min(axis=1)).astype(np.int64), 0),
                np.minimum(np.ceil(xs.max(axis=1)).astype(np.int64) + 1, self.camera.width),
                np.maximum(np.floor(ys.min(axis=1)).astype(np.int64), 0),
                np.minimum(np.ceil(ys.max(axis=1)).astype(np.int64) + 1, self.camera.height),
            ]
        )

    @staticmethod
    def _raster_triangle(
        record: np.ndarray,
        bounds: np.ndarray,
        instance_id: int,
        depth: np.ndarray,
        label_map: np.ndarray,
        winner: np.ndarray,
        records: list[np.ndarray],
    ) -> None:
        """Depth-test one triangle over its bounding box; where it wins,
        write depth, label and its index into ``records``."""
        x0, x1, y0, y1 = bounds.tolist()
        # Python floats: the same IEEE arithmetic as numpy scalars, faster.
        ax, ay, bx, by, cx, cy, area, z0, z1, z2 = record[:10].tolist()
        # Barycentric weights: compute two by signed sub-areas, infer the
        # third.  Columns and rows broadcast against each other.
        dx = np.arange(x0, x1) + 0.5 - ax
        dy = (np.arange(y0, y1) + 0.5 - ay)[:, None]
        w_c = ((bx - ax) * dy - (by - ay) * dx) / area
        w_b = (dx * (cy - ay) - dy * (cx - ax)) / area
        w_a = 1.0 - w_b - w_c
        inside = (w_a >= -1e-9) & (w_b >= -1e-9) & (w_c >= -1e-9)
        if not inside.any():
            return

        inv_z = w_a * (1.0 / z0) + w_b * (1.0 / z1) + w_c * (1.0 / z2)
        pixel_z = 1.0 / np.maximum(inv_z, 1e-12)

        region_depth = depth[y0:y1, x0:x1]
        closer = inside & (pixel_z < region_depth) & (pixel_z > _NEAR_PLANE)
        if not closer.any():
            return
        region_depth[closer] = pixel_z[closer]
        label_map[y0:y1, x0:x1][closer] = instance_id
        winner[y0:y1, x0:x1][closer] = len(records)
        records.append(record)

    # ------------------------------------------------------------------
    # Reference: the eager loop, shading every pixel as it rasterizes.
    # ------------------------------------------------------------------
    def _render_reference(
        self, pose_cw: SE3, time: float, frame_index: int = 0
    ) -> RenderResult:
        """Eagerly shaded twin of :meth:`render`; every raster of the two
        is bit-identical."""
        height, width = self.camera.height, self.camera.width
        color = np.full((height, width, 3), _SKY, dtype=np.float32)
        depth = np.full((height, width), np.inf, dtype=np.float32)
        label_map = np.zeros((height, width), dtype=np.int32)

        object_poses: dict[int, SE3] = {}
        for scene_object in self.objects:
            # Time-varying textures (e.g. the chaos lighting shift) get
            # the frame time before any of their texels are sampled.
            set_time = getattr(scene_object.texture, "set_time", None)
            if set_time is not None:
                set_time(time)
        for scene_object in self.objects:
            pose_wo = scene_object.pose_wo(time)
            if not scene_object.is_background:
                object_poses[scene_object.instance_id] = pose_wo
            pose_co = pose_cw @ pose_wo  # object -> camera
            self._draw_object_reference(scene_object, pose_co, color, depth, label_map)

        image = np.clip(color, 0.0, 255.0).astype(np.uint8)
        return RenderResult(
            frame=VideoFrame(index=frame_index, timestamp=time, image=image),
            label_map=label_map,
            depth=depth,
            pose_cw=pose_cw,
            object_poses_wo=object_poses,
            time=time,
        )

    def _draw_object_reference(
        self,
        scene_object: SceneObject,
        pose_co: SE3,
        color: np.ndarray,
        depth: np.ndarray,
        label_map: np.ndarray,
    ) -> None:
        mesh = scene_object.mesh
        vertices_camera = pose_co.transform(mesh.vertices)
        # Per-face Lambert-ish shading from the camera-frame normal gives
        # faces distinct brightness, like real diffuse lighting.
        for face_index in range(mesh.num_faces):
            tri_camera = vertices_camera[mesh.faces[face_index]]
            if (tri_camera[:, 2] < _NEAR_PLANE).all():
                continue
            tri_uv = mesh.face_uvs[face_index]
            if (tri_camera[:, 2] < _NEAR_PLANE).any():
                tri_camera, tri_uv = _clip_polygon_near(tri_camera, tri_uv, _NEAR_PLANE)
                if len(tri_camera) < 3:
                    continue
            normal = np.cross(tri_camera[1] - tri_camera[0], tri_camera[2] - tri_camera[0])
            norm = np.linalg.norm(normal)
            shade = 0.65 + 0.35 * abs(normal[2]) / max(norm, 1e-12)
            # Fan-triangulate the clipped polygon.
            for k in range(1, len(tri_camera) - 1):
                self._raster_triangle_reference(
                    tri_camera[[0, k, k + 1]],
                    tri_uv[[0, k, k + 1]],
                    scene_object,
                    shade,
                    color,
                    depth,
                    label_map,
                )

    def _raster_triangle_reference(
        self,
        tri_camera: np.ndarray,
        tri_uv: np.ndarray,
        scene_object: SceneObject,
        shade: float,
        color: np.ndarray,
        depth: np.ndarray,
        label_map: np.ndarray,
    ) -> None:
        camera = self.camera
        pixels, z = camera.project(tri_camera)
        x0 = max(int(np.floor(pixels[:, 0].min())), 0)
        x1 = min(int(np.ceil(pixels[:, 0].max())) + 1, camera.width)
        y0 = max(int(np.floor(pixels[:, 1].min())), 0)
        y1 = min(int(np.ceil(pixels[:, 1].max())) + 1, camera.height)
        if x1 <= x0 or y1 <= y0:
            return

        ax, ay = pixels[0]
        bx, by = pixels[1]
        cx, cy = pixels[2]
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(area) < 1e-9:
            return

        xs = np.arange(x0, x1) + 0.5
        ys = np.arange(y0, y1) + 0.5
        grid_x, grid_y = np.meshgrid(xs, ys)

        # Barycentric weights: compute two by signed sub-areas, infer the third.
        w_c = ((bx - ax) * (grid_y - ay) - (by - ay) * (grid_x - ax)) / area
        w_b = ((grid_x - ax) * (cy - ay) - (grid_y - ay) * (cx - ax)) / area
        w_a = 1.0 - w_b - w_c
        inside = (w_a >= -1e-9) & (w_b >= -1e-9) & (w_c >= -1e-9)
        if not inside.any():
            return

        inv_z = w_a * (1.0 / z[0]) + w_b * (1.0 / z[1]) + w_c * (1.0 / z[2])
        pixel_z = 1.0 / np.maximum(inv_z, 1e-12)

        region_depth = depth[y0:y1, x0:x1]
        closer = inside & (pixel_z < region_depth) & (pixel_z > _NEAR_PLANE)
        if not closer.any():
            return

        # Perspective-correct UV interpolation.
        u_over_z = (
            w_a * (tri_uv[0, 0] / z[0])
            + w_b * (tri_uv[1, 0] / z[1])
            + w_c * (tri_uv[2, 0] / z[2])
        )
        v_over_z = (
            w_a * (tri_uv[0, 1] / z[0])
            + w_b * (tri_uv[1, 1] / z[1])
            + w_c * (tri_uv[2, 1] / z[2])
        )
        u = u_over_z[closer] * pixel_z[closer]
        v = v_over_z[closer] * pixel_z[closer]
        texel = scene_object.texture.sample(u, v) * shade

        region_depth[closer] = pixel_z[closer]
        color[y0:y1, x0:x1][closer] = texel
        label_map[y0:y1, x0:x1][closer] = scene_object.instance_id
