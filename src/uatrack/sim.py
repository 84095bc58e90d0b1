"""Synthetic urban scenes with ground truth, and detector noise.

Objects are car-like surfaces from one of four height-profile templates
(van / sedan / pickup / hatch), each deformed per instance, moving on
straight, turning or stopping paths around a sensor at the origin. Point
density falls with range, as a LIDAR's does.

A seed gives the same scenes, bit for bit, only while the draws keep this
layout:
  * `generate_sequence` draws the objects (`_sample_objects`), then one
    `rng.random` a frame for every object's surface points: object i, with
    n_i points that frame, takes the next 3*n_i uniforms in object order
    (`sample_surface`).
  * `perturb_boxes` takes one `rng.random((D, 7))` for a sequence's D
    detections in frame order: row k holds detection k's 3 center, 3 size
    and 1 yaw uniforms, each mapped to [lo, hi) as lo + (hi - lo) * u.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import FRAME_PERIOD, Box7, Detection, FrameRecord, PointCloud, Sequence, wrap_angle

# height profiles: (x0_frac, x1_frac, height_frac) segments over x in [-1, 1]
TEMPLATE_PROFILES = {
    0: ((-1.0, 1.0, 1.0),),                                         # van
    1: ((-1.0, -0.5, 0.48), (-0.5, 0.3, 1.0), (0.3, 1.0, 0.48)),    # sedan
    2: ((-1.0, 0.2, 0.38), (0.2, 1.0, 1.0)),                        # pickup
    3: ((-1.0, 0.05, 1.0), (0.05, 0.5, 0.66), (0.5, 1.0, 0.34)),    # hatch
}
N_TEMPLATES = len(TEMPLATE_PROFILES)

_INSET = 0.995  # keep surface points strictly inside the box under float noise
BOUNDS = 45.0  # every pose stays inside +/-BOUNDS on x and y, in metres
MARGIN = 4.0  # every pose stays this far inside +/-BOUNDS, in metres
SPURIOUS_RATE = 0.10  # SimSection.noise()'s mean spurious detections a frame per object
LENGTH_RANGE = (3.9, 4.7)  # an object's length is drawn uniformly from this, in metres
WIDTH_RANGE = (1.72, 1.92)  # its width, likewise
HEIGHT_RANGE = (1.45, 1.75)  # its height, likewise
REF_RANGE = 18.0  # range in metres within which an object gets base_points a frame


@dataclass(frozen=True)
class NoiseModel:
    """Evaluation / detector noise rates. pct values are fractions of the
    corresponding box extent; yaw noise is in degrees."""

    center_pct: float = 0.10
    size_pct: float = 0.10
    yaw_deg: float = 5.0
    spurious_rate: float = 0.0
    missed_rate: float = 0.0

    def __post_init__(self):
        # perturb_boxes scales each extent by 1 + u, u in [-size_pct, size_pct)
        for name, ok, want in (("center_pct", 0 <= self.center_pct, ">= 0"),
                               ("size_pct", 0 <= self.size_pct < 1, "in [0, 1)"),
                               ("yaw_deg", 0 <= self.yaw_deg, ">= 0"),
                               ("spurious_rate", 0 <= self.spurious_rate <= 1, "in [0, 1]"),
                               ("missed_rate", 0 <= self.missed_rate <= 1, "in [0, 1]")):
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)}")


@dataclass(frozen=True)
class ObjectSpec:
    """One simulated object: shape template + deformation + trajectory."""

    template: int
    deform: tuple[float, ...]  # alternating boundary/height jitters
    extents: tuple[float, float, float]
    start: tuple[float, float]
    heading: float
    speed: float
    profile: str = "straight"  # straight | turn | stop
    turn_rate: float = 0.0
    stop_time: float = math.inf

    def pose_at(self, t: float) -> tuple[float, float, float]:
        """(x, y, yaw) at time t seconds."""
        x0, y0 = self.start
        if self.profile == "turn" and abs(self.turn_rate) > 1e-9:
            w = self.turn_rate
            th = self.heading + w * t
            x = x0 + (self.speed / w) * (math.sin(th) - math.sin(self.heading))
            y = y0 - (self.speed / w) * (math.cos(th) - math.cos(self.heading))
            return x, y, wrap_angle(th)
        if self.profile == "stop":
            ts = self.stop_time
            if t <= ts:
                dist = self.speed * (t - t * t / (2.0 * ts)) if ts > 0 else 0.0
            else:
                dist = self.speed * ts / 2.0
        else:
            dist = self.speed * t
        x = x0 + dist * math.cos(self.heading)
        y = y0 + dist * math.sin(self.heading)
        return x, y, self.heading


@dataclass(frozen=True)
class SceneConfig:
    n_objects: int = 5
    n_frames: int = 30
    speed_range: tuple[float, float] = (1.0, 6.5)
    crossings: int = 0
    distinct_templates: bool = False
    base_points: int = 220
    min_points: int = 24

    def __post_init__(self):
        if self.n_objects < 1:
            raise ValueError(f"a scene needs at least 1 object, got {self.n_objects}")
        if self.n_frames < 2:
            raise ValueError(f"a scene needs at least 2 frames, got {self.n_frames}")
        if not 0 <= 2 * self.crossings <= self.n_objects:
            raise ValueError(f"crossings must be >= 0 and <= n_objects // 2, got {self.crossings}")


def template_faces(template: int, deform, extents) -> list:
    """Rectangular faces (origin, u, v) realizing a deformed height profile."""
    l, w, h = extents
    hl, hw, hh = _INSET * l / 2.0, _INSET * w / 2.0, _INSET * h / 2.0
    profile = TEMPLATE_PROFILES[template]
    deform = list(deform)
    # jitters: one per interior boundary, then one per segment height
    n_bounds = len(profile) - 1
    xs = [-1.0] + [
        min(0.92, max(-0.92, profile[k][1] + deform[k])) for k in range(n_bounds)
    ] + [1.0]
    heights = [
        min(1.0, max(0.2, profile[k][2] * (1.0 + deform[n_bounds + k])))
        for k in range(len(profile))
    ]

    def pt(xf, yf, zf):
        return (xf * hl, yf * hw, (2.0 * zf - 1.0) * hh)

    faces = []

    def rect(o, p, q):
        """The face at corner o spanned by u = p - o and v = q - o."""
        u = (p[0] - o[0], p[1] - o[1], p[2] - o[2])
        v = (q[0] - o[0], q[1] - o[1], q[2] - o[2])
        # np.cross's products and differences in Python floats; the norm
        # stays numpy's, since the areas set the face draws
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
        area = float(np.linalg.norm(cross))
        if area > 1e-12:
            faces.append((np.array(o), np.array(u), np.array(v), area))

    for k in range(len(profile)):
        x0, x1, z = xs[k], xs[k + 1], heights[k]
        # top
        rect(pt(x0, -1, z), pt(x1, -1, z), pt(x0, 1, z))
        # sides
        for yf in (-1, 1):
            rect(pt(x0, yf, 0), pt(x1, yf, 0), pt(x0, yf, z))
    # end caps
    rect(pt(-1, -1, 0), pt(-1, 1, 0), pt(-1, -1, heights[0]))
    rect(pt(1, -1, 0), pt(1, 1, 0), pt(1, -1, heights[-1]))
    # vertical steps between segments of different height
    for k in range(n_bounds):
        z0, z1 = sorted((heights[k], heights[k + 1]))
        if z1 - z0 > 1e-9:
            xb = xs[k + 1]
            rect(pt(xb, -1, z0), pt(xb, 1, z0), pt(xb, -1, z1))
    return faces


def face_arrays(faces) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, origin, u, v) of a face set, built once per object: the
    area-weighted CDF over its faces and their stacked (origin, u, v)."""
    areas = np.array([f[3] for f in faces])
    cdf = (areas / areas.sum()).cumsum()
    cdf /= cdf[-1]
    origin, u, v = (np.stack([f[c] for f in faces]) for c in range(3))
    return cdf, origin, u, v


def sample_surface(surface, uniforms) -> np.ndarray:
    """n points uniform over a face set, area-weighted, in the box frame,
    from `face_arrays` and 3n uniforms in [0, 1): the first n pick faces,
    the next 2n are the (n, 2) offsets along each face's u and v. These are
    the draws and the arithmetic of `Generator.choice(p=areas / areas.sum())`
    followed by `Generator.random((n, 2))`."""
    cdf, origin, u, v = surface
    n = len(uniforms) // 3
    idx = cdf.searchsorted(uniforms[:n], side="right")
    ab = uniforms[n:].reshape(n, 2)
    return origin[idx] + ab[:, :1] * u[idx] + ab[:, 1:] * v[idx]


def sample_deform(template: int, rng) -> tuple[float, ...]:
    """Per-instance jitters for `template_faces`, drawn uniformly.

    Each interior segment boundary moves by up to +/-0.06 of the
    half-length (x is in [-1, 1]); each segment height changes by up to
    +/-5% of itself. These ranges keep the templates apart: the templates
    differ by more than 3x what deformation adds, measured as the mean
    distance from one instance's surface points to another's faces
    (`tests/test_sim.py::TestTemplates::test_template_separability`).
    """
    n_bounds = len(TEMPLATE_PROFILES[template]) - 1
    n_heights = len(TEMPLATE_PROFILES[template])
    jit = np.concatenate([
        rng.uniform(-0.06, 0.06, size=n_bounds),
        rng.uniform(-0.05, 0.05, size=n_heights),
    ])
    return tuple(float(v) for v in jit)


def _in_bounds(spec: ObjectSpec, scene: SceneConfig) -> bool:
    limit = BOUNDS - MARGIN
    for f in range(scene.n_frames):
        x, y, _ = spec.pose_at(f * FRAME_PERIOD)
        if abs(x) > limit or abs(y) > limit:
            return False
    return True


def _sample_objects(scene: SceneConfig, rng) -> list[ObjectSpec]:
    specs: list[ObjectSpec] = []
    duration = (scene.n_frames - 1) * FRAME_PERIOD
    if scene.distinct_templates:
        templates = [int(t) for t in rng.permutation(N_TEMPLATES)]
        while len(templates) < scene.n_objects:
            templates.append(int(rng.integers(N_TEMPLATES)))
    else:
        templates = [int(rng.integers(N_TEMPLATES)) for _ in range(scene.n_objects)]

    def shape_args(i):
        return dict(
            template=templates[i],
            deform=sample_deform(templates[i], rng),
            extents=(
                float(rng.uniform(*LENGTH_RANGE)),
                float(rng.uniform(*WIDTH_RANGE)),
                float(rng.uniform(*HEIGHT_RANGE)),
            ),
        )

    # crossing pairs: two straight movers timed to coincide mid-sequence
    for _pair in range(scene.crossings):
        for _try in range(200):
            px, py = rng.uniform(-0.35, 0.35, size=2) * BOUNDS
            t_cross = duration * rng.uniform(0.4, 0.6)
            base = rng.uniform(0.0, 2.0 * math.pi)
            dth = rng.uniform(0.28, 0.6) * (1 if rng.random() < 0.5 else -1)
            cand = []
            ok = True
            for ang in (base, base + dth):
                v = float(rng.uniform(3.0, 5.5))
                sx = px - v * t_cross * math.cos(ang)
                sy = py - v * t_cross * math.sin(ang)
                spec = ObjectSpec(
                    start=(sx, sy), heading=wrap_angle(ang), speed=v,
                    profile="straight", **shape_args(len(specs) + len(cand)),
                )
                if not _in_bounds(spec, scene):
                    ok = False
                    break
                cand.append(spec)
            if ok:
                specs.extend(cand)
                break
        else:
            raise ValueError(f"could not place a crossing pair inside bounds {BOUNDS}")

    while len(specs) < scene.n_objects:
        for _try in range(200):
            profile = ["straight", "turn", "stop"][int(rng.integers(3))]
            spec = ObjectSpec(
                start=(
                    float(rng.uniform(-0.6, 0.6) * BOUNDS),
                    float(rng.uniform(-0.6, 0.6) * BOUNDS),
                ),
                heading=float(rng.uniform(-math.pi, math.pi)),
                speed=float(rng.uniform(*scene.speed_range)),
                profile=profile,
                turn_rate=float(rng.uniform(0.06, 0.22) * (1 if rng.random() < 0.5 else -1))
                if profile == "turn" else 0.0,
                stop_time=duration * 0.6 if profile == "stop" else math.inf,
                **shape_args(len(specs)),
            )
            if _in_bounds(spec, scene):
                specs.append(spec)
                break
        else:
            raise ValueError(f"could not place an object inside bounds {BOUNDS}")
    return specs


def _points_for_range(scene: SceneConfig, rng_dist: float) -> int:
    scale = min(1.0, (REF_RANGE / max(rng_dist, 1e-6)) ** 2)
    return max(scene.min_points, int(round(scene.base_points * scale)))


def _to_world(local: np.ndarray, yaw: float, center) -> np.ndarray:
    """Box-frame points rotated by yaw about +z, then moved to center."""
    c, s = math.cos(yaw), math.sin(yaw)
    return local @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]) + center


def generate_sequence(scene: SceneConfig, seed) -> Sequence:
    """A scene's ground-truth Sequence (its tracks are `assoc.gt_tracks` of
    it): every detection has score 1.0 and a gt_id, and its cloud is
    float32 surface samples in the world frame."""
    rng = np.random.default_rng(seed)
    specs = _sample_objects(scene, rng)
    surfaces = [face_arrays(template_faces(s.template, s.deform, s.extents)) for s in specs]

    frames = []
    clouds: dict[str, PointCloud] = {}
    for f in range(scene.n_frames):
        t = f * FRAME_PERIOD
        poses = [spec.pose_at(t) for spec in specs]
        counts = [3 * _points_for_range(scene, math.hypot(x, y)) for x, y, _ in poses]
        uniforms = rng.random(sum(counts))
        at = 0
        dets = []
        for i, (spec, (x, y, yaw)) in enumerate(zip(specs, poses)):
            l, w, h = spec.extents
            local = sample_surface(surfaces[i], uniforms[at:at + counts[i]])
            at += counts[i]
            ref = f"f{f:03d}o{i:02d}"
            clouds[ref] = PointCloud(_to_world(local, yaw, (x, y, h / 2.0)))
            dets.append(Detection(
                frame=f,
                box=Box7(x=x, y=y, z=h / 2.0, yaw=yaw, l=l, w=w, h=h),
                score=1.0,
                cloud_ref=ref,
                gt_id=i,
            ))
        frames.append(FrameRecord(index=f, detections=tuple(dets)))
    return Sequence(frames=tuple(frames), clouds=clouds)


def perturb_boxes(seq: Sequence, noise: NoiseModel, seed) -> Sequence:
    """Uniform box noise: centers by +/-center_pct of the extents, sizes by
    +/-size_pct, yaw by +/-yaw_deg. Clouds, scores and gt_ids are kept."""
    rng = np.random.default_rng(seed)
    hi = np.array([noise.center_pct] * 3 + [noise.size_pct] * 3 + [math.radians(noise.yaw_deg)])
    lo = -hi
    n_dets = sum(len(rec.detections) for rec in seq.frames)
    rows = iter((lo + (hi - lo) * rng.random((n_dets, 7))).tolist())
    frames = []
    for rec in seq.frames:
        dets = []
        for det in rec.detections:
            b = det.box
            dx, dy, dz, dl, dw, dh, dyaw = next(rows)
            box = Box7(
                x=b.x + dx * b.l,
                y=b.y + dy * b.w,
                z=b.z + dz * b.h,
                yaw=b.yaw + dyaw,
                l=b.l * (1.0 + dl),
                w=b.w * (1.0 + dw),
                h=b.h * (1.0 + dh),
            )
            dets.append(Detection(frame=det.frame, box=box, score=det.score,
                                  cloud_ref=det.cloud_ref, gt_id=det.gt_id))
        frames.append(FrameRecord(index=rec.index, detections=tuple(dets)))
    return Sequence(frames=tuple(frames), clouds=seq.clouds)


def corrupt_detections(seq: Sequence, noise: NoiseModel, seed) -> Sequence:
    """A detector's output: perturbed boxes, missed detections, and
    Binomial(input frame's detections, spurious_rate) spurious ones, each
    with a new sparse cloud under its own ref; scores are drawn from
    Beta(8, 2) for real detections and Beta(2, 8) for spurious ones."""
    perturbed = perturb_boxes(seq, noise, (seed, 0))
    rng = np.random.default_rng((seed, 1))
    centers = [
        (d.box.x, d.box.y) for rec in seq.frames for d in rec.detections
    ]
    span = max((max(abs(x), abs(y)) for x, y in centers), default=20.0) + 5.0

    clouds = dict(seq.clouds)
    frames = []
    spur_serial = 0
    for rec in perturbed.frames:
        dets = []
        for det in rec.detections:
            if rng.random() < noise.missed_rate:
                continue
            dets.append(Detection(frame=det.frame, box=det.box, score=float(rng.beta(8.0, 2.0)),
                                  cloud_ref=det.cloud_ref, gt_id=det.gt_id))
        n_spur = int(rng.binomial(len(rec.detections), noise.spurious_rate)) \
            if rec.detections else 0
        for _ in range(n_spur):
            l = float(rng.uniform(2.5, 5.5))
            w = float(rng.uniform(1.4, 2.2))
            h = float(rng.uniform(1.2, 2.0))
            box = Box7(
                x=float(rng.uniform(-span, span)),
                y=float(rng.uniform(-span, span)),
                z=h / 2.0 + float(rng.uniform(-0.2, 0.2)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
                l=l, w=w, h=h,
            )
            n_pts = int(rng.integers(4, 16))
            local = rng.uniform(-0.5, 0.5, size=(n_pts, 3)) * np.array([l, w, h]) * 0.9
            ref = f"f{rec.index:03d}spur{spur_serial:03d}"
            spur_serial += 1
            clouds[ref] = PointCloud(_to_world(local, box.yaw, box.center))
            dets.append(Detection(
                frame=rec.index, box=box, score=float(rng.beta(2.0, 8.0)),
                cloud_ref=ref, gt_id=None,
            ))
        frames.append(FrameRecord(index=rec.index, detections=tuple(dets)))
    return Sequence(frames=tuple(frames), clouds=clouds)
