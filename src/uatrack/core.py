"""Domain types, geometry helpers and on-disk formats. Every type is
immutable once built.

File formats:
  * detections: JSON lines, one detection per line
    {"frame": int, "box": [x,y,z,yaw,l,w,h], "score": float,
     "cloud": str, "gt_id": int|null}
  * cloud pack: one binary file per scene holding every cloud its
    detections reference, all little-endian: magic "UAPK", uint32 cloud
    count, then for each cloud in sorted-ref order a uint16 byte length,
    the UTF-8 ref, and the cloud's UAPC record (magic "UAPC", uint32 point
    count, count x 3 float32)
  * track output: JSON lines
    {"frame": int, "track_id": int, "box": [...7...], "score": float}

Detection and track lines are formatted directly, each the bytes
`json.dumps` gives for its dict: keys in the order above, the default
separators, floats as `float.__repr__`, ASCII escapes in the cloud ref,
null for a missing gt_id.
"""

import json
import math
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
FRAME_PERIOD = 0.5  # seconds between a sequence's frames, as the simulator steps them

CLOUD_MAGIC = b"UAPC"
PACK_MAGIC = b"UAPK"
# a scene's clouds path that is a directory holds the one-file-per-cloud
# store of a run made before cloud packs
_OLD_STORE = ("is a directory, not a cloud pack: the per-cloud store of an older run; "
             "simulate into a new --out-dir")


def wrap_angle(theta: float) -> float:
    """theta wrapped to [-pi, pi); one in range comes back bit for bit, so
    wrapping is idempotent. NaN or infinity raises ValueError."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    if -math.pi <= theta < math.pi:
        return theta
    r = (theta + math.pi) % TWO_PI - math.pi
    # float modulo can land exactly on the open bound for tiny negatives
    if r >= math.pi:
        r -= TWO_PI
    return r


def wrap_angles(theta) -> np.ndarray:
    """wrap_angle of each entry, bit for bit, as a new float64 array
    (numpy's float remainder takes the divisor's sign, as Python's does)."""
    theta = np.array(theta, dtype=np.float64)
    bad = ~np.isfinite(theta)
    if bad.any():
        raise ValueError(f"angle must be finite, got {float(theta[bad][0])!r}")
    out = (theta < -math.pi) | (theta >= math.pi)
    if out.any():
        r = (theta[out] + math.pi) % TWO_PI - math.pi
        r[r >= math.pi] -= TWO_PI
        theta[out] = r
    return theta


@dataclass(frozen=True, init=False)
class Box7:
    """Oriented 3D box: center (x, y, z), yaw about +z wrapped to
    [-pi, pi), and the full extents l, w, h along its local axes."""

    x: float
    y: float
    z: float
    yaw: float
    l: float
    w: float
    h: float

    def __init__(self, x, y, z, yaw, l, w, h):
        x, y, z, yaw, l, w, h = (float(x), float(y), float(z), float(yaw), float(l), float(w),
                                 float(h))
        # v - v is 0.0 for a finite v and NaN otherwise: one test for all seven
        if (x - x) + (y - y) + (z - z) + (yaw - yaw) + (l - l) + (w - w) + (h - h) != 0.0:
            name, v = next((name, v) for name, v in zip(_BOX_FIELDS, (x, y, z, yaw, l, w, h))
                           if not math.isfinite(v))
            raise ValueError(f"Box7.{name} must be finite, got {v!r}")
        if l <= 0 or w <= 0 or h <= 0:
            raise ValueError(f"box extents must be positive, got l={l} w={w} h={h}")
        if not -math.pi <= yaw < math.pi:
            yaw = wrap_angle(yaw)
        # frozen: the checked floats are set past __setattr__, and not through
        # self.__dict__, which CPython builds for an instance only once it is
        # asked for (a box then grows from 264 to 456 bytes; 3.11, 64-bit)
        set_ = object.__setattr__
        set_(self, "x", x)
        set_(self, "y", y)
        set_(self, "z", z)
        set_(self, "yaw", yaw)
        set_(self, "l", l)
        set_(self, "w", w)
        set_(self, "h", h)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.x, self.y, self.z, self.yaw, self.l, self.w, self.h],
            dtype=np.float64,
        )

    @classmethod
    def from_array(cls, a) -> "Box7":
        """The box of a list, tuple or array of 7 values; anything else,
        a string say, is one value, too few."""
        if isinstance(a, np.ndarray):
            a = a.reshape(-1).tolist()
        elif not isinstance(a, (list, tuple)):
            a = (a,)
        if len(a) != 7:
            raise ValueError(f"cannot reshape array of size {len(a)} into shape (7,)")
        return cls(*a)


_BOX_FIELDS = ("x", "y", "z", "yaw", "l", "w", "h")


def center_distance(b1: Box7, b2: Box7) -> float:
    """Euclidean distance between two box centers, in meters."""
    return math.dist((b1.x, b1.y, b1.z), (b2.x, b2.y, b2.z))


@dataclass(frozen=True)
class Detection:
    """One detector output. gt_id is the simulator's ground truth, which
    the self-supervised path must not rely on."""

    frame: int
    box: Box7
    score: float
    cloud_ref: str
    gt_id: int | None = None

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"frame index must be >= 0, got {self.frame}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


class PointCloud:
    """Immutable (n, 3) float32 point set in the world frame."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float32)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __setattr__(self, name, value):
        raise AttributeError("PointCloud is immutable")

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __repr__(self):
        return f"PointCloud(count={self.count})"


@dataclass(frozen=True)
class FrameRecord:
    """All detections observed at one frame index."""

    index: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        for d in self.detections:
            if d.frame != self.index:
                raise ValueError(
                    f"detection frame {d.frame} disagrees with record index {self.index}"
                )


@dataclass(frozen=True)
class Sequence:
    """An ordered run of frames, FRAME_PERIOD apart, plus the cloud store
    they reference."""

    frames: tuple[FrameRecord, ...]
    clouds: dict[str, PointCloud]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        prev = None
        for rec in self.frames:
            if prev is not None and rec.index <= prev:
                raise ValueError("frame indices must be strictly increasing")
            prev = rec.index
            for det in rec.detections:
                if det.cloud_ref not in self.clouds:
                    raise ValueError(f"unresolvable cloud ref {det.cloud_ref!r}")

    def cloud_of(self, det: Detection) -> PointCloud:
        return self.clouds[det.cloud_ref]


@dataclass(frozen=True)
class TrackletLabel:
    """A track's (frame, detection index) members and the association
    confidence of each link between consecutive ones, each in [0, 1]."""

    track_id: int
    members: tuple[tuple[int, int], ...]
    link_conf: tuple[float, ...]

    def __post_init__(self):
        tid = self.track_id
        members = tuple((int(f), int(i)) for f, i in self.members)
        link = tuple(float(v) for v in self.link_conf)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "link_conf", link)
        frames = [f for f, _ in members]
        if len(frames) != len(set(frames)):
            raise ValueError(f"track {tid} has duplicate frame members")
        if frames != sorted(frames):
            raise ValueError(f"track {tid} members must be frame-ordered")
        if len(link) != max(len(members) - 1, 0):
            raise ValueError(f"track {tid}: {len(link)} link confidences for "
                             f"{len(members)} members")
        for v in link:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"track {tid}: link confidence {v} is not in [0, 1]")


@dataclass(frozen=True)
class TrackRow:
    """One line of the tracks output file. The score must be finite: AMOTA
    cuts the rows by it."""

    frame: int
    track_id: int
    box: Box7
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"track score must be finite, got {self.score!r}")


# ---------------------------------------------------------------------------
# serialization


def read_jsonl(path, build) -> list:
    """build(obj) of each non-empty line's JSON object; a malformed line
    raises ValueError("<path>:<line>: ...")."""
    out = []
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(build(json.loads(line.decode("utf-8"))))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def _box_json(b: Box7) -> str:
    # a Box7 holds exact floats (__post_init__), so %r is float.__repr__
    return "[%r, %r, %r, %r, %r, %r, %r]" % (b.x, b.y, b.z, b.yaw, b.l, b.w, b.h)


def _score_json(score) -> str:
    """A score as json.dumps writes it; a float subclass such as np.float64
    as the float, whose repr under numpy 2 would name the type."""
    return float.__repr__(score) if isinstance(score, float) else json.dumps(score)


def write_detections(path, seq: Sequence) -> None:
    """One JSON line per detection, in frame order, written with one write."""
    Path(path).write_text("".join(
        f'{{"frame": {int.__repr__(det.frame)}, "box": {_box_json(det.box)}, '
        f'"score": {_score_json(det.score)}, "cloud": {encode_basestring_ascii(det.cloud_ref)}, '
        f'"gt_id": {"null" if det.gt_id is None else int.__repr__(det.gt_id)}}}\n'
        for rec in seq.frames for det in rec.detections
    ), encoding="utf-8")


def read_detections(path, clouds: dict[str, PointCloud] | None = None, *,
                    n_frames: int) -> Sequence:
    """The Sequence of n_frames frames of a detections file and a cloud
    store; with clouds=None every ref is an empty stub (box-only stages).

    Every frame gets a record, so frames whose detections were all dropped
    still advance the tracker's clock. A detection past n_frames or a ref
    the store lacks raises ValueError("<path>: ...").
    """
    by_frame: dict[int, list[Detection]] = {}
    for det in read_jsonl(path, lambda obj: Detection(
        frame=int(obj["frame"]),
        box=Box7.from_array(obj["box"]),
        score=float(obj["score"]),
        cloud_ref=str(obj["cloud"]),
        gt_id=None if obj.get("gt_id") is None else int(obj["gt_id"]),
    )):
        by_frame.setdefault(det.frame, []).append(det)
    if by_frame and max(by_frame) >= n_frames:
        raise ValueError(f"{path}: detection at frame {max(by_frame)}, "
                         f"past the {n_frames} frames of the sequence")
    frames = tuple(
        FrameRecord(index=i, detections=tuple(by_frame.get(i, ()))) for i in range(n_frames)
    )
    if clouds is None:
        stub = PointCloud(np.zeros((0, 3)))
        clouds = {d.cloud_ref: stub for dets in by_frame.values() for d in dets}
    try:
        return Sequence(frames=frames, clouds=clouds)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_point_cloud(fh, cloud: PointCloud) -> None:
    """Write one cloud's UAPC record to an open binary file."""
    fh.write(CLOUD_MAGIC)
    fh.write(struct.pack("<I", cloud.count))
    fh.write(np.ascontiguousarray(cloud.points, dtype="<f4").tobytes())


def write_clouds(path, clouds: dict[str, PointCloud]) -> None:
    """Write a scene's clouds as one cloud pack, whose sorted refs make its
    bytes independent of the dict's order. A ref over 65,535 UTF-8 bytes or
    a directory at path raises ValueError("<path>: ...") before any write.
    """
    path = Path(path)
    refs = sorted(clouds)
    keys = [ref.encode("utf-8") for ref in refs]
    for ref, key in zip(refs, keys):
        if len(key) > 0xFFFF:
            raise ValueError(f"{path}: cloud ref of {len(key)} UTF-8 bytes, "
                             f"over the pack's limit of 65535: {ref[:32]!r}...")
    if path.is_dir():
        raise ValueError(f"{path}: {_OLD_STORE}")
    with path.open("wb") as fh:
        fh.write(PACK_MAGIC)
        fh.write(struct.pack("<I", len(refs)))
        for ref, key in zip(refs, keys):
            fh.write(struct.pack("<H", len(key)))
            fh.write(key)
            write_point_cloud(fh, clouds[ref])


def read_clouds(path) -> dict[str, PointCloud]:
    """{ref: PointCloud} of a cloud pack, read with one read; a malformed
    pack or a directory raises ValueError("<path>: ...")."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except IsADirectoryError as exc:
        raise ValueError(f"{path}: {_OLD_STORE}") from exc
    if raw[:4] != PACK_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, expected {PACK_MAGIC!r}")
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header, {len(raw)} bytes")
    (count,) = struct.unpack_from("<I", raw, 4)
    out: dict[str, PointCloud] = {}
    pos = 8
    for k in range(count):
        ref_at = pos + 2
        if ref_at > len(raw):
            raise ValueError(f"{path}: truncated at cloud {k} of {count}")
        (n,) = struct.unpack_from("<H", raw, pos)
        rec = ref_at + n  # the cloud's UAPC record: magic, uint32 count, points
        if rec + 8 > len(raw):
            raise ValueError(f"{path}: truncated at cloud {k} of {count}")
        try:
            ref = raw[ref_at:rec].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: cloud {k}: ref is not UTF-8: {exc}") from exc
        if ref in out:
            raise ValueError(f"{path}: cloud {k}: duplicate ref {ref!r}")
        if raw[rec:rec + 4] != CLOUD_MAGIC:
            raise ValueError(f"{path}: cloud {ref!r}: bad magic {raw[rec:rec + 4]!r}, "
                             f"expected {CLOUD_MAGIC!r}")
        (npts,) = struct.unpack_from("<I", raw, rec + 4)
        pos = rec + 8 + 12 * npts
        if pos > len(raw):
            raise ValueError(f"{path}: cloud {ref!r}: truncated, {npts} points need "
                             f"{pos} bytes, got {len(raw)}")
        pts = np.frombuffer(raw, dtype="<f4", count=npts * 3, offset=rec + 8)
        try:
            out[ref] = PointCloud(pts.reshape(npts, 3))
        except ValueError as exc:
            raise ValueError(f"{path}: cloud {ref!r}: {exc}") from exc
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after {count} clouds")
    return out


def write_track_rows(path, rows) -> None:
    """One JSON line per track row, in the given order, written with one write."""
    Path(path).write_text("".join(
        f'{{"frame": {int.__repr__(row.frame)}, "track_id": {int.__repr__(row.track_id)}, '
        f'"box": {_box_json(row.box)}, "score": {_score_json(row.score)}}}\n'
        for row in rows
    ), encoding="utf-8")


def read_track_rows(path, *, n_frames: int) -> list[TrackRow]:
    """The rows of a tracks file of a sequence of n_frames frames. A row at a
    frame outside [0, n_frames) raises ValueError("<path>:<line>: ...")."""
    def build(obj):
        frame = int(obj["frame"])
        if not 0 <= frame < n_frames:
            raise ValueError(f"track row at frame {frame}, outside the {n_frames} frames "
                             "of the sequence")
        return TrackRow(frame=frame, track_id=int(obj["track_id"]),
                        box=Box7.from_array(obj["box"]), score=float(obj["score"]))

    return read_jsonl(path, build)
