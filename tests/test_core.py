import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from uatrack.core import (
    CLOUD_MAGIC,
    PACK_MAGIC,
    Box7,
    Detection,
    FrameRecord,
    PointCloud,
    Sequence,
    TrackletLabel,
    TrackRow,
    center_distance,
    read_clouds,
    read_detections,
    read_track_rows,
    wrap_angle,
    wrap_angles,
    write_clouds,
    write_detections,
    write_track_rows,
)


def make_box(x=0.0, y=0.0, z=0.0, yaw=0.0, l=4.0, w=2.0, h=1.5):
    return Box7(x=x, y=y, z=z, yaw=yaw, l=l, w=w, h=h)


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_pi_maps_to_minus_pi(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi, abs=1e-12)

    def test_in_range_returned_unchanged(self):
        assert wrap_angle(-math.pi / 2) == -math.pi / 2
        assert wrap_angle(0.1) == 0.1  # bit-exact fast path

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                wrap_angle(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_idempotent_and_in_range(self, theta):
        once = wrap_angle(theta)
        assert -math.pi <= once < math.pi
        assert wrap_angle(once) == once

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_congruent_mod_two_pi(self, theta):
        r = wrap_angle(theta)
        k = (theta - r) / (2 * math.pi)
        assert abs(k - round(k)) < 1e-6


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# angles where the wrap is delicate: either side of -pi and pi, tiny
# negatives (whose remainder rounds onto the open bound), whole and near
# multiples of 2 pi, and magnitudes up to the float range
_ulps = st.integers(-4, 4)
_angles = st.one_of(
    st.builds(lambda s, k: s * math.pi + k * 1e-15, st.sampled_from([-1, 1]), _ulps),
    st.builds(lambda s, k: math.nextafter(s * math.pi, s * math.inf) if k else s * math.pi,
              st.sampled_from([-1, 1]), st.booleans()),
    st.floats(-1e-12, 0.0),
    st.builds(lambda n, d: n * 2 * math.pi + d, st.integers(-10**6, 10**6),
              st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 5e-324, -5e-324])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
)


class TestWrapAngles:
    @given(st.lists(_angles, max_size=12))
    @example([math.nextafter(-math.pi, -math.inf)])  # its remainder rounds onto pi
    def test_equals_wrap_angle_bit_for_bit(self, thetas):
        got = wrap_angles(thetas)
        assert got.dtype == np.float64 and got.shape == (len(thetas),)
        assert _bits(got) == _bits([wrap_angle(t) for t in thetas])

    def test_keeps_shape_and_leaves_its_input(self):
        a = np.array([[3 * math.pi, 0.5], [-0.0, -7.0]])
        got = wrap_angles(a)
        assert got.shape == (2, 2) and a[0, 0] == 3 * math.pi
        assert _bits(got.ravel()) == _bits([wrap_angle(t) for t in a.ravel()])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            wrap_angles([0.0, 4.0, bad])


class TestCenterDistance:
    def test_identical_boxes(self):
        b = make_box(1.0, 2.0, 3.0)
        assert center_distance(b, b) == 0.0

    def test_3_4_5(self):
        assert center_distance(make_box(0, 0, 0), make_box(3, 4, 0)) == pytest.approx(5.0)

    def test_unit_diagonal(self):
        # oracle: euclidean norm of (1,1,1) = sqrt(3)
        d = center_distance(make_box(1, 1, 1), make_box(2, 2, 2))
        assert d == pytest.approx(1.7320508075688772, abs=1e-12)

    def test_symmetry(self):
        a, b = make_box(0, 1, 2), make_box(5, -3, 0.5)
        assert center_distance(a, b) == center_distance(b, a)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=9, max_size=9))
    def test_triangle_inequality(self, coords):
        a = make_box(*coords[0:3])
        b = make_box(*coords[3:6])
        c = make_box(*coords[6:9])
        assert center_distance(a, c) <= center_distance(a, b) + center_distance(b, c) + 1e-9


class TestBox7:
    def test_yaw_normalized(self):
        assert make_box(yaw=3 * math.pi).yaw == pytest.approx(-math.pi)

    def test_positive_extents_required(self):
        with pytest.raises(ValueError):
            Box7(0, 0, 0, 0, l=-1.0, w=1.0, h=1.0)
        with pytest.raises(ValueError):
            Box7(0, 0, 0, 0, l=1.0, w=0.0, h=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Box7(math.nan, 0, 0, 0, 1, 1, 1)

    def test_array_round_trip(self):
        b = make_box(1.25, -0.5, 0.75, 0.3)
        assert Box7.from_array(b.to_array()) == b

    @pytest.mark.parametrize("k, name", list(enumerate(["x", "y", "z", "yaw", "l", "w", "h"])))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, k, name, bad):
        vals = [0.5, -1.0, 2.0, 0.25, 4.0, 2.0, 1.5]
        vals[k] = bad
        # a later non-finite field does not hide this one
        if k < 6:
            vals[k + 1] = math.nan
        for make in (lambda: Box7(*vals), lambda: Box7.from_array(vals),
                     lambda: Box7.from_array(np.array(vals))):
            with pytest.raises(ValueError, match=rf"^Box7\.{name} must be finite, got {bad!r}$"):
                make()

    @pytest.mark.parametrize("l, w, h", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, -0.0)])
    def test_extent_message(self, l, w, h):
        with pytest.raises(ValueError, match=rf"^box extents must be positive, got "
                                             rf"l={l} w={w} h={h}$"):
            Box7.from_array([0, 0, 0, 0, l, w, h])

    @pytest.mark.parametrize("vals", [[1.0] * 6, [1.0] * 8, np.ones(6), np.ones((2, 4)),
                                      "1234567", 1234567, None, {"x": 1.0}])
    def test_wrong_length_message(self, vals):
        # a string, number or mapping is one value, as numpy's reshape saw it
        size = np.size(vals) if isinstance(vals, (list, np.ndarray)) else 1
        with pytest.raises(ValueError, match=rf"^cannot reshape array of size {size} "
                                             r"into shape \(7,\)$"):
            Box7.from_array(vals)

    def test_fields_are_floats(self):
        b = Box7.from_array(np.array([1, 2, 3, 0, 4, 5, 6], dtype=np.int64))
        assert all(type(getattr(b, f)) is float for f in ("x", "y", "z", "yaw", "l", "w", "h"))
        assert Box7(np.float32(0.5), 0, 0, 0, 1, 1, 1).x == 0.5

    @given(st.floats(-1e6, 1e6))
    @example(math.pi)
    @example(-math.pi)
    @example(math.nextafter(-math.pi, 0.0))
    @example(-1e-300)
    @example(7 * math.pi)
    def test_yaw_wrap_bits(self, yaw):
        """The yaw is wrap_angle's, bit for bit, from either constructor."""
        want = wrap_angle(yaw).hex()
        assert Box7(0, 0, 0, yaw, 1, 1, 1).yaw.hex() == want
        assert Box7.from_array(np.array([0, 0, 0, yaw, 1, 1, 1])).yaw.hex() == want


class TestDetection:
    def test_score_range(self):
        with pytest.raises(ValueError):
            Detection(frame=0, box=make_box(), score=1.5, cloud_ref="c")

    def test_negative_frame(self):
        with pytest.raises(ValueError):
            Detection(frame=-1, box=make_box(), score=0.5, cloud_ref="c")


class TestPointCloud:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)))

    def test_finite_checked(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, 0.0, np.inf]])

    def test_immutable(self):
        pc = PointCloud([[1.0, 2.0, 3.0]])
        with pytest.raises((ValueError, AttributeError)):
            pc.points[0, 0] = 5.0


class TestSequence:
    def test_increasing_frames_required(self):
        pc = PointCloud(np.zeros((1, 3)))
        d0 = Detection(frame=0, box=make_box(), score=1.0, cloud_ref="a")
        with pytest.raises(ValueError):
            Sequence(
                frames=(FrameRecord(0, (d0,)), FrameRecord(0, ())),
                clouds={"a": pc},
            )

    def test_unresolvable_ref_rejected(self):
        d0 = Detection(frame=0, box=make_box(), score=1.0, cloud_ref="missing")
        with pytest.raises(ValueError):
            Sequence(frames=(FrameRecord(0, (d0,)),), clouds={})

    def test_tracklet_one_member_per_frame(self):
        with pytest.raises(ValueError, match="duplicate frame members"):
            TrackletLabel(track_id=0, members=((0, 0), (0, 1)), link_conf=(1.0,))

    @pytest.mark.parametrize("link", [(), (0.5, 0.5, 0.5)])
    def test_tracklet_one_confidence_per_link(self, link):
        with pytest.raises(ValueError, match=f"track 4: {len(link)} link confidences for 3"):
            TrackletLabel(track_id=4, members=((0, 0), (1, 0), (2, 0)), link_conf=link)

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, 1.0 + 1e-12, 1.5, math.nan])
    def test_tracklet_link_confidence_in_unit_interval(self, bad):
        with pytest.raises(ValueError, match="track 4: link confidence .* is not in"):
            TrackletLabel(track_id=4, members=((0, 0), (1, 0), (2, 0)), link_conf=(1.0, bad))

    def test_tracklet_holds_float_confidences(self):
        lab = TrackletLabel(track_id=1, members=[[0, 3], [2, 1]], link_conf=[np.float64(0.25)])
        assert lab == TrackletLabel(1, ((0, 3), (2, 1)), (0.25,))
        assert type(lab.link_conf[0]) is float
        assert TrackletLabel(2, ((5, 0),), ()).link_conf == ()


def _toy_sequence():
    rng = np.random.default_rng(7)
    clouds = {}
    frames = []
    for f in range(3):
        dets = []
        for i in range(2):
            ref = f"f{f}o{i}"
            clouds[ref] = PointCloud(rng.normal(size=(5, 3)).astype(np.float32))
            dets.append(Detection(
                frame=f,
                box=make_box(x=1.0 * f + 0.1 * i, yaw=0.37 * i - 0.2,
                             l=4.0 + i, w=2.0, h=1.5),
                score=float(rng.random()),
                cloud_ref=ref,
                gt_id=i if i == 0 else None,
            ))
        frames.append(FrameRecord(index=f, detections=tuple(dets)))
    return Sequence(frames=tuple(frames), clouds=clouds)


def previous_write_detections(path, seq: Sequence) -> None:
    """The json.dumps writer that write_detections replaced, as reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in seq.frames:
            for det in rec.detections:
                obj = {
                    "frame": det.frame,
                    "box": [float(v) for v in det.box.to_array()],
                    "score": det.score,
                    "cloud": det.cloud_ref,
                    "gt_id": det.gt_id,
                }
                fh.write(json.dumps(obj) + "\n")


def previous_write_track_rows(path, rows) -> None:
    """The json.dumps writer that write_track_rows replaced, as reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            obj = {
                "frame": row.frame,
                "track_id": row.track_id,
                "box": [float(v) for v in row.box.to_array()],
                "score": row.score,
            }
            fh.write(json.dumps(obj) + "\n")


def assert_writers_match_previous(tmp_path, seq: Sequence) -> None:
    """write_detections and write_track_rows (the detections as rows) give
    the previous writers' bytes."""
    rows = [TrackRow(frame=d.frame, track_id=k, box=d.box, score=d.score)
            for k, d in enumerate(d for rec in seq.frames for d in rec.detections)]
    for write, previous, data in ((write_detections, previous_write_detections, seq),
                                  (write_track_rows, previous_write_track_rows, rows)):
        write(tmp_path / "got.jsonl", data)
        previous(tmp_path / "want.jsonl", data)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


class TestWriterBytes:
    """The direct line formatting gives json.dumps's bytes."""

    def test_toy_sequence(self, tmp_path):
        assert_writers_match_previous(tmp_path, _toy_sequence())

    def test_odd_values(self, tmp_path):
        refs = ['q"uote', "caf\u00e9 \u2603", "back\\slash\ttab", "plain"]
        boxes = [make_box(x=-0.0, y=1e-300, z=1e22, yaw=-math.pi, l=0.1, w=1.0 / 3.0, h=7.0),
                 make_box(x=123456789.125, y=-2.5e-7, yaw=3.0),
                 make_box(), make_box(x=float(np.nextafter(0.0, 1.0)))]
        scores = [np.float64(0.9), 1, 0.0, 1.0 - 2.0 ** -53]
        gt_ids = [None, 0, 12345678901234567890, None]
        dets = tuple(Detection(frame=7, box=b, score=s, cloud_ref=r, gt_id=g)
                     for b, s, r, g in zip(boxes, scores, refs, gt_ids))
        seq = Sequence(frames=(FrameRecord(index=7, detections=dets),),
                       clouds={r: PointCloud(np.zeros((0, 3))) for r in refs})
        assert_writers_match_previous(tmp_path, seq)
        write_detections(tmp_path / "d.jsonl", seq)
        back = read_detections(tmp_path / "d.jsonl", seq.clouds, n_frames=8)
        assert [d.cloud_ref for d in back.frames[7].detections] == refs

    def test_empty(self, tmp_path):
        seq = Sequence(frames=(FrameRecord(index=0, detections=()),), clouds={})
        assert_writers_match_previous(tmp_path, seq)
        assert (tmp_path / "got.jsonl").read_bytes() == b""


class TestSerialization:
    def test_sequence_round_trip_bit_exact(self, tmp_path):
        seq = _toy_sequence()
        write_detections(tmp_path / "dets.jsonl", seq)
        write_clouds(tmp_path / "clouds", seq.clouds)
        back = read_detections(tmp_path / "dets.jsonl", read_clouds(tmp_path / "clouds"),
                               n_frames=len(seq.frames))
        assert back == seq

    def test_track_rows_round_trip(self, tmp_path):
        rows = [
            TrackRow(frame=0, track_id=3, box=make_box(1.5, 2.25, 0.75, -0.3), score=0.5),
            TrackRow(frame=1, track_id=3, box=make_box(2.5, 2.25, 0.75, -0.3), score=0.25),
        ]
        write_track_rows(tmp_path / "t.jsonl", rows)
        assert read_track_rows(tmp_path / "t.jsonl", n_frames=2) == rows

    def test_interior_empty_frame_round_trips(self, tmp_path):
        seq = _toy_sequence()
        frames = (seq.frames[0], FrameRecord(index=1, detections=()), seq.frames[2])
        seq2 = Sequence(frames=frames, clouds=seq.clouds)
        write_detections(tmp_path / "d.jsonl", seq2)
        back = read_detections(tmp_path / "d.jsonl", seq.clouds, n_frames=3)
        assert len(back.frames) == 3
        assert back.frames[1].detections == ()

    def test_box_only_load(self, tmp_path):
        seq = _toy_sequence()
        write_detections(tmp_path / "d.jsonl", seq)
        back = read_detections(tmp_path / "d.jsonl", clouds=None, n_frames=len(seq.frames))
        assert len(back.frames) == len(seq.frames)
        assert all(c.count == 0 for c in back.clouds.values())

    @pytest.mark.parametrize("key", ["frame", "box", "score", "cloud"])
    def test_detection_missing_key_names_line(self, tmp_path, key):
        seq = _toy_sequence()
        write_detections(tmp_path / "d.jsonl", seq)
        lines = (tmp_path / "d.jsonl").read_text().splitlines()
        obj = json.loads(lines[2])
        del obj[key]
        lines[2] = json.dumps(obj)
        (tmp_path / "d.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"d\.jsonl:3: missing key '{key}'"):
            read_detections(tmp_path / "d.jsonl", clouds=None, n_frames=3)

    @pytest.mark.parametrize("field, value", [
        ("frame", "first"), ("frame", None), ("box", [1.0, 2.0]), ("box", 3.0),
        ("score", "high"), ("score", 2.0), ("gt_id", [1]), ("box", "1234567"), ("box", {"x": 0}),
    ])
    def test_detection_bad_value_names_line(self, tmp_path, field, value):
        obj = {"frame": 0, "box": [0, 0, 0, 0, 1, 1, 1], "score": 0.5, "cloud": "c",
               "gt_id": None}
        obj[field] = value
        (tmp_path / "d.jsonl").write_text("\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=r"d\.jsonl:2: "):
            read_detections(tmp_path / "d.jsonl", clouds=None, n_frames=3)

    def test_detection_line_not_json(self, tmp_path):
        (tmp_path / "d.jsonl").write_text('{"frame": 0, "box": [\n')
        with pytest.raises(ValueError, match=r"d\.jsonl:1: "):
            read_detections(tmp_path / "d.jsonl", clouds=None, n_frames=3)



def _pack(*entries, count=None) -> bytes:
    """A cloud pack built by hand from (ref bytes, points) entries."""
    raw = PACK_MAGIC + struct.pack("<I", len(entries) if count is None else count)
    for key, pts in entries:
        pts = np.asarray(pts, dtype="<f4").reshape(-1, 3)
        raw += struct.pack("<H", len(key)) + key
        raw += CLOUD_MAGIC + struct.pack("<I", len(pts)) + pts.tobytes()
    return raw


class TestCloudPack:
    CLOUDS = {"b": PointCloud(np.arange(6).reshape(2, 3)),
              "\u00e9t\u00e9": PointCloud(np.zeros((0, 3))),
              "a": PointCloud([[0.5, -1.0, 2.0]])}

    def test_layout_and_round_trip(self, tmp_path):
        """magic, uint32 count, then (uint16 length, UTF-8 ref, UAPC record)
        per cloud in sorted-ref order, all little-endian."""
        write_clouds(tmp_path / "clouds", self.CLOUDS)
        assert (tmp_path / "clouds").read_bytes() == _pack(
            (b"a", [[0.5, -1.0, 2.0]]), (b"b", np.arange(6)),
            ("\u00e9t\u00e9".encode(), np.zeros((0, 3))))
        assert read_clouds(tmp_path / "clouds") == self.CLOUDS

    def test_empty_pack_round_trips(self, tmp_path):
        write_clouds(tmp_path / "clouds", {})
        assert (tmp_path / "clouds").read_bytes() == PACK_MAGIC + bytes(4)
        assert read_clouds(tmp_path / "clouds") == {}

    def test_insertion_order_does_not_change_the_bytes(self, tmp_path):
        write_clouds(tmp_path / "one", self.CLOUDS)
        write_clouds(tmp_path / "two", dict(reversed(self.CLOUDS.items())))
        assert (tmp_path / "one").read_bytes() == (tmp_path / "two").read_bytes()

    def test_ref_over_65535_bytes_rejected_at_write(self, tmp_path):
        longest = {"\u00e9" * 32767 + "a": PointCloud(np.zeros((0, 3)))}  # 65,535 bytes
        write_clouds(tmp_path / "clouds", longest)
        with pytest.raises(ValueError, match=r"clouds: cloud ref of 65536 UTF-8 bytes"):
            write_clouds(tmp_path / "clouds", {"\u00e9" * 32768: PointCloud(np.zeros((0, 3)))})
        assert read_clouds(tmp_path / "clouds") == longest

    def test_magic_checked(self, tmp_path):
        (tmp_path / "clouds").write_bytes(b"UAPC" + bytes(4))
        with pytest.raises(ValueError, match=r"clouds: bad magic b'UAPC', expected b'UAPK'"):
            read_clouds(tmp_path / "clouds")

    def test_every_truncation_names_the_file(self, tmp_path):
        write_clouds(tmp_path / "clouds", self.CLOUDS)
        raw = (tmp_path / "clouds").read_bytes()
        for keep in range(len(raw)):
            (tmp_path / "clouds").write_bytes(raw[:keep])
            with pytest.raises(ValueError, match=r"clouds: "):
                read_clouds(tmp_path / "clouds")

    @pytest.mark.parametrize("raw, why", [
        (_pack((b"a", np.zeros(3))) + b"\x00", "1 trailing bytes after 1 clouds"),
        (_pack((b"a", np.zeros(3)), count=0), "23 trailing bytes after 0 clouds"),
        (_pack((b"\xff", np.zeros(3))), "cloud 0: ref is not UTF-8"),
        (_pack((b"a", np.zeros(3)), (b"a", np.ones(3))), "cloud 1: duplicate ref 'a'"),
        (_pack((b"a", [0.0, np.inf, 0.0])), "cloud 'a': point cloud contains non-finite"),
        (_pack((b"a", np.zeros(3))).replace(CLOUD_MAGIC, b"NOPE"), "cloud 'a': bad magic"),
    ], ids=["trailing", "count", "utf8", "duplicate", "non-finite", "record-magic"])
    def test_damaged_pack_names_the_file(self, tmp_path, raw, why):
        (tmp_path / "clouds").write_bytes(raw)
        with pytest.raises(ValueError, match=rf"clouds: {why}"):
            read_clouds(tmp_path / "clouds")

    def test_directory_store_refused_and_kept(self, tmp_path):
        """The clouds/ directory of a run made before packs is neither read
        nor overwritten, and nothing in it is deleted."""
        old = tmp_path / "clouds"
        old.mkdir()
        (old / "f0o0.uapc").write_bytes(b"UAPC" + bytes(4))
        for call in (lambda: read_clouds(old), lambda: write_clouds(old, self.CLOUDS)):
            with pytest.raises(ValueError, match=r"clouds: is a directory, not a cloud pack"):
                call()
        assert [p.name for p in old.iterdir()] == ["f0o0.uapc"]
