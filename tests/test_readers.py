"""Round trips of the on-disk readers, and their answer to damaged bytes:
a truncated or malformed file loads or raises ValueError naming the file,
never another exception."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from uatrack.assoc import read_pseudo_tracks, write_pseudo_tracks
from uatrack.core import (
    Box7,
    Detection,
    FrameRecord,
    PointCloud,
    Sequence,
    TrackletLabel,
    TrackRow,
    read_clouds,
    read_detections,
    read_track_rows,
    write_clouds,
    write_detections,
    write_track_rows,
)
from uatrack.embed import EmbedNet, load_checkpoint, save_checkpoint
from uatrack.mot import LogisticModel, load_logistic, save_logistic

READER = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])

coord = st.floats(-1e4, 1e4, allow_nan=False)
extent = st.floats(0.01, 50.0)
boxes = st.builds(Box7, coord, coord, coord, st.floats(-math.pi, math.pi, exclude_max=True),
                  extent, extent, extent)
unit = st.floats(0.0, 1.0)
refs = st.text(min_size=1, max_size=8)


@st.composite
def sequences(draw):
    n_frames = draw(st.integers(1, 6))
    frames = []
    for f in range(n_frames):
        dets = draw(st.lists(st.builds(Detection, st.just(f), boxes, unit, refs,
                                       st.none() | st.integers(0, 10**6)), max_size=3))
        frames.append(FrameRecord(index=f, detections=tuple(dets)))
    stub = PointCloud(np.zeros((0, 3)))
    clouds = {d.cloud_ref: stub for rec in frames for d in rec.detections}
    return Sequence(frames=tuple(frames), clouds=clouds)


@st.composite
def scene_tracks(draw):
    """A scene and tracks over its detections, with distinct track ids."""
    seq = draw(sequences())
    slots = [(rec.index, j) for rec in seq.frames for j in range(len(rec.detections))]
    tracks = []
    for tid in draw(st.lists(st.integers(0, 10**9), unique=True, max_size=4)):
        members = sorted(draw(st.lists(st.sampled_from(slots), unique_by=lambda m: m[0],
                                       max_size=4))) if slots else []
        n_links = max(len(members) - 1, 0)
        link = draw(st.lists(unit, min_size=n_links, max_size=n_links))
        tracks.append(TrackletLabel(tid, tuple(members), tuple(link)))
    return seq, tracks


TRACK_FRAMES = 10**6 + 1
track_rows = st.lists(st.builds(TrackRow, st.integers(0, TRACK_FRAMES - 1),
                                st.integers(0, 10**9), boxes, unit), max_size=8)


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """raw cut short, or with one byte replaced, inserted or deleted."""
    kind = draw(st.sampled_from(["truncate", "replace", "insert", "delete"]))
    i = draw(st.integers(0, max(len(raw) - 1, 0)))
    byte = bytes([draw(st.integers(0, 255))])
    if kind == "truncate":
        return raw[:i]
    if kind == "replace":
        return raw[:i] + byte + raw[i + 1:]
    if kind == "insert":
        return raw[:i] + byte + raw[i:]
    return raw[:i] + raw[i + 1:]


def assert_loads_or_names_file(read, path):
    try:
        read(path)
    except ValueError as exc:
        assert path.name in str(exc)


class TestDetections:
    @READER
    @given(seq=sequences())
    def test_round_trip(self, tmp_path, seq):
        write_detections(tmp_path / "d.jsonl", seq)
        back = read_detections(tmp_path / "d.jsonl", clouds=None, n_frames=len(seq.frames))
        assert back.frames == seq.frames

    @READER
    @given(data=st.data(), seq=sequences())
    def test_damaged_bytes(self, tmp_path, data, seq):
        write_detections(tmp_path / "d.jsonl", seq)
        raw = (tmp_path / "d.jsonl").read_bytes()
        (tmp_path / "d.jsonl").write_bytes(data.draw(damaged(raw)))
        assert_loads_or_names_file(
            lambda p: read_detections(p, clouds=seq.clouds, n_frames=len(seq.frames)),
            tmp_path / "d.jsonl")

    @pytest.mark.parametrize("line", [
        b'{"frame": 0, "box": [0,0,0,0,1,1,1], "score": 1e999, "cloud": "c"}',
        b'{"frame": 1e999, "box": [0,0,0,0,1,1,1], "score": 0.5, "cloud": "c"}',
        b'{"frame": 0, "box": [0,0,0,0,1,1,1e999999], "score": 0.5, "cloud": "c"}',
        b'{"frame": 0, "box": [0,0,0,0,1,1,' + b"9" * 400 + b'], "score": 0.5, "cloud": "c"}',
        b'{"frame": 0, "box": [0,0,0,0,1,1,1], "score": 0.5, "cloud": "c", "gt_id": 1e999}',
        b'{"frame": 0, "box": [0,0,0,0,1,1,1], "score": 0.5, "cloud": "\xff"}',
        b'{"frame": 9, "box": [0,0,0,0,1,1,1], "score": 0.5, "cloud": "c"}',
        b'{"frame": 0, "box": [0,0,0,0,1,1,1], "score": 0.5, "cloud": "unknown"}',
    ])
    def test_bad_value_raises_value_error(self, tmp_path, line):
        (tmp_path / "d.jsonl").write_bytes(line + b"\n")
        clouds = {"c": PointCloud(np.zeros((0, 3)))}
        with pytest.raises(ValueError, match=r"d\.jsonl"):
            read_detections(tmp_path / "d.jsonl", clouds=clouds, n_frames=3)


class TestTrackRows:
    @READER
    @given(rows=track_rows)
    def test_round_trip(self, tmp_path, rows):
        write_track_rows(tmp_path / "t.jsonl", rows)
        assert read_track_rows(tmp_path / "t.jsonl", n_frames=TRACK_FRAMES) == rows

    @READER
    @given(data=st.data(), rows=track_rows)
    def test_damaged_bytes(self, tmp_path, data, rows):
        write_track_rows(tmp_path / "t.jsonl", rows)
        raw = (tmp_path / "t.jsonl").read_bytes()
        (tmp_path / "t.jsonl").write_bytes(data.draw(damaged(raw)))
        assert_loads_or_names_file(lambda p: read_track_rows(p, n_frames=TRACK_FRAMES),
                                   tmp_path / "t.jsonl")

    @pytest.mark.parametrize("score", [b"NaN", b"Infinity", b"1e999"])
    def test_non_finite_score_names_line(self, tmp_path, score):
        (tmp_path / "t.jsonl").write_bytes(
            b'{"frame": 0, "track_id": 1, "box": [0,0,0,0,1,1,1], "score": ' + score + b'}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:1: track score must be finite"):
            read_track_rows(tmp_path / "t.jsonl", n_frames=1)

    @pytest.mark.parametrize("frame", [-1, 8])
    def test_frame_outside_the_sequence_names_line(self, tmp_path, frame):
        """A row is refused at a frame outside the n_frames of its sequence."""
        (tmp_path / "t.jsonl").write_text(
            '{"frame": 7, "track_id": 1, "box": [0,0,0,0,1,1,1], "score": 0.5}\n'
            f'{{"frame": {frame}, "track_id": 1, "box": [0,0,0,0,1,1,1], "score": 0.5}}\n')
        with pytest.raises(ValueError, match=rf"t\.jsonl:2: track row at frame {frame}, "
                                             "outside the 8 frames"):
            read_track_rows(tmp_path / "t.jsonl", n_frames=8)


class TestPseudoTracks:
    # two frames of two detections each
    SCENE = Sequence(
        frames=tuple(FrameRecord(index=f, detections=tuple(
            Detection(frame=f, box=Box7(d, 0, 0, 0, 1, 1, 1), score=1.0, cloud_ref="c")
            for d in range(2))) for f in range(2)),
        clouds={"c": PointCloud(np.zeros((0, 3)))})

    @READER
    @given(case=scene_tracks())
    def test_round_trip(self, tmp_path, case):
        seq, tracks = case
        write_pseudo_tracks(tmp_path / "p.jsonl", tracks)
        assert read_pseudo_tracks(tmp_path / "p.jsonl", seq) == tracks

    @READER
    @given(data=st.data(), case=scene_tracks())
    def test_damaged_bytes(self, tmp_path, data, case):
        seq, tracks = case
        write_pseudo_tracks(tmp_path / "p.jsonl", tracks)
        raw = (tmp_path / "p.jsonl").read_bytes()
        (tmp_path / "p.jsonl").write_bytes(data.draw(damaged(raw)))
        assert_loads_or_names_file(lambda p: read_pseudo_tracks(p, seq), tmp_path / "p.jsonl")

    def test_repeated_track_id_names_line(self, tmp_path):
        (tmp_path / "p.jsonl").write_bytes(
            b'{"track_id": 0, "members": [[0, 0], [1, 0]], "link_conf": [0.5]}\n'
            b'{"track_id": 0, "members": [[0, 1]], "link_conf": []}\n')
        with pytest.raises(ValueError, match=r"p\.jsonl:2: track 0 is on an earlier line"):
            read_pseudo_tracks(tmp_path / "p.jsonl", self.SCENE)

    @pytest.mark.parametrize("link", [b"[1.0, 1.0]", b"[]"])
    def test_link_count_names_line(self, tmp_path, link):
        (tmp_path / "p.jsonl").write_bytes(
            b'{"track_id": 3, "members": [[0, 0], [1, 0]], "link_conf": ' + link + b'}\n')
        with pytest.raises(ValueError, match=r"p\.jsonl:1: track 3: \d link confidences for 2"):
            read_pseudo_tracks(tmp_path / "p.jsonl", self.SCENE)

    @pytest.mark.parametrize("conf", [b"-0.5", b"1.5", b"NaN"])
    def test_link_confidence_outside_unit_interval_names_line(self, tmp_path, conf):
        (tmp_path / "p.jsonl").write_bytes(
            b'{"track_id": 0, "members": [[0, 0], [1, 0]], "link_conf": [1.0]}\n'
            b'{"track_id": 1, "members": [[0, 1], [1, 1]], "link_conf": [' + conf + b']}\n')
        with pytest.raises(ValueError, match=r"p\.jsonl:2: track 1: link confidence"):
            read_pseudo_tracks(tmp_path / "p.jsonl", self.SCENE)

    @pytest.mark.parametrize("member, why", [
        (b"[1, 2]", "frame 1 has 2 detections"),
        (b"[1, -1]", "frame 1 has 2 detections"),
        (b"[2, 0]", "the scene has no frame 2"),
    ], ids=["detection", "negative", "frame"])
    def test_member_outside_the_scene_names_line(self, tmp_path, member, why):
        (tmp_path / "p.jsonl").write_bytes(
            b'{"track_id": 0, "members": [[0, 0], [1, 0]], "link_conf": [1.0]}\n'
            b'{"track_id": 1, "members": [[0, 1], ' + member + b'], "link_conf": [1.0]}\n')
        with pytest.raises(ValueError, match=rf"p\.jsonl:2: track 1: member .*: {why}"):
            read_pseudo_tracks(tmp_path / "p.jsonl", self.SCENE)


class TestCloudPack:
    points = st.lists(st.tuples(coord, coord, coord), max_size=20).map(
        lambda p: PointCloud(np.array(p, dtype=np.float32).reshape(-1, 3)))
    # any text, so refs may be empty or non-ASCII; clouds may have 0 points
    packs = st.dictionaries(st.text(max_size=8), points, max_size=6)

    @READER
    @given(clouds=packs)
    def test_round_trip(self, tmp_path, clouds):
        write_clouds(tmp_path / "s.uapk", clouds)
        back = read_clouds(tmp_path / "s.uapk")
        assert back == clouds and list(back) == sorted(clouds)

    @READER
    @given(data=st.data(), clouds=packs)
    def test_damaged_bytes(self, tmp_path, data, clouds):
        write_clouds(tmp_path / "s.uapk", clouds)
        raw = (tmp_path / "s.uapk").read_bytes()
        (tmp_path / "s.uapk").write_bytes(data.draw(damaged(raw)))
        assert_loads_or_names_file(read_clouds, tmp_path / "s.uapk")

    def test_non_finite_point_names_file(self, tmp_path):
        write_clouds(tmp_path / "s.uapk", {"c": PointCloud(np.zeros((1, 3)))})
        raw = (tmp_path / "s.uapk").read_bytes()
        (tmp_path / "s.uapk").write_bytes(raw[:-4] + np.float32(np.nan).tobytes())
        with pytest.raises(ValueError, match=r"s\.uapk: cloud 'c': .*non-finite"):
            read_clouds(tmp_path / "s.uapk")


class TestCheckpoint:
    nets = st.builds(lambda widths, seed: EmbedNet.random((3, *widths), seed=seed),
                     st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(0, 99))

    @READER
    @given(net=nets)
    def test_round_trip(self, tmp_path, net):
        save_checkpoint(tmp_path / "n.uann", net)
        back = load_checkpoint(tmp_path / "n.uann")
        assert all(np.array_equal(a, b) for a, b in zip(back.params(), net.params(), strict=True))

    @READER
    @given(data=st.data(), net=nets)
    def test_damaged_bytes(self, tmp_path, data, net):
        save_checkpoint(tmp_path / "n.uann", net)
        raw = (tmp_path / "n.uann").read_bytes()
        (tmp_path / "n.uann").write_bytes(data.draw(damaged(raw)))
        assert_loads_or_names_file(load_checkpoint, tmp_path / "n.uann")

    def test_non_finite_parameter_names_file(self, tmp_path):
        save_checkpoint(tmp_path / "n.uann", EmbedNet.random((3, 2), seed=0))
        raw = (tmp_path / "n.uann").read_bytes()
        (tmp_path / "n.uann").write_bytes(raw[:-8] + np.float64(np.inf).tobytes())
        with pytest.raises(ValueError, match=r"n\.uann: non-finite"):
            load_checkpoint(tmp_path / "n.uann")

    def test_first_layer_not_taking_crop_rows_names_file(self, tmp_path):
        save_checkpoint(tmp_path / "n.uann", EmbedNet.random((5, 8, 8), seed=0))
        with pytest.raises(ValueError, match=r"n\.uann: first layer takes 5 inputs; "
                                             r"a crop row has 3$"):
            load_checkpoint(tmp_path / "n.uann")


class TestLogisticModel:
    models = st.builds(lambda coef, intercept: LogisticModel(coef=np.array(coef),
                                                             intercept=intercept),
                       st.lists(coord, min_size=6, max_size=6), coord)

    @READER
    @given(model=models)
    def test_round_trip(self, tmp_path, model):
        save_logistic(tmp_path / "m.json", model)
        back = load_logistic(tmp_path / "m.json")
        assert np.array_equal(back.coef, model.coef) and back.intercept == model.intercept

    @READER
    @given(data=st.data(), model=models)
    def test_damaged_bytes(self, tmp_path, data, model):
        save_logistic(tmp_path / "m.json", model)
        raw = (tmp_path / "m.json").read_bytes()
        (tmp_path / "m.json").write_bytes(data.draw(damaged(raw)))
        assert_loads_or_names_file(load_logistic, tmp_path / "m.json")

    @pytest.mark.parametrize("text", [
        b'{"intercept": 0.5}',
        b'{"coef": [1, 2, 3, 4, 5, 6]}',
        b'{"coef": [1, 2, 3], "intercept": 0}',
        b'{"coef": [[1, 2, 3], [4, 5, 6]], "intercept": 0}',
        b'{"coef": "x", "intercept": 0}',
        b'{"coef": {"a": 1}, "intercept": 0}',
        b'{"coef": [1, 2, 3, 4, 5, 1e999], "intercept": 0}',
        b'{"coef": [1, 2, 3, 4, 5, 6], "intercept": ' + b"9" * 400 + b'}',
        b'{"coef": [1, 2, 3, 4, 5, 6], "intercept": null}',
        b'[1, 2]',
        b'{"coef": [',
        b'\xff',
    ])
    def test_bad_file_raises_value_error(self, tmp_path, text):
        (tmp_path / "m.json").write_bytes(text)
        with pytest.raises(ValueError, match=r"m\.json: "):
            load_logistic(tmp_path / "m.json")
