import math
from dataclasses import replace

import numpy as np
import pytest
from test_core import previous_write_detections

from uatrack import embed, sim
from uatrack.assoc import gt_tracks
from uatrack.core import (
    FRAME_PERIOD,
    Box7,
    Detection,
    FrameRecord,
    PointCloud,
    Sequence,
    TrackletLabel,
    write_clouds,
    write_detections,
)
from uatrack.sim import (
    N_TEMPLATES,
    NoiseModel,
    SceneConfig,
    corrupt_detections,
    face_arrays,
    generate_sequence,
    perturb_boxes,
    sample_deform,
    sample_surface,
    template_faces,
)


# ---------------------------------------------------------------------------
# the simulator before whole-array draws, kept as the reference whose bytes
# the current one must reproduce


def previous_template_faces(template, deform, extents):
    l, w, h = extents
    hl, hw, hh = sim._INSET * l / 2.0, sim._INSET * w / 2.0, sim._INSET * h / 2.0
    profile = sim.TEMPLATE_PROFILES[template]
    deform = list(deform)
    n_bounds = len(profile) - 1
    xs = [-1.0] + [
        min(0.92, max(-0.92, profile[k][1] + deform[k])) for k in range(n_bounds)
    ] + [1.0]
    heights = [
        min(1.0, max(0.2, profile[k][2] * (1.0 + deform[n_bounds + k])))
        for k in range(len(profile))
    ]

    def pt(xf, yf, zf):
        return np.array([xf * hl, yf * hw, (2.0 * zf - 1.0) * hh])

    faces = []

    def rect(o, u, v):
        area = float(np.linalg.norm(np.cross(u, v)))
        if area > 1e-12:
            faces.append((o, u, v, area))

    for k in range(len(profile)):
        x0, x1, z = xs[k], xs[k + 1], heights[k]
        rect(pt(x0, -1, z), pt(x1, -1, z) - pt(x0, -1, z), pt(x0, 1, z) - pt(x0, -1, z))
        for yf in (-1, 1):
            rect(pt(x0, yf, 0), pt(x1, yf, 0) - pt(x0, yf, 0), pt(x0, yf, z) - pt(x0, yf, 0))
    rect(pt(-1, -1, 0), pt(-1, 1, 0) - pt(-1, -1, 0), pt(-1, -1, heights[0]) - pt(-1, -1, 0))
    rect(pt(1, -1, 0), pt(1, 1, 0) - pt(1, -1, 0), pt(1, -1, heights[-1]) - pt(1, -1, 0))
    for k in range(n_bounds):
        z0, z1 = sorted((heights[k], heights[k + 1]))
        if z1 - z0 > 1e-9:
            xb = xs[k + 1]
            rect(pt(xb, -1, z0), pt(xb, 1, z0) - pt(xb, -1, z0), pt(xb, -1, z1) - pt(xb, -1, z0))
    return faces


def previous_sample_surface(faces, n, rng):
    areas = np.array([f[3] for f in faces])
    probs = areas / areas.sum()
    idx = rng.choice(len(faces), size=n, p=probs)
    ab = rng.random((n, 2))
    origin, u, v = (np.stack([f[c] for f in faces]) for c in range(3))
    return origin[idx] + ab[:, :1] * u[idx] + ab[:, 1:] * v[idx]


def previous_generate_sequence(scene, seed):
    rng = np.random.default_rng(seed)
    specs = sim._sample_objects(scene, rng)
    faces_per_obj = [previous_template_faces(s.template, s.deform, s.extents) for s in specs]
    frames = []
    clouds = {}
    members = [[] for _ in specs]
    for f in range(scene.n_frames):
        t = f * FRAME_PERIOD
        dets = []
        for i, spec in enumerate(specs):
            x, y, yaw = spec.pose_at(t)
            l, w, h = spec.extents
            n_pts = sim._points_for_range(scene, math.hypot(x, y))
            local = previous_sample_surface(faces_per_obj[i], n_pts, rng)
            c, s = math.cos(yaw), math.sin(yaw)
            rot_t = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
            world = local @ rot_t + np.array([x, y, h / 2.0])
            ref = f"f{f:03d}o{i:02d}"
            clouds[ref] = PointCloud(world)
            dets.append(Detection(frame=f, box=Box7(x=x, y=y, z=h / 2.0, yaw=yaw, l=l, w=w, h=h),
                                  score=1.0, cloud_ref=ref, gt_id=i))
            members[i].append((f, i))
        frames.append(FrameRecord(index=f, detections=tuple(dets)))
    seq = Sequence(frames=tuple(frames), clouds=clouds)
    return seq, [TrackletLabel(track_id=i, members=tuple(members[i]),
                               link_conf=(1.0,) * (len(members[i]) - 1))
                 for i in range(len(specs))]


def previous_perturb_boxes(seq, noise, seed):
    rng = np.random.default_rng(seed)
    yaw_rad = math.radians(noise.yaw_deg)
    frames = []
    for rec in seq.frames:
        dets = []
        for det in rec.detections:
            b = det.box
            dc = rng.uniform(-noise.center_pct, noise.center_pct, size=3)
            ds = rng.uniform(-noise.size_pct, noise.size_pct, size=3)
            dyaw = float(rng.uniform(-yaw_rad, yaw_rad))
            box = Box7(
                x=b.x + float(dc[0]) * b.l,
                y=b.y + float(dc[1]) * b.w,
                z=b.z + float(dc[2]) * b.h,
                yaw=b.yaw + dyaw,
                l=b.l * (1.0 + float(ds[0])),
                w=b.w * (1.0 + float(ds[1])),
                h=b.h * (1.0 + float(ds[2])),
            )
            dets.append(replace(det, box=box))
        frames.append(FrameRecord(index=rec.index, detections=tuple(dets)))
    return Sequence(frames=tuple(frames), clouds=seq.clouds)


def previous_corrupt_detections(seq, noise, seed):
    perturbed = previous_perturb_boxes(seq, noise, (seed, 0))
    rng = np.random.default_rng((seed, 1))
    centers = [(d.box.x, d.box.y) for rec in seq.frames for d in rec.detections]
    span = max((max(abs(x), abs(y)) for x, y in centers), default=20.0) + 5.0
    clouds = dict(seq.clouds)
    frames = []
    spur_serial = 0
    for rec in perturbed.frames:
        dets = []
        for det in rec.detections:
            if rng.random() < noise.missed_rate:
                continue
            dets.append(replace(det, score=float(rng.beta(8.0, 2.0))))
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
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            rot_t = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
            world = local @ rot_t + box.center
            ref = f"f{rec.index:03d}spur{spur_serial:03d}"
            spur_serial += 1
            clouds[ref] = PointCloud(world)
            dets.append(Detection(frame=rec.index, box=box, score=float(rng.beta(2.0, 8.0)),
                                  cloud_ref=ref, gt_id=None))
        frames.append(FrameRecord(index=rec.index, detections=tuple(dets)))
    return Sequence(frames=tuple(frames), clouds=clouds)


def assert_same_bytes(got: Sequence, want: Sequence):
    """Every box, score, ref, gt_id and cloud equal bit for bit, clouds in
    the same insertion order."""
    assert [r.index for r in got.frames] == [r.index for r in want.frames]
    for rec, ref in zip(got.frames, want.frames):
        assert len(rec.detections) == len(ref.detections)
        for d, e in zip(rec.detections, ref.detections):
            assert d.box.to_array().tobytes() == e.box.to_array().tobytes()
            assert np.float64(d.score).tobytes() == np.float64(e.score).tobytes()
            assert type(d.score) is type(e.score)
            assert (d.frame, d.cloud_ref, d.gt_id) == (e.frame, e.cloud_ref, e.gt_id)
    assert list(got.clouds) == list(want.clouds)
    for k, cloud in got.clouds.items():
        assert cloud.points.tobytes() == want.clouds[k].points.tobytes()


SCENES = {
    "default": SceneConfig(),
    "crowded": SceneConfig(n_objects=12, crossings=3),
    "short": SceneConfig(n_objects=1, n_frames=2, distinct_templates=True),
}
NOISES = {
    "default": NoiseModel(),
    "no-yaw": NoiseModel(yaw_deg=0.0),
    "no-noise": NoiseModel(center_pct=0.0, size_pct=0.0, yaw_deg=0.0),
    "drops": NoiseModel(spurious_rate=0.3, missed_rate=0.2),
    "all-missed": NoiseModel(missed_rate=1.0),
}


class TestPreviousImplementation:
    """generate_sequence, perturb_boxes, corrupt_detections and the
    detection and cloud files give the previous simulator's bytes, and
    assoc.gt_tracks of a scene its tracklets."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("scene", SCENES.values(), ids=SCENES.keys())
    def test_scenes(self, scene, seed, tmp_path):
        seq = generate_sequence(scene, seed)
        want, want_labels = previous_generate_sequence(scene, seed)
        assert_same_bytes(seq, want)
        assert gt_tracks(seq) == want_labels
        pairs = [(seq, want)]
        for noise in NOISES.values():
            pairs += [(perturb_boxes(seq, noise, seed), previous_perturb_boxes(want, noise, seed)),
                      (corrupt_detections(seq, noise, seed),
                       previous_corrupt_detections(want, noise, seed))]
        for got, ref in pairs:
            assert_same_bytes(got, ref)
            write_detections(tmp_path / "got.jsonl", got)
            previous_write_detections(tmp_path / "want.jsonl", ref)
            assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
            write_clouds(tmp_path / "got.uapk", got.clouds)
            write_clouds(tmp_path / "want.uapk", ref.clouds)
            assert (tmp_path / "got.uapk").read_bytes() == (tmp_path / "want.uapk").read_bytes()

    @pytest.mark.parametrize("template", range(N_TEMPLATES))
    def test_template_faces(self, template):
        rng = np.random.default_rng(template)
        for trial in range(200):
            # zero jitters give the undeformed template's equal heights too
            deform = (sample_deform(template, rng) if trial else
                      (0.0,) * (2 * len(sim.TEMPLATE_PROFILES[template]) - 1))
            extents = tuple(float(v) for v in rng.uniform([3.5, 1.5, 1.2], [5.0, 2.1, 1.9]))
            got = template_faces(template, deform, extents)
            want = previous_template_faces(template, deform, extents)
            assert len(got) == len(want)
            for f, g in zip(got, want):
                assert all(a.dtype == np.float64 and a.tobytes() == b.tobytes()
                           for a, b in zip(f[:3], g[:3]))
                assert np.float64(f[3]).tobytes() == np.float64(g[3]).tobytes()


class TestGenerate:
    def test_static_object_constant_boxes(self):
        scene = SceneConfig(n_objects=1, n_frames=5, speed_range=(0.0, 0.0))
        seq = generate_sequence(scene, seed=0)
        labels = gt_tracks(seq)
        boxes = [seq.frames[f].detections[0].box for f in range(5)]
        # straight/stop profiles at zero speed stay put; turn keeps position
        # within a point (v=0)
        for b in boxes[1:]:
            assert math.hypot(b.x - boxes[0].x, b.y - boxes[0].y) < 1e-9
        assert len(labels) == 1 and len(labels[0].members) == 5
        assert all(seq.frames[f].detections[0].gt_id == 0 for f in range(5))

    def test_cardinality(self):
        scene = SceneConfig(n_objects=2, n_frames=10)
        seq = generate_sequence(scene, seed=1)
        for rec in seq.frames:
            assert len(rec.detections) == 2
            assert {d.gt_id for d in rec.detections} == {0, 1}

    def test_deterministic(self):
        scene = SceneConfig(n_objects=3, n_frames=6, crossings=1)
        assert generate_sequence(scene, seed=42) == generate_sequence(scene, seed=42)

    def test_points_inside_gt_boxes(self):
        scene = SceneConfig(n_objects=4, n_frames=6, crossings=1)
        seq = generate_sequence(scene, seed=7)
        for rec in seq.frames:
            for det in rec.detections:
                crop = embed.canonicalize(seq, [det], n=seq.cloud_of(det).count)
                # canonicalize keeps only in-box points; all must survive
                assert crop.points.any()  # not the empty crop's origin points
                half = np.array([det.box.l / 2, det.box.w / 2, det.box.h / 2])
                assert (np.abs(crop.points) <= half + 1e-9).all()
                # and none were discarded
                pts = seq.cloud_of(det).points.astype(np.float64)
                d = pts - det.box.center
                c, s = math.cos(det.box.yaw), math.sin(det.box.yaw)
                rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0, 0, 1.0]])
                local = d @ rot
                assert (np.abs(local) <= half).all()

    def test_density_decays_with_range(self):
        scene = SceneConfig(n_objects=1, n_frames=2)
        near = sim._points_for_range(scene, 5.0)
        far = sim._points_for_range(scene, 44.0)
        assert near == scene.base_points
        assert far < near
        assert far >= scene.min_points

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(n_objects=0)
        with pytest.raises(ValueError):
            SceneConfig(n_objects=2, crossings=2)
        with pytest.raises(ValueError, match="crossings must be >= 0"):
            SceneConfig(crossings=-1)

    @pytest.mark.parametrize("frames", [60, 100, 200])
    def test_long_scene_cannot_place_a_crossing_pair(self, frames):
        """A crossing pair meets mid-sequence at 3 to 5.5 m/s: over 60
        frames or more each path runs at least 35 m either side of the
        meeting point, and none of the 200 draws stays within BOUNDS -
        MARGIN."""
        with pytest.raises(ValueError,
                           match=f"could not place a crossing pair inside bounds {sim.BOUNDS}"):
            sim.generate_sequence(SceneConfig(n_objects=2, n_frames=frames, crossings=1), seed=0)


class TestTemplates:
    def test_four_distinct_templates(self):
        assert N_TEMPLATES >= 4

    @staticmethod
    def _canonical_sample(template, rng, n=256, deform=None):
        """(points, faces) of one instance; faces are axis-aligned rectangles."""
        if deform is None:
            deform = sample_deform(template, rng)
        faces = template_faces(template, deform, (4.3, 1.8, 1.6))
        for _, u, v, _ in faces:
            assert u @ v == 0.0
        return sample_surface(face_arrays(faces), rng.random(3 * n)), faces

    @staticmethod
    def _mean_to_faces(points, faces):
        """Mean distance from each point to the nearest face. With u.v = 0
        the closest point of a face is o + clip(s)*u + clip(t)*v."""
        o, u, v = (np.stack([f[c] for f in faces]) for c in range(3))
        d = points[:, None, :] - o
        s = np.clip((d * u).sum(axis=2) / (u * u).sum(axis=1), 0.0, 1.0)
        t = np.clip((d * v).sum(axis=2) / (v * v).sum(axis=1), 0.0, 1.0)
        near = o + s[..., None] * u + t[..., None] * v
        return np.linalg.norm(points[:, None, :] - near, axis=2).min(axis=1).mean()

    @classmethod
    def _surface_distance(cls, a, b):
        """Symmetric point-to-surface distance between two (points, faces)."""
        return 0.5 * (cls._mean_to_faces(a[0], b[1]) + cls._mean_to_faces(b[0], a[1]))

    @staticmethod
    def _chamfer(a, b):
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())

    @classmethod
    def _separability(cls, rng):
        """(mean inter / mean intra, worst pair inter / largest intra).

        Intra compares four instances of one template, so it measures what
        deformation adds; inter compares templates at the same draw index.
        """
        draws = {t: [cls._canonical_sample(t, rng) for _ in range(4)]
                 for t in range(N_TEMPLATES)}
        intra = [np.mean([cls._surface_distance(draws[t][i], draws[t][j])
                          for i in range(4) for j in range(i + 1, 4)])
                 for t in range(N_TEMPLATES)]
        inter = [np.mean([cls._surface_distance(draws[t1][i], draws[t2][i])
                          for i in range(4)])
                 for t1 in range(N_TEMPLATES) for t2 in range(t1 + 1, N_TEMPLATES)]
        return np.mean(inter) / np.mean(intra), min(inter) / max(intra)

    def test_template_separability(self):
        # Distance to the exact faces, not chamfer between two samples:
        # at 256 points the sample spacing alone gives ~0.15 m of chamfer.
        mean_ratio, pair_ratio = self._separability(np.random.default_rng(0))
        assert mean_ratio > 3.0
        assert pair_ratio > 3.0

    def test_surface_distance_has_no_sampling_floor(self):
        rng = np.random.default_rng(0)
        zero = (0.0,) * 5  # 2 boundary + 3 height jitters of the sedan
        a = self._canonical_sample(1, rng, deform=zero)
        b = self._canonical_sample(1, rng, deform=zero)
        assert self._surface_distance(a, b) < 1e-9
        # the same two samples are far apart under chamfer
        assert self._chamfer(a[0], b[0]) > 0.1

    def test_separability_fails_when_all_templates_are_vans(self, monkeypatch):
        for t in range(N_TEMPLATES):
            monkeypatch.setitem(sim.TEMPLATE_PROFILES, t, sim.TEMPLATE_PROFILES[0])
        mean_ratio, _ = self._separability(np.random.default_rng(0))
        assert mean_ratio < 3.0

    def test_separability_fails_on_a_duplicated_template(self, monkeypatch):
        monkeypatch.setitem(sim.TEMPLATE_PROFILES, 3, sim.TEMPLATE_PROFILES[1])
        mean_ratio, pair_ratio = self._separability(np.random.default_rng(0))
        assert mean_ratio > 3.0  # the mean alone misses the duplicate
        assert pair_ratio < 3.0

    @staticmethod
    def _loop_sample_surface(faces, n, rng):
        """Per-point reference for sample_surface, with the same RNG draws."""
        areas = np.array([f[3] for f in faces])
        idx = rng.choice(len(faces), size=n, p=areas / areas.sum())
        ab = rng.random((n, 2))
        pts = np.empty((n, 3))
        for i, (k, (a, b)) in enumerate(zip(idx, ab)):
            o, u, v, _ = faces[k]
            pts[i] = o + a * u + b * v
        return pts

    def test_uniform_on_a_cdf_edge_picks_the_next_face(self):
        """Generator.choice's rule, searchsorted(side="right"), which
        random uniforms almost never test."""
        surface = face_arrays(template_faces(1, (0.0,) * 5, (4.3, 1.8, 1.6)))
        cdf, origin = surface[:2]
        picks = np.concatenate([[0.0], cdf[:-1]])
        got = sample_surface(surface, np.concatenate([picks, np.zeros(2 * len(picks))]))
        np.testing.assert_array_equal(got, origin)

    @pytest.mark.parametrize("n", [1, 50, 400])
    @pytest.mark.parametrize("template", range(N_TEMPLATES))
    def test_sample_surface_matches_loop_bytes(self, template, n):
        deform = sample_deform(template, np.random.default_rng(template))
        faces = template_faces(template, deform, (4.3, 1.8, 1.6))
        rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = sample_surface(face_arrays(faces), rng.random(3 * n))
        want = self._loop_sample_surface(faces, n, want_rng)
        assert got.shape == (n, 3)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == want_rng.random()  # as many draws taken


class TestPerturb:
    def _seq(self):
        scene = SceneConfig(n_objects=2, n_frames=6)
        return generate_sequence(scene, seed=3)

    def test_zero_noise_identity(self):
        seq = self._seq()
        out = perturb_boxes(seq, NoiseModel(center_pct=0.0, size_pct=0.0, yaw_deg=0.0), seed=1)
        assert out == seq

    def test_center_shift_bounded(self):
        seq = self._seq()
        noise = NoiseModel(center_pct=0.1, size_pct=0.0, yaw_deg=0.0)
        for trial in range(5):
            out = perturb_boxes(seq, noise, seed=trial)
            for rec, rec2 in zip(seq.frames, out.frames):
                for d, d2 in zip(rec.detections, rec2.detections):
                    assert abs(d2.box.x - d.box.x) <= 0.1 * d.box.l + 1e-12
                    assert abs(d2.box.y - d.box.y) <= 0.1 * d.box.w + 1e-12
                    assert abs(d2.box.z - d.box.z) <= 0.1 * d.box.h + 1e-12

    def test_yaw_shift_bounded(self):
        # oracle: 5 degrees = 5*pi/180 ~ 0.08727 rad
        seq = self._seq()
        noise = NoiseModel(center_pct=0.0, size_pct=0.0, yaw_deg=5.0)
        bound = 0.08726646259971647
        for trial in range(5):
            out = perturb_boxes(seq, noise, seed=trial)
            for rec, rec2 in zip(seq.frames, out.frames):
                for d, d2 in zip(rec.detections, rec2.detections):
                    dyaw = abs(d2.box.yaw - d.box.yaw)
                    dyaw = min(dyaw, 2 * math.pi - dyaw)
                    assert dyaw <= bound + 1e-12

    def test_gt_and_clouds_preserved(self):
        seq = self._seq()
        out = perturb_boxes(seq, NoiseModel(), seed=5)
        assert out.clouds is seq.clouds
        for rec, rec2 in zip(seq.frames, out.frames):
            for d, d2 in zip(rec.detections, rec2.detections):
                assert d2.gt_id == d.gt_id and d2.cloud_ref == d.cloud_ref


class TestCorrupt:
    def _seq(self, frames=10, objects=10):
        scene = SceneConfig(n_objects=objects, n_frames=frames)
        return generate_sequence(scene, seed=9)

    def test_zero_rates_equals_perturb(self):
        seq = self._seq(6, 3)
        noise = NoiseModel(spurious_rate=0.0, missed_rate=0.0)
        out = corrupt_detections(seq, noise, seed=4)
        ref = perturb_boxes(seq, noise, (4, 0))
        # boxes identical to the perturb stage; only scores differ
        for rec, rec2 in zip(ref.frames, out.frames):
            assert len(rec.detections) == len(rec2.detections)
            for d, d2 in zip(rec.detections, rec2.detections):
                assert d2.box == d.box
                assert d2.gt_id == d.gt_id
                assert 0.0 <= d2.score <= 1.0

    def test_missed_rate_one_drops_everything(self):
        seq = self._seq(4, 3)
        out = corrupt_detections(seq, NoiseModel(missed_rate=1.0), seed=0)
        for rec in out.frames:
            assert all(d.gt_id is None for d in rec.detections)

    def test_spurious_count_in_binomial_bounds(self):
        # 100 object-frames at rate 0.1: count in [2, 25] with 99.9% prob
        seq = self._seq(10, 10)
        out = corrupt_detections(seq, NoiseModel(spurious_rate=0.1), seed=11)
        n_spur = sum(1 for rec in out.frames for d in rec.detections if d.gt_id is None)
        assert 2 <= n_spur <= 25

    def test_score_distributions_separate(self):
        seq = self._seq(10, 10)
        out = corrupt_detections(seq, NoiseModel(spurious_rate=0.3, missed_rate=0.05), seed=2)
        real = [d.score for rec in out.frames for d in rec.detections if d.gt_id is not None]
        spur = [d.score for rec in out.frames for d in rec.detections if d.gt_id is None]
        assert np.mean(real) > 0.6 > np.mean(spur)

    def test_original_clouds_untouched(self):
        seq = self._seq(5, 4)
        snapshot = {k: v.points.copy() for k, v in seq.clouds.items()}
        out = corrupt_detections(seq, NoiseModel(spurious_rate=0.2, missed_rate=0.1), seed=1)
        for k, pts in snapshot.items():
            np.testing.assert_array_equal(seq.clouds[k].points, pts)
            assert out.clouds[k] is seq.clouds[k]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(missed_rate=1.5)
        with pytest.raises(ValueError):
            NoiseModel(center_pct=-0.1)
        with pytest.raises(ValueError, match=r"yaw_deg must be >= 0, got -5"):
            NoiseModel(yaw_deg=-5.0)
        for rate in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"spurious_rate must be in \[0, 1\]"):
                NoiseModel(spurious_rate=rate)

    def test_size_pct_below_one(self):
        """perturb_boxes scales each extent by 1 + u, u in [-size_pct,
        size_pct), so an extent stays positive only while size_pct < 1."""
        with pytest.raises(ValueError, match="size_pct"):
            NoiseModel(size_pct=1.0)
        NoiseModel(size_pct=0.99)
