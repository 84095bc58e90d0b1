import math

import numpy as np
import pytest

from uatrack import embed, sim
from uatrack.sim import (
    N_TEMPLATES,
    NoiseModel,
    SceneConfig,
    corrupt_detections,
    generate_sequence,
    perturb_boxes,
    sample_deform,
    sample_surface,
    template_faces,
)


class TestGenerate:
    def test_static_object_constant_boxes(self):
        scene = SceneConfig(n_objects=1, n_frames=5, speed_range=(0.0, 0.0))
        seq, labels = generate_sequence(scene, seed=0)
        boxes = [seq.frames[f].detections[0].box for f in range(5)]
        # straight/stop profiles at zero speed stay put; turn keeps position
        # within a point (v=0)
        for b in boxes[1:]:
            assert math.hypot(b.x - boxes[0].x, b.y - boxes[0].y) < 1e-9
        assert len(labels) == 1 and len(labels[0].members) == 5
        assert all(seq.frames[f].detections[0].gt_id == 0 for f in range(5))

    def test_cardinality(self):
        scene = SceneConfig(n_objects=2, n_frames=10)
        seq, _ = generate_sequence(scene, seed=1)
        for rec in seq.frames:
            assert len(rec.detections) == 2
            assert {d.gt_id for d in rec.detections} == {0, 1}

    def test_deterministic(self):
        scene = SceneConfig(n_objects=3, n_frames=6, crossings=1)
        a, la = generate_sequence(scene, seed=42)
        b, lb = generate_sequence(scene, seed=42)
        assert a == b
        assert la == lb

    def test_points_inside_gt_boxes(self):
        scene = SceneConfig(n_objects=4, n_frames=6, crossings=1)
        seq, _ = generate_sequence(scene, seed=7)
        for rec in seq.frames:
            for det in rec.detections:
                crop = embed.canonicalize(
                    seq.cloud_of(det), det.box, n=seq.cloud_of(det).count, seed=0)
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
        return sample_surface(faces, n, rng), faces

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

    @pytest.mark.parametrize("n", [1, 50, 400])
    @pytest.mark.parametrize("template", range(N_TEMPLATES))
    def test_sample_surface_matches_loop_bytes(self, template, n):
        deform = sample_deform(template, np.random.default_rng(template))
        faces = template_faces(template, deform, (4.3, 1.8, 1.6))
        got = sample_surface(faces, n, np.random.default_rng(n))
        want = self._loop_sample_surface(faces, n, np.random.default_rng(n))
        assert got.shape == (n, 3)
        assert got.tobytes() == want.tobytes()


class TestPerturb:
    def _seq(self):
        scene = SceneConfig(n_objects=2, n_frames=6)
        return generate_sequence(scene, seed=3)[0]

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
        return generate_sequence(scene, seed=9)[0]

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
