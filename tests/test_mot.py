import logging

import numpy as np
import pytest

from uatrack import assoc, embed, kalman, mot, sim
from uatrack.assoc import AssocConfig
from uatrack.mot import FeatureVector, LogisticModel, fit_logistic


def _model(c_m, c_log_m):
    coef = np.zeros(6)
    coef[mot.FEATURE_NAMES.index("m")] = c_m
    coef[mot.FEATURE_NAMES.index("log_m")] = c_log_m
    return LogisticModel(coef=coef, intercept=0.0)


def _warnings(caplog):
    return [r for r in caplog.records if r.name == "uatrack.mot" and r.levelno == logging.WARNING]


class TestDistanceWarning:
    @pytest.mark.parametrize("m_max, warned", [(50.0, False), (200.0, True)])
    def test_log_term_counts(self, caplog, m_max, warned):
        # c_m > 0 alone does not mean distance is rewarded: with
        # c_log_m = -3.17 the slope 0.032 - 3.17 / m is negative up to m = 99
        mot._warn_if_distance_not_penalized(_model(0.032, -3.17), np.array([0.1, 3.0, m_max]))
        assert len(_warnings(caplog)) == int(warned)

    def test_low_end_checked(self, caplog):
        # slope -1 + 0.5 / m is positive below m = 0.5
        mot._warn_if_distance_not_penalized(_model(-1.0, 0.5), np.array([0.0, 0.2, 9.0]))
        assert len(_warnings(caplog)) == 1

    @pytest.mark.parametrize("near_is_match, warned", [(True, False), (False, True)])
    def test_fit_warns_once_per_model(self, caplog, near_is_match, warned):
        rng = np.random.default_rng(0)
        examples = []
        for _ in range(200):
            near = float(rng.uniform(0.2, 2.0))
            far = float(rng.uniform(4.0, 30.0))
            d = float(rng.uniform(0.5, 1.0))
            examples.append((FeatureVector.build(m=near, a=0.0, d=d), int(near_is_match)))
            examples.append((FeatureVector.build(m=far, a=0.0, d=d), int(not near_is_match)))
        fit_logistic(examples)
        assert len(_warnings(caplog)) == int(warned)


def _scene(seed=5):
    """A short noisy scene with a crossing, misses and spurious detections."""
    scene = sim.SceneConfig(n_objects=4, n_frames=12, crossings=1)
    seq, _ = sim.generate_sequence(scene, seed=seed)
    noise = sim.NoiseModel(missed_rate=0.1, spurious_rate=0.15)
    return sim.corrupt_detections(seq, noise, seed=(seed, 100))


KCFG = kalman.NoiseConfig()
ACFG = AssocConfig()
NET = embed.EmbedNet.random((3, 8, 8), seed=1)
POINTS = 16


class TestMotionModeEquivalence:
    """Motion mode runs the pseudo-label tracker's decisions: every
    pseudo-track is one output track over exactly its member frames."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_rows_follow_pseudo_tracks(self, seed):
        seq = _scene(seed)
        labels, _ = assoc.build_pseudo_tracks(seq, KCFG, ACFG)
        rows = mot.track_sequence(seq, KCFG, mot.MotConfig(mode="motion", assoc=ACFG))
        frames_of: dict[int, list[int]] = {}
        for r in rows:
            frames_of.setdefault(r.track_id, []).append(r.frame)
        assert set(frames_of) == {lab.track_id for lab in labels}
        assert any(len(lab.members) > 1 for lab in labels)
        for lab in labels:
            assert frames_of[lab.track_id] == [f for f, _ in lab.members]


class TestHarvestFeatures:
    @staticmethod
    def _oracle(seq, net):
        """Every frame's (track, detection) pairs of the motion tracker, with
        features from the filter state, the embedding of the track's last
        matched detection and the detection's own crop."""
        frames = []

        def cost_fn(states, rec):
            frames.append((rec, list(states)))
            return assoc.mahalanobis_matrix(states, rec.detections, KCFG), ACFG.gate

        run = assoc.run_tracker(seq, KCFG, ACFG, cost_fn=cost_fn, collect_confidence=False)
        det_at = {rec.index: rec.detections for rec in seq.frames}
        members = {lab.track_id: lab.members for lab in run.labels}

        def emb(det):
            return embed.forward(net, embed.detection_crop(seq, det, POINTS))

        expected = []
        for rec, states in frames:
            for s in states:
                f, d = [m for m in members[s.track_id] if m[0] < rec.index][-1]
                last = det_at[f][d]
                for det in rec.detections:
                    a = embed.cosine(emb(last), emb(det)) if net is not None else 0.0
                    fv = FeatureVector.build(m=kalman.mahalanobis(s, [det.box], KCFG)[0], a=a,
                                             d=det.score)
                    label = int(last.gt_id is not None and last.gt_id == det.gt_id)
                    expected.append((fv, label))
        return expected

    @pytest.mark.parametrize("net", [NET, None], ids=["appearance", "no-net"])
    def test_examples_equal_oracle(self, net):
        seq = _scene()
        got = mot.harvest_features(seq, KCFG, ACFG, net=net, points_per_crop=POINTS)
        expected = self._oracle(seq, net)
        assert len(got) == len(expected) > 100
        assert sum(lbl for _, lbl in got) > 10
        assert got == expected
