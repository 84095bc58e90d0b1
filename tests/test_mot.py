import logging
import math
import warnings

import numpy as np
import pytest
from test_assoc import reference_tracker
from test_embed import cosine

from uatrack import assoc, embed, kalman, mot, sim
from uatrack.assoc import AssocConfig
from uatrack.core import (
    FRAME_PERIOD,
    Box7,
    Detection,
    FrameRecord,
    PointCloud,
    Sequence,
    TrackRow,
)
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
        fit_logistic(*_separable(near_is_match))
        assert len(_warnings(caplog)) == int(warned)


def _scene(seed=5):
    """A short noisy scene with a crossing, misses and spurious detections."""
    scene = sim.SceneConfig(n_objects=4, n_frames=12, crossings=1)
    seq = sim.generate_sequence(scene, seed=seed)
    noise = sim.NoiseModel(missed_rate=0.1, spurious_rate=0.15)
    return sim.corrupt_detections(seq, noise, seed=(seed, 100))


KCFG = kalman.NoiseConfig()
ACFG = AssocConfig()
NET = embed.EmbedNet.random((3, 8, 8), seed=1)


# ---------------------------------------------------------------------------
# features and scores, against the per-pair reference


def reference_features(m, a, d):
    """FeatureVector.build as first written, the reference: one pair's
    feature row, with math.log."""
    if m < 0 or not (-1.0 <= a <= 1.0) or not (0.0 <= d <= 1.0):
        raise ValueError(f"bad feature values m={m} a={a} d={d}")

    def clamped_log(v):
        return math.log(max(v, mot.LOG_CLAMP))

    return np.array([m, a, d, clamped_log(m), clamped_log((a + 1.0) / 2.0), clamped_log(d)])


def reference_score(model, row):
    """LogisticModel.score as first written: one pair, with math.exp."""
    z = float(model.coef @ row) + model.intercept
    return 1.0 / (1.0 + math.exp(-z))


def reference_track_sequence(seq, mode, net, model):
    """track_sequence as first written, the reference: one scalar cosine,
    one feature row and one score per admitted pair."""
    embedding = ((lambda det: embed.forward(
                      net, embed.canonicalize(seq, [det], embed.POINTS_PER_CROP))[0])
                 if mode == "motion+score+appearance" else None)
    track_embs = {}
    frame = {}
    rows = []

    def cost_fn(ids, rec, m, admitted):
        frame["dets"] = rec.detections
        if mode == "motion":
            return m
        cost = np.ones_like(m)
        for i, j in zip(*np.nonzero(admitted)):
            det = rec.detections[j]
            a = cosine(track_embs[ids[i]], embedding(det)) if embedding else 0.0
            row = reference_features(float(m[i, j]), a, det.score)
            cost[i, j] = 1.0 - reference_score(model, row)
        return cost

    def on_match(track_id, det_idx, box):
        det = frame["dets"][det_idx]
        if embedding is not None:
            track_embs[track_id] = embedding(det)
        rows.append(TrackRow(frame=det.frame, track_id=track_id, box=box, score=det.score))

    assoc.run_tracker(seq, KCFG, ACFG, cost_fn=cost_fn, on_match=on_match,
                      collect_confidence=False)
    rows.sort(key=lambda r: (r.frame, r.track_id))
    return rows


def _pairs(rng, k):
    """k random (m, a, d) with the range ends and the clamp among them."""
    m = rng.uniform(0.0, 20.0, k)
    a = rng.uniform(-1.0, 1.0, k)
    d = rng.uniform(0.0, 1.0, k)
    m[:3], a[:3], d[:3] = [0.0, 1e-9, 13.0], [-1.0, 1.0, -1.0 + 1e-9], [0.0, 1.0, 5e-9]
    return m, a, d


class TestFeatureRows:
    def test_rows_match_per_pair_reference(self):
        m, a, d = _pairs(np.random.default_rng(0), 2000)
        x = mot.feature_rows(m, a, d)
        want = np.array([reference_features(*v) for v in zip(m, a, d)])
        assert x[:, :3].tobytes() == want[:, :3].tobytes()
        # np.log and math.log may round differently, by at most an ulp
        np.testing.assert_allclose(x[:, 3:], want[:, 3:], rtol=2.3e-16, atol=0.0)
        fv = FeatureVector.build(m=float(m[5]), a=float(a[5]), d=float(d[5]))
        assert fv.array().tobytes() == x[5].tobytes()

    @pytest.mark.parametrize("m, a, d", [
        (-1e-12, 0.0, 0.5), (1.0, 1.0 + 1e-12, 0.5), (1.0, -1.5, 0.5), (1.0, math.nan, 0.5),
        (1.0, 0.0, -1e-12), (1.0, 0.0, 1.5), (1.0, 0.0, math.nan),
    ])
    def test_out_of_range_raises(self, m, a, d):
        with pytest.raises(ValueError, match=f"bad feature values m={m} a={a} d={d}$"):
            mot.feature_rows([2.0, m, -3.0], [0.0, a, 2.0], [0.5, d, 0.5])
        with pytest.raises(ValueError, match="bad feature values"):
            FeatureVector.build(m=m, a=a, d=d)
        with pytest.raises(ValueError, match="bad feature values"):
            reference_features(m, a, d)

    def test_no_pairs(self):
        assert mot.feature_rows([], [], []).shape == (0, 6)

    def test_without_appearance(self):
        """The rows with the cosine at 0, as `feature_rows` gives them and
        as the a = 0 encoding written out, m = 0 and d = 0 among them; x
        itself is left as it was."""
        m, a, d = _pairs(np.random.default_rng(1), 200)
        x = mot.feature_rows(m, a, d)
        kept = x.copy()
        got = mot.without_appearance(x)
        assert got.tobytes() == mot.feature_rows(m, np.zeros_like(a), d).tobytes()
        written = x.copy()
        written[:, mot.FEATURE_NAMES.index("a")] = 0.0
        written[:, mot.FEATURE_NAMES.index("log_a")] = np.log(0.5)
        assert got.tobytes() == written.tobytes()
        assert x.tobytes() == kept.tobytes()


FIXED_MODEL = LogisticModel(coef=np.array([-0.4, 1.5, 2.0, -0.3, 0.6, 0.4]), intercept=0.5)


class TestScores:

    def test_scores_match_per_pair_reference(self):
        x = mot.feature_rows(*_pairs(np.random.default_rng(2), 2000))
        got = FIXED_MODEL.scores(x)
        want = np.array([reference_score(FIXED_MODEL, row) for row in x])
        assert np.abs(got - want).max() <= 1e-15
        fv = FeatureVector(*x[7])
        assert FIXED_MODEL.score(fv) == got[7]

    def test_equal_rows_score_equal_wherever_they_sit(self):
        x = np.tile(mot.feature_rows([2.5], [0.3], [0.8]), (37, 1))
        assert len(set(FIXED_MODEL.scores(x).tolist())) == 1

    def test_overflow_is_the_limit(self):
        model = LogisticModel(coef=np.array([100.0, 0, 0, 0, 0, 0]), intercept=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.scores(np.array([[-1000.0, 0, 0, 0, 0, 0], [1000.0, 0, 0, 0, 0, 0]]))
        assert got.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# the logistic fit


def reference_gradient_fit(x, y):
    """The fit as first written, the reference: 5,000 full-batch gradient
    ascent steps of size 0.1 on the same standardized, penalized objective."""
    y = np.asarray(y, dtype=np.float64)
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    z = (x - mu) / sigma
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(5000):
        p = 1.0 / (1.0 + np.exp(-(z @ w + b)))
        w = w + 0.1 * (z.T @ (y - p) / len(y) - 1e-4 * w)
        b = b + 0.1 * float((y - p).mean())
    return LogisticModel(coef=w / sigma, intercept=b - float((w * mu / sigma).sum()))


def penalized_fit_objective(x, y, model):
    """(objective, gradient) of a model in the fit's standardized
    coordinates: the mean log-likelihood minus 1e-4/2 |w|^2, and its
    gradient over (w, intercept)."""
    y = np.asarray(y, dtype=np.float64)
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    constant = sigma < 1e-12
    sigma[constant] = 1.0
    z = (x - mu) / sigma
    z[:, constant] = 0.0
    w = model.coef * sigma
    eta = z @ w + model.intercept + float((model.coef * mu).sum())
    p = 1.0 / (1.0 + np.exp(-eta))
    objective = float(np.mean(y * eta - np.logaddexp(0.0, eta)) - 0.5e-4 * (w @ w))
    grad = np.append(z.T @ (y - p) / len(y) - 1e-4 * w, np.mean(y - p))
    return objective, grad


def _separable(near_is_match):
    """(x, y): near and far pairs that m alone separates."""
    rng = np.random.default_rng(0)
    m, d, y = [], [], []
    for _ in range(200):
        near = float(rng.uniform(0.2, 2.0))
        far = float(rng.uniform(4.0, 30.0))
        score = float(rng.uniform(0.5, 1.0))
        m += [near, far]
        d += [score, score]
        y += [int(near_is_match), int(not near_is_match)]
    return mot.feature_rows(m, np.zeros(len(m)), d), np.array(y)


class TestFitLogistic:
    @pytest.fixture(scope="class")
    def fit_sets(self):
        """name -> (x, y): the harvest of a noisy scene with the cosine of
        an embedding (appearance) and at 0 (motion+score), and the separable
        sets."""
        x, y = mot.harvest_features(_scene(), KCFG, ACFG, net=NET)
        return {
            "appearance": (x, y),
            "motion+score": (mot.without_appearance(x), y),
            "separable-near": _separable(True),
            "separable-far": _separable(False),
        }

    @pytest.mark.parametrize("name", ["appearance", "motion+score",
                                      "separable-near", "separable-far"])
    def test_reaches_the_penalized_optimum(self, fit_sets, name):
        x, y = fit_sets[name]
        model = fit_logistic(x, y)
        objective, grad = penalized_fit_objective(x, y, model)
        assert np.abs(grad).max() <= 1e-8
        ref_objective, _ = penalized_fit_objective(x, y, reference_gradient_fit(x, y))
        assert objective >= ref_objective

    def test_constant_features_get_zero_weight(self, fit_sets):
        coef = dict(zip(mot.FEATURE_NAMES, fit_logistic(*fit_sets["motion+score"]).coef))
        for name, c in coef.items():
            if name in ("a", "log_a"):
                assert c == 0.0 and math.copysign(1.0, c) == 1.0
            else:
                assert c != 0.0

    def test_deterministic(self, fit_sets):
        a = fit_logistic(*fit_sets["appearance"])
        b = fit_logistic(*fit_sets["appearance"])
        assert a.coef.tobytes() == b.coef.tobytes()
        assert a.intercept.hex() == b.intercept.hex()

    def test_step_cap_raises(self, fit_sets, monkeypatch):
        monkeypatch.setattr(mot, "FIT_MAX_STEPS", 2)
        with pytest.raises(kalman.NumericalError, match="2 Newton steps") as exc:
            fit_logistic(*fit_sets["appearance"])
        assert "gradient norm" in str(exc.value) and "\n" not in str(exc.value)

    def test_calls_no_lapack(self, fit_sets, monkeypatch):
        want = fit_logistic(*fit_sets["appearance"])

        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK routine was called")

        for name in ("solve", "cholesky", "inv", "lstsq", "eigh", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        got = fit_logistic(*fit_sets["appearance"])
        assert got.coef.tobytes() == want.coef.tobytes()

    def test_solve_pd_backward_error(self):
        # the largest residual measured over 20,000 random systems of 1 to 7
        # rows, eigenvalues 1e-4 to 1e4, was 6.1e-16 of |a| |x| + |b|
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = (q * 10.0 ** rng.uniform(-4, 4, size=n)) @ q.T
            a = (a + a.T) / 2
            b = rng.normal(size=n)
            x = mot._solve_pd(a, b)
            scale = np.abs(a).max() * np.abs(x).max() + np.abs(b).max()
            assert np.abs(a @ x - b).max() <= 1e-15 * scale

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_solve_pd_refuses_a_bad_pivot(self, bad):
        a = np.eye(3)
        a[2, 2] = bad
        with pytest.raises(kalman.NumericalError, match=r"not positive definite \(pivot 2: "):
            mot._solve_pd(a, np.ones(3))

    def test_bad_input(self):
        with pytest.raises(ValueError, match="no training examples"):
            fit_logistic(np.zeros((0, 6)), np.zeros(0))
        x, y = _separable(True)
        with pytest.raises(ValueError, match="both positive and negative"):
            fit_logistic(x, np.ones_like(y))


class TestMotionModeEquivalence:
    """Motion mode runs the pseudo-label tracker's decisions: every
    pseudo-track is one output track over exactly its member frames."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_rows_follow_pseudo_tracks(self, seed):
        seq = _scene(seed)
        tracks = assoc.build_pseudo_tracks(seq, KCFG, ACFG)
        rows = mot.track_sequence(seq, KCFG, ACFG, "motion")
        frames_of: dict[int, list[int]] = {}
        for r in rows:
            frames_of.setdefault(r.track_id, []).append(r.frame)
        assert set(frames_of) == {lab.track_id for lab in tracks}
        assert any(len(lab.members) > 1 for lab in tracks)
        for lab in tracks:
            assert frames_of[lab.track_id] == [f for f, _ in lab.members]


class TestHarvestFeatures:
    @staticmethod
    def _oracle(seq, net):
        """Every frame's admitted (track, detection) pairs of the per-track
        reference tracker, m <= gate, with the reference's m, the embedding
        of the track's last matched detection and the detection's own crop.
        Returns (examples, number of pairs before the gate)."""
        frames = []

        def cost_fn(ids, rec, m, admitted):
            frames.append((rec, list(ids), m.copy()))
            return m

        tracks = reference_tracker(seq, KCFG, ACFG, cost_fn=cost_fn)
        det_at = {rec.index: rec.detections for rec in seq.frames}
        members = {lab.track_id: lab.members for lab in tracks}

        def emb(det):
            return embed.forward(net, embed.canonicalize(seq, [det], embed.POINTS_PER_CROP))[0]

        expected = []
        n_pairs = 0
        for rec, ids, m_frame in frames:
            for i, tid in enumerate(ids):
                f, d = [m for m in members[tid] if m[0] < rec.index][-1]
                last = det_at[f][d]
                for j, det in enumerate(rec.detections):
                    n_pairs += 1
                    m = float(m_frame[i, j])
                    if m > ACFG.gate:
                        continue
                    a = cosine(emb(last), emb(det)) if net is not None else 0.0
                    label = int(last.gt_id is not None and last.gt_id == det.gt_id)
                    expected.append((reference_features(m, a, det.score), label))
        return expected, n_pairs

    @pytest.mark.parametrize("net", [NET, None], ids=["appearance", "no-net"])
    def test_examples_equal_oracle(self, net):
        seq = _scene()
        x, y = mot.harvest_features(seq, KCFG, ACFG, net=net)
        expected, n_pairs = self._oracle(seq, net)
        want_x = np.array([row for row, _ in expected])
        assert n_pairs > len(expected) > 50  # the gate drops pairs
        assert y.dtype == np.int64 and y.tolist() == [lbl for _, lbl in expected]
        assert y.sum() > 10
        assert x.shape == want_x.shape
        # m and d are copied; a is a row-wise dot and the logs are np.log's,
        # so those may differ from the scalar cosine and math.log in the last bit
        assert x[:, [0, 2]].tobytes() == want_x[:, [0, 2]].tobytes()
        assert np.abs(x - want_x).max() <= 1e-15
        assert (x[:, 0] <= ACFG.gate).all()


def _crowded(seed):
    """A noisy 12-object scene, where the fused modes decide otherwise than
    motion."""
    scene = sim.SceneConfig(n_objects=12, n_frames=12, crossings=3)
    seq = sim.generate_sequence(scene, seed=seed)
    noise = sim.NoiseModel(missed_rate=0.1, spurious_rate=0.15)
    return sim.corrupt_detections(seq, noise, seed=(seed, 100))


class TestTrackSequence:
    @pytest.mark.parametrize("fitted", [True, False], ids=["fitted", "fixed"])
    @pytest.mark.parametrize("mode", mot.MODES)
    @pytest.mark.parametrize("seed", [6, 8])
    def test_rows_equal_per_pair_reference(self, seed, mode, fitted):
        seq = _crowded(seed)
        model = FIXED_MODEL
        if fitted:
            x, y = mot.harvest_features(seq, KCFG, ACFG, net=NET)
            model = fit_logistic(x if mode == "motion+score+appearance"
                                 else mot.without_appearance(x), y)
        got = mot.track_sequence(seq, KCFG, ACFG, mode, net=NET, model=model)
        assert got == reference_track_sequence(seq, mode, NET, model)
        assert len(got) > 100
        if mode != "motion":  # the scores decide some links
            assert got != mot.track_sequence(seq, KCFG, ACFG, "motion")


def test_tracker_and_harvest_compute_no_confidence(monkeypatch):
    """Only pseudo-tracks need link confidences: the MOT tracker and the
    feature harvest make no association_confidence call."""
    calls = []
    confidence = assoc.association_confidence

    def counted(*args):
        calls.append(args)
        return confidence(*args)

    monkeypatch.setattr(assoc, "association_confidence", counted)
    seq = _scene()
    x, _ = mot.harvest_features(seq, KCFG, ACFG, net=NET)
    for mode in mot.MODES:
        mot.track_sequence(seq, KCFG, ACFG, mode, net=NET, model=FIXED_MODEL)
    assert len(x) > 50 and calls == []
    tracks = assoc.build_pseudo_tracks(seq, KCFG, ACFG)
    assert len(calls) == sum(len(lab.link_conf) for lab in tracks) > 20


# ---------------------------------------------------------------------------
# one admission rule: the Mahalanobis gate, in every mode


def _box_seq(frames):
    """A sequence from per-frame lists of (x, y, gt_id); every box is a
    4 x 2 x 1.5 car at yaw 0 with score 0.9."""
    recs = [FrameRecord(index=f, detections=tuple(
        Detection(frame=f, box=Box7(x, y, 0.0, 0.0, 4.0, 2.0, 1.5), score=0.9,
                  cloud_ref="c", gt_id=g)
        for x, y, g in dets)) for f, dets in enumerate(frames)]
    return Sequence(frames=tuple(recs), clouds={"c": PointCloud(np.zeros((1, 3)))})


def _cosine_model(a_coef, intercept):
    """A model whose score depends on the appearance cosine a alone."""
    coef = np.zeros(6)
    coef[mot.FEATURE_NAMES.index("a")] = a_coef
    return LogisticModel(coef=coef, intercept=intercept)


def _gt_tracks(seq, rows):
    """gt_id -> the track ids of the rows at its detections. A row is put at
    the detection of its frame nearest its (posterior) box centre."""
    det_at = {rec.index: rec.detections for rec in seq.frames}
    out: dict[int, list[int]] = {}
    for r in rows:
        det = min(det_at[r.frame], key=lambda d: math.dist(
            (d.box.x, d.box.y), (r.box.x, r.box.y)))
        out.setdefault(det.gt_id, []).append(r.track_id)
    return out


class TestAdmission:
    def _walk(self, step):
        """One object that moves 1 m along x per frame for six frames, then
        `step` metres in the seventh."""
        return [[(k * 1.0, 0.0, 0)] for k in range(6)] + [[(5.0 + step, 0.0, 0)]]

    def _m_last(self, seq):
        """m of the last detection against the filter run over the others."""
        boxes = [rec.detections[0].box.to_array()[None] for rec in seq.frames]
        mean, cov = kalman.init_tracks(boxes[0], KCFG)
        for box in boxes[1:-1]:
            mean, cov = kalman.update(*kalman.predict(mean, cov, FRAME_PERIOD, KCFG), box, KCFG)
        mean, cov = kalman.predict(mean, cov, FRAME_PERIOD, KCFG)
        return float(kalman.mahalanobis(mean, cov, boxes[-1], KCFG)[0, 0])

    @pytest.mark.parametrize("mode", ["motion+score", "motion+score+appearance"])
    def test_fused_links_an_admitted_pair_whatever_its_score(self, mode):
        seq = _box_seq(self._walk(1.0))
        assert self._m_last(seq) <= ACFG.gate
        model = _cosine_model(0.0, -3.0)  # A = 0.047 for every pair
        rows = mot.track_sequence(seq, KCFG, ACFG, mode, net=NET, model=model)
        assert [r.track_id for r in rows] == [0] * 7

    @pytest.mark.parametrize("mode", ["motion+score", "motion+score+appearance"])
    def test_fused_never_links_past_the_gate(self, mode):
        seq = _box_seq(self._walk(40.0))
        assert self._m_last(seq) > ACFG.gate
        model = _cosine_model(0.0, 30.0)  # A = 1 - 1e-13 for every pair
        rows = mot.track_sequence(seq, KCFG, ACFG, mode, net=NET, model=model)
        assert [r.track_id for r in rows] == [0] * 6 + [1]


class TestBounce:
    """Two cars approach head on in adjacent lanes, stop short of each other
    and back away. The filter predicts that each drives on into the other's
    lane, so motion alone swaps their identities; an embedding that tells
    the two cars apart keeps them."""

    K = 8  # the frame at which both reverse

    def _seq(self):
        xs = [-0.5 - abs(self.K - k) for k in range(2 * self.K + 1)]
        return _box_seq([[(x, 0.6, 0), (-x, -0.6, 1)] for x in xs])

    def test_motion_switches_and_appearance_does_not(self, monkeypatch):
        seq = self._seq()
        motion = _gt_tracks(seq, mot.track_sequence(seq, KCFG, ACFG, "motion"))
        assert any(len(set(ids)) > 1 for ids in motion.values())

        # embeddings one-hot by ground-truth identity: each crop is one row
        # that holds its detection's gt_id, however the frames are cropped
        monkeypatch.setattr(embed, "canonicalize", lambda seq, dets, n: embed.CanonicalCloud(
            np.array([(d.gt_id, 0.0, 0.0) for d in dets]), np.arange(len(dets) + 1)))
        monkeypatch.setattr(embed, "forward", lambda net, crops: np.eye(2)[
            crops.points[crops.bounds[:-1], 0].astype(int)])
        # A = 0.38 for the same car and 0.011 for the other: a true
        # continuation scores below one half, yet it is admitted and wins
        model = _cosine_model(4.0, -4.5)
        rows = mot.track_sequence(seq, KCFG, ACFG, "motion+score+appearance",
                                  net=NET, model=model)
        fused = _gt_tracks(seq, rows)
        assert fused == {0: [0] * 17, 1: [1] * 17}
