import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uatrack import assoc, kalman, sim
from uatrack.assoc import (
    AssocConfig,
    association_confidence,
    build_pseudo_tracks,
    cumulative_confidence,
    greedy_associate,
    read_pseudo_tracks,
    write_pseudo_tracks,
)
from uatrack.core import Box7, Detection


def brute_force_greedy(m, gate, rows=None, cols=None, cost=None):
    """Independent re-implementation: explicit select-min/delete loop over
    the entries with m <= gate, cheapest cost first (cost defaults to m),
    with (row, col) tie-breaking, used as the oracle."""
    m = [list(row) for row in m]
    cost = m if cost is None else [list(row) for row in cost]
    if rows is None:
        rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    alive_r = set(range(rows))
    alive_c = set(range(cols))
    pairs = []
    while alive_r and alive_c:
        best = None
        for i in sorted(alive_r):
            for j in sorted(alive_c):
                if m[i][j] <= gate and (best is None or cost[i][j] < best[0]):
                    best = (cost[i][j], i, j)
        if best is None:
            break
        pairs.append((best[1], best[2]))
        alive_r.remove(best[1])
        alive_c.remove(best[2])
    return pairs, sorted(alive_c)


class TestGreedy:
    def test_two_by_two_selection_order(self):
        res = greedy_associate([[1.0, 5.0], [2.0, 0.5]], gate=10.0)
        assert [(p.track, p.det) for p in res.pairs] == [(1, 1), (0, 0)]
        assert res.unmatched_detections == ()

    def test_gate_blocks_suboptimal_pair(self):
        # greedy picks (0,0)=1 and then (1,1)=100 > gate; the globally optimal
        # assignment (0,1)+(1,0)=3.5 is intentionally not found
        res = greedy_associate([[1.0, 2.0], [1.5, 100.0]], gate=10.0)
        assert [(p.track, p.det) for p in res.pairs] == [(0, 0)]
        assert res.unmatched_detections == (1,)

    def test_empty_matrix(self):
        res = greedy_associate(np.zeros((0, 0)), gate=1.0)
        assert res.pairs == () and res.unmatched_detections == ()

    def test_rectangular_unmatched(self):
        res = greedy_associate(np.zeros((0, 3)), gate=1.0)
        assert res.unmatched_detections == (0, 1, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            greedy_associate([[1.0, -0.5]], gate=1.0)
        with pytest.raises(ValueError):
            greedy_associate([[np.inf]], gate=1.0)
        with pytest.raises(ValueError):
            greedy_associate([[1.0]], gate=0.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(300):
            rows = int(rng.integers(0, 7))
            cols = int(rng.integers(0, 7))
            m = rng.uniform(0, 10, size=(rows, cols))
            if rng.random() < 0.3 and m.size:
                # inject ties
                m = np.round(m, 0)
            gate = float(rng.uniform(0.5, 12.0))
            cost = rng.uniform(0, 1, size=(rows, cols))
            if rng.random() < 0.3 and cost.size:
                cost = np.round(cost, 1)
            for c in (None, cost):
                got = greedy_associate(m, gate, c)
                pairs, uc = brute_force_greedy(
                    m.tolist(), gate, rows=rows, cols=cols,
                    cost=None if c is None else c.tolist())
                assert [(p.track, p.det) for p in got.pairs] == pairs
                assert list(got.unmatched_detections) == uc

    def test_cost_ranks_but_never_admits(self):
        # (0, 1) is the cheapest pair but m = 20 is past the gate
        m = [[1.0, 20.0], [2.0, 3.0]]
        res = greedy_associate(m, gate=10.0, cost=[[0.5, 0.0], [0.1, 0.9]])
        assert [(p.track, p.det) for p in res.pairs] == [(1, 0)]
        assert res.unmatched_detections == (1,)

    def test_cost_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            greedy_associate([[1.0, 2.0]], gate=5.0, cost=[[1.0]])


class TestAssociationConfidence:
    def test_hand_computed_value(self):
        # oracle: 1 - exp(-2.0 / 1.0001)
        m = np.array([
            [1.0, 2.0, 7.0],
            [3.0, 9.0, 9.0],
            [5.0, 9.0, 9.0],
        ])
        expected = 1.0 - math.exp(-2.0 / 1.0001)
        assert association_confidence(m, 0, 0, eps=1e-4) == pytest.approx(expected, abs=1e-9)

    def test_perfect_match_limit(self):
        m = np.array([[0.0, 3.0], [2.0, 5.0]])
        ac = association_confidence(m, 0, 0, eps=1e-4)
        assert ac == pytest.approx(1.0, abs=1e-6)

    def test_ratio_one_value(self):
        # competitor equals the match: AC -> 1 - e^-1 (eps ignored)
        m = np.array([[1.0, 1.0]])
        expected = 1.0 - math.exp(-1.0)
        assert association_confidence(m, 0, 0, eps=1e-12) == pytest.approx(expected, abs=1e-6)
        assert association_confidence(m, 0, 0, eps=1e-12) == pytest.approx(
            0.6321205588285577, abs=1e-6)

    def test_single_cell_is_certain(self):
        assert association_confidence(np.array([[4.2]]), 0, 0) == 1.0

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            association_confidence(np.array([[1.0]]), 0, 1)
        with pytest.raises(ValueError):
            association_confidence(np.array([[1.0]]), -1, 0)

    def test_strictly_decreasing_in_match_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.uniform(0.5, 10, size=(4, 4))
            i, j = int(rng.integers(4)), int(rng.integers(4))
            ac1 = association_confidence(m, i, j)
            m2 = m.copy()
            m2[i, j] += rng.uniform(0.1, 2.0)
            ac2 = association_confidence(m2, i, j)
            assert ac2 < ac1

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = rng.uniform(0.1, 10, size=(3, 5))
            c = float(rng.uniform(0.2, 8.0))
            gate = 4.0
            a = greedy_associate(m, gate)
            b = greedy_associate(c * m, c * gate)
            assert [(p.track, p.det) for p in a.pairs] == [(p.track, p.det) for p in b.pairs]
            i, j = a.pairs[0].track, a.pairs[0].det
            # exact with eps=0 equivalent: pass a vanishing eps
            ac_a = association_confidence(m, i, j, eps=1e-300)
            ac_b = association_confidence(c * m, i, j, eps=1e-300)
            assert ac_b == pytest.approx(ac_a, abs=1e-12)
            ac_a4 = association_confidence(m, i, j, eps=1e-4)
            ac_b4 = association_confidence(c * m, i, j, eps=1e-4)
            assert ac_b4 == pytest.approx(ac_a4, abs=1e-3)


class TestCumulativeConfidence:
    def test_product(self):
        assert cumulative_confidence([0.9, 0.8]) == pytest.approx(0.72, abs=1e-12)

    def test_ones(self):
        assert cumulative_confidence([1.0, 1.0, 1.0]) == 1.0

    def test_single(self):
        assert cumulative_confidence([0.5]) == 0.5

    def test_empty_chain_certain(self):
        assert cumulative_confidence([]) == 1.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            cumulative_confidence([0.5, 1.2])
        with pytest.raises(ValueError):
            cumulative_confidence([-0.1])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_prefix_monotone(self, vals):
        full = cumulative_confidence(vals)
        for k in range(len(vals) + 1):
            assert cumulative_confidence(vals[:k]) >= full - 1e-12


def pair_oracle(states, detections, kcfg):
    """The per-pair form: factor S and solve once for every (track, detection)."""
    m = np.zeros((len(states), len(detections)))
    for i, s in enumerate(states):
        for j, det in enumerate(detections):
            r, S = kalman.innovation(s, det.box, kcfg)
            y = np.linalg.solve(np.linalg.cholesky(S), r)
            m[i, j] = math.sqrt(float(y @ y))
    return m


# yaws near both ends of [-pi, pi), so that residuals cross the wrap
yaws = st.one_of(
    st.floats(-math.pi, -math.pi + 0.5),
    st.floats(math.pi - 0.5, math.pi, exclude_max=True),
    st.floats(-math.pi, math.pi, exclude_max=True),
)


def _det(yaw, xyz=(1.0, 2.0, 0.5)):
    return Detection(frame=0, box=Box7(*xyz, yaw, 4.0, 2.0, 1.5), score=1.0, cloud_ref="c")


def _predicted_state(seed, yaw, kcfg):
    """A predicted state whose covariance is a random SPD matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(11, 11)) * rng.uniform(0.05, 2.0)
    cov = a @ a.T + rng.uniform(1e-3, 1.0) * np.eye(11)
    mean = rng.normal(size=11) * 3.0
    mean[3] = yaw
    mean[4:7] = np.abs(mean[4:7]) + 1.0
    mean[10] = 0.0  # no yaw rate, so the predicted yaw is still yaw
    s = kalman.TrackState(mean=mean, cov=0.5 * (cov + cov.T), track_id=0)
    return kalman.predict(s, float(rng.uniform(0.05, 1.0)), kcfg)


class TestMahalanobisMatrix:
    @given(
        tracks=st.lists(st.tuples(st.integers(0, 2**32 - 1), yaws), max_size=4),
        dets=st.lists(st.tuples(yaws, st.tuples(*[st.floats(-20, 20)] * 3)), max_size=6),
        r_diag=st.lists(st.floats(1e-3, 2.0), min_size=7, max_size=7),
    )
    @example(tracks=[(1, math.pi - 0.05)], dets=[(-math.pi + 0.05, (1.0, 2.0, 0.5))],
             r_diag=[0.1] * 7)
    @settings(max_examples=200, deadline=None)
    def test_equals_pair_oracle_bit_for_bit(self, tracks, dets, r_diag):
        kcfg = kalman.NoiseConfig(r_diag=np.array(r_diag))
        states = [_predicted_state(seed, yaw, kcfg) for seed, yaw in tracks]
        detections = [_det(yaw, xyz) for yaw, xyz in dets]
        got = assoc.mahalanobis_matrix(states, detections, kcfg)
        expected = pair_oracle(states, detections, kcfg)
        assert got.shape == (len(states), len(detections))
        assert np.array_equal(got, expected)

    def _state(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        return kalman.TrackState(mean=mean, cov=np.eye(11), track_id=0)

    def test_singular_s_raises_numerical_error(self):
        s = self._state()
        bad = kalman.NoiseConfig()
        # bypass frozen validation to force a singular S
        object.__setattr__(bad, "r_diag", np.zeros(7))
        object.__setattr__(s, "cov", np.zeros((11, 11)))
        with pytest.raises(kalman.NumericalError, match="cond="):
            assoc.mahalanobis_matrix([s], [_det(0.0)], bad)

    def test_nan_state_yaw_raises_value_error(self):
        s = self._state()
        mean = s.mean.copy()
        mean[3] = math.nan
        object.__setattr__(s, "mean", mean)
        with pytest.raises(ValueError, match="finite"):
            assoc.mahalanobis_matrix([s], [_det(0.0), _det(1.0)], kalman.NoiseConfig())

    def test_one_cholesky_per_track(self, monkeypatch):
        kcfg = kalman.NoiseConfig()
        states = [_predicted_state(seed, 0.3 * seed, kcfg) for seed in range(4)]
        dets = [_det(0.5 * k - 1.0, (k, -k, 0.0)) for k in range(6)]
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(1)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        m = assoc.mahalanobis_matrix(states, dets, kcfg)
        assert m.shape == (4, 6)
        assert len(calls) == 4


class TestBuildPseudoTracks:
    def _single_object_seq(self, frames=10):
        scene = sim.SceneConfig(n_objects=1, n_frames=frames)
        seq, _ = sim.generate_sequence(scene, seed=3)
        return seq

    def test_single_object_noise_free(self):
        seq = self._single_object_seq(10)
        labels, conf = build_pseudo_tracks(seq, kalman.NoiseConfig(), AssocConfig())
        assert len(labels) == 1
        assert len(labels[0].members) == 10
        assert all(abs(ac - 1.0) < 1e-6 for ac in conf[labels[0].track_id])

    def test_two_separated_objects_pure(self):
        # two parallel straight movers 10 m apart
        scene = sim.SceneConfig(n_objects=2, n_frames=15)
        seq, _ = sim.generate_sequence(scene, seed=11)
        labels, conf = build_pseudo_tracks(seq, kalman.NoiseConfig(), AssocConfig())
        assert len(labels) == 2
        rec_by = {r.index: r for r in seq.frames}
        for lab in labels:
            gts = {rec_by[f].detections[d].gt_id for f, d in lab.members}
            assert len(gts) == 1  # 100% purity
            assert len(lab.members) == 15

    def test_crossing_confidence_dips(self):
        scene = sim.SceneConfig(n_objects=2, n_frames=25, crossings=1)
        seq, _ = sim.generate_sequence(scene, seed=2)
        noisy = sim.perturb_boxes(seq, sim.NoiseModel(), seed=7)
        labels, conf = build_pseudo_tracks(noisy, kalman.NoiseConfig(), AssocConfig())
        # locate the crossing window from ground truth geometry
        rec_by = {r.index: r for r in seq.frames}
        dists = []
        for f in sorted(rec_by):
            d0, d1 = rec_by[f].detections[0], rec_by[f].detections[1]
            dists.append(math.hypot(d0.box.x - d1.box.x, d0.box.y - d1.box.y))
        cross_frame = int(np.argmin(dists))
        window = set(range(cross_frame - 2, cross_frame + 3))
        inside, outside = [], []
        for lab in labels:
            for k in range(len(lab.members) - 1):
                f_next = lab.members[k + 1][0]
                (inside if f_next in window else outside).append(conf[lab.track_id][k])
        assert inside and outside
        assert np.mean(inside) < np.mean(outside)

    def test_file_round_trip(self, tmp_path):
        seq = self._single_object_seq(8)
        labels, conf = build_pseudo_tracks(seq, kalman.NoiseConfig(), AssocConfig())
        write_pseudo_tracks(tmp_path / "p.jsonl", labels, conf)
        labels2, conf2 = read_pseudo_tracks(tmp_path / "p.jsonl", seq)
        assert labels2 == labels
        assert conf2 == {k: list(v) for k, v in conf.items()}
