import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uatrack import assoc, embed, kalman, mot, sim
from uatrack.assoc import (
    AssocConfig,
    association_confidence,
    build_pseudo_tracks,
    greedy_associate,
    read_pseudo_tracks,
    write_pseudo_tracks,
)
from uatrack.config import RunConfig
from uatrack.core import (
    FRAME_PERIOD,
    Box7,
    Detection,
    FrameRecord,
    PointCloud,
    Sequence,
    TrackletLabel,
    wrap_angle,
)


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

    @pytest.mark.parametrize("gate", [math.nan, math.inf])
    def test_non_finite_gate_rejected(self, gate):
        """A NaN gate admits no pair, so every detection would start a new
        track in every frame; an infinite one admits every pair."""
        with pytest.raises(ValueError, match=f"gate must be finite and > 0, got {gate}"):
            greedy_associate([[1.0]], gate)
        with pytest.raises(ValueError, match=f"gate must be finite and > 0, got {gate}"):
            AssocConfig(gate=gate)

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


def previous_greedy_associate(m, gate, cost=None):
    """greedy_associate as it was before it sorted the admitted costs once:
    a whole-matrix argmin per selected pair. Its pairs, in their order, are
    the reference."""
    m = assoc._check_matrix(m)
    cost = m if cost is None else assoc._check_matrix(cost)
    rows, cols = m.shape
    pairs = []
    if rows and cols:
        work = np.where(m <= gate, cost, np.inf)
        for _ in range(min(rows, cols)):
            flat = int(np.argmin(work))  # first minimum in row-major order
            i, j = divmod(flat, cols)
            if work[i, j] == np.inf:
                break
            pairs.append((i, j))
            work[i, :] = np.inf
            work[:, j] = np.inf
    used = {j for _, j in pairs}
    return pairs, [j for j in range(cols) if j not in used]


@st.composite
def greedy_cases(draw):
    """(m, gate, cost): entries drawn often from a few values, +0.0 and
    -0.0 among them, so that ties are common; some rows lie wholly past
    the gate."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0]), st.floats(0.0, 20.0))

    def matrix():
        vals = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return np.array(vals, dtype=np.float64).reshape(rows, cols)

    m, gate = matrix(), draw(st.sampled_from([1.0, 2.0, 5.0, 13.0]))
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=3)) if rows else ():
        m[i] = gate + 1.0
    return m, gate, draw(st.one_of(st.none(), st.builds(lambda: matrix())))


class TestGreedyPrevious:
    @given(greedy_cases())
    @settings(max_examples=400, deadline=None)
    @example((np.array([[0.0, -0.0], [-0.0, 0.0]]), 1.0, None))
    @example((np.array([[1.0, 1.0], [1.0, 1.0]]), 2.0, np.array([[-0.0, 0.0], [0.0, -0.0]])))
    @example((np.array([[3.0, 3.0], [1.0, 1.0]]), 2.0, None))
    def test_equals_previous_loop(self, case):
        m, gate, cost = case
        got = greedy_associate(m, gate, cost)
        pairs, unmatched = previous_greedy_associate(m, gate, cost)
        assert [(p.track, p.det) for p in got.pairs] == pairs
        assert list(got.unmatched_detections) == unmatched


class TestAssociationConfidence:
    def test_hand_computed_value(self):
        # oracle: 1 - exp(-2.0 / 1.0001)
        m = np.array([
            [1.0, 2.0, 7.0],
            [3.0, 9.0, 9.0],
            [5.0, 9.0, 9.0],
        ])
        expected = 1.0 - math.exp(-2.0 / 1.0001)
        assert association_confidence(m, 0, 0) == pytest.approx(expected, abs=1e-9)

    def test_perfect_match_limit(self):
        m = np.array([[0.0, 3.0], [2.0, 5.0]])
        ac = association_confidence(m, 0, 0)
        assert ac == pytest.approx(1.0, abs=1e-6)

    def test_ratio_one_value(self):
        # competitor equals the match: AC = 1 - exp(-1 / 1.0001), just under
        # 1 - 1/e
        m = np.array([[1.0, 1.0]])
        ac = association_confidence(m, 0, 0)
        assert ac == pytest.approx(1.0 - math.exp(-1.0 / 1.0001), abs=1e-9)
        assert ac < 1.0 - math.exp(-1.0)

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
            ac_a = association_confidence(m, i, j)
            ac_b = association_confidence(c * m, i, j)
            assert ac_b == pytest.approx(ac_a, abs=1e-3)


def reference_association_confidence(m, i, j, eps=1e-4):
    """The AC formula as first written, an independent oracle: validate the
    whole matrix, then take each competitor set's min over an np.delete
    copy."""
    m = assoc._check_matrix(m)
    rows, cols = m.shape
    denom = m[i, j] + eps
    ratios = []
    if cols > 1:
        ratios.append(np.delete(m[i, :], j).min() / denom)
    if rows > 1:
        ratios.append(np.delete(m[:, j], i).min() / denom)
    if not ratios:
        return 1.0
    return float(1.0 - math.exp(-min(ratios)))


@st.composite
def ac_cases(draw):
    """(m, i, j): entries drawn often from a few values, so that ties
    between the match and its competitors, and zeros, are common."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 20.0))
    m = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    return m.reshape(rows, cols), draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))


class TestAssociationConfidenceReference:
    @given(ac_cases())
    @settings(max_examples=300, deadline=None)
    @example((np.array([[4.2]]), 0, 0))
    @example((np.array([[0.0]]), 0, 0))
    @example((np.array([[2.0, 0.0, 2.0, 7.0]]), 0, 2))  # 1 x n, zero competitor
    @example((np.array([[3.0], [3.0], [9.0]]), 1, 0))  # n x 1, tied competitor
    @example((np.array([[1.0, 1.0], [1.0, 1.0]]), 1, 1))  # all tied
    @example((np.zeros((3, 3)), 0, 2))
    def test_equals_reference_bit_for_bit(self, case):
        m, i, j = case
        got = association_confidence(m, i, j)
        want = reference_association_confidence(m, i, j)
        assert type(got) is float
        assert got.hex() == want.hex()


def pair_oracle(states, detections):
    """The per-pair form, in Python floats: sqrt(sum_i r_i^2 / S_i) for
    every (track, detection), summed in component order."""
    m = np.zeros((len(states), len(detections)))
    for i, (mean, cov) in enumerate(states):
        s = (cov[0, :7] + kalman.R_DIAG).tolist()
        for j, det in enumerate(detections):
            r = (det.box.to_array() - mean[0, :7]).tolist()
            r[3] = wrap_angle(r[3])
            acc = 0.0
            for rc, sc in zip(r, s):
                acc += rc * rc / sc
            m[i, j] = math.sqrt(acc)
    return m


def stack(states):
    """The stacked (means, covs) of one-track states."""
    return (np.array([m[0] for m, _ in states]).reshape(-1, 11),
            np.array([c[0] for _, c in states]).reshape(-1, 15))


def box_rows(detections):
    return np.array([d.box.to_array() for d in detections]).reshape(-1, 7)


# yaws near both ends of [-pi, pi), so that residuals cross the wrap
yaws = st.one_of(
    st.floats(-math.pi, -math.pi + 0.5),
    st.floats(math.pi - 0.5, math.pi, exclude_max=True),
    st.floats(-math.pi, math.pi, exclude_max=True),
)


def _det(yaw, xyz=(1.0, 2.0, 0.5)):
    return Detection(frame=0, box=Box7(*xyz, yaw, 4.0, 2.0, 1.5), score=1.0, cloud_ref="c")


def _predicted_state(seed, yaw):
    """A predicted one-track state, (mean (1, 11), cov (1, 15)), whose
    variances and component-velocity covariances are random."""
    rng = np.random.default_rng(seed)
    cov = np.zeros((1, 15))
    cov[0, :11] = rng.uniform(0.05, 4.0, size=11)
    # |P_pv| < sqrt(P_pp P_vv) keeps each 2x2 block positive definite
    cov[0, 11:] = rng.uniform(-0.9, 0.9, size=4) * np.sqrt(cov[0, :4] * cov[0, 7:11])
    mean = rng.normal(size=(1, 11)) * 3.0
    mean[0, 3] = yaw
    mean[0, 4:7] = np.abs(mean[0, 4:7]) + 1.0
    mean[0, 10] = 0.0  # no yaw rate, so the predicted yaw is still yaw
    return kalman.predict(mean, cov, float(rng.uniform(0.05, 1.0)))


def _with_singular_row(n, bad_row):
    """n stacked tracks of which row bad_row alone has zero innovation
    variances: its box variances are -R_DIAG."""
    mean = np.zeros((n, 11))
    mean[:, 4:7] = (4, 2, 1.5)
    cov = np.ones((n, 15))
    cov[:, 11:] = 0.0
    cov[bad_row] = 0.0
    cov[bad_row, :7] = -kalman.R_DIAG
    return mean, cov


class TestMahalanobisMatrix:
    @given(
        tracks=st.lists(st.tuples(st.integers(0, 2**32 - 1), yaws), max_size=4),
        dets=st.lists(st.tuples(yaws, st.tuples(*[st.floats(-20, 20)] * 3)), max_size=6),
    )
    @example(tracks=[(1, math.pi - 0.05)], dets=[(-math.pi + 0.05, (1.0, 2.0, 0.5))])
    @settings(max_examples=200, deadline=None)
    def test_equals_pair_oracle_bit_for_bit(self, tracks, dets):
        states = [_predicted_state(seed, yaw) for seed, yaw in tracks]
        detections = [_det(yaw, xyz) for yaw, xyz in dets]
        got = assoc.mahalanobis_matrix(*stack(states), box_rows(detections))
        expected = pair_oracle(states, detections)
        assert got.shape == (len(states), len(detections))
        assert np.array_equal(got, expected)

    def test_singular_s_raises_numerical_error(self):
        mean, cov = _with_singular_row(3, 2)
        with pytest.raises(kalman.NumericalError, match=r"track row 2 is not finite and > 0"):
            assoc.mahalanobis_matrix(mean, cov, box_rows([_det(0.0)]))

    def test_nan_state_yaw_raises_value_error(self):
        mean, cov = kalman.init_tracks(box_rows([_det(0.0), _det(1.0)]))
        mean[1, 3] = math.nan
        with pytest.raises(ValueError, match="finite"):
            assoc.mahalanobis_matrix(mean, cov, box_rows([_det(0.0), _det(1.0)]))

    def test_no_matrix_factored(self, monkeypatch):
        mean, cov = stack([_predicted_state(seed, 0.3 * seed) for seed in range(4)])
        dets = box_rows([_det(0.5 * k - 1.0, (k, -k, 0.0)) for k in range(6)])

        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was factored or solved")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert assoc.mahalanobis_matrix(mean, cov, dets).shape == (4, 6)
        # a frame without detections, or without tracks, scores nothing
        assert assoc.mahalanobis_matrix(mean, cov, dets[:0]).shape == (4, 0)
        assert assoc.mahalanobis_matrix(mean[:0], cov[:0], dets).shape == (0, 6)


@dataclass
class _Live:
    track_id: int
    mean: np.ndarray  # (1, 11)
    cov: np.ndarray  # (1, 15)
    misses: int
    members: list
    link_conf: list


def reference_tracker(seq, acfg, cost_fn=None, on_match=None, collect_confidence=True):
    """The per-track loop that the stacked run_tracker replaced: each live
    track filtered on its own, as a stack of one, predicted, scored,
    updated and marked missed one at a time. Its hooks get what
    run_tracker's get."""
    live: list[_Live] = []
    order: dict[int, _Live] = {}
    next_id = 0
    prev_index = None

    for rec in seq.frames:
        if prev_index is not None and live:
            dt = (rec.index - prev_index) * FRAME_PERIOD
            for tr in live:
                tr.mean, tr.cov = kalman.predict(tr.mean, tr.cov, dt)
        prev_index = rec.index

        dets = box_rows(rec.detections)
        m = np.zeros((len(live), len(rec.detections)))
        if rec.detections:
            for i, tr in enumerate(live):
                m[i] = kalman.mahalanobis(tr.mean, tr.cov, dets)[0]
        ids = np.array([tr.track_id for tr in live], dtype=np.int64)
        cost = None if cost_fn is None else cost_fn(ids, rec, m, m <= acfg.gate)
        res = assoc.greedy_associate(m, acfg.gate, cost)

        for pair in res.pairs:
            tr = live[pair.track]
            if collect_confidence:
                tr.link_conf.append(assoc.association_confidence(m, pair.track, pair.det))
            tr.mean, tr.cov = kalman.update(tr.mean, tr.cov, dets[pair.det][None])
            tr.misses = 0
            tr.members.append((rec.index, pair.det))
            if on_match is not None:
                on_match(tr.track_id, pair.det, Box7(*tr.mean[0, :7].tolist()))

        survivors = []
        matched = {p.track for p in res.pairs}
        for idx, tr in enumerate(live):
            if idx not in matched:
                tr.misses += 1
                if tr.misses >= assoc.MAX_AGE:
                    continue
            survivors.append(tr)
        for j in res.unmatched_detections:
            mean, cov = kalman.init_tracks(dets[j])
            tr = _Live(track_id=next_id, mean=mean, cov=cov, misses=0,
                       members=[(rec.index, j)], link_conf=[])
            order[next_id] = tr
            survivors.append(tr)
            if on_match is not None:
                on_match(next_id, j, rec.detections[j].box)
            next_id += 1
        live = survivors

    if not collect_confidence:
        return None
    return [TrackletLabel(tid, tuple(order[tid].members), tuple(order[tid].link_conf))
            for tid in sorted(order)]


def _sim_scene(n_objects, crossings, seed):
    """A scene of the pipeline's default shape and detector noise, with the
    object and crossing counts given."""
    s = replace(RunConfig().sim, objects=n_objects, crossings=crossings)
    seq = sim.generate_sequence(s.scene("train"), seed=seed)
    return sim.corrupt_detections(seq, s.noise(), seed=(seed, 100))


SCENES = {
    "default": lambda: _sim_scene(RunConfig().sim.objects, RunConfig().sim.crossings, 4),
    "12-objects-3-crossings": lambda: _sim_scene(12, 3, 8),
}
ACFG = AssocConfig()


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


class TestRunTracker:
    """The stacked loop against the per-track reference, bit for bit."""

    @staticmethod
    def _traced(tracker, seq):
        """The tracker's run on seq, and every hook call it made, with each
        float array reduced to its bytes."""
        calls = []

        def cost_fn(ids, rec, m, admitted):
            calls.append(("cost", rec.index, [int(i) for i in ids], _bits(m), admitted.tobytes()))
            return m

        def on_match(track_id, det_idx, box):
            calls.append(("match", track_id, det_idx, _bits(box.to_array())))

        return tracker(seq, ACFG, cost_fn=cost_fn, on_match=on_match), calls

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_equals_per_track_reference(self, scene):
        seq = SCENES[scene]()
        got, got_calls = self._traced(assoc.run_tracker, seq)
        want, want_calls = self._traced(reference_tracker, seq)
        assert got == want
        assert got_calls == want_calls
        # the scene exercises misses, deaths and competing tracks
        assert len(got) > 2 * len({d.gt_id for r in seq.frames for d in r.detections})
        assert sum(c[0] == "match" for c in got_calls) > 100
        assert any(0.0 < ac < 0.5 for lab in got for ac in lab.link_conf)

    @pytest.mark.parametrize("mode", mot.MODES)
    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_track_sequence_rows_equal_per_track_reference(self, scene, mode, monkeypatch):
        seq = SCENES[scene]()
        net = embed.EmbedNet.random((3, 8, 8), seed=1)
        model = mot.LogisticModel(coef=np.array([-0.4, 1.5, 2.0, -0.3, 0.6, 0.4]), intercept=0.5)
        kw = dict(net=net, model=model)
        got = mot.track_sequence(seq, ACFG, mode, **kw)
        monkeypatch.setattr(mot, "run_tracker", reference_tracker)
        want = mot.track_sequence(seq, ACFG, mode, **kw)
        assert len(got) > 100
        assert [(r.frame, r.track_id, _bits(r.box.to_array()), r.score) for r in got] == \
            [(r.frame, r.track_id, _bits(r.box.to_array()), r.score) for r in want]

    @staticmethod
    def _static_seq(present, max_frame):
        """One parked car, detected at the frames in `present` only."""
        recs = [FrameRecord(index=f, detections=(
            Detection(frame=f, box=Box7(0.0, 0.0, 0.0, 0.0, 4.0, 2.0, 1.5), score=0.9,
                      cloud_ref="c", gt_id=0),) if f in present else ())
                for f in range(max_frame + 1)]
        return Sequence(frames=tuple(recs), clouds={"c": PointCloud(np.zeros((1, 3)))})

    def _members(self, present):
        seq = self._static_seq(present, max(present))
        return [list(lab.members) for lab in assoc.run_tracker(seq, ACFG)]

    def test_newborn_track_survives_max_age_minus_one_misses(self):
        gap = assoc.MAX_AGE - 1
        assert self._members({0, gap + 1}) == [[(0, 0), (gap + 1, 0)]]

    def test_matched_track_dies_after_max_age_misses(self):
        a = assoc.MAX_AGE
        # a match resets the count: max_age - 1 misses twice over keep one track
        assert self._members({0, 1, a + 1, 2 * a + 1}) == [
            [(0, 0), (1, 0), (a + 1, 0), (2 * a + 1, 0)]]
        # max_age misses in a row end it, and the car's return is a newborn
        assert self._members({0, 1, a + 2}) == [[(0, 0), (1, 0)], [(a + 2, 0)]]


class TestGtTracks:
    def test_hand_scene(self):
        """One track per gt_id in gt_id order, whatever order the ids first
        appear in; detections without a gt_id belong to none."""
        gt_ids = [[5, None, 2], [2, 5], [], [None, 5]]
        seq = Sequence(frames=tuple(FrameRecord(index=f, detections=tuple(
            Detection(frame=f, box=Box7(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0), score=1.0,
                      cloud_ref="c", gt_id=g) for g in ids)) for f, ids in enumerate(gt_ids)),
            clouds={"c": PointCloud(np.zeros((1, 3)))})
        assert assoc.gt_tracks(seq) == [
            TrackletLabel(2, ((0, 2), (1, 0)), (1.0,)),
            TrackletLabel(5, ((0, 0), (1, 1), (3, 1)), (1.0, 1.0)),
        ]
        assert assoc.gt_tracks(replace(seq, frames=())) == []


class TestBuildPseudoTracks:
    def _single_object_seq(self, frames=10):
        scene = sim.SceneConfig(n_objects=1, n_frames=frames)
        return sim.generate_sequence(scene, seed=3)

    def test_single_object_noise_free(self):
        seq = self._single_object_seq(10)
        tracks = build_pseudo_tracks(seq, AssocConfig())
        assert len(tracks) == 1
        assert len(tracks[0].members) == 10
        assert all(abs(ac - 1.0) < 1e-6 for ac in tracks[0].link_conf)

    def test_two_separated_objects_pure(self):
        # two parallel straight movers 10 m apart
        scene = sim.SceneConfig(n_objects=2, n_frames=15)
        seq = sim.generate_sequence(scene, seed=11)
        tracks = build_pseudo_tracks(seq, AssocConfig())
        assert len(tracks) == 2
        rec_by = {r.index: r for r in seq.frames}
        for lab in tracks:
            gts = {rec_by[f].detections[d].gt_id for f, d in lab.members}
            assert len(gts) == 1  # 100% purity
            assert len(lab.members) == 15

    def test_crossing_confidence_dips(self):
        scene = sim.SceneConfig(n_objects=2, n_frames=25, crossings=1)
        seq = sim.generate_sequence(scene, seed=2)
        noisy = sim.perturb_boxes(seq, sim.NoiseModel(), seed=7)
        tracks = build_pseudo_tracks(noisy, AssocConfig())
        # locate the crossing window from ground truth geometry
        rec_by = {r.index: r for r in seq.frames}
        dists = []
        for f in sorted(rec_by):
            d0, d1 = rec_by[f].detections[0], rec_by[f].detections[1]
            dists.append(math.hypot(d0.box.x - d1.box.x, d0.box.y - d1.box.y))
        cross_frame = int(np.argmin(dists))
        window = set(range(cross_frame - 2, cross_frame + 3))
        inside, outside = [], []
        for lab in tracks:
            for k in range(len(lab.members) - 1):
                f_next = lab.members[k + 1][0]
                (inside if f_next in window else outside).append(lab.link_conf[k])
        assert inside and outside
        assert np.mean(inside) < np.mean(outside)

    def test_file_round_trip(self, tmp_path):
        seq = self._single_object_seq(8)
        tracks = build_pseudo_tracks(seq, AssocConfig())
        write_pseudo_tracks(tmp_path / "p.jsonl", tracks)
        assert read_pseudo_tracks(tmp_path / "p.jsonl", seq) == tracks
