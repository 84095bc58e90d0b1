import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_embed import cosine

from uatrack import embed, evaluation, sim
from uatrack.core import (Box7, Detection, FrameRecord, PointCloud, Sequence, TrackRow,
                          center_distance)
from uatrack.evaluation import (
    MotScore,
    SotResult,
    ThresholdStats,
    amota,
    sot_evaluate,
)

NET = embed.EmbedNet.random((3, 8, 8), seed=2)


def _scenes(noisy: bool):
    """Two clean scenes with distinct templates, each with its candidates:
    a box-perturbed copy when noisy, else None."""
    scene = sim.SceneConfig(n_objects=4, n_frames=10, crossings=1, distinct_templates=True)
    clean = [sim.generate_sequence(scene, seed=s) for s in (3, 4)]
    return [(seq, sim.perturb_boxes(seq, sim.NoiseModel(), seed=(s, 200)) if noisy else None)
            for s, seq in zip((3, 4), clean)]


def oracle_sot(net, seq, candidates) -> SotResult:
    """Per-anchor arg-max-cosine association that crops and embeds the
    anchor and every candidate afresh with `canonicalize` and `forward`."""
    cand = seq if candidates is None else candidates
    anchors = {}
    for rec in seq.frames:
        for det in rec.detections:
            if det.gt_id is not None and det.gt_id not in anchors:
                anchors[det.gt_id] = (rec.index, det)
    per_task = []
    for target, (anchor_frame, anchor) in anchors.items():
        anchor_emb = embed.forward(
            net, embed.canonicalize(cand, [anchor], embed.POINTS_PER_CROP))[0]
        t_correct = t_total = 0
        for rec in cand.frames:
            if rec.index <= anchor_frame:
                continue
            if not any(d.gt_id == target for d in rec.detections):
                continue
            best_idx, best_cos = None, -math.inf
            for idx, det in enumerate(rec.detections):
                crop = embed.canonicalize(cand, [det], embed.POINTS_PER_CROP)
                c = cosine(anchor_emb, embed.forward(net, crop)[0])
                if c > best_cos:
                    best_idx, best_cos = idx, c
            t_total += 1
            t_correct += rec.detections[best_idx].gt_id == target
        per_task.append((target, t_correct, t_total))
    return SotResult(tuple(per_task))


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "perturbed"])
class TestSotEvaluate:
    def test_equals_oracle(self, noisy):
        per_task = []
        for seq, cand in _scenes(noisy):
            got = sot_evaluate(NET, seq, cand)
            assert got == oracle_sot(NET, seq, cand)
            per_task += got.per_task
        pooled = SotResult(tuple(per_task))
        assert len(pooled.per_task) == 8 and pooled.total > 50
        assert 0 < pooled.correct < pooled.total
        assert pooled.correct == sum(c for _, c, _ in per_task)
        assert pooled.accuracy == pooled.correct / pooled.total

    def test_one_pass_per_frame(self, noisy, monkeypatch):
        """One crop-and-embed pass per scored frame of a scene, holding
        each of its detections once, then one for the scene's anchors."""
        calls = []
        forward = embed.forward

        def counting(net, cloud):
            calls.append(len(cloud.bounds) - 1)
            return forward(net, cloud)

        monkeypatch.setattr(embed, "forward", counting)
        for seq, cand in _scenes(noisy):
            calls.clear()
            sot_evaluate(NET, seq, cand)
            frames = (seq if cand is None else cand).frames
            first = {}  # gt id -> its anchor's frame
            for rec in seq.frames:
                for d in rec.detections:
                    if d.gt_id is not None:
                        first.setdefault(d.gt_id, rec.index)
            scored = {k for t, f in first.items() for k, rec in enumerate(frames)
                      if rec.index > f and any(d.gt_id == t for d in rec.detections)}
            assert calls == [len(frames[k].detections) for k in sorted(scored)] + [len(first)]


class TestSotTies:
    """Two candidates with empty crops have equal embeddings, so their
    cosines to the anchor tie and the lower index is picked."""

    @staticmethod
    def _seq(target_first):
        box = Box7(x=0.0, y=0.0, z=0.0, yaw=0.0, l=4.0, w=2.0, h=1.5)
        pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(30, 3))
        far = np.full((1, 3), 50.0)
        gts = (0, 1) if target_first else (1, 0)
        frames = (
            FrameRecord(index=0, detections=(Detection(0, box, 0.9, "anchor", gt_id=0),)),
            FrameRecord(index=1, detections=tuple(
                Detection(1, box, 0.9, f"empty{k}", gt_id=g) for k, g in enumerate(gts))),
        )
        clouds = {"anchor": PointCloud(pts), "empty0": PointCloud(far),
                  "empty1": PointCloud(far)}
        return Sequence(frames=frames, clouds=clouds)

    @pytest.mark.parametrize("biased", [True, False], ids=["embedded", "zero-norm"])
    @pytest.mark.parametrize("target_first", [True, False])
    def test_lower_index_wins(self, target_first, biased):
        net = embed.EmbedNet.random((3, 8, 8), seed=2)
        if biased:  # the origin row embeds to a nonzero vector
            rng = np.random.default_rng(1)
            net = embed.EmbedNet(weights=net.weights,
                                 biases=tuple(rng.uniform(0.1, 1.0, b.shape) for b in net.biases))
        seq = self._seq(target_first)
        empty = [embed.forward(net, embed.canonicalize(seq, [d], embed.POINTS_PER_CROP))[0]
                 for d in seq.frames[1].detections]
        assert empty[0].tobytes() == empty[1].tobytes()
        assert (np.linalg.norm(empty[0]) > 0) == biased
        got = sot_evaluate(net, seq)
        assert got.per_task[0] == (0, int(target_first), 1)
        assert got == oracle_sot(net, seq, None)


def test_sot_scene_without_targets_scores_nothing():
    seq, _ = _scenes(False)[0]
    seq = replace(seq, frames=tuple(
        replace(rec, detections=tuple(replace(d, gt_id=None) for d in rec.detections))
        for rec in seq.frames))
    got = sot_evaluate(NET, seq)
    assert got == SotResult(()) and (got.correct, got.total, got.accuracy) == (0, 0, 0.0)


# ---------------------------------------------------------------------------
# AMOTA


def _box(x=0.0, y=0.0):
    return Box7(x=x, y=y, z=0.0, yaw=0.0, l=4.0, w=2.0, h=1.5)


def _row(frame, track_id, x=0.0, y=0.0, score=1.0):
    return TrackRow(frame=frame, track_id=track_id, box=_box(x, y), score=score)


def _clear_counts(pred_rows, gt_rows, match_dist):
    """Greedy per-frame center-distance matching over every frame; returns
    (tp, fp, fn, ids)."""
    def by_frame(rows):
        out = {}
        for r in rows:
            out.setdefault(r.frame, []).append(r)
        return out

    pred_by_frame = by_frame(pred_rows)
    gt_by_frame = by_frame(gt_rows)
    last_match = {}  # gt track -> last matched pred track
    tp = fp = fn = ids = 0
    for frame in sorted(gt_by_frame.keys() | pred_by_frame.keys()):
        gts = gt_by_frame.get(frame, [])
        preds = pred_by_frame.get(frame, [])
        cand = []
        for gi, g in enumerate(gts):
            for pi, p in enumerate(preds):
                d = center_distance(g.box, p.box)
                if d <= match_dist:
                    cand.append((d, gi, pi))
        cand.sort()
        used_g, used_p = set(), set()
        for d, gi, pi in cand:
            if gi in used_g or pi in used_p:
                continue
            used_g.add(gi)
            used_p.add(pi)
            tp += 1
            gt_id = gts[gi].track_id
            pred_id = preds[pi].track_id
            if gt_id in last_match and last_match[gt_id] != pred_id:
                ids += 1
            last_match[gt_id] = pred_id
        fn += len(gts) - len(used_g)
        fp += len(preds) - len(used_p)
    return tp, fp, fn, ids


def oracle_amota(pred_rows, gt_rows, match_dist=2.0, L=40) -> MotScore:
    """AMOTA that reruns the full CLEAR matching over the kept rows at every
    distinct score cut."""
    gt_rows = list(gt_rows)
    pred_rows = sorted(pred_rows, key=lambda r: (-r.score, r.frame, r.track_id))
    gt_count = len(gt_rows)
    per_cut = []
    for cut in sorted({r.score for r in pred_rows}, reverse=True) or [0.0]:
        kept = [r for r in pred_rows if r.score >= cut]
        tp, fp, fn, ids = _clear_counts(kept, gt_rows, match_dist)
        mota = max(0.0, 1.0 - (fp + fn + ids) / gt_count)
        per_cut.append((cut, tp / gt_count, mota, fp, fn, ids))
    thresholds = []
    for k in range(1, L + 1):
        r_target = k / L
        reachable = [pc for pc in per_cut if pc[1] >= r_target]
        chosen = min(reachable, key=lambda pc: (pc[1], -pc[0])) if reachable else per_cut[-1]
        cut, recall, mota, fp, fn, ids = chosen
        thresholds.append(ThresholdStats(
            recall_target=r_target, score_cut=cut, recall=recall, mota=mota,
            fp=fp, fn=fn, ids=ids))
    return MotScore(amota=float(np.mean([t.mota for t in thresholds])),
                    thresholds=tuple(thresholds))


def _counts(score: MotScore):
    return [(t.score_cut, t.recall, t.mota, t.fp, t.fn, t.ids) for t in score.thresholds]


class TestAmota:
    def test_perfect_tracker(self):
        gt = [_row(f, t, x=10.0 * t + f) for f in range(3) for t in (1, 2)]
        preds = [_row(r.frame, r.track_id + 100, x=r.box.x) for r in gt]
        got = amota(preds, gt, L=4)
        assert got.amota == 1.0
        assert _counts(got) == [(1.0, 1.0, 1.0, 0, 0, 0)] * 4

    @pytest.mark.parametrize("resumed_by, ids", [(7, 0), (8, 1)])
    def test_id_switch_across_an_unmatched_gap_frame(self, resumed_by, ids):
        # gt 1 is matched by pred 7 in frame 0, missed in frame 1 (the pred
        # there is out of reach) and matched by `resumed_by` in frame 2
        gt = [_row(f, 1) for f in range(3)]
        preds = [_row(0, 7, score=0.9), _row(1, 7, x=5.0, score=0.7),
                 _row(2, resumed_by, score=0.5)]
        got = amota(preds, gt, L=3)
        assert _counts(got) == [
            (0.9, 1 / 3, 1 - 2 / 3, 0, 2, 0),
            (0.5, 2 / 3, 1 - (2 + ids) / 3, 1, 1, ids),
            (0.5, 2 / 3, 1 - (2 + ids) / 3, 1, 1, ids),  # unreachable: minimal cut
        ]

    def test_fp_only_frame_and_gt_frame_without_predictions(self):
        gt = [_row(0, 1), _row(2, 1), _row(3, 1)]
        preds = [_row(0, 4), _row(1, 4), _row(3, 4)]  # frame 1 has no gt, frame 2 no pred
        assert _counts(amota(preds, gt, L=1)) == [(1.0, 2 / 3, 1 - 2 / 3, 1, 1, 0)]

    def test_equal_scores_in_different_frames_join_at_one_cut(self):
        gt = [_row(f, 1) for f in range(3)]
        preds = [_row(0, 4, score=0.8), _row(1, 4, score=0.8), _row(2, 4, score=0.3)]
        got = amota(preds, gt, L=3)
        assert [(t.score_cut, t.recall) for t in got.thresholds] == [
            (0.8, 2 / 3), (0.8, 2 / 3), (0.3, 1.0)]

    @pytest.mark.parametrize("score_6, ids", [(0.9, 0), (0.8, 1)])
    def test_equal_distances_break_by_arrival_order(self, score_6, ids):
        # preds 5 and 6 are 1 m either side of gt 1 in frame 0; the one kept
        # first, by score then track id, takes it, and pred 6 holds frame 1
        gt = [_row(0, 1), _row(1, 1)]
        preds = [_row(0, 6, x=-1.0, score=score_6), _row(0, 5, x=1.0, score=0.8),
                 _row(1, 6, score=0.7)]
        got = amota(preds, gt, L=1)
        assert _counts(got) == [(0.7, 1.0, 1 - (1 + ids) / 2, 1, 0, ids)]

    def test_gt_track_twice_in_one_frame(self):
        # frame 1 holds gt 1 twice; its matches there, preds 5 then 6 in
        # greedy order, switch once inside the frame, and frames 0 and 2
        # (pred 6) link to the frame's first and last match
        gt = [_row(0, 1), _row(1, 1), _row(1, 1, x=10.0), _row(2, 1)]
        preds = [_row(1, 5, score=0.9), _row(1, 6, x=10.0, score=0.9),
                 _row(0, 6, score=0.5), _row(2, 6, score=0.5)]
        got = amota(preds, gt, L=2)
        assert _counts(got) == [(0.9, 0.5, 0.25, 0, 2, 1), (0.5, 1.0, 0.5, 0, 0, 2)]
        assert got == oracle_amota(preds, gt, 2.0, 2)

    def test_unreachable_recall_takes_the_minimal_cut(self):
        gt = [_row(0, 1), _row(1, 1)]
        preds = [_row(0, 3, score=0.9), _row(1, 3, x=9.0, score=0.5)]
        got = amota(preds, gt, L=4)
        assert _counts(got) == [(0.9, 0.5, 0.5, 0, 1, 0)] * 2 + [(0.5, 0.5, 0.0, 1, 1, 0)] * 2
        assert got.amota == 0.25

    def test_empty_predictions(self):
        gt = [_row(0, 1), _row(1, 2)]
        got = amota([], gt, L=3)
        assert got.amota == 0.0
        assert _counts(got) == [(0.0, 0.0, 0.0, 0, 2, 0)] * 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="L must be >= 1"):
            amota([], [_row(0, 1)], L=0)

    def test_rejects_empty_ground_truth(self):
        with pytest.raises(ValueError, match="ground truth is empty"):
            amota([_row(0, 1)], [])


def _random_scene(seed, n_frames, n_tracks=4):
    """gt tracks on straight lines, some frames missed; noisy preds with ID
    swaps, misses and spurious rows, every one with its own score."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-20, 20, size=(n_tracks, 2))
    vel = rng.uniform(-2, 2, size=(n_tracks, 2))
    gt, preds = [], []
    for f in range(n_frames):
        for t in range(n_tracks):
            if rng.random() < 0.1:
                continue
            x, y = start[t] + f * vel[t]
            gt.append(_row(f, t, x, y))
            if rng.random() < 0.85:
                pid = t + 10 * int(rng.random() < 0.15)
                dx, dy = rng.normal(0, 0.8, size=2)
                preds.append(_row(f, pid, x + dx, y + dy, float(rng.random())))
        for _ in range(rng.poisson(0.7)):
            x, y = rng.uniform(-25, 25, size=2)
            preds.append(_row(f, 100 + int(rng.integers(5)), x, y, float(rng.random())))
    return preds, gt


# rows on a coarse grid, so that distances tie and some fall exactly on
# MATCH_DIST; scores from a short list, so that cuts hold several rows
grid_rows = st.builds(_row, st.integers(0, 5), st.integers(0, 3), st.integers(0, 3),
                      st.integers(0, 2), st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 1.0]))


class TestAmotaEqualsOracle:
    @settings(max_examples=300, deadline=None)
    @given(preds=st.lists(grid_rows, max_size=30), gt=st.lists(grid_rows, min_size=1,
                                                                 max_size=20),
           L=st.integers(1, 12))
    def test_grid_rows(self, preds, gt, L):
        assert amota(preds, gt, L=L) == oracle_amota(preds, gt, 2.0, L)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_scenes(self, seed):
        preds, gt = _random_scene(seed, n_frames=8)
        assert amota(preds, gt, L=10) == oracle_amota(preds, gt, 2.0, 10)


    @pytest.mark.parametrize("seed", range(20))
    def test_tied_recalls_take_the_strictest_cut(self, seed):
        """Spurious rows far from every gt row, each at a score of its own,
        leave the recall of their cut where it was, so runs of cuts tie on
        recall; each target takes the strictest of a tied run, as the
        oracle's scan over every cut does."""
        rng = np.random.default_rng(seed)
        preds, gt = _random_scene(seed, n_frames=6)
        preds += [_row(int(rng.integers(6)), 200 + int(rng.integers(3)), 500.0 + k, 0.0,
                       float(rng.random())) for k in range(15)]
        cuts = sorted({r.score for r in preds})
        recalls = [_clear_counts([r for r in preds if r.score >= c], gt, 2.0)[0] for c in cuts]
        assert len(set(recalls)) < len(recalls)
        for L in (7, 40):
            assert amota(preds, gt, L=L) == oracle_amota(preds, gt, 2.0, L)


def test_amota_rematches_only_the_frames_a_cut_touches(monkeypatch):
    """Cost guard: computing at most g_f * p_f distances each time a row joins
    frame f bounds the calls by sum_f g_f * p_f * (p_f + 1) / 2; rerunning the
    whole matching at every cut costs about (number of cuts) times more."""
    preds, gt = _random_scene(seed=11, n_frames=75)
    assert len(preds) > 250 and len({r.score for r in preds}) == len(preds)
    g = Counter(r.frame for r in gt)
    p = Counter(r.frame for r in preds)
    bound = sum(g[f] * p[f] * (p[f] + 1) // 2 for f in p)
    calls = 0

    def counting(b1, b2):
        nonlocal calls
        calls += 1
        return center_distance(b1, b2)

    monkeypatch.setattr(evaluation, "center_distance", counting)
    got = amota(preds, gt, L=40)
    assert 0 < calls <= bound
    monkeypatch.undo()
    assert got == oracle_amota(preds, gt, 2.0, 40)


# ---------------------------------------------------------------------------
# AC validity: correct and incorrect links


def _link_scene(gt_ids_per_frame):
    """A box-only sequence whose frame f holds one detection per entry of
    gt_ids_per_frame[f], with that gt_id."""
    stub = PointCloud(np.zeros((0, 3)))
    frames = [FrameRecord(index=f, detections=tuple(
        Detection(frame=f, box=_box(float(k)), score=1.0, cloud_ref="c", gt_id=g)
        for k, g in enumerate(ids))) for f, ids in enumerate(gt_ids_per_frame)]
    return Sequence(frames=tuple(frames), clouds={"c": stub})


def _track(tid, members, link_conf):
    from uatrack.core import TrackletLabel
    return TrackletLabel(tid, tuple(members), tuple(link_conf))


class TestConfidenceLinks:
    def test_equal_gt_ids_make_a_correct_link(self):
        seq = _link_scene([[5, 6], [6, 5], [5]])
        tracks = [_track(0, [(0, 0), (1, 1), (2, 0)], [0.75, 0.5]),
                  _track(1, [(0, 1), (1, 0)], [0.25])]
        assert evaluation.confidence_links(seq, tracks) == ([0.75, 0.5, 0.25], [])

    def test_different_gt_ids_make_an_incorrect_link(self):
        seq = _link_scene([[5, 6], [6, 5]])
        tracks = [_track(0, [(0, 0), (1, 0)], [0.75])]
        assert evaluation.confidence_links(seq, tracks) == ([], [0.75])

    def test_missing_gt_id_at_either_end_makes_an_incorrect_link(self):
        seq = _link_scene([[None, 7], [7, None], [None]])
        tracks = [_track(0, [(0, 0), (1, 0)], [0.125]),   # None -> 7
                  _track(1, [(0, 1), (1, 1)], [0.25]),    # 7 -> None
                  _track(2, [(1, 1), (2, 0)], [0.5])]     # None -> None
        assert evaluation.confidence_links(seq, tracks) == ([], [0.125, 0.25, 0.5])


class TestReportFromLinks:
    def test_histogram_edges(self):
        report = evaluation.report_from_links([0.0, 0.05, 0.999, 1.0], [0.5])
        want = [0] * 20
        want[0] = want[1] = 1
        want[19] = 2
        assert report.correct_hist == tuple(want)
        assert report.incorrect_hist == tuple(1 if k == 10 else 0 for k in range(20))
        assert report.n_links == 5

    def test_empty_side_has_no_mean(self):
        report = evaluation.report_from_links([], [0.5, 0.75])
        assert report.mean_correct is None and report.mean_incorrect == 0.625
        assert report.correct_hist == (0,) * 20 and report.n_links == 2
        report = evaluation.report_from_links([0.25], [])
        assert report.mean_correct == 0.25 and report.mean_incorrect is None
        empty = evaluation.report_from_links([], [])
        assert (empty.mean_correct, empty.mean_incorrect, empty.n_links) == (None, None, 0)


def test_confidence_csv_lines(tmp_path):
    report = evaluation.report_from_links([0.0, 0.05, 0.999, 1.0], [0.5, 0.55])
    evaluation.write_confidence_csv(tmp_path / "c.csv", report)
    assert (tmp_path / "c.csv").read_bytes().decode("utf-8").split("\r\n") == [
        "bin_lo,bin_hi,correct,incorrect",
        "0.0,0.05,1,0",
        "0.05,0.1,1,0",
        "0.1,0.15,0,0",
        "0.15,0.2,0,0",
        "0.2,0.25,0,0",
        "0.25,0.3,0,0",
        "0.3,0.35,0,0",
        "0.35,0.4,0,0",
        "0.4,0.45,0,0",
        "0.45,0.5,0,0",
        "0.5,0.55,0,1",
        "0.55,0.6,0,1",
        "0.6,0.65,0,0",
        "0.65,0.7,0,0",
        "0.7,0.75,0,0",
        "0.75,0.8,0,0",
        "0.8,0.85,0,0",
        "0.85,0.9,0,0",
        "0.9,0.95,0,0",
        "0.95,1.0,2,0",
        "",
    ]
