"""Evaluation: single-object association accuracy (`sot_evaluate`), AMOTA
(`amota`), and whether association confidence separates correct links from
incorrect ones (`confidence_links`).
"""

import csv
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import embed
from .core import Detection, Sequence, center_distance


@dataclass(frozen=True)
class SotResult:
    """SOT counts, one (target, correct, total) triple per anchor."""

    per_task: tuple[tuple[int, int, int], ...]

    @property
    def correct(self) -> int:
        return sum(c for _, c, _ in self.per_task)

    @property
    def total(self) -> int:
        return sum(t for *_, t in self.per_task)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


def sot_evaluate(net: embed.EmbedNet, seq: Sequence,
                 candidates: Sequence | None = None) -> SotResult:
    """Arg-max-cosine association accuracy of one scene; a caller pooling
    scenes adds up the (target, correct, total) triples.

    Each gt identity's first detection in seq is its anchor. In each later
    frame of candidates (seq when None) that holds the target, the
    candidate of highest cosine, ties to the lowest index, is scored. The
    scored frames are embedded as one matrix, a pass of crops at a time,
    so an anchor takes one vector of cosines.
    """
    anchors: dict[int, tuple[int, Detection]] = {}  # gt id -> (frame index, detection)
    for rec in seq.frames:
        for det in rec.detections:
            if det.gt_id is not None:
                anchors.setdefault(det.gt_id, (rec.index, det))
    cand = seq if candidates is None else candidates
    present = [{d.gt_id for d in rec.detections} for rec in cand.frames]
    scored = [[k for k, rec in enumerate(cand.frames)
               if rec.index > frame and target in present[k]]
              for target, (frame, _) in anchors.items()]
    span: dict[int, tuple[int, int]] = {}  # frame position -> its rows
    gt_ids = []
    needed = sorted(set().union(*scored))
    for k in needed:
        dets = cand.frames[k].detections
        span[k] = (len(gt_ids), len(gt_ids) + len(dets))
        gt_ids += [d.gt_id for d in dets]
    # map lets go of each frame's crops before the next pass is cut
    embs = list(map(partial(embed.forward, net), embed.canonicalize_frames(
        cand, (cand.frames[k].detections for k in needed), embed.POINTS_PER_CROP)))
    anchor_embs = embed.forward(net, embed.canonicalize(
        seq, [det for _, det in anchors.values()], embed.POINTS_PER_CROP))
    emb = np.concatenate(embs) if embs else np.zeros((0, net.dim))
    emb_norms = embed.norms(emb)
    per_task = []
    for target, frames, anchor in zip(anchors, scored, anchor_embs):
        cos = embed.cosines(emb, anchor, emb_norms, embed.norms(anchor))
        hits = sum(gt_ids[lo + int(np.argmax(cos[lo:hi]))] == target
                   for lo, hi in map(span.get, frames))
        per_task.append((target, hits, len(frames)))
    return SotResult(tuple(per_task))


def write_sot_csv(path, result: SotResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "correct", "total", "accuracy"])
        for target, c, t in result.per_task:
            writer.writerow([target, c, t, c / t if t else 0.0])
        writer.writerow(["overall", result.correct, result.total, result.accuracy])


# ---------------------------------------------------------------------------
# AMOTA


@dataclass(frozen=True)
class ThresholdStats:
    recall_target: float
    score_cut: float
    recall: float
    mota: float
    fp: int
    fn: int
    ids: int


@dataclass(frozen=True)
class MotScore:
    amota: float
    thresholds: tuple[ThresholdStats, ...]


def _group_by_frame(rows):
    out: dict[int, list] = {}
    for r in rows:
        out.setdefault(r.frame, []).append(r)
    return out


def _greedy_pairs(cand):
    """(gi, pi) pairs of the greedy matching: ascending (d, gi, pi), each gt
    and each pred used once."""
    used_g: set[int] = set()
    used_p: set[int] = set()
    pairs = []
    for _, gi, pi in sorted(cand):
        if gi not in used_g and pi not in used_p:
            used_g.add(gi)
            used_p.add(pi)
            pairs.append((gi, pi))
    return pairs


def _switches(pred_ids) -> int:
    return sum(a != b for a, b in zip(pred_ids, pred_ids[1:]))


MATCH_DIST = 2.0  # the farthest center distance of a match


def amota(pred_rows, gt_rows, L: int = 40) -> MotScore:
    """Average MOTA over L recall targets {1/L, ..., 1}.

    Target r takes the score cut whose recall is closest to r from above,
    the loosest cut when none reaches it. Matching is per-frame greedy by
    center distance within MATCH_DIST, and MOTA clamps at 0. One sweep over
    the cuts, strictest first, matches again only the frames a cut adds
    rows to, and recounts a gt track's ID switches (along its matched pred
    tracks in frame order) only around them. It equals a full CLEAR
    matching at every cut, at sum_f g_f * p_f distances for g_f gt and p_f
    pred rows in frame f, about 1 / (number of cuts) of the full cost.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    gt_rows = list(gt_rows)
    if not gt_rows:
        raise ValueError("ground truth is empty")
    pred_rows = sorted(pred_rows, key=lambda r: (-r.score, r.frame, r.track_id))
    gt_count = len(gt_rows)
    gt_by_frame = _group_by_frame(gt_rows)
    pred_ids: dict[int, list[int]] = {}  # frame -> kept pred track ids, in arrival order
    cand: dict[int, list] = {}  # frame -> (d, gi, pi) within MATCH_DIST
    matched: dict[int, dict[int, list[int]]] = {}  # frame -> gt track -> its pred tracks
    track_frames: dict[int, list[int]] = {}  # gt track -> frames that match it, sorted
    tp = ids = kept = 0

    def relink(t, frame, before, after):
        """Recount gt track t's switches around `frame`, whose matches of t
        go from `before` to `after`."""
        nonlocal ids
        frames = track_frames.setdefault(t, [])
        k = bisect_left(frames, frame)
        nxt = k + 1 if k < len(frames) and frames[k] == frame else k
        prev = [matched[frames[k - 1]][t][-1]] if k > 0 else []
        succ = [matched[frames[nxt]][t][0]] if nxt < len(frames) else []
        ids += _switches(prev + after + succ) - _switches(prev + before + succ)
        if after and nxt == k:
            frames.insert(k, frame)
        elif not after and nxt > k:
            del frames[k]

    # stats at every candidate score cut, from strictest to all-inclusive
    per_cut = []
    for cut in sorted({r.score for r in pred_rows}, reverse=True) or [0.0]:
        touched = set()
        while kept < len(pred_rows) and pred_rows[kept].score >= cut:
            r = pred_rows[kept]
            kept += 1
            if r.frame not in gt_by_frame:
                continue  # nothing to match: a false positive at every looser cut
            pids = pred_ids.setdefault(r.frame, [])
            pids.append(r.track_id)
            for gi, g in enumerate(gt_by_frame[r.frame]):
                d = center_distance(g.box, r.box)
                if d <= MATCH_DIST:
                    cand.setdefault(r.frame, []).append((d, gi, len(pids) - 1))
            touched.add(r.frame)
        for frame in touched:
            gts, pids = gt_by_frame[frame], pred_ids[frame]
            now: dict[int, list[int]] = {}
            for gi, pi in _greedy_pairs(cand.get(frame, ())):
                now.setdefault(gts[gi].track_id, []).append(pids[pi])
            old = matched.get(frame, {})
            matched[frame] = now
            tp += sum(map(len, now.values())) - sum(map(len, old.values()))
            for t in old.keys() | now.keys():
                if old.get(t, []) != now.get(t, []):
                    relink(t, frame, old.get(t, []), now.get(t, []))
        fp, fn = kept - tp, gt_count - tp
        recall = tp / gt_count
        mota = max(0.0, 1.0 - (fp + fn + ids) / gt_count)
        per_cut.append((cut, recall, mota, fp, fn, ids))

    # each target takes the achieved recall closest from above, the
    # strictest cut breaking ties: the first of the cuts by (recall, -cut)
    # whose recall reaches it
    by_recall = sorted(per_cut, key=lambda pc: (pc[1], -pc[0]))
    recalls = [pc[1] for pc in by_recall]
    thresholds = []
    for k in range(1, L + 1):
        r_target = k / L
        at = bisect_left(recalls, r_target)
        # unreachable: the minimal cut, which keeps everything
        chosen = by_recall[at] if at < len(by_recall) else per_cut[-1]
        cut, recall, mota, fp, fn, ids = chosen
        thresholds.append(ThresholdStats(
            recall_target=r_target, score_cut=cut, recall=recall, mota=mota,
            fp=fp, fn=fn, ids=ids,
        ))
    return MotScore(
        amota=float(np.mean([t.mota for t in thresholds])),
        thresholds=tuple(thresholds),
    )


# ---------------------------------------------------------------------------
# confidence validity


@dataclass(frozen=True)
class ConfidenceReport:
    mean_correct: float | None
    mean_incorrect: float | None
    correct_hist: tuple[int, ...]  # 20 bins over [0, 1]
    incorrect_hist: tuple[int, ...]
    n_links: int


def confidence_links(seq: Sequence, tracks):
    """(correct, incorrect) link confidences of the tracks on seq: a link is
    correct iff both its detections carry the same non-null gt_id."""
    rec_by_index = {rec.index: rec for rec in seq.frames}
    correct_vals: list[float] = []
    incorrect_vals: list[float] = []
    for lab in tracks:
        for (f0, d0), (f1, d1), ac in zip(lab.members, lab.members[1:], lab.link_conf):
            g0 = rec_by_index[f0].detections[d0].gt_id
            g1 = rec_by_index[f1].detections[d1].gt_id
            if g0 is not None and g1 is not None and g0 == g1:
                correct_vals.append(ac)
            else:
                incorrect_vals.append(ac)
    return correct_vals, incorrect_vals


def report_from_links(correct_vals, incorrect_vals) -> ConfidenceReport:
    def hist(vals):
        h = [0] * 20
        for v in vals:
            h[min(int(v * 20), 19)] += 1
        return tuple(h)

    return ConfidenceReport(
        mean_correct=float(np.mean(correct_vals)) if correct_vals else None,
        mean_incorrect=float(np.mean(incorrect_vals)) if incorrect_vals else None,
        correct_hist=hist(correct_vals),
        incorrect_hist=hist(incorrect_vals),
        n_links=len(correct_vals) + len(incorrect_vals),
    )


def write_confidence_csv(path, report: ConfidenceReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "correct", "incorrect"])
        for k in range(20):
            writer.writerow([
                k / 20.0, (k + 1) / 20.0,
                report.correct_hist[k], report.incorrect_hist[k],
            ])
