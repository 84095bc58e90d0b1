"""Greedy data association, association confidence, and pseudo-track building.

The association kernel is shared: `run_tracker` drives predict -> greedy
association -> update over a sequence for both the pseudo-label path
(`build_pseudo_tracks`) and the multi-object tracker (mot.track_sequence).
It has one admission rule: each frame it computes the Mahalanobis matrix m
of the predicted tracks against the detections once, and a (track,
detection) pair may be linked only if m <= AssocConfig.gate. A caller's
cost hook only ranks the admitted pairs; without one they are ranked by m.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kalman
from .core import Sequence, TrackletLabel, read_jsonl


@dataclass(frozen=True)
class AssocConfig:
    """Gating and confidence parameters for greedy association."""

    gate: float = 13.0
    max_age: int = 3
    eps: float = 1e-4

    def __post_init__(self):
        if self.gate <= 0:
            raise ValueError(f"gate must be > 0, got {self.gate}")
        if self.max_age < 1:
            raise ValueError(f"max_age must be >= 1, got {self.max_age}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


@dataclass(frozen=True)
class AssocPair:
    track: int
    det: int


@dataclass(frozen=True)
class AssociationResult:
    pairs: tuple[AssocPair, ...]
    unmatched_detections: tuple[int, ...]


def _check_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"distance matrix must be 2-D, got shape {m.shape}")
    if m.size and (not np.isfinite(m).all() or (m < 0).any()):
        raise ValueError("distance matrix entries must be finite and >= 0")
    return m


def greedy_associate(m, gate: float, cost=None) -> AssociationResult:
    """Greedily pair the admitted entries of m, cheapest first.

    An entry is admitted iff m[i, j] <= gate. Repeatedly selects the
    admitted entry of smallest cost (m itself when cost is None) whose row
    and column are both still free; stops when none is left. Ties break
    toward the smallest row index, then column index. Pairs are reported in
    selection order.
    """
    m = _check_matrix(m)
    if gate <= 0:
        raise ValueError(f"gate must be > 0, got {gate}")
    cost = m if cost is None else _check_matrix(cost)
    if cost.shape != m.shape:
        raise ValueError(f"cost matrix shape {cost.shape} differs from distance shape {m.shape}")
    rows, cols = m.shape
    pairs: list[AssocPair] = []
    if rows and cols:
        work = np.where(m <= gate, cost, np.inf)
        for _ in range(min(rows, cols)):
            flat = int(np.argmin(work))  # first minimum in row-major order
            i, j = divmod(flat, cols)
            if work[i, j] == np.inf:
                break
            pairs.append(AssocPair(track=i, det=j))
            work[i, :] = np.inf
            work[:, j] = np.inf
    used_cols = {p.det for p in pairs}
    return AssociationResult(
        pairs=tuple(pairs),
        unmatched_detections=tuple(j for j in range(cols) if j not in used_cols),
    )


def association_confidence(m, i: int, j: int, eps: float = 1e-4) -> float:
    """Confidence that pair (i, j) is the right association in matrix m.

    Compares m[i, j] against its best row and column competitors:

        AC = 1 - exp(-min(min_{k!=j} m[i,k], min_{k!=i} m[k,j]) / (m[i,j]+eps))

    A missing competitor set (single row or column) contributes +inf and
    drops out of the min; with neither competitor the association is
    unambiguous and AC = 1.
    """
    m = _check_matrix(m)
    rows, cols = m.shape
    if not (0 <= i < rows and 0 <= j < cols):
        raise ValueError(f"indices ({i}, {j}) out of bounds for {rows}x{cols} matrix")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    denom = m[i, j] + eps
    ratios = []
    if cols > 1:
        ratios.append(np.delete(m[i, :], j).min() / denom)
    if rows > 1:
        ratios.append(np.delete(m[:, j], i).min() / denom)
    if not ratios:
        return 1.0
    return float(1.0 - math.exp(-min(ratios)))


def cumulative_confidence(per_step) -> float:
    """Product of per-link association confidences; empty chain -> 1."""
    out = 1.0
    for v in per_step:
        v = float(v)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"association confidence {v} outside [0, 1]")
        out *= v
    return out


# ---------------------------------------------------------------------------
# tracking loop


@dataclass
class _Live:
    state: kalman.TrackState
    members: list
    link_conf: list


@dataclass(frozen=True)
class TrackerRun:
    """The tracklets the shared loop built and their link confidences."""

    labels: tuple[TrackletLabel, ...]
    link_conf: dict[int, list[float]]


def run_tracker(
    seq: Sequence,
    kcfg: kalman.NoiseConfig,
    acfg: AssocConfig,
    cost_fn=None,
    on_match=None,
    collect_confidence: bool = True,
) -> TrackerRun:
    """Drive predict -> greedy associate -> update across a sequence.

    Each frame's Mahalanobis matrix m is computed here, once, and a pair is
    admitted iff m <= acfg.gate. cost_fn(states, frame_record, m, admitted)
    may return a matrix that ranks the pairs in the boolean mask `admitted`
    (its other entries are ignored); without it the pairs rank by m.
    on_match(track_id, det_index, state) observes every match and every
    birth with the resulting posterior state (used by the appearance
    tracker to maintain per-track embeddings and by the MOT output path).
    Link confidences are computed on m.
    """
    live: list[_Live] = []
    order: dict[int, _Live] = {}
    next_id = 0
    prev_index = None

    for rec in seq.frames:
        if prev_index is not None and live:
            dt = (rec.index - prev_index) * seq.frame_period
            for tr in live:
                tr.state = kalman.predict(tr.state, dt, kcfg)
        prev_index = rec.index

        states = [tr.state for tr in live]
        m = mahalanobis_matrix(states, rec.detections, kcfg)
        cost = None if cost_fn is None else cost_fn(states, rec, m, m <= acfg.gate)
        res = greedy_associate(m, acfg.gate, cost)

        for pair in res.pairs:
            tr = live[pair.track]
            if collect_confidence:
                tr.link_conf.append(association_confidence(m, pair.track, pair.det, acfg.eps))
            det = rec.detections[pair.det]
            tr.state = kalman.update(tr.state, det.box, kcfg)
            tr.members.append((rec.index, pair.det))
            if on_match is not None:
                on_match(tr.state.track_id, pair.det, tr.state)

        survivors = []
        matched = {p.track for p in res.pairs}
        for idx, tr in enumerate(live):
            if idx in matched:
                survivors.append(tr)
                continue
            tr.state = kalman.mark_missed(tr.state)
            if tr.state.misses < acfg.max_age:
                survivors.append(tr)
        for j in res.unmatched_detections:
            tr = _Live(
                state=kalman.init_track(rec.detections[j], kcfg, next_id),
                members=[(rec.index, j)],
                link_conf=[],
            )
            order[next_id] = tr
            survivors.append(tr)
            if on_match is not None:
                on_match(next_id, j, tr.state)
            next_id += 1
        live = survivors

    labels = tuple(
        TrackletLabel(track_id=tid, members=tuple(order[tid].members))
        for tid in sorted(order)
    )
    link_conf = {tid: list(order[tid].link_conf) for tid in sorted(order)}
    return TrackerRun(labels=labels, link_conf=link_conf)


def mahalanobis_matrix(states, detections, kcfg: kalman.NoiseConfig) -> np.ndarray:
    """Track x detection square-root Mahalanobis distances sqrt(r' S^-1 r),
    the m that `AssocConfig.gate` bounds.

    One `kalman.mahalanobis` call per track scores all of the frame's
    detections against that track's single factor of S; a frame without
    detections factors nothing.
    """
    boxes = [det.box for det in detections]
    m = np.zeros((len(states), len(boxes)))
    if boxes:
        for i, s in enumerate(states):
            m[i] = kalman.mahalanobis(s, boxes, kcfg)
    return m


def build_pseudo_tracks(
    seq: Sequence,
    kcfg: kalman.NoiseConfig,
    acfg: AssocConfig,
) -> tuple[list[TrackletLabel], dict[int, list[float]]]:
    """Self-supervised pseudo-ground-truth tracklets with per-link confidences.

    Runs the motion-only tracker over the sequence; every surviving link
    between consecutive members of a track carries the association
    confidence of the greedy decision that created it.
    """
    if not seq.frames:
        raise ValueError("sequence has no frames")
    run = run_tracker(seq, kcfg, acfg, collect_confidence=True)
    return list(run.labels), run.link_conf


# ---------------------------------------------------------------------------
# pseudo-track file format: one JSON object per line,
# {"track_id": int, "members": [[frame, det_index], ...], "link_conf": [...]}


def write_pseudo_tracks(path, labels, link_conf: dict[int, list[float]]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for lab in labels:
            obj = {
                "track_id": lab.track_id,
                "members": [[f, i] for f, i in lab.members],
                "link_conf": [float(v) for v in link_conf.get(lab.track_id, [])],
            }
            fh.write(json.dumps(obj) + "\n")


def read_pseudo_tracks(path, seq: Sequence) -> tuple[list[TrackletLabel], dict[int, list[float]]]:
    """The pseudo-tracks of a file that labels the scene seq.

    A member naming a frame seq lacks, or a detection that frame lacks,
    raises ValueError("<path>:<line>: ..."), as does any other malformed
    line.
    """
    counts = {rec.index: len(rec.detections) for rec in seq.frames}

    def build(obj):
        tid = int(obj["track_id"])
        members = tuple((int(f), int(i)) for f, i in obj["members"])
        for f, i in members:
            if f not in counts:
                raise ValueError(f"track {tid}: member [{f}, {i}]: the scene has no frame {f}")
            if not 0 <= i < counts[f]:
                raise ValueError(f"track {tid}: member [{f}, {i}]: frame {f} has "
                                 f"{counts[f]} detections")
        link = [float(v) for v in obj["link_conf"]]
        if len(link) != max(len(members) - 1, 0):
            raise ValueError(
                f"track {tid}: {len(link)} link confidences for {len(members)} members"
            )
        for v in link:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"track {tid}: link confidence {v} is not in [0, 1]")
        return TrackletLabel(track_id=tid, members=members), link

    records = read_jsonl(path, build)
    return [lab for lab, _ in records], {lab.track_id: link for lab, link in records}
