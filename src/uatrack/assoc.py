"""Greedy data association, association confidence, and pseudo-track building.

The association kernel is shared: `run_tracker` drives predict -> greedy
association -> update over a sequence for both the pseudo-label path
(`build_pseudo_tracks`) and the multi-object tracker (mot.track_sequence).
It holds the live tracks as one stacked Kalman state, so each step of a
frame is one call for all of them. It has one admission rule: each frame it
computes the Mahalanobis matrix m of the predicted tracks against the
detections once, and a (track, detection) pair may be linked only if
m <= AssocConfig.gate. A caller's cost hook only ranks the admitted pairs;
without one they are ranked by m.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kalman
from .core import FRAME_PERIOD, Box7, Sequence, TrackletLabel, read_jsonl


# a track unmatched for MAX_AGE frames in a row is dropped
MAX_AGE = 3
# AC's denominator term, so that a match at m = 0 divides by no zero
AC_EPS = 1e-4


@dataclass(frozen=True)
class AssocConfig:
    """The gate of greedy association."""

    gate: float = 13.0

    def __post_init__(self):
        _check_gate(self.gate)


def _check_gate(gate) -> None:
    # a NaN gate would admit no pair and an infinite one every pair
    if not (math.isfinite(gate) and gate > 0):
        raise ValueError(f"gate must be finite and > 0, got {gate}")


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

    The admitted entries are sorted by cost once, with a stable sort over
    row-major order, and scanned in that order. Costs are finite and >= 0,
    so equal costs (+0.0 and -0.0 included) keep row-major order.
    """
    m = _check_matrix(m)
    _check_gate(gate)
    cost = m if cost is None else _check_matrix(cost)
    if cost.shape != m.shape:
        raise ValueError(f"cost matrix shape {cost.shape} differs from distance shape {m.shape}")
    rows, cols = m.shape
    pairs: list[AssocPair] = []
    used_rows, used_cols = [False] * rows, [False] * cols
    if rows and cols:
        admitted = np.flatnonzero(m <= gate)
        left = min(rows, cols)
        for flat in admitted[np.argsort(cost.ravel()[admitted], kind="stable")].tolist():
            i, j = divmod(flat, cols)
            if used_rows[i] or used_cols[j]:
                continue
            pairs.append(AssocPair(track=i, det=j))
            used_rows[i] = used_cols[j] = True
            left -= 1
            if not left:
                break
    return AssociationResult(
        pairs=tuple(pairs),
        unmatched_detections=tuple(j for j in range(cols) if not used_cols[j]),
    )


def association_confidence(m, i: int, j: int, eps: float = AC_EPS) -> float:
    """Confidence that pair (i, j) is the right association in matrix m.

    Compares m[i, j] against its best row and column competitors:

        AC = 1 - exp(-min(min_{k!=j} m[i,k], min_{k!=i} m[k,j]) / (m[i,j]+eps))

    A missing competitor set (single row or column) contributes +inf and
    drops out of the min; with neither competitor the association is
    unambiguous and AC = 1. m is a 2-D float array that greedy_associate
    has checked and eps is > 0; neither is checked again here, only the
    indices.
    """
    rows, cols = m.shape
    if not (0 <= i < rows and 0 <= j < cols):
        raise ValueError(f"indices ({i}, {j}) out of bounds for {rows}x{cols} matrix")
    row, col = m[i], m[:, j]
    competitor = min(row[:j].min(initial=np.inf), row[j + 1:].min(initial=np.inf),
                     col[:i].min(initial=np.inf), col[i + 1:].min(initial=np.inf))
    if competitor == np.inf:
        return 1.0
    return float(1.0 - math.exp(-competitor / (m[i, j] + eps)))


# ---------------------------------------------------------------------------
# tracking loop


def run_tracker(
    seq: Sequence,
    kcfg: kalman.NoiseConfig,
    acfg: AssocConfig,
    cost_fn=None,
    on_match=None,
    collect_confidence: bool = True,
) -> list[TrackletLabel] | None:
    """Drive predict -> greedy associate -> update across a sequence.

    The live tracks are one stacked state, in birth order: Kalman means
    (T, 11) and per-axis covariances (T, 15) (see `kalman`), track ids
    and consecutive-miss counts. Each frame makes one kalman.predict of
    every track, one Mahalanobis matrix m of every (track, detection) pair
    and one kalman.update of the matched tracks; a track unmatched for
    MAX_AGE frames in a row is dropped, and each unmatched detection
    is appended as a newborn track.

    A pair is admitted iff m <= acfg.gate. cost_fn(ids, frame_record, m,
    admitted) gets the ids of the live tracks in the row order of m, and may
    return a matrix that ranks the pairs in the boolean mask `admitted` (its
    other entries are ignored); without it the pairs rank by m.
    on_match(track_id, det_index, box) observes every match, in greedy
    selection order, with the track's posterior box, and then every birth
    with its detection's box (used by the appearance tracker to maintain
    per-track embeddings and by the MOT output path).

    With collect_confidence, returns every track ever born, in id order,
    each link carrying the association confidence of its match on m;
    without it, keeps no members and returns None.
    """
    mean, cov = kalman.init_tracks(np.zeros((0, kalman.OBS_DIM)), kcfg)
    ids = np.zeros(0, dtype=np.int64)
    misses = np.zeros(0, dtype=np.int64)
    # (members, link confidences), indexed by track id
    tracks: list[tuple[list, list]] | None = [] if collect_confidence else None
    born_total = 0
    prev_index = None

    for rec in seq.frames:
        if prev_index is not None and len(ids):
            dt = (rec.index - prev_index) * FRAME_PERIOD
            mean, cov = kalman.predict(mean, cov, dt, kcfg)
        prev_index = rec.index

        boxes = np.array([det.box.to_array() for det in rec.detections]).reshape(
            -1, kalman.OBS_DIM)
        m = mahalanobis_matrix(mean, cov, boxes, kcfg)
        cost = None if cost_fn is None else cost_fn(ids, rec, m, m <= acfg.gate)
        res = greedy_associate(m, acfg.gate, cost)

        rows = [p.track for p in res.pairs]
        if rows:
            mean[rows], cov[rows] = kalman.update(
                mean[rows], cov[rows], boxes[[p.det for p in res.pairs]], kcfg)
        for pair in res.pairs:
            tid = int(ids[pair.track])
            if tracks is not None:
                members, link = tracks[tid]
                members.append((rec.index, pair.det))
                link.append(association_confidence(m, pair.track, pair.det))
            if on_match is not None:
                on_match(tid, pair.det, Box7.from_array(mean[pair.track, :kalman.OBS_DIM]))

        misses += 1
        misses[rows] = 0
        keep = misses < MAX_AGE
        born = list(res.unmatched_detections)
        born_mean, born_cov = kalman.init_tracks(boxes[born], kcfg)
        born_ids = np.arange(born_total, born_total + len(born))
        born_total += len(born)
        for tid, j in zip(born_ids.tolist(), born):
            if tracks is not None:
                tracks.append(([(rec.index, j)], []))
            if on_match is not None:
                on_match(tid, j, rec.detections[j].box)
        mean = np.concatenate([mean[keep], born_mean])
        cov = np.concatenate([cov[keep], born_cov])
        ids = np.concatenate([ids[keep], born_ids])
        misses = np.concatenate([misses[keep], np.zeros(len(born), dtype=np.int64)])

    if tracks is None:
        return None
    return [TrackletLabel(tid, tuple(members), tuple(link))
            for tid, (members, link) in enumerate(tracks)]


def mahalanobis_matrix(mean, cov, boxes, kcfg: kalman.NoiseConfig) -> np.ndarray:
    """Track x detection square-root Mahalanobis distances sqrt(r' S^-1 r),
    the m that `AssocConfig.gate` bounds, for the stacked tracks (mean, cov)
    against the rows of boxes.

    One `kalman.mahalanobis` call scores every pair; a frame without tracks
    or detections computes nothing.
    """
    if len(mean) and len(boxes):
        return kalman.mahalanobis(mean, cov, boxes, kcfg)
    return np.zeros((len(mean), len(boxes)))


def build_pseudo_tracks(
    seq: Sequence,
    kcfg: kalman.NoiseConfig,
    acfg: AssocConfig,
) -> list[TrackletLabel]:
    """Self-supervised pseudo-ground-truth tracklets with per-link confidences.

    Runs the motion-only tracker over the sequence; every link between
    consecutive members of a track carries the association confidence of
    the greedy decision that created it.
    """
    if not seq.frames:
        raise ValueError("sequence has no frames")
    return run_tracker(seq, kcfg, acfg, collect_confidence=True)


def gt_tracks(seq: Sequence) -> list[TrackletLabel]:
    """The ground-truth tracks of a scene: one per gt_id, in gt_id order,
    holding that gt_id's detections in frame order, every link at
    confidence 1. Detections without a gt_id belong to no track."""
    members: dict[int, list[tuple[int, int]]] = {}
    for rec in seq.frames:
        for j, det in enumerate(rec.detections):
            if det.gt_id is not None:
                members.setdefault(det.gt_id, []).append((rec.index, j))
    return [TrackletLabel(gid, tuple(mem), (1.0,) * (len(mem) - 1))
            for gid, mem in sorted(members.items())]


# ---------------------------------------------------------------------------
# pseudo-track file format: one JSON object per line, one line per track,
# {"track_id": int, "members": [[frame, det_index], ...], "link_conf": [...]}
# where link_conf holds one confidence per link between consecutive members
# (TrackletLabel checks them). A track_id appears on one line only.


def write_pseudo_tracks(path, tracks) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for lab in tracks:
            obj = {
                "track_id": lab.track_id,
                "members": [[f, i] for f, i in lab.members],
                "link_conf": list(lab.link_conf),
            }
            fh.write(json.dumps(obj) + "\n")


def read_pseudo_tracks(path, seq: Sequence) -> list[TrackletLabel]:
    """The pseudo-tracks of a file that labels the scene seq.

    A member naming a frame seq lacks, or a detection that frame lacks, a
    track_id an earlier line holds, or any other malformed line raises
    ValueError("<path>:<line>: ...").
    """
    counts = {rec.index: len(rec.detections) for rec in seq.frames}
    seen: set[int] = set()

    def build(obj):
        tid = int(obj["track_id"])
        if tid in seen:
            raise ValueError(f"track {tid} is on an earlier line too")
        seen.add(tid)
        members = tuple((int(f), int(i)) for f, i in obj["members"])
        for f, i in members:
            if f not in counts:
                raise ValueError(f"track {tid}: member [{f}, {i}]: the scene has no frame {f}")
            if not 0 <= i < counts[f]:
                raise ValueError(f"track {tid}: member [{f}, {i}]: frame {f} has "
                                 f"{counts[f]} detections")
        return TrackletLabel(tid, members, obj["link_conf"])

    return read_jsonl(path, build)
