"""Greedy data association, association confidence (AC) and pseudo-tracks.

`run_tracker` is the one association kernel, of the pseudo-tracks
(`build_pseudo_tracks`) and of the multi-object tracker
(`mot.track_sequence`).
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
    """Pair the entries with m[i, j] <= gate greedily, cheapest cost first
    (cost defaults to m), each row and column once; pairs in selection
    order. Equal costs, +0.0 and -0.0 included, go in row-major order: the
    admitted entries are sorted once, by a stable sort."""
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
    """The AC of pair (i, j) of m, against its best row and column rivals:

        AC = 1 - exp(-min(min_{k!=j} m[i,k], min_{k!=i} m[k,j]) / (m[i,j]+eps))

    and 1 with no rival. m is as greedy_associate checked it and eps > 0,
    so only the indices are checked here.
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
    """Predict, associate greedily and update over a sequence.

    The live tracks are one stacked Kalman state in birth order, so a frame
    makes one predict, one Mahalanobis matrix m and one update. A pair is
    admitted iff m <= acfg.gate, the one admission rule: cost_fn(ids,
    frame_record, m, admitted), given the live ids in m's row order, may
    return a matrix that only ranks the admitted pairs; else m ranks them.
    Each unmatched detection is born a track. on_match(track_id, det_index,
    box) sees every match in selection order, with its posterior box, then
    every birth with its detection's box.

    With collect_confidence, returns every track ever born, in id order,
    each link carrying its match's AC on m; else None.
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
    """Track x detection distances m (`kalman.mahalanobis`) of the stacked
    tracks against the rows of boxes, zeros when either side is empty."""
    if len(mean) and len(boxes):
        return kalman.mahalanobis(mean, cov, boxes, kcfg)
    return np.zeros((len(mean), len(boxes)))


def build_pseudo_tracks(
    seq: Sequence,
    kcfg: kalman.NoiseConfig,
    acfg: AssocConfig,
) -> list[TrackletLabel]:
    """The motion tracker's tracks of seq, each link carrying its AC."""
    if not seq.frames:
        raise ValueError("sequence has no frames")
    return run_tracker(seq, kcfg, acfg, collect_confidence=True)


def gt_tracks(seq: Sequence) -> list[TrackletLabel]:
    """One track per gt_id of seq, in gt_id order, every link at confidence
    1; a detection without a gt_id is in none."""
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
    """The pseudo-tracks of a file that labels the scene seq; a member seq
    lacks, a repeated track_id or any other malformed line raises
    ValueError("<path>:<line>: ...")."""
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
