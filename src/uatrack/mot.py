"""Multi-object tracking with fused motion / score / appearance association.

Every mode admits pairs by `assoc.run_tracker`'s gate and differs only in
how it ranks them, as in the paper's ablation rows: "motion" by the
Mahalanobis distance m, so it makes the pseudo-label tracker's decisions,
and the fused modes by 1 - A, A a logistic model's score of the pair's
`feature_rows`.

`FeatureVector` and `LogisticModel.score` are called by no code of the
package: they stay only because the benchmark's tracer names them
(`perfbench/tracing.py` `TRACED`), and go when it counts `feature_rows`.
"""

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embed, kalman
from .assoc import AssocConfig, run_tracker
from .core import Detection, Sequence, TrackRow

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-8

MODES = ("motion", "motion+score", "motion+score+appearance")
APPEARANCE = MODES[-1]  # the one mode that needs the checkpoint

FIT_LAMBDA = 1e-4  # L2 penalty on the standardized weights
FIT_DECREMENT_TOL = 1e-12  # Newton decrement at which fit_logistic stops
FIT_MAX_STEPS = 50


def feature_rows(m, a, d) -> np.ndarray:
    """(k, 6) rows over FEATURE_NAMES of pairs with distances m, cosines a
    and detection scores d. The log of a is taken of (a + 1) / 2, defined
    on [-1, 1]. A value out of range raises ValueError naming its pair."""
    m, a, d = (np.asarray(v, dtype=np.float64) for v in (m, a, d))
    bad = (m < 0) | ~((-1.0 <= a) & (a <= 1.0)) | ~((0.0 <= d) & (d <= 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"bad feature values m={float(m[k])} a={float(a[k])} d={float(d[k])}")
    return np.column_stack([
        m, a, d,
        np.log(np.maximum(m, LOG_CLAMP)),
        np.log(np.maximum((a + 1.0) / 2.0, LOG_CLAMP)),
        np.log(np.maximum(d, LOG_CLAMP)),
    ])


@dataclass(frozen=True)
class FeatureVector:
    """One row of `feature_rows`."""

    m: float
    a: float
    d: float
    log_m: float
    log_a: float
    log_d: float

    @classmethod
    def build(cls, m: float, a: float, d: float) -> "FeatureVector":
        return cls(*feature_rows([m], [a], [d])[0].tolist())

    def array(self) -> np.ndarray:
        return np.array([self.m, self.a, self.d, self.log_m, self.log_a, self.log_d])


FEATURE_NAMES = ("m", "a", "d", "log_m", "log_a", "log_d")


@dataclass(frozen=True)
class LogisticModel:
    coef: np.ndarray  # (6,) over FEATURE_NAMES
    intercept: float

    def __post_init__(self):
        c = np.array(self.coef, dtype=np.float64)
        if c.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"coef must have shape ({len(FEATURE_NAMES)},), got {c.shape}")
        if not np.isfinite(c).all() or not math.isfinite(self.intercept):
            raise ValueError("logistic parameters must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coef", c)

    def scores(self, x) -> np.ndarray:
        """The score A of each row of x, (k, 6), each summed in one order."""
        z = np.einsum("ij,j->i", x, self.coef) + self.intercept
        with np.errstate(over="ignore"):  # exp overflow: A = 0, as in the limit
            return 1.0 / (1.0 + np.exp(-z))

    def score(self, fv: FeatureVector) -> float:
        return float(self.scores(fv.array()[None])[0])


def save_logistic(path, model: LogisticModel) -> None:
    obj = {"coef": [float(v) for v in model.coef], "intercept": model.intercept}
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def load_logistic(path) -> LogisticModel:
    """The model save_logistic wrote; a malformed file raises
    ValueError("<path>: ...")."""
    try:
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
        return LogisticModel(coef=np.array(obj["coef"]), intercept=float(obj["intercept"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _solve_pd(a, b) -> np.ndarray:
    """x with a @ x = b for a small symmetric positive definite a, by
    Cholesky; a pivot not finite and > 0 raises kalman.NumericalError.

    It calls no LAPACK routine, and no other step of a pipeline run calls
    one: the first LAPACK call of a process pages about 0.25 MB of LAPACK
    code in, and fit-logistic runs after training, so such a call would
    add that much to a run's peak resident memory."""
    n = len(b)
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not 0.0 < d < math.inf:
            raise kalman.NumericalError(
                f"Newton system is not positive definite (pivot {j}: {d!r})")
        low[j, j] = math.sqrt(d)
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    y = np.empty(n)
    for i in range(n):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.empty(n)
    for i in reversed(range(n)):
        x[i] = (y[i] - low[i + 1:, i] @ x[i + 1:]) / low[i, i]
    return x


def fit_logistic(x, y) -> LogisticModel:
    """L2-penalized logistic regression of labels y (k,) on rows x (k, 6).

    Maximises the mean log-likelihood minus FIT_LAMBDA / 2 |w|^2 on
    standardized features (a constant one gets weight 0; the intercept is
    not penalized) by damped Newton (IRLS) from zero, and folds the
    standardization back. Empty or one-class y raises ValueError, no
    convergence in FIT_MAX_STEPS kalman.NumericalError.
    """
    y = np.asarray(y, dtype=np.float64)
    if not len(y):
        raise ValueError("no training examples")
    x = np.asarray(x, dtype=np.float64)
    if y.min() == y.max():
        raise ValueError("need both positive and negative examples")
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    constant = sigma < 1e-12
    sigma = np.where(constant, 1.0, sigma)
    z = np.where(constant, 0.0, (x - mu) / sigma)
    n = len(y)
    za = np.column_stack([z, np.ones(n)])  # last parameter: the intercept
    penalty = np.append(np.full(z.shape[1], FIT_LAMBDA), 0.0)

    def objective(theta):
        eta = za @ theta
        return float((y * eta - np.logaddexp(0.0, eta)).mean()
                     - 0.5 * (penalty * theta * theta).sum())

    theta = np.zeros(za.shape[1])
    f = objective(theta)
    for _ in range(FIT_MAX_STEPS):
        p = np.exp(-np.logaddexp(0.0, -(za @ theta)))
        grad = za.T @ (y - p) / n - penalty * theta
        hess = (za.T * (p * (1.0 - p))) @ za / n + np.diag(penalty)
        step = _solve_pd(hess, grad)
        if grad @ step / 2 < FIT_DECREMENT_TOL:
            # this close the full step is safe, and the halving would weigh
            # gains near the float noise of the objective
            theta = theta + step
            break
        t = 1.0
        while (f_new := objective(theta + t * step)) < f:
            t /= 2
        theta, f = theta + t * step, f_new
    else:
        raise kalman.NumericalError(
            f"logistic fit did not converge in {FIT_MAX_STEPS} Newton steps "
            f"(gradient norm {np.linalg.norm(grad):.3g})")
    w, b = theta[:-1], float(theta[-1])
    coef = w / sigma
    intercept = b - float((w * mu / sigma).sum())
    model = LogisticModel(coef=coef, intercept=intercept)
    _warn_if_distance_not_penalized(model, x[:, 0])
    return model


def _warn_if_distance_not_penalized(model: LogisticModel, m) -> None:
    """Warn once if d(logit)/dm = c_m + c_log_m / m is >= 0 on the range of
    m. It is monotone in m, so the two ends of the range decide."""
    c_m = model.coef[FEATURE_NAMES.index("m")]
    c_log_m = model.coef[FEATURE_NAMES.index("log_m")]
    for end in np.maximum([np.min(m), np.max(m)], LOG_CLAMP):
        slope = c_m + c_log_m / end
        if slope >= 0:
            log.warning(
                "fitted association score does not fall with Mahalanobis distance "
                "at m = %.4g (d logit/dm = %.4g; c_m = %.4g, c_log_m = %.4g)",
                end, slope, c_m, c_log_m,
            )
            return


def without_appearance(x) -> np.ndarray:
    """A copy of rows x as `feature_rows` gives them with the cosine at 0."""
    x = np.asarray(x, dtype=np.float64)
    return feature_rows(x[:, 0], np.zeros(len(x)), x[:, 2])


class _PairFeatures:
    """The admitted pairs' features of one sequence, built alike for
    `track_sequence`, which scores them, and `harvest_features`, which
    labels them, so the model is fit on the pairs it will score.

    A frame's detections are embedded as one matrix, a track keeps its
    latest matched detection's embedding, and a frame's pairs are one
    `feature_rows` array, with no Python per pair; without a net the cosine
    is 0. Frames are cropped as the tracker reaches them, so `frame` must
    see each frame once, in order, as `assoc.run_tracker` calls cost_fn."""

    def __init__(self, seq: Sequence, net: embed.EmbedNet | None):
        self.net = net
        self.crops = None if net is None else embed.canonicalize_frames(
            seq, (rec.detections for rec in seq.frames), embed.POINTS_PER_CROP)
        self.track_embs: dict[int, np.ndarray] = {}
        self.dets: tuple[Detection, ...] = ()
        self.det_scores = np.zeros(0)
        self.embs = self.norms = np.zeros(0)

    def frame(self, rec) -> None:
        """Start the sequence's next frame: embed its detections."""
        self.dets = rec.detections
        self.det_scores = np.array([d.score for d in rec.detections])
        if self.net is not None:
            crops = next(self.crops)
            if rec.detections:
                self.embs = embed.forward(self.net, crops)
                self.norms = embed.norms(self.embs)

    def features(self, ids, m, admitted):
        """(ii, jj, x) of the admitted pairs in row-major order: x[k] is the
        row of track ids[ii[k]] and detection jj[k]."""
        ii, jj = np.nonzero(admitted)
        a = np.zeros(len(ii))
        if self.net is not None and len(ii):
            tracks = np.array([self.track_embs[t] for t in ids])
            a = embed.cosines(tracks[ii], self.embs[jj],
                              embed.norms(tracks)[ii], self.norms[jj])
        return ii, jj, feature_rows(m[ii, jj], a, self.det_scores[jj])

    def matched(self, track_id: int, det_idx: int) -> Detection:
        """Record a match or birth; returns the detection."""
        if self.net is not None:
            self.track_embs[track_id] = self.embs[det_idx]
        return self.dets[det_idx]


def track_sequence(seq: Sequence, kcfg: kalman.NoiseConfig, acfg: AssocConfig, mode: str,
                   net: embed.EmbedNet | None = None,
                   model: LogisticModel | None = None) -> list[TrackRow]:
    """Track seq in one of MODES: one row per (frame, matched track)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    use_appearance = mode == APPEARANCE
    if use_appearance and net is None:
        raise ValueError("appearance mode requires an embedding checkpoint")
    if mode != "motion" and model is None:
        raise ValueError(f"mode {mode!r} requires a fitted logistic model")
    pairs = _PairFeatures(seq, net if use_appearance else None)

    def cost_fn(ids, rec, m, admitted):
        pairs.frame(rec)
        if mode == "motion":
            return m
        ii, jj, x = pairs.features(ids, m, admitted)
        cost = np.ones_like(m)
        cost[ii, jj] = 1.0 - model.scores(x)
        return cost

    rows: list[TrackRow] = []

    def on_match(track_id, det_idx, box):
        det = pairs.matched(track_id, det_idx)
        rows.append(TrackRow(frame=det.frame, track_id=track_id, box=box, score=det.score))

    run_tracker(seq, kcfg, acfg, cost_fn=cost_fn, on_match=on_match,
                collect_confidence=False)
    rows.sort(key=lambda r: (r.frame, r.track_id))
    return rows


def harvest_features(seq: Sequence, kcfg: kalman.NoiseConfig, acfg: AssocConfig,
                     net: embed.EmbedNet | None = None):
    """(x, y) for `fit_logistic`: the rows of the pairs the motion tracker
    admits, frame by frame, each labeled 1 iff the track's last matched
    detection and the candidate share a non-null gt_id."""
    xs, ys = [np.zeros((0, len(FEATURE_NAMES)))], []
    track_gt: dict[int, int | None] = {}
    pairs = _PairFeatures(seq, net)

    def cost_fn(ids, rec, m, admitted):
        pairs.frame(rec)
        ii, jj, x = pairs.features(ids, m, admitted)
        xs.append(x)
        tgt = [track_gt.get(t) for t in ids]
        ys.extend(int(tgt[i] is not None and tgt[i] == rec.detections[j].gt_id)
                  for i, j in zip(ii, jj))
        return m

    def on_match(track_id, det_idx, _box):
        track_gt[track_id] = pairs.matched(track_id, det_idx).gt_id

    run_tracker(seq, kcfg, acfg, cost_fn=cost_fn, on_match=on_match, collect_confidence=False)
    return np.concatenate(xs), np.array(ys, dtype=np.int64)
