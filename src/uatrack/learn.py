"""Self-supervised triplet trainer over pseudo-tracks.

One training step: sample a batch of (anchor, positive) pairs from the
pseudo-tracks, mine the hardest same-frame negative for each anchor under
the current network, weight each triplet's hinge loss by its cumulative
association confidence, sum, and take one Adam step on exact gradients.

Training reads crops, not clouds. Its caller (`cli.run_train`) cuts each
scene's frames through `embed.canonicalize_frames`, the crop path of
inference, as the scene is read, and keeps each frame's stack of crops:
a scene's clouds and detections are needed only until its crops are cut,
and are dropped before the next scene is read. A frame's detection count
is its stack's crop count. Each crop in a step is embedded once
(`embed.forward_argmax` on its rows); the step's network checks its
parameters for finiteness once, when it is built. Each anchor frame's
embeddings are stacked into one matrix, with their norms, once per step,
and each triplet's negative is one `mine_hard_negative` call: a vector
of cosines against the anchor's row. The gradient is linear in each
crop's upstream vector for a fixed arg-max, so the upstream vectors of
every triplet member that is the same crop are summed first, and
`embed.backward` runs once per distinct crop, on its critical points
only.

The trainer is deterministic given (config, seed): sampling uses one
explicit generator, a crop is a fixed function of its cloud and box
(`embed.canonicalize`), and gradient reduction order is fixed (crops in
the order the batch's triplets first reach them).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import embed
from .assoc import cumulative_confidence
from .core import TrackletLabel
from .kalman import NumericalError


class TrainingDataExhausted(RuntimeError):
    """No pseudo-track provides a usable anchor/positive pair."""


@dataclass(frozen=True)
class TrainerConfig:
    margin: float = 0.2
    learning_rate: float = 2e-5
    batch_size: int = 64
    epochs: int = 100
    max_gap: int = 10
    use_uncertainty: bool = True

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0 or self.max_gap < 1:
            raise ValueError("batch_size >= 1, epochs >= 0, max_gap >= 1 required")


class DetRef(NamedTuple):
    """A detection addressed by (scene index, frame index, det index)."""

    seq: int
    frame: int
    det: int


@dataclass(frozen=True)
class Triplet:
    """Anchor/positive from one pseudo-track plus a same-frame negative.

    negative is None until mining completes; weight is the cumulative
    association confidence of the anchor->positive chain.
    """

    anchor: DetRef
    positive: DetRef
    negative: DetRef | None
    weight: float

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"triplet weight {self.weight} outside [0, 1]")
        if self.negative is not None:
            if self.negative.frame != self.anchor.frame or self.negative.seq != self.anchor.seq:
                raise ValueError("negative must come from the anchor's frame")
            if self.negative.det == self.anchor.det:
                raise ValueError("negative must differ from the anchor")


def triplet_loss(cos_pos: float, cos_neg: float, margin: float) -> float:
    """Hinge on cosine similarities: max(cos_neg - cos_pos + margin, 0)."""
    return max(cos_neg - cos_pos + margin, 0.0)


def mine_hard_negative(embs: np.ndarray, norms: np.ndarray, anchor: int) -> int | None:
    """The row of embs, other than the anchor's, with the highest cosine
    (`embed.cosines`) to row anchor; None when the anchor is the only row.

    embs stacks the embeddings of a frame's detections in det order and
    norms holds their `embed.norms`, so the row is a det index. Ties go to
    the lowest one.
    """
    if embs.shape[0] < 2:
        return None
    cos = embed.cosines(embs, embs[anchor], norms, norms[anchor])
    cos[anchor] = -math.inf
    return int(cos.argmax())


# ---------------------------------------------------------------------------
# triplet sampling


@dataclass(frozen=True)
class TripletSource:
    """Indexed view over scenes' crops + pseudo-tracks used for sampling.

    tracks: per pseudo-track with >= 2 members, (scene index, the track
        with its link confidences, member index pairs (i, j), i < j, whose
        frame gap is within max_gap, in ascending (i, j) order)
    frames[(scene, frame)]: (rows, bounds) of the frame's crops, crop d
        being rows[bounds[d]:bounds[d + 1]]
    total_members: members of every pseudo-track, whatever its length
    """

    tracks: tuple[tuple[int, TrackletLabel, tuple[tuple[int, int], ...]], ...]
    frames: dict
    total_members: int

    def crop(self, ref: DetRef) -> np.ndarray:
        """The rows of a detection's crop."""
        rows, bounds = self.frames[(ref.seq, ref.frame)]
        return rows[bounds[ref.det]:bounds[ref.det + 1]]

    def det_count(self, scene: int, frame: int) -> int:
        """The detections of a frame; 0 for a frame the scene lacks."""
        got = self.frames.get((scene, frame))
        return 0 if got is None else len(got[1]) - 1


def build_triplet_source(frames_per_scene, tracks_per_scene, max_gap: int) -> TripletSource:
    """frames_per_scene: per scene, {frame index: `embed.CanonicalCloud`,
    the stack of that frame's crops in det order} over the frames that have
    detections; tracks_per_scene: per scene, its list of TrackletLabel.

    Raises TrainingDataExhausted when no pseudo-track has two members, or
    none has two within max_gap frames of each other.
    """
    entries = []
    frames: dict = {}
    total = 0
    for si, (crops, tracks) in enumerate(zip(frames_per_scene, tracks_per_scene, strict=True)):
        for index, stack in crops.items():
            frames[(si, index)] = (stack.points,
                                   np.append(stack.starts, len(stack.points)).tolist())
        for lab in tracks:
            members = lab.members
            total += len(members)
            if len(members) >= 2:
                pairs = tuple(
                    (i, j)
                    for i in range(len(members))
                    for j in range(i + 1, len(members))
                    if 1 <= members[j][0] - members[i][0] <= max_gap
                )
                entries.append((si, lab, pairs))
    if not entries:
        raise TrainingDataExhausted("no pseudo-track has two or more members")
    if not any(pairs for *_, pairs in entries):
        raise TrainingDataExhausted(
            f"no pseudo-track has two members within max_gap={max_gap} frames")
    return TripletSource(tracks=tuple(entries), frames=frames, total_members=total)


def sample_triplet(src: TripletSource, rng) -> Triplet | None:
    """Draw one anchor/positive pair; None means skip and resample.

    Uniform over tracks with >= 2 members, then uniform over that track's
    member pairs within the source's max_gap. The pair's weight is the
    product of the link confidences it spans. Skips when the track has no
    such pair, or when the anchor frame offers no other detection to serve
    as a negative.
    """
    si, lab, pairs = src.tracks[rng.integers(len(src.tracks))]
    if not pairs:
        return None
    i, j = pairs[rng.integers(len(pairs))]
    members = lab.members
    if src.det_count(si, members[i][0]) < 2:
        return None
    weight = cumulative_confidence(lab.link_conf[i:j])
    return Triplet(
        anchor=DetRef(si, members[i][0], members[i][1]),
        positive=DetRef(si, members[j][0], members[j][1]),
        negative=None,
        weight=weight,
    )


# ---------------------------------------------------------------------------
# Adam

# the defaults of Kingma & Ba (ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    step: int = 0

    @classmethod
    def init(cls, params) -> "AdamState":
        return cls(
            m=tuple(np.zeros_like(p) for p in params),
            v=tuple(np.zeros_like(p) for p in params),
            step=0,
        )


def adam_step(params, grads, state: AdamState, cfg: TrainerConfig):
    """Bias-corrected Adam update at cfg's learning rate, with Adam's
    default ADAM_BETA1, ADAM_BETA2 and ADAM_EPS; returns (new params, new
    state)."""
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        new_params.append(p - cfg.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(m=tuple(new_m), v=tuple(new_v), step=t)


# ---------------------------------------------------------------------------
# training


def _cosine_and_grads(a, b):
    """cos(a, b) with its gradients w.r.t. a and b; zero grads when degenerate."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < embed.NORM_EPS or nb < embed.NORM_EPS:
        return 0.0, np.zeros_like(a), np.zeros_like(b)
    c = float(np.dot(a, b) / (na * nb))
    da = b / (na * nb) - c * a / (na * na)
    db = a / (na * nb) - c * b / (nb * nb)
    return c, da, db


@dataclass
class StepRecord:
    step: int
    mean_loss: float
    mean_weight: float


def memo_forward(net: embed.EmbedNet, crops):
    """Memoized `embed.forward_argmax`: DetRef -> (embedding, arg-max rows).

    crops maps a DetRef to the rows of its crop.
    """
    cache: dict = {}

    def fwd(ref):
        got = cache.get(ref)
        if got is None:
            got = cache[ref] = embed.forward_argmax(net, crops(ref))
        return got

    return fwd


def batch_loss_and_grads(net: embed.EmbedNet, crops, triplets, margin: float,
                         use_uncertainty: bool = True, fwd=None):
    """Summed weighted triplet loss and exact parameter gradients for a
    batch of completed triplets (negatives already chosen).

    crops maps a DetRef to the rows of its crop. Hinge-inactive or zero-weight
    triplets contribute nothing to the gradient; the mining arg-max is
    treated as frozen. Each crop's upstream vectors are summed, in the order
    the triplets first reach the crop, and backpropagated once. A
    `memo_forward` of the same net may be passed as fwd. Returns (loss_sum,
    grads, weight_sum).
    """
    if fwd is None:
        fwd = memo_forward(net, crops)

    loss_sum = 0.0
    weight_sum = 0.0
    upstream: dict = {}
    for t in triplets:
        if t.negative is None:
            raise ValueError("triplet has no mined negative")
        e_a = fwd(t.anchor)[0]
        e_p = fwd(t.positive)[0]
        e_n = fwd(t.negative)[0]
        w = t.weight if use_uncertainty else 1.0
        cp, dp_a, dp_p = _cosine_and_grads(e_a, e_p)
        cn, dn_a, dn_n = _cosine_and_grads(e_a, e_n)
        raw = triplet_loss(cp, cn, margin)
        loss_sum += raw * w
        weight_sum += w
        if raw > 0.0 and w > 0.0:
            for ref, up in (
                (t.anchor, w * (dn_a - dp_a)),
                (t.positive, -w * dp_p),
                (t.negative, w * dn_n),
            ):
                prev = upstream.get(ref)
                upstream[ref] = up if prev is None else prev + up

    grads = [np.zeros_like(p) for p in net.params()]
    for ref, up in upstream.items():
        for slot, g in enumerate(embed.backward(net, crops(ref), up, arg=fwd(ref)[1])):
            grads[slot] += g
    return loss_sum, grads, weight_sum


def train(frames_per_scene, tracks_per_scene, net: embed.EmbedNet, cfg: TrainerConfig, *,
          seed: int = 0):
    """Run the full triplet-training loop; returns (trained net, history).

    frames_per_scene and tracks_per_scene are as `build_triplet_source`
    takes them: each scene's per-frame crop stacks, cut before training,
    and its pseudo-tracks. seed drives the sampling generator. Training
    reads no cloud: a scene's clouds are dropped once its frames are cut,
    so a run holds the crops and never every scene's clouds and detections
    beside them. Holding those set every benchmark run's peak resident
    memory; dropping them lowers the train stage's high-water mark by
    about 2.2 MB (44.5 to 42.3 MB, `train` workload config). Every frame
    with detections is cut, not only those that training reaches: on the
    workload configs that is 98-100% of the crops, and at most 2% more
    crop rows.

    One epoch is ceil(total pseudo-track members / batch size) steps. Each
    triplet's negative is the hardest other detection of the anchor's
    frame: the one whose embedding under the current network has the
    highest cosine to the anchor's (`mine_hard_negative`). A pseudo-track
    has at most one member per frame, so no candidate belongs to the
    anchor's own track. The batch loss is the sum of weighted
    triplet losses; history records its mean per step alongside the mean
    triplet weight.
    """
    src = build_triplet_source(frames_per_scene, tracks_per_scene, cfg.max_gap)
    rng = np.random.default_rng(seed)
    params = net.params()
    adam = AdamState.init(params)
    history: list[StepRecord] = []

    steps_per_epoch = max(1, math.ceil(src.total_members / cfg.batch_size))
    global_step = 0
    for _epoch in range(cfg.epochs):
        for _step in range(steps_per_epoch):
            triplets: list[Triplet] = []
            attempts = 0
            while len(triplets) < cfg.batch_size:
                attempts += 1
                if attempts > 200 * cfg.batch_size:
                    raise TrainingDataExhausted(
                        "could not assemble a batch; anchors have no negatives"
                    )
                t = sample_triplet(src, rng)
                if t is not None:
                    triplets.append(t)

            current = embed.EmbedNet.from_params(params)
            fwd = memo_forward(current, src.crop)

            # complete each triplet with a negative under the current net,
            # from its anchor frame's embeddings stacked once per step
            frames: dict = {}
            completed: list[Triplet] = []
            for t in triplets:
                a = t.anchor
                stacked = frames.get((a.seq, a.frame))
                if stacked is None:
                    dets = range(src.det_count(a.seq, a.frame))
                    embs = np.stack([fwd(a._replace(det=d))[0] for d in dets])
                    stacked = frames[(a.seq, a.frame)] = (embs, embed.norms(embs))
                n_det = mine_hard_negative(*stacked, a.det)
                completed.append(Triplet(a, t.positive, DetRef(a.seq, a.frame, n_det), t.weight))

            loss_sum, grads, weight_sum = batch_loss_and_grads(
                current, src.crop, completed, cfg.margin, cfg.use_uncertainty, fwd=fwd)
            if not math.isfinite(loss_sum):
                raise NumericalError(
                    f"non-finite batch loss at step {global_step} "
                    f"(epoch {_epoch}, triplets={len(triplets)})"
                )
            params, adam = adam_step(params, grads, adam, cfg)
            history.append(StepRecord(
                step=global_step,
                mean_loss=loss_sum / len(triplets),
                mean_weight=weight_sum / len(triplets),
            ))
            global_step += 1

    return embed.EmbedNet.from_params(params), history


def write_loss_history(path, history) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(f"{rec.step},{rec.mean_loss},{rec.mean_weight}\n")
