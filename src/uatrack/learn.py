"""Self-supervised triplet trainer over pseudo-tracks.

One training step: sample a batch of (anchor, positive) pairs from the
pseudo-tracks, mine the hardest same-frame negative for each anchor under
the current network, weight each triplet's hinge loss (margin
TRIPLET_MARGIN) by its cumulative association confidence, sum, and take
one Adam step on the network's reverse-mode gradients.
A `Triplet` is built once, when its negative is mined; its weight is a
product of link confidences that `core.TrackletLabel` checked, and mining
picks a negative of the anchor's frame other than the anchor, so neither
is checked again.

Training reads crops, not clouds. Its caller (`cli.run_train`) cuts each
scene's frames through `embed.canonicalize_frames`, the crop path of
inference, as the scene is read, and keeps each frame's stack of crops:
a scene's clouds and detections are needed only until its crops are cut,
and are dropped before the next scene is read. `TripletSource` holds
those stacks as they were cut, neither copied nor converted: a crop is a
slice of its stack's rows by the stack's bounds, and a frame's detection
count is its stack's crop count. A step embeds each crop it uses once
(`step_forward`): each anchor frame whole, in one `embed.forward_argmax`
call on its stack as cut, which gives the frame's embedding matrix and
every crop's arg-max rows, and a positive outside the anchor frames alone,
as a one-crop stack. The step's network checks its parameters for
finiteness once, when it is built. Each triplet's negative is one
`mine_hard_negative` call on its anchor frame's matrix: a vector of
cosines against the anchor's row. The loss and its upstream vectors are
computed for the whole batch at once, one row per triplet. The gradient
is linear in each crop's upstream vector for a fixed arg-max, so the
upstream vectors of every triplet member that is the same crop are summed
first, and one `embed.backward` call a step backpropagates every crop that
has one, on its critical points only, in passes over whole crops of at
most `embed.MAX_BACKWARD_ROWS` critical rows.

The trainer is deterministic given (config, seed): sampling uses one
explicit generator, a crop is a fixed function of its cloud and box
(`embed.canonicalize`), and every reduction order is fixed: the batch's
sums run one triplet after another, and the gradients' over crops in the
order the triplets first reach them, packed into passes in that order.

Precision: `train` holds the parameters and the Adam state in float64
whatever net it is given, and returns a float64 net, so the checkpoint
format does not depend on it. Each step's network is built in the given
net's dtype, and its passes compute in it (`embed`). Given a float64 net,
a step's gradients are exact. Given a float32 net, as the pipeline gives
it (`embed.PASS_DTYPE`), the forwards and the backward run in float32:
the step's parameters are the float64 ones rounded to float32, its
gradients are exact for that float32 arithmetic only, and Adam adds them
to the float64 parameters (mixed precision, Micikevicius et al., ICLR
2018). The embeddings, the mining, the loss and its upstream vectors stay
float64. A step whose float64 parameters leave float32's range is refused
with a `NumericalError` that names it, before any pass.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import embed
from .core import TrackletLabel
from .kalman import NumericalError


TRIPLET_MARGIN = 0.2  # the hinge's margin on cosine similarities


class TrainingDataExhausted(RuntimeError):
    """No pseudo-track provides a usable anchor/positive pair."""


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 2e-5
    batch_size: int = 64
    epochs: int = 100
    max_gap: int = 10
    use_uncertainty: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0 or self.max_gap < 1:
            raise ValueError("batch_size >= 1, epochs >= 0, max_gap >= 1 required")


class DetRef(NamedTuple):
    """A detection addressed by (scene index, frame index, det index)."""

    seq: int
    frame: int
    det: int


class Triplet(NamedTuple):
    """Anchor/positive from one pseudo-track, the hardest same-frame
    negative mined for the anchor, and the cumulative association
    confidence of the anchor->positive chain as weight."""

    anchor: DetRef
    positive: DetRef
    negative: DetRef
    weight: float


def triplet_loss(cos_pos, cos_neg):
    """Hinge on cosine similarities: max(cos_neg - cos_pos + TRIPLET_MARGIN,
    0), of numbers or elementwise over arrays."""
    return np.maximum(cos_neg - cos_pos + TRIPLET_MARGIN, 0.0)


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
    frames[(scene, frame)]: the `embed.CanonicalCloud` that
        `cli.frame_crops` cut for the frame, held as it is; its crop d is
        detection d's
    total_members: members of every pseudo-track, whatever its length
    """

    tracks: tuple[tuple[int, TrackletLabel, tuple[tuple[int, int], ...]], ...]
    frames: dict
    total_members: int

    def crop(self, ref: DetRef) -> np.ndarray:
        """The rows of a detection's crop."""
        points, bounds = self.frames[(ref.seq, ref.frame)]
        return points[bounds[ref.det]:bounds[ref.det + 1]]

    def det_count(self, scene: int, frame: int) -> int:
        """The detections of a frame; 0 for a frame the scene lacks."""
        got = self.frames.get((scene, frame))
        return 0 if got is None else len(got.bounds) - 1


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
            frames[(si, index)] = stack
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


def sample_triplet(src: TripletSource, rng) -> tuple[DetRef, DetRef, float] | None:
    """Draw one (anchor, positive, weight); None means skip and resample.

    Uniform over tracks with >= 2 members, then uniform over that track's
    member pairs within the source's max_gap. The weight is the product of
    the link confidences the pair spans, each in [0, 1] (`TrackletLabel`
    checks them). Skips when the track has no such pair, or when the
    anchor frame offers no other detection to serve as a negative.
    """
    si, lab, pairs = src.tracks[rng.integers(len(src.tracks))]
    if not pairs:
        return None
    i, j = pairs[rng.integers(len(pairs))]
    members = lab.members
    if src.det_count(si, members[i][0]) < 2:
        return None
    return (DetRef(si, *members[i]), DetRef(si, *members[j]), math.prod(lab.link_conf[i:j]))


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
    state). Gradients of a float32 net are taken to float64 first, so
    float64 params and state stay float64."""
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g.astype(np.float64, copy=False)
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


def _cosines_and_grads(a, b):
    """Each row pair's cosine cos(a[i], b[i]), (T,), with its gradients
    w.r.t. a[i] and b[i], (T, dim) each; a row pair where either norm
    (`embed.norms`) is below NORM_EPS gets 0 and zero gradients. Each row
    is computed in one order whatever the rows beside it."""
    na, nb = embed.norms(a), embed.norms(b)
    ok = (na >= embed.NORM_EPS) & (nb >= embed.NORM_EPS)
    na = np.where(ok, na, 1.0)[:, None]
    nb = np.where(ok, nb, 1.0)[:, None]
    c = np.einsum("...j,...j->...", a, b)[:, None] / (na * nb)
    da = b / (na * nb) - c * a / (na * na)
    db = a / (na * nb) - c * b / (nb * nb)
    ok = ok[:, None]
    return np.where(ok, c, 0.0)[:, 0], np.where(ok, da, 0.0), np.where(ok, db, 0.0)


@dataclass
class StepRecord:
    step: int
    mean_loss: float
    mean_weight: float


def _loss_and_upstream(triplets, fwd, use_uncertainty: bool, dim: int):
    """(loss_sum, weight_sum, refs, upstream) of a batch of triplets, as
    `batch_loss_and_grads` defines them: refs lists each crop that an
    active triplet reaches, in the order the triplets first reach them, and
    upstream[i] sums the upstream vectors of crop refs[i]. Its work arrays
    go when it returns, before any backward pass."""
    # one row per triplet: its anchor's, positive's and negative's embedding
    e_a, e_p, e_n = (np.array([fwd(t[k])[0] for t in triplets]).reshape(-1, dim)
                     for k in range(3))
    w = np.array([t.weight if use_uncertainty else 1.0 for t in triplets])
    cp, dp_a, dp_p = _cosines_and_grads(e_a, e_p)
    cn, dn_a, dn_n = _cosines_and_grads(e_a, e_n)
    raw = triplet_loss(cp, cn)
    # summed one triplet after another, as a loop over them would
    loss_sum = float(np.cumsum(np.append(0.0, raw * w))[-1])
    weight_sum = float(np.cumsum(np.append(0.0, w))[-1])

    # the upstream vectors of each active triplet's anchor, positive and
    # negative, summed per crop
    active = np.flatnonzero((raw > 0.0) & (w > 0.0))
    wa = w[active, None]
    ups = np.stack((wa * (dn_a - dp_a)[active], -wa * dp_p[active], wa * dn_n[active]), axis=1)
    slot: dict = {}
    at = [slot.setdefault(ref, len(slot)) for i in active.tolist() for ref in triplets[i][:3]]
    upstream = np.zeros((len(slot), dim))
    np.add.at(upstream, np.array(at, dtype=np.intp), ups.reshape(-1, dim))
    return loss_sum, weight_sum, list(slot), upstream


def batch_loss_and_grads(net: embed.EmbedNet, crops, triplets, fwd,
                         use_uncertainty: bool = True):
    """Summed weighted triplet loss and exact parameter gradients for a
    batch of triplets.

    crops maps a DetRef to the rows of its crop, and fwd maps it to the
    crop's (embedding, arg-max rows) under net, as `embed.forward_argmax`
    gives them (`step_forward`'s fwd). Hinge-inactive or zero-weight
    triplets contribute nothing to the gradient; the mining arg-max is
    treated as frozen. Each crop's upstream vectors are summed, and one
    `embed.backward` call backpropagates every crop that has one, in the
    order the triplets first reach the crops. Returns (loss_sum, grads,
    weight_sum).
    """
    loss_sum, weight_sum, refs, upstream = _loss_and_upstream(
        triplets, fwd, use_uncertainty, net.dim)
    grads = embed.backward(net, [crops(ref) for ref in refs], upstream,
                           [fwd(ref)[1] for ref in refs])
    return loss_sum, grads, weight_sum


def step_forward(net: embed.EmbedNet, src: TripletSource, drawn):
    """The forward pass of a training step over its drawn (anchor,
    positive, weight) pairs: (frames, fwd).

    Each anchor frame is embedded whole, its stack as cut, in one
    `embed.forward_argmax` call: frames[(scene, frame)] is its (embeddings,
    `embed.norms`, arg-max rows), one row per detection. A positive outside
    the anchor frames is embedded alone, as a one-crop stack, once. fwd
    maps a detection of an anchor frame, or such a positive, to its
    (embedding, arg-max rows).
    """
    frames: dict = {}
    for a, _, _ in drawn:
        key = (a.seq, a.frame)
        if key not in frames:
            embs, arg = embed.forward_argmax(net, src.frames[key])
            frames[key] = embs, embed.norms(embs), arg
    alone: dict = {}
    for _, pos, _ in drawn:
        if (pos.seq, pos.frame) not in frames and pos not in alone:
            alone[pos] = embed.forward_argmax(net, embed.one_crop(src.crop(pos)))

    def fwd(ref):
        got = frames.get((ref.seq, ref.frame))
        if got is None:
            embs, arg = alone[ref]
            return embs[0], arg[0]
        return got[0][ref.det], got[2][ref.det]

    return frames, fwd


def train(frames_per_scene, tracks_per_scene, net: embed.EmbedNet, cfg: TrainerConfig, *,
          seed: int = 0):
    """Run the full triplet-training loop; returns (trained net, history),
    the net float64 whatever net's dtype, each step's passes in net's.

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
    params = net.astype(np.float64).params()
    adam = AdamState.init(params)
    history: list[StepRecord] = []

    steps_per_epoch = max(1, math.ceil(src.total_members / cfg.batch_size))
    global_step = 0
    for _epoch in range(cfg.epochs):
        for _step in range(steps_per_epoch):
            drawn = []
            attempts = 0
            while len(drawn) < cfg.batch_size:
                attempts += 1
                if attempts > 200 * cfg.batch_size:
                    raise TrainingDataExhausted(
                        "could not assemble a batch; anchors have no negatives"
                    )
                got = sample_triplet(src, rng)
                if got is not None:
                    drawn.append(got)

            try:
                current = embed.EmbedNet.from_params(embed.cast_params(params, net.dtype))
            except NumericalError as exc:
                raise NumericalError(f"{exc} at step {global_step} (epoch {_epoch})") from None
            frames, fwd = step_forward(current, src, drawn)
            # mine each anchor's negative under the current net, from its
            # frame's embeddings
            triplets = [Triplet(a, pos, a._replace(det=mine_hard_negative(
                            *frames[(a.seq, a.frame)][:2], a.det)), weight)
                        for a, pos, weight in drawn]

            loss_sum, grads, weight_sum = batch_loss_and_grads(
                current, src.crop, triplets, fwd, cfg.use_uncertainty)
            # the step's embeddings go before the next step's are made
            del frames, fwd
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
