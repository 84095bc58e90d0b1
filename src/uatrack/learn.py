"""Self-supervised triplet trainer over pseudo-tracks (`train`).

A step samples (anchor, positive) pairs from the pseudo-tracks, mines each
anchor's hardest same-frame negative under the current network, weights
each triplet's hinge loss by the link confidences its pair spans, and
takes one Adam step on the summed loss's gradients.

Training is deterministic given (config, seed): sampling draws from one
generator, a crop is fixed (`embed.canonicalize`), and every sum runs in a
fixed order, the batch's one triplet after another and the gradients' over
crops in the order the triplets first reach them.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import embed
from .core import TrackletLabel
from .kalman import NumericalError


TRIPLET_MARGIN = 0.2  # the hinge's margin on cosine similarities
MAX_GAP = 10  # the most frames between a training pair's anchor and positive


class TrainingDataExhausted(RuntimeError):
    """No pseudo-track provides a usable anchor/positive pair."""


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 2e-5
    batch_size: int = 64
    epochs: int = 100
    use_uncertainty: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size >= 1 and epochs >= 0 required")


class DetRef(NamedTuple):
    """A detection addressed by (scene index, frame index, det index)."""

    seq: int
    frame: int
    det: int


class Triplet(NamedTuple):
    """Built once, after mining, and not checked again: the weight is a
    product of link confidences that `core.TrackletLabel` checked."""

    anchor: DetRef
    positive: DetRef
    negative: DetRef
    weight: float


def triplet_loss(cos_pos, cos_neg):
    """Hinge on cosine similarities, of numbers or elementwise over arrays."""
    return np.maximum(cos_neg - cos_pos + TRIPLET_MARGIN, 0.0)


def mine_hard_negative(embs: np.ndarray, norms: np.ndarray, anchor: int) -> int | None:
    """The row of embs, a frame's embeddings in det order (norms their
    `embed.norms`), other than the anchor's, of highest cosine to it, ties
    to the lowest; None when the anchor is alone."""
    if embs.shape[0] < 2:
        return None
    cos = embed.cosines(embs, embs[anchor], norms, norms[anchor])
    cos[anchor] = -math.inf
    return int(cos.argmax())


# ---------------------------------------------------------------------------
# triplet sampling


@dataclass(frozen=True)
class TripletSource:
    """tracks: per pseudo-track with >= 2 members, (scene index, track,
    its member pairs (i, j), i < j, at most MAX_GAP frames apart, ascending).
    frames[(scene, frame)]: the stack `cli.frame_crops` cut, held uncopied;
    crop d is detection d's. total_members counts every track's members."""

    tracks: tuple[tuple[int, TrackletLabel, tuple[tuple[int, int], ...]], ...]
    frames: dict
    total_members: int

    def crop(self, ref: DetRef) -> np.ndarray:
        """The rows of a detection's crop."""
        points, bounds = self.frames[(ref.seq, ref.frame)]
        return points[bounds[ref.det]:bounds[ref.det + 1]]

    def det_count(self, scene: int, frame: int) -> int:
        """A frame's detection count; 0 for a frame the scene lacks."""
        got = self.frames.get((scene, frame))
        return 0 if got is None else len(got.bounds) - 1


def build_triplet_source(frames_per_scene, tracks_per_scene) -> TripletSource:
    """The source of per-scene frame stacks and pseudo-tracks; raises
    TrainingDataExhausted when no track has two members within MAX_GAP."""
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
                    if 1 <= members[j][0] - members[i][0] <= MAX_GAP
                )
                entries.append((si, lab, pairs))
    if not entries:
        raise TrainingDataExhausted("no pseudo-track has two or more members")
    if not any(pairs for *_, pairs in entries):
        raise TrainingDataExhausted(
            f"no pseudo-track has two members within MAX_GAP={MAX_GAP} frames")
    return TripletSource(tracks=tuple(entries), frames=frames, total_members=total)


def sample_triplet(src: TripletSource, rng) -> tuple[DetRef, DetRef, float] | None:
    """(anchor, positive, weight): a track uniformly, then one of its pairs;
    the weight multiplies the links the pair spans. None (resample) when
    the track has no pair or the anchor frame no other detection."""
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
    """Bias-corrected Adam; returns (params, state). Gradients are taken to
    float64 first, so float64 params and state stay float64."""
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
    """Each row pair's cosine, (T,), and its gradients w.r.t. a and b, 0
    where a norm is below NORM_EPS. A row's arithmetic does not depend on
    the rows beside it."""
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
    """(loss_sum, weight_sum, refs, upstream): refs the crops active
    triplets reach, in first-reached order, upstream[i] the summed upstream
    vectors of refs[i]. A function of its own, so that its work arrays go
    before the backward pass."""
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
    """(loss_sum, grads, weight_sum) of a batch, the gradients exact for
    net's arithmetic with the mining and the arg-max rows held fixed.

    crops maps a DetRef to its crop's rows and fwd to its (embedding,
    arg-max rows), as `step_forward` gives them. The gradient is linear in
    a crop's upstream vector, so each crop's are summed first and one
    `embed.backward` call takes every crop that has one.
    """
    loss_sum, weight_sum, refs, upstream = _loss_and_upstream(
        triplets, fwd, use_uncertainty, net.dim)
    grads = embed.backward(net, [crops(ref) for ref in refs], upstream,
                           [fwd(ref)[1] for ref in refs])
    return loss_sum, grads, weight_sum


def step_forward(net: embed.EmbedNet, src: TripletSource, drawn):
    """(frames, fwd) of a step's drawn pairs, each crop embedded once.

    Each anchor frame is one `embed.forward_argmax` call on its stack:
    frames[(scene, frame)] is its (embeddings, norms, arg-max rows). A
    positive outside them is embedded alone, as a one-crop stack. fwd maps
    either to its (embedding, arg-max rows).
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
    """Train net on the scenes' crop stacks and pseudo-tracks
    (`build_triplet_source`); returns (float64 net, one StepRecord a step).

    The parameters and the Adam state are float64 whatever net's dtype, so
    the checkpoint does not depend on it; each step's network is built in
    net's dtype and its passes compute in it (mixed precision, Micikevicius
    et al., ICLR 2018). A step whose parameters leave that dtype's range
    raises NumericalError naming it, and so do the last step's parameters,
    which later stages cast. An epoch is ceil(members / batch size)
    steps. A pseudo-track has one member per frame, so no mined negative
    is of the anchor's track.
    """
    src = build_triplet_source(frames_per_scene, tracks_per_scene)
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

            current = _step_net(params, net.dtype, f"at step {global_step} (epoch {_epoch})")
            frames, fwd = step_forward(current, src, drawn)
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

    _step_net(params, net.dtype, f"after step {global_step - 1}, the last")
    return embed.EmbedNet.from_params(params), history


def _step_net(params, dtype, where: str) -> embed.EmbedNet:
    """The network of params cast to dtype; a NumericalError names where."""
    try:
        return embed.EmbedNet.from_params(embed.cast_params(params, dtype))
    except NumericalError as exc:
        raise NumericalError(f"{exc} {where}") from None


def write_loss_history(path, history) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(f"{rec.step},{rec.mean_loss},{rec.mean_weight}\n")
