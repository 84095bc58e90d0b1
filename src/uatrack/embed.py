"""Point-cloud canonicalization and a PointNet-style embedding network.

The network is a shared per-point MLP (rectifier hidden layers, identity
output) followed by a coordinate-wise max over points; the max makes the
embedding invariant to point order. Gradients are exact reverse-mode and
hand-written (`backward`), which keeps training dependency-free and
bit-reproducible.

A detection has one crop, `detection_crop`, the only caller of
`canonicalize` in the package; training crops it, and every inference path
(the tracker, the logistic-fit harvest, SOT evaluation) embeds it through
`detection_embedder`, which crops and embeds each detection of a sequence
once. Those paths stack the embeddings they compare into matrices and take
their cosines with `cosines`; training's hard-negative mining does too.
`[embed] points_per_crop` is the size of the crop's draw:
a sparse crop is drawn with replacement and keeps each drawn point once, so
a crop holds at most that many distinct points and the MLP never embeds a
copy.

An `EmbedNet` checks its parameters for finiteness once, when it is built,
so no pass re-checks them. Inference calls `forward`; training calls
`forward_argmax`, which also returns the arg-max point of each output
coordinate. The max pool sends gradient only to those arg-max points, the
crop's critical point set (Qi et al., PointNet, CVPR 2017), so `backward`
reruns the hidden layers on those rows alone and computes no gradient with
respect to the points.

Checkpoint format: magic "UANN", uint32 layer count, then per layer
uint32 in, uint32 out, row-major float64 weights (out x in), float64
biases (out), all little-endian.
"""

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Box7, Detection, PointCloud, Sequence
from .kalman import NumericalError

NORM_EPS = 1e-12
DEFAULT_WIDTHS = (3, 64, 64, 64)
DEFAULT_POINTS = 128

NET_MAGIC = b"UANN"


def canon_seed(cloud_ref: str) -> tuple[int, int]:
    """Stable resampling seed derived from a cloud ref, independent of the
    order in which detections are processed. The trailing 0 is part of the
    seed: dropping it would change every crop."""
    digest = hashlib.sha256(cloud_ref.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "little"), 0)


@dataclass(frozen=True)
class CanonicalCloud:
    """Crop of a cloud expressed in its box's local frame, one row per
    distinct drawn point."""

    points: np.ndarray  # (k, 3) float64, k at most the draw size n

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"canonical points must be (n, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("canonical cloud contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def canonicalize(cloud: PointCloud, box: Box7, n: int, seed) -> CanonicalCloud:
    """Crop a world-frame cloud to a box and draw n of its points; keep
    each drawn point once, so the crop has at most n rows.

    Points are translated by -center and rotated by -yaw about z, then kept
    if they fall inside the axis-aligned extents. More than n survivors are
    subsampled without replacement, exactly n are kept in order. Fewer are
    drawn n times with replacement and each drawn survivor is kept once, in
    the order of its first draw: a repeated row changes neither the max
    pool nor its first arg-max, so the copies are never embedded. A crop
    with zero survivors is one row, the origin.
    """
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    # row-vector form of R(-yaw) @ (p - center); the float64 center makes
    # the difference float64 without a cast copy of the float32 points
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    local = (cloud.points - box.center) @ rot
    dist = np.abs(local)
    inside = local[(dist[:, 0] <= box.l / 2.0) & (dist[:, 1] <= box.w / 2.0)
                   & (dist[:, 2] <= box.h / 2.0)]
    count = inside.shape[0]
    if count == 0:
        return CanonicalCloud(points=np.zeros((1, 3)))
    if count == n:
        return CanonicalCloud(points=inside)
    rng = np.random.default_rng(seed)
    if count > n:
        return CanonicalCloud(points=inside[rng.choice(count, size=n, replace=False)])
    # the draws of rng.choice(count, size=n, replace=True); each drawn
    # index is kept at its first draw
    idx = rng.integers(0, count, size=n)
    order = np.arange(n)
    first = np.full(count, n)
    np.minimum.at(first, idx, order)
    return CanonicalCloud(points=inside[idx[first[idx] == order]])


def detection_crop(seq: Sequence, det: Detection, n: int) -> CanonicalCloud:
    """The canonical crop of a detection: its cloud cut to its box, with n
    points drawn by a seed taken from its cloud ref and each drawn point
    kept once (`canonicalize`)."""
    return canonicalize(seq.cloud_of(det), det.box, n, seed=canon_seed(det.cloud_ref))


def detection_embedder(net: "EmbedNet", seq: Sequence, n: int):
    """det -> forward(net, detection_crop(seq, det, n)), memoised per
    detection, so a detection of seq is cropped and embedded once. The
    embeddings returned are shared, hence read-only."""
    cache: dict[Detection, np.ndarray] = {}

    def embedding(det: Detection) -> np.ndarray:
        got = cache.get(det)
        if got is None:
            got = cache[det] = forward(net, detection_crop(seq, det, n))
            got.setflags(write=False)
        return got

    return embedding


@dataclass(frozen=True)
class EmbedNet:
    """Per-point MLP + max pool. weights[k] has shape (out_k, in_k).

    Raises NumericalError when built with a NaN or infinite parameter.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(ws) != len(bs) or not ws:
            raise ValueError("weights and biases must pair up, one per layer")
        prev = ws[0].shape[1]
        for w, b in zip(ws, bs):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"inconsistent layer shapes {w.shape} / {b.shape}")
            if w.shape[1] != prev:
                raise ValueError(f"layer input {w.shape[1]} != previous output {prev}")
            prev = w.shape[0]
        if not all(np.isfinite(a).all() for a in ws + bs):
            raise NumericalError("network parameters contain non-finite values")
        for a in ws + bs:
            a.setflags(write=False)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def dim(self) -> int:
        return self.weights[-1].shape[0]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @classmethod
    def from_params(cls, params) -> "EmbedNet":
        return cls(weights=tuple(params[0::2]), biases=tuple(params[1::2]))

    @classmethod
    def random(cls, widths=DEFAULT_WIDTHS, seed=0) -> "EmbedNet":
        """He-initialized network with zero biases."""
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"need at least [in, out] positive widths, got {widths}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights=tuple(weights), biases=tuple(biases))


def _mlp(net: EmbedNet, points: np.ndarray) -> np.ndarray:
    """Per-point features of the shared MLP, one row per point."""
    x = points
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        x = x @ w.T
        x += b
        if k < last:
            np.maximum(x, 0.0, out=x)
    return x


def forward(net: EmbedNet, cloud: CanonicalCloud) -> np.ndarray:
    """Embed a canonical cloud: shared per-point MLP, then max over points."""
    return _mlp(net, cloud.points).max(axis=0)


def forward_argmax(net: EmbedNet, cloud: CanonicalCloud) -> tuple[np.ndarray, np.ndarray]:
    """Training forward pass: (embedding, arg), where arg[j] is the point
    that attains output coordinate j, the first one on a tie.

    The embedding equals `forward`'s bit for bit.
    """
    x = _mlp(net, cloud.points)
    arg = x.argmax(axis=0)
    return x[arg, np.arange(x.shape[1])], arg


def backward(net: EmbedNet, cloud: CanonicalCloud, upstream, arg=None) -> list[np.ndarray]:
    """Exact gradients of upstream . embedding w.r.t. every weight and bias.

    The max pool routes gradient to the arg-max point of each output
    coordinate (ties to the lowest point index), so only those critical
    points carry gradient: the hidden layers are rerun on them alone, and
    no gradient with respect to the points is computed. arg is the arg-max
    from `forward_argmax` on the same net and cloud; when None it is
    computed here. Returns arrays aligned with net.params().
    """
    upstream = np.asarray(upstream, dtype=np.float64).reshape(net.dim)
    if arg is None:
        _, arg = forward_argmax(net, cloud)
    # the critical rows in ascending order, and each coordinate's place among them
    hit = np.zeros(cloud.points.shape[0], dtype=bool)
    hit[arg] = True
    rows = np.flatnonzero(hit)
    pos = np.cumsum(hit)[arg] - 1
    acts = [cloud.points[rows]]
    last = len(net.weights) - 1
    for w, b in zip(net.weights[:last], net.biases[:last]):
        x = acts[-1] @ w.T
        x += b
        acts.append(np.maximum(x, 0.0, out=x))
    g = np.zeros((rows.size, net.dim))
    g[pos, np.arange(net.dim)] = upstream

    grads: list[np.ndarray] = [None] * (2 * len(net.weights))
    for k in range(last, -1, -1):
        if k < last:
            g *= acts[k + 1] > 0
        grads[2 * k] = g.T @ acts[k]
        grads[2 * k + 1] = g.sum(axis=0)
        if k:
            g = g @ net.weights[k]
    return grads


def norms(x) -> np.ndarray:
    """Euclidean norm of each row of x (of x itself when it is a vector)."""
    return np.sqrt(np.einsum("...j,...j->...", x, x))


def cosines(x, y, x_norms, y_norms) -> np.ndarray:
    """Cosine similarity of each row of x with the matching row of y, the
    rows broadcast as in numpy, given their `norms`.

    A cosine is 0 where either norm is below NORM_EPS, which keeps
    empty-crop embeddings from blowing up training or evaluation; else it
    is the dot over the product of the norms, clipped to [-1, 1]. Each
    row's dot and norm are summed in one order whatever the row's position,
    so equal rows get equal cosines and an arg-max over them takes the
    first.
    """
    dots = np.einsum("...j,...j->...", x, y)
    ok = (x_norms >= NORM_EPS) & (y_norms >= NORM_EPS)
    out = np.zeros(np.shape(dots))
    np.divide(dots, x_norms * y_norms, out=out, where=ok)
    # np.clip's values in two cheaper ufunc calls
    np.minimum(out, 1.0, out=out)
    return np.maximum(out, -1.0, out=out)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: EmbedNet) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(NET_MAGIC)
        fh.write(struct.pack("<I", len(net.weights)))
        for w, b in zip(net.weights, net.biases):
            out_dim, in_dim = w.shape
            fh.write(struct.pack("<II", in_dim, out_dim))
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> EmbedNet:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != NET_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, expected {NET_MAGIC!r}")
    off = 4
    weights, biases = [], []
    try:
        (layers,) = struct.unpack_from("<I", raw, off)
        off += 4
        for _ in range(layers):
            in_dim, out_dim = struct.unpack_from("<II", raw, off)
            off += 8
            w = np.frombuffer(raw, dtype="<f8", count=in_dim * out_dim, offset=off)
            off += in_dim * out_dim * 8
            b = np.frombuffer(raw, dtype="<f8", count=out_dim, offset=off)
            off += out_dim * 8
            weights.append(w.reshape(out_dim, in_dim).copy())
            biases.append(b.copy())
    except (struct.error, ValueError) as exc:
        raise ValueError(f"{path}: truncated at byte {off} of {len(raw)}: {exc}") from exc
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise ValueError(f"{path}: non-finite parameters")
    try:
        return EmbedNet(weights=tuple(weights), biases=tuple(biases))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
