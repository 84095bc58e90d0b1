"""Point-cloud canonicalization and a PointNet-style embedding network.

The network is a shared per-point MLP (rectifier hidden layers, identity
output) followed by a coordinate-wise max over points; the max makes the
embedding invariant to point order. Gradients are exact reverse-mode and
hand-written (`backward`), which keeps training dependency-free and
bit-reproducible.

Crops are made a run of frames at a time. `canonicalize` cuts any list of
one scene's detections in one pass over their concatenated clouds and
returns them as one stack, a `CanonicalCloud` with a start row per crop;
a detection's crop is the same bytes whether it is cut alone or with
others. `canonicalize_frames` cuts runs of whole consecutive frames in one
`canonicalize` pass each and gives each frame a read-only view of its
pass's stack. It is the one crop path: every inference path (the tracker
and the logistic-fit harvest in `mot`, SOT evaluation) crops through it
and embeds each frame with one `forward` call, and training cuts every
frame of a scene through it as the scene is read (`cli.frame_crops`),
holding the stacks and dropping the scene's clouds (`learn.train`).

A crop is a fixed function of its cloud, its box and n =
`[embed] points_per_crop`, with no random draw: of its count in-box
survivors, in cloud order, it keeps all of them when count <= n and
survivor (j * count) // n for j < n when count > n, evenly spaced through
the cloud; a crop with none is one origin row. So a crop holds at most n
distinct points, the MLP never embeds a copy, and a detection gets the
same crop in every stage and epoch.

A pass of `canonicalize_frames` holds at most MAX_PASS_POINTS = 4,096
cloud points, a frame of more alone. The budget is set by memory, not
speed. A pass's work arrays take about 54 bytes a cloud point: four
float64 buffers, the index of each point's detection, the float32 points
and two masks, each dropped after its last use. So a full pass peaks at
about 210 KB (tracemalloc), below the 290-315 KB that the per-frame crop
it replaced took on a `crowded` frame (12.5 detections, about 1,900 cloud
points); an `eval` frame holds about 490 points, so a pass covers about
eight. Passes over whole scenes were faster still, but raised the
benchmarks' peak resident memory by 2.3-8 MB: what a stage after
training allocates shows in the peak. Since training holds crops and no
clouds, sot-eval and mot-eval set the high-water mark of an `eval`
pipeline run (`peak_rss_mb` in timings.jsonl).

`forward` runs the MLP over whole crops, at most MAX_PASS_ROWS = 255
rows per pass, and max-pools each crop with `np.maximum.reduceat`. The
cap is a constant set by memory, not speed: passes over a whole dense
frame ran no faster than capped ones, and one layer's activations for
255 rows of the default 64 features, 127.5 KiB, stay below the 128 KiB
from which glibc's malloc gives an allocation a memory map of its own.
Passes of 512 rows (256 KiB) raised the peak resident memory of the
`train` and `eval` benchmarks by about 0.3 MB; uncapped ones raised
`crowded`'s by 0.65-0.85 MB. The inference paths stack the embeddings
they compare into matrices and take their cosines with `cosines`;
training's hard-negative mining does too.

An `EmbedNet` checks its parameters for finiteness once, when it is built,
so no pass re-checks them. Inference calls `forward`; training calls
`forward_argmax` on the rows of one crop at a time, which also returns
the arg-max point of each output coordinate. The max pool sends gradient
only to those arg-max points, the crop's critical point set (Qi et al.,
PointNet, CVPR 2017), so `backward` reruns the hidden layers on those
rows alone and computes no gradient with respect to the points.

Checkpoint format: magic "UANN", uint32 layer count, then per layer
uint32 in, uint32 out, row-major float64 weights (out x in), float64
biases (out), all little-endian.
"""

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Sequence
from .kalman import NumericalError

NORM_EPS = 1e-12
# rows of the MLP's largest pass in `forward`, set by memory (see the
# module docstring)
MAX_PASS_ROWS = 255
# cloud points of the largest run of frames that `canonicalize_frames`
# crops in one pass, set by memory (see the module docstring)
MAX_PASS_POINTS = 4096
DEFAULT_WIDTHS = (3, 64, 64, 64)
DEFAULT_POINTS = 128

NET_MAGIC = b"UANN"


@dataclass(frozen=True)
class CanonicalCloud:
    """The crops of one or more detections, each in its box's local frame,
    stacked: crop k is rows starts[k] up to starts[k + 1] (the last one up
    to the end) of points. Every crop has at least one row. Built from
    points alone, it is one crop."""

    points: np.ndarray  # (N, 3) float64
    starts: np.ndarray | None = None  # (K,) first row of each crop; None: one crop

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        starts = np.array(0 if self.starts is None else self.starts, dtype=np.intp).reshape(-1)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"canonical points must be (n, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("canonical cloud contains non-finite coordinates")
        bounds = np.append(starts, len(pts))
        if bounds[0] != 0 or (np.diff(bounds) < 1).any():
            raise ValueError(f"crop starts {starts.tolist()} do not split {len(pts)} rows into "
                             "non-empty crops")
        pts.setflags(write=False)
        starts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "starts", starts)

    @classmethod
    def _stack(cls, points: np.ndarray, starts: np.ndarray) -> "CanonicalCloud":
        # read-only rows and starts known to be good, which are neither
        # checked nor copied: a stack `canonicalize` built, or rows of one
        out = object.__new__(cls)
        object.__setattr__(out, "points", points)
        object.__setattr__(out, "starts", starts)
        return out


def canonicalize(seq: Sequence, dets, n: int) -> CanonicalCloud:
    """The crops of detections dets of seq, stacked in their order: each
    detection's cloud cut to its box, at most n rows a crop.

    Points are translated by -center and rotated by -yaw about z, then kept
    if they fall inside the axis-aligned extents. A crop of count survivors
    keeps, in cloud order, all of them when count <= n, and survivor
    (j * count) // n for j < n when count > n: a fixed rule, so a crop
    depends on its cloud, its box and n alone. A crop with zero survivors
    is one row, the origin.

    All clouds are cut in one pass over their concatenated points: the
    translation, the rotation and the in-box test are written out per
    coordinate, each over every point at once, and the kept rows are
    chosen before any local coordinate is copied. Each point's numbers
    depend on its own detection alone, so a detection's crop is the same
    bytes whatever else is cropped with it.

    The per-coordinate rotation differs from a rotation by matrix product
    by up to 1 ulp, so a point within 1 ulp of a rotated face can fall on
    the other side of it; such a point is kept or dropped unlike in a
    matrix-product crop, and the rule then runs on a different survivor
    count. It takes a point put exactly on such a face: none of the 4.8
    million points of the 33,008 detections of the smoke and benchmark
    configs' scenes (seeds 0 and 7) crossed one.
    """
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    clouds = [seq.cloud_of(det).points for det in dets]
    if not clouds:
        return CanonicalCloud(points=np.zeros((0, 3)), starts=())
    counts = [len(c) for c in clouds]
    # per detection: center, cos and sin of yaw, half extents
    pose = np.array([(b.x, b.y, b.z, math.cos(b.yaw), math.sin(b.yaw), b.l / 2.0, b.w / 2.0,
                      b.h / 2.0) for b in (det.box for det in dets)])
    kept, local = _in_box(clouds, pose, counts)
    # survivors of crop k: kept[first[k]:first[k] + survivors[k]]
    first = np.searchsorted(kept, np.cumsum([0] + counts))
    survivors = np.diff(first)
    taken = np.minimum(survivors, n)
    sizes = np.maximum(taken, 1)
    starts = np.cumsum(sizes) - sizes
    # row j of crop k is its survivor (j * count) // min(count, n), which
    # is survivor j when count <= n; an empty crop's row stays the origin
    crop = np.repeat(np.arange(len(sizes)), sizes)
    full = survivors[crop] > 0
    crop = crop[full]
    j = np.flatnonzero(full) - starts[crop]
    rows = kept[first[crop] + j * survivors[crop] // taken[crop]]
    del kept
    points = np.zeros((len(full), 3))
    for col, x in enumerate(local):
        # finite: the clouds and boxes are checked, and a survivor lies in its box
        points[full, col] = x[rows]
    points += 0.0  # -0.0 to +0.0, as the sums of a matrix product give it
    points.setflags(write=False)
    starts.setflags(write=False)
    return CanonicalCloud._stack(points, starts)


def _in_box(clouds, pose, counts) -> tuple[np.ndarray, tuple]:
    """(kept, (lx, ly, lz)): the indices of the points of the concatenated
    clouds that lie in their detection's box, and every point's coordinates
    in its detection's frame. Cloud k holds counts[k] points, and pose[k]
    is its detection's center, cos and sin of its yaw, and half extents.

    The translation, the rotation and the test are written out per
    coordinate, over every point at once, in four float64 work buffers
    a, b, c, g; gather(k) writes column k of each point's detection into g.
    Each work array is dropped after its last use: the memory of a pass
    peaks here, at about 54 bytes a point.
    """
    pts = np.concatenate(clouds)
    own = np.repeat(np.arange(len(pose)), counts)
    a, b, c, g = (np.empty(len(own)) for _ in range(4))
    inside, ok = np.ones((2, len(own)), dtype=bool)

    def gather(col):
        # mode "clip" writes straight into g; "raise" would go through a copy
        return np.take(pose[:, col], own, out=g, mode="clip")

    def within(x, col):
        # |x| <= half as half >= x >= -half, which needs no buffer for |x|
        np.logical_and(inside, np.less_equal(x, gather(col), out=ok), out=inside)
        np.logical_and(inside, np.greater_equal(x, np.negative(g, out=g), out=ok), out=inside)

    # the float64 centers make the differences float64 without a cast copy
    # of the float32 points; lx = dx cos + dy sin and ly = dy cos - dx sin
    np.subtract(pts[:, 0], gather(0), out=a)  # dx
    np.multiply(a, gather(4), out=b)  # dx sin
    a *= gather(3)  # dx cos
    np.subtract(pts[:, 1], gather(1), out=c)  # dy
    a += np.multiply(c, gather(4), out=g)  # lx
    c *= gather(3)
    c -= b  # ly
    np.subtract(pts[:, 2], gather(2), out=b)  # dz
    del pts
    within(a, 5)
    within(c, 6)
    within(b, 7)
    return np.flatnonzero(inside), (a, c, b)


def canonicalize_frames(seq: Sequence, frames, n: int):
    """Yield the crops of each frame of frames, an iterable of detection
    lists of seq, in order: the stack that `canonicalize` gives the frame's
    detections, the same bytes.

    Runs of whole consecutive frames whose clouds hold at most
    MAX_PASS_POINTS points together are cut in one `canonicalize` pass; a
    frame of more points is cut alone. A frame's stack is a read-only view
    of its pass's. Frames are read up to one pass ahead of the stacks
    yielded, and a pass is held until the stacks of its frames are dropped.
    """
    run, size = [], 0
    for dets in frames:
        points = sum(len(seq.cloud_of(det).points) for det in dets)
        if run and size + points > MAX_PASS_POINTS:
            yield from _frame_views(canonicalize(seq, [d for f in run for d in f], n), run)
            run, size = [], 0
        run.append(dets)
        size += points
    if run:
        yield from _frame_views(canonicalize(seq, [d for f in run for d in f], n), run)


def _frame_views(stack: CanonicalCloud, frames):
    """Each frame's crops of a stack of consecutive frames' crops."""
    bounds = np.append(stack.starts, len(stack.points)).tolist()
    k = 0
    for dets in frames:
        lo, hi = bounds[k], bounds[k + len(dets)]
        starts = stack.starts[k:k + len(dets)] - lo
        starts.setflags(write=False)
        yield CanonicalCloud._stack(stack.points[lo:hi], starts)
        k += len(dets)


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
    """Embed each crop of a stack: shared per-point MLP, then max over the
    crop's points. Returns (K, dim), one row per crop.

    The MLP runs on runs of whole consecutive crops of at most
    MAX_PASS_ROWS rows together (a longer crop alone), and each crop's max
    is one `np.maximum.reduceat`. A row's features can differ from a
    pass over its crop alone in the last bits only, through the matrix
    product's blocking.
    """
    pts, starts = cloud.points, cloud.starts
    out = np.empty((len(starts), net.dim))
    ends = np.append(starts[1:], len(pts))
    lo = 0
    while lo < len(starts):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + MAX_PASS_ROWS, side="right")))
        first = starts[lo]
        out[lo:hi] = np.maximum.reduceat(_mlp(net, pts[first:ends[hi - 1]]),
                                         starts[lo:hi] - first, axis=0)
        lo = hi
    return out


def forward_argmax(net: EmbedNet, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Training forward pass over points, the rows of one crop: (embedding,
    arg), where arg[j] is the row that attains output coordinate j, the
    first one on a tie.
    """
    x = _mlp(net, points)
    arg = x.argmax(axis=0)
    return x[arg, np.arange(x.shape[1])], arg


def backward(net: EmbedNet, points: np.ndarray, upstream, arg=None) -> list[np.ndarray]:
    """Exact gradients of upstream . embedding w.r.t. every weight and bias,
    for points, the rows of one crop.

    The max pool routes gradient to the arg-max point of each output
    coordinate (ties to the lowest point index), so only those critical
    points carry gradient: the hidden layers are rerun on them alone, and
    no gradient with respect to the points is computed. arg is the arg-max
    from `forward_argmax` on the same net and points; when None it is
    computed here. Returns arrays aligned with net.params().
    """
    upstream = np.asarray(upstream, dtype=np.float64).reshape(net.dim)
    if arg is None:
        _, arg = forward_argmax(net, points)
    # the critical rows in ascending order, and each coordinate's place among them
    hit = np.zeros(points.shape[0], dtype=bool)
    hit[arg] = True
    rows = np.flatnonzero(hit)
    pos = np.cumsum(hit)[arg] - 1
    acts = [points[rows]]
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
