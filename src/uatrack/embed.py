"""Point-cloud canonicalization and a PointNet-style embedding network.

The network is a shared per-point MLP (rectifier hidden layers, identity
output) followed by a coordinate-wise max over points; the max makes the
embedding invariant to point order. Gradients are reverse-mode and
hand-written (`backward`), which keeps training dependency-free and
bit-reproducible. The measurements behind the pass layout and the caps
are in CHANGES.md.

Precision. A net computes its passes in the dtype of its parameters,
float32 or float64 (`EmbedNet.astype`). Crop rows are cast at the pass,
and `forward` and `forward_argmax` return float64 embeddings either way,
so cosines, mining, the loss and the logistic features keep their float64
arithmetic. A float64 net's gradients are exact. The pipeline runs
float32 nets (`PASS_DTYPE`, which `cli` alone applies), in the mixed
precision of Micikevicius et al. (ICLR 2018): the passes compute in
float32, while the master parameters, the Adam state and the checkpoint
stay float64 (`learn.train`). A float32 net's gradients are exact only for
its float32 arithmetic; they differ from the float64 net's of the same
parameters by rounding, within a bound set by float32's epsilon and the
layer widths (tests hold them to it).

Crops. `canonicalize` cuts any list of one scene's detections in one pass
over their concatenated clouds and returns them as one stack, a
`CanonicalCloud`: the crops' rows, one after another, and their K + 1 row
bounds, crop k being rows bounds[k] up to bounds[k + 1]. That is the one
stack format, `canonicalize` alone cuts stacks (`one_crop` takes a crop
of a stack as a stack of its own), and a detection's crop is the same
bytes whether it is cut alone or with others. A crop is a fixed function
of its cloud, its box and n (`POINTS_PER_CROP` in every stage), with no
random draw: of its count in-box survivors, in cloud order, it keeps all
of them when count <= n and survivor (j * count) // n for j < n when
count > n; a crop with none is one origin row. So a crop holds at most n
distinct points, and a detection gets the same crop in every stage and
epoch. Crops are stored as float32. `canonicalize_frames` is the one crop
path: the tracker and the logistic-fit harvest in `mot`, SOT evaluation
and training (`cli.frame_crops`) all cut whole frames through it, at most
MAX_PASS_POINTS cloud points a pass.

Parameters. An `EmbedNet` holds each layer once, as one read-only
(out, in + 1) array [W | b] (`layers`); `weights` and `biases` are views
of it, and `params()` lists them in the order of the checkpoint. A net
checks its parameters for finiteness once, when it is built, so no pass
re-checks them.

Forward passes. `forward` and `forward_argmax` share one pass loop over
runs of whole consecutive crops of at most MAX_PASS_ROWS rows (a longer
crop alone). A pass is feature-major: a layer's input is (in + 1, rows),
its last row ones, so one product with [W | b] adds the bias; each hidden
layer writes a new (out + 1, rows) buffer and rectifies it in place, and
a pass holds two such buffers at a time. `forward` max-pools each pass
with one `np.maximum.reduceat`; `forward_argmax` also takes each crop's
first arg-max row of each coordinate and reads the embedding there, the
same bytes. Inference calls `forward`, which needs no arg-max; a training
step calls `forward_argmax` once on the stack of each of its anchor
frames and on a one-crop stack for each positive outside them.

Backward passes. The max pool sends gradient only to each coordinate's
arg-max row, the crop's critical point set (Qi et al., PointNet, CVPR
2017). So `backward` takes the crops of a training step with their
upstream vectors and `forward_argmax` rows, reruns the hidden layers on
the critical rows alone, row-major, in passes of whole consecutive crops
of at most MAX_BACKWARD_ROWS critical rows (a crop of more alone), and
computes no gradient with respect to the points. A pass adds each layer's
weight gradient (the upstream transposed times the layer's input) and
bias gradient (the upstream's column sums) into the step's sums.

Checkpoint format: magic "UANN", uint32 layer count, then per layer
uint32 in, uint32 out, row-major float64 weights (out x in), float64
biases (out), all little-endian.
"""

import bisect
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import Sequence
from .kalman import NumericalError

NORM_EPS = 1e-12
# rows of a forward pass, set by memory for float32 passes: its two
# (65, 251) buffers take no more than the row-major passes' two (255, 64)
# did, and a float64 one, 130,520 B, stays below glibc's 128 KiB mmap
# threshold
MAX_PASS_ROWS = 251
# critical rows of a `backward` pass, set by memory: 128 rows raised the
# train stage's resident high-water mark, 96 did not
MAX_BACKWARD_ROWS = 96
# cloud points of a `canonicalize_frames` pass, set by memory: about 54 B
# a point, so a pass peaks near 210 KB; whole-scene passes raised the
# benchmarks' peak resident memory by 2.3-8 MB
MAX_PASS_POINTS = 4096
DEFAULT_WIDTHS = (3, 64, 64, 64)
# the dtype of the pipeline's passes: `cli` casts every net it embeds or
# trains with to it (see the module docstring)
PASS_DTYPE = np.float32
POINTS_PER_CROP = 128

NET_MAGIC = b"UANN"


class CanonicalCloud(NamedTuple):
    """The crops of one or more detections, each in its box's local frame,
    stacked: crop k is points[bounds[k]:bounds[k + 1]], at least one row.
    `canonicalize` alone cuts stacks, both arrays read-only; `_frame_views`
    slices them into frames and `one_crop` takes one crop's rows as a stack
    of its own, so a stack is never checked again."""

    points: np.ndarray  # (N, 3) float32
    bounds: np.ndarray  # (K + 1,) row offsets: 0, then the end of each crop


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
    bytes whatever else is cropped with it. The local coordinates are
    computed in float64 and stored as float32, each rounded to nearest:
    every pass rounds its rows to the float32 of the pipeline's nets
    (`PASS_DTYPE`) anyway, and the rows take half the memory.

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
        return CanonicalCloud(_frozen(np.zeros((0, 3), dtype=np.float32)),
                              _frozen(np.zeros(1, dtype=np.intp)))
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
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    # row j of crop k is its survivor (j * count) // min(count, n), which
    # is survivor j when count <= n; an empty crop's row stays the origin
    crop = np.repeat(np.arange(len(sizes)), sizes)
    full = survivors[crop] > 0
    crop = crop[full]
    j = np.flatnonzero(full) - bounds[crop]
    rows = kept[first[crop] + j * survivors[crop] // taken[crop]]
    del kept
    points = np.zeros((len(full), 3), dtype=np.float32)
    for col, x in enumerate(local):
        # finite: the clouds and boxes are checked, and a survivor lies in its box
        points[full, col] = x[rows]
    points += 0.0  # -0.0 to +0.0, as the sums of a matrix product give it
    return CanonicalCloud(_frozen(points), _frozen(bounds))


def one_crop(points: np.ndarray) -> CanonicalCloud:
    """points, the read-only rows of one crop, as a stack of that crop
    alone."""
    return CanonicalCloud(points, _frozen(np.array([0, len(points)])))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    k = 0
    for dets in frames:
        bounds = stack.bounds[k:k + len(dets) + 1]
        lo = bounds[0]
        yield CanonicalCloud(stack.points[lo:bounds[-1]], _frozen(bounds - lo))
        k += len(dets)


@dataclass(frozen=True)
class EmbedNet:
    """Per-point MLP + max pool. weights[k] has shape (out_k, in_k).

    Each layer is held once, as the read-only (out_k, in_k + 1) array
    layers[k] = [weights[k] | biases[k]]; weights[k] and biases[k] are views
    of it. The parameters are float32 when every one is given as float32,
    and float64 otherwise; the MLP's passes compute in that dtype (`dtype`).
    Raises NumericalError when built with a NaN or infinite parameter.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    layers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ws = tuple(np.asarray(w) for w in self.weights)
        bs = tuple(np.asarray(b) for b in self.biases)
        dtype = np.float32 if all(a.dtype == np.float32 for a in ws + bs) else np.float64
        if len(ws) != len(bs) or not ws:
            raise ValueError("weights and biases must pair up, one per layer")
        prev = ws[0].shape[1]
        for w, b in zip(ws, bs):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"inconsistent layer shapes {w.shape} / {b.shape}")
            if w.shape[1] != prev:
                raise ValueError(f"layer input {w.shape[1]} != previous output {prev}")
            prev = w.shape[0]
        layers = tuple(np.concatenate((w, b[:, None]), axis=1, dtype=dtype) for w, b in zip(ws, bs))
        if not all(np.isfinite(a).all() for a in layers):
            raise NumericalError("network parameters contain non-finite values")
        for a in layers:
            a.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "weights", tuple(a[:, :-1] for a in layers))
        object.__setattr__(self, "biases", tuple(a[:, -1] for a in layers))

    @property
    def dim(self) -> int:
        return self.layers[-1].shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].dtype

    def astype(self, dtype) -> "EmbedNet":
        """This net with its parameters cast to dtype, float32 or float64,
        each rounded to nearest; this net itself when it has that dtype.

        Raises NumericalError when a parameter leaves dtype's range.
        """
        if self.dtype == dtype:
            return self
        return EmbedNet.from_params(cast_params(self.params(), dtype))

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


def cast_params(params, dtype) -> list[np.ndarray]:
    """params cast to dtype, each rounded to nearest; an array that has
    dtype already is given back as it is.

    Raises NumericalError when a parameter leaves dtype's range.
    """
    with np.errstate(over="raise"):
        try:
            return [np.asarray(p).astype(dtype, copy=False) for p in params]
        except FloatingPointError:
            raise NumericalError(
                f"network parameters leave the {np.dtype(dtype)} range") from None


def _mlp(net: EmbedNet, points: np.ndarray) -> np.ndarray:
    """Per-point features of the shared MLP, computed in the net's dtype,
    feature-major: (dim, rows), column r being points[r]'s.

    A layer's input is (in + 1, rows), its last row ones, so one product
    with the layer's [W | b] adds the bias. Each hidden layer writes its
    product into the first out rows of a new (out + 1, rows) buffer whose
    last row is ones and rectifies the buffer in place; its input is
    dropped then, so a pass holds two buffers at a time. The input is made
    here, so no caller holds it through the pass.
    """
    x = np.empty((points.shape[1] + 1, len(points)), dtype=net.dtype)
    x[:-1] = points.T
    x[-1] = 1.0
    for layer in net.layers[:-1]:
        h = np.empty((layer.shape[0] + 1, x.shape[1]), dtype=net.dtype)
        h[-1] = 1.0
        np.matmul(layer, x, out=h[:-1])
        x = np.maximum(h, 0.0, out=h)
    return net.layers[-1] @ x


def forward(net: EmbedNet, cloud: CanonicalCloud) -> np.ndarray:
    """Embed each crop of a stack: shared per-point MLP, then max over the
    crop's points. Returns (K, dim), one row per crop.

    Runs the passes of `forward_argmax` and gives its embeddings, the same
    bytes; each pass's maxima are one `np.maximum.reduceat` over its crops,
    as no arg-max is wanted.
    """
    return _passes(net, cloud, None)


def forward_argmax(net: EmbedNet, cloud: CanonicalCloud) -> tuple[np.ndarray, np.ndarray]:
    """(embeddings, arg) of each crop of a stack: embeddings[k] is crop k's
    max over its points of the shared per-point MLP, (K, dim), and arg[k, j]
    the row of crop k, counted from the crop's first, that attains
    coordinate j of it, the first such row on a tie, (K, dim).

    The MLP runs on runs of whole consecutive crops of at most
    MAX_PASS_ROWS rows together, a longer crop alone, each run as long as
    the next crop allows. Each crop's arg-max is taken over its rows of the
    pass, and its embedding is the values at those rows. A row's features
    can differ from a pass over its crop alone in the last bits only,
    through the matrix product's blocking; a stack of one crop is one pass
    over its rows, and gives the bytes of a pass over them.
    """
    arg = np.empty((len(cloud.bounds) - 1, net.dim), dtype=np.intp)
    return _passes(net, cloud, arg), arg


def _passes(net: EmbedNet, cloud: CanonicalCloud, arg) -> np.ndarray:
    """The one pass loop of `forward` and `forward_argmax`: each crop's
    embedding, float64 whatever the net's dtype, and with an arg array, its
    arg-max rows written into arg."""
    pts, bounds = cloud.points, cloud.bounds.tolist()
    count = len(bounds) - 1
    out = np.empty((count, net.dim))
    cols = np.arange(net.dim)
    lo = 0
    while lo < count:
        first = bounds[lo]
        hi = max(lo + 1, bisect.bisect_right(bounds, first + MAX_PASS_ROWS) - 1)
        x = _mlp(net, pts[first:bounds[hi]])
        if arg is None:
            out[lo:hi] = np.maximum.reduceat(x, cloud.bounds[lo:hi] - first, axis=1).T
        else:
            for k in range(lo, hi):
                feats = x[:, bounds[k] - first:bounds[k + 1] - first]
                arg[k] = top = feats.argmax(axis=1)
                out[k] = feats[cols, top]
        lo = hi
    return out


def backward(net: EmbedNet, crops, upstream, arg) -> list[np.ndarray]:
    """Gradients of the sum over crops k of upstream[k] . embedding of crop
    k, w.r.t. every weight and bias: the summed gradients of a training
    step's crops. Returns arrays aligned with net.params(), in the net's
    dtype; they are exact reverse-mode in that dtype's arithmetic.

    crops is a sequence of each crop's rows, upstream[k] is crop k's
    upstream vector and arg[k] the arg-max that `forward_argmax` gave on
    crop k with the same net.

    The max pool routes gradient to the arg-max point of each output
    coordinate (ties to the lowest point index), so only those critical
    points carry gradient: the hidden layers are rerun on them alone, and
    no gradient with respect to the points is computed. The crops' critical
    rows, each crop's in ascending order, go in passes of whole
    consecutive crops of at most MAX_BACKWARD_ROWS rows together (a crop of
    more alone); a pass reruns the hidden layers once and adds each
    layer's weight and bias gradients into the sums, so a crop's part can
    differ from a backward over it alone in the last bits only. A list of
    one crop is one pass over its critical rows.
    """
    if not len(crops):
        return [np.zeros_like(p) for p in net.params()]
    # the critical rows among every crop's rows, one crop after another;
    # crop k's are places bounds[k] up to bounds[k + 1] among them
    starts = np.cumsum([0] + [len(c) for c in crops])
    marks = np.concatenate(arg)
    marks.reshape(len(crops), -1)[:] += starts[:-1, None]
    hit = np.zeros(starts[-1], dtype=bool)
    hit[marks] = True
    del marks  # gone before the passes, which set backward's peak
    bounds = np.concatenate(([0], np.cumsum(np.add.reduceat(hit, starts[:-1], dtype=np.intp))))
    ends = bounds[1:]
    grads = [None] * (2 * len(net.weights))
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, bounds[lo] + MAX_BACKWARD_ROWS, side="right")))
        seg = hit[starts[lo]:starts[hi]]
        # each coordinate's place among the pass's critical rows
        pos = np.cumsum(seg)[np.asarray(arg[lo:hi]) + (starts[lo:hi, None] - starts[lo])] - 1
        rows = np.concatenate(crops[lo:hi])[np.flatnonzero(seg)]
        _backprop(net, rows, pos, np.asarray(upstream[lo:hi], dtype=np.float64), grads)
        lo = hi
    return grads


def _backprop(net: EmbedNet, rows, pos, upstream, grads) -> None:
    """One pass of `backward`: add into grads, or set where a slot is still
    None, the gradients w.r.t. every weight and bias of the sum over k and j
    of upstream[k, j] times output coordinate j of the MLP at row pos[k, j]
    of rows. Rows, upstream vectors and gradients are in the net's dtype.
    The hidden layers are rerun on rows, and each activation is dropped
    after its last use."""
    acts = [rows.astype(net.dtype, copy=False)]
    last = len(net.weights) - 1
    for w, b in zip(net.weights[:last], net.biases[:last]):
        x = acts[-1] @ w.T
        x += np.ascontiguousarray(b)  # adds faster than the strided view
        acts.append(np.maximum(x, 0.0, out=x))
    g = np.zeros((len(rows), net.dim), dtype=net.dtype)
    g[pos, np.arange(net.dim)] = upstream
    for k in range(last, -1, -1):
        x = acts.pop()  # layer k's input
        for slot, part in ((2 * k, g.T @ x), (2 * k + 1, g.sum(axis=0))):
            if grads[slot] is None:
                grads[slot] = part
            else:
                grads[slot] += part
        if k:
            live = x > 0
            del x
            g = g @ net.weights[k]
            g *= live


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
            weights.append(w.reshape(out_dim, in_dim))
            biases.append(b)
    except (struct.error, ValueError) as exc:
        raise ValueError(f"{path}: truncated at byte {off} of {len(raw)}: {exc}") from exc
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise ValueError(f"{path}: non-finite parameters")
    try:
        net = EmbedNet(weights=tuple(weights), biases=tuple(biases))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    n_in = net.weights[0].shape[1]
    if n_in != 3:
        raise ValueError(f"{path}: first layer takes {n_in} inputs; a crop row has 3")
    return net
