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
pass's stack. Every inference path (the tracker and the logistic-fit
harvest in `mot`, SOT evaluation) crops through it and embeds each frame
with one `forward` call; training cuts an anchor frame's detections in one
pass and its positives alone.

A run holds at most MAX_PASS_POINTS = 4,096 cloud points, a frame of more
alone. The budget is set by memory, not speed. A pass's work arrays take
about 54 bytes a cloud point: four float64 buffers, the index of each
point's detection, the float32 points and two masks, each dropped after
its last use. So a full pass peaks at about 210 KB (tracemalloc), below
the 290-315 KB that the per-frame crop it replaced took on a `crowded`
frame (12.5 detections, about 1,900 cloud points); an `eval` frame holds
about 490 points, so a pass covers about eight. Passes over whole scenes
were faster still, but raised the benchmarks' peak resident memory by
2.3-8 MB: after training a run's resident memory sits only 0.1-0.2 MB
below its training high-water mark, so what a later stage allocates shows
in the peak.

Each crop draws the stream of `np.random.default_rng(canon_seed(ref))`,
as it always has. Building that generator took 13-21 µs a crop, most of
it in SeedSequence's hash, so `_seed_words` reproduces the hash for every
draw of a pass in one vectorised call, on Python integers with a 64-bit
lane per draw, and each crop's PCG64 is seeded with its words through
`_SeedWords` (2-3 µs). Tests hold the words to numpy's on 1,200 cloud
refs, on 300 random hashes and on the hashes 0, 1, 2**32 - 1, 2**32 and
2**64 - 1.

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
`[embed] points_per_crop` is the size of the crop's draw:
a sparse crop is drawn with replacement and keeps each drawn point once, so
a crop holds at most that many distinct points and the MLP never embeds a
copy.

An `EmbedNet` checks its parameters for finiteness once, when it is built,
so no pass re-checks them. Inference calls `forward`; training calls
`forward_argmax` on one crop at a time, which also returns the arg-max
point of each output coordinate. The max pool sends gradient only to
those arg-max points, the crop's critical point set (Qi et al., PointNet,
CVPR 2017), so `backward` reruns the hidden layers on those rows alone
and computes no gradient with respect to the points.

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


def canon_seed(cloud_ref: str) -> tuple[int, int]:
    """Stable resampling seed derived from a cloud ref, independent of the
    order in which detections are processed. The trailing 0 is part of the
    seed: dropping it would change every crop."""
    digest = hashlib.sha256(cloud_ref.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "little"), 0)


@dataclass(frozen=True)
class CanonicalCloud:
    """The crops of one or more detections, each in its box's local frame
    with one row per distinct drawn point, stacked: crop k is rows
    starts[k] up to starts[k + 1] (the last one up to the end) of points.
    Every crop has at least one row. Built from points alone, it is one
    crop."""

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

    def crops(self) -> list["CanonicalCloud"]:
        """Each crop of the stack on its own, a read-only view of the
        stack's rows: checked and copied once, as the stack, they are
        neither checked nor copied again."""
        bounds = np.append(self.starts, len(self.points)).tolist()
        return [self._stack(self.points[lo:hi], _VIEW_STARTS)
                for lo, hi in zip(bounds, bounds[1:])]

    @classmethod
    def _stack(cls, points: np.ndarray, starts: np.ndarray) -> "CanonicalCloud":
        # read-only rows and starts known to be good, which are neither
        # checked nor copied: a stack `canonicalize` built, or rows of one
        out = object.__new__(cls)
        object.__setattr__(out, "points", points)
        object.__setattr__(out, "starts", starts)
        return out


# The starts of every crop view, shared: training caches one view per
# detection (758 in a `train` benchmark train stage), and a (1,) array of
# its own costs each about 120 bytes. A view of a read-only array cannot
# be made writable.
_VIEW_STARTS = np.zeros(1, dtype=np.intp)
_VIEW_STARTS.setflags(write=False)
_VIEW_STARTS = _VIEW_STARTS[:]


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L, _MIX_NEG_R = 0xCA01F9DD, (1 << 32) - 0x4973F715  # -R mod 2**32


def _hash_consts(init: int, mult: int, calls: int) -> list[tuple[int, int]]:
    """The constant that each successive hash call xors its value with,
    then the one it multiplies it by."""
    out, const = [], init
    for _ in range(calls):
        nxt = const * mult & _MASK32
        out.append((const, nxt))
        const = nxt
    return out


# the pool's 16 hash calls, 4 for its words and 12 for the mix, and the
# output's 8
_POOL_HASHES = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASHES = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


class _SeedWords:
    """A seed sequence that hands PCG64 the seed words of a row w of
    `_pcg64_seeds(refs)`: `np.random.Generator(np.random.PCG64(
    _SeedWords(w)))` is `np.random.default_rng(canon_seed(ref))`, state and
    stream. numpy's own PCG64 seeding still runs on the words. PCG64 takes
    only a `numpy.random.bit_generator.ISeedSequence`, as which
    `_pcg64_seeds` registers it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only PCG64's 4 uint64 seed words are held, not {n_words} "
                             f"{np.dtype(dtype)}")
        return self.words


def _pcg64_seeds(refs) -> np.ndarray:
    """(K, 4) uint64: for each cloud ref, the words that
    `np.random.default_rng(canon_seed(ref))` seeds its PCG64 with
    (`_seed_words`)."""
    # registered here rather than at import: importing numpy.random along
    # with the package raised a fresh process's resident memory by 0.4 MB
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    return _seed_words(np.array([canon_seed(ref)[0] for ref in refs], dtype=np.uint64))


def _seed_words(h) -> np.ndarray:
    """(K, 4) uint64: for each 64-bit h, the words
    `np.random.SeedSequence((h, 0)).generate_state(4, np.uint64)`.

    One pass reproduces SeedSequence's hash for every h at once: 4 pool
    words, 12 mixes, 8 output words. It runs on Python integers that hold
    one 64-bit lane per h, a 32-bit word with 32 bits of headroom: the
    product of two words fits a lane, and so does the sum of two, so each
    step of the hash is one integer operation over every lane, masked back
    to 32 bits a lane. The same steps on numpy's uint32 or int64 arrays
    page in 64 KB of numpy code that a pipeline run otherwise never runs,
    first in training, which raises its peak resident memory by as much.

    The entropy of (h, 0) is h's 32-bit words, low first, then the 0, and
    SeedSequence fills the pool's remaining words with hashes of 0, so the
    pool is hashed from (low, high, 0, 0) for every h, a zero high word
    where h < 2**32 included.
    """
    h = np.asarray(h, dtype="<u8")
    lanes = int.from_bytes(h.tobytes(), "little")
    one = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * len(h), "little")
    mask = _MASK32 * one

    def hashed(v, xor, mul):
        v = (v ^ xor * one) * mul & mask
        return v ^ v >> 16 & mask

    pool = [hashed(word, *call)
            for word, call in zip((lanes & mask, lanes >> 32 & mask, 0, 0), _POOL_HASHES)]
    calls = iter(_POOL_HASHES[4:])
    for src in range(4):
        for dst in range(4):
            if dst != src:
                # L x - R y, mod 2**32 a lane
                y = hashed(pool[src], *next(calls))
                mix = ((_MIX_MULT_L * pool[dst] & mask) + (_MIX_NEG_R * y & mask)) & mask
                pool[dst] = mix ^ mix >> 16 & mask
    state = [hashed(pool[i % 4], *call) for i, call in enumerate(_STATE_HASHES)]
    words = np.empty((len(h), 4), dtype=np.uint64)
    for j in range(4):
        # as SeedSequence: the 32-bit words in little-endian pairs, low first
        pair = state[2 * j] | state[2 * j + 1] << 32
        words[:, j] = np.frombuffer(pair.to_bytes(8 * len(h), "little"), dtype="<u8")
    return words


def canonicalize(seq: Sequence, dets, n: int) -> CanonicalCloud:
    """The crops of detections dets of seq, stacked in their order: each
    detection's cloud cut to its box, with n of its points drawn by a seed
    taken from its cloud ref (`canon_seed`), each drawn point kept once, so
    a crop has at most n rows.

    Points are translated by -center and rotated by -yaw about z, then kept
    if they fall inside the axis-aligned extents. More than n survivors are
    subsampled without replacement, exactly n are kept in order. Fewer are
    drawn n times with replacement and each drawn survivor is kept once, in
    the order of its first draw: a repeated row changes neither the max
    pool nor its first arg-max, so the copies are never embedded. A crop
    with zero survivors is one row, the origin.

    All clouds are cut in one pass over their concatenated points: the
    translation, the rotation and the in-box test are written out per
    coordinate, each over every point at once. Each point's numbers depend
    on its own detection alone, so a detection's crop is the same bytes
    whatever else is cropped with it. Each draw runs on its own generator,
    `np.random.default_rng(canon_seed(ref))`'s: the seed words of all of
    them come from one `_pcg64_seeds` call, and one `np.minimum.at` over
    every crop's draws finds each drawn point's first draw.

    The per-coordinate rotation differs from a rotation by matrix product
    by up to 1 ulp, so a point within 1 ulp of a rotated face can fall on
    the other side of it; such a point is kept or dropped unlike in a
    matrix-product crop, and the seeded draw then runs on a different
    survivor count. It takes a point put exactly on such a face: none of
    the 4.8 million points of the 33,008 detections of the smoke and
    benchmark configs' scenes (seeds 0 and 7) crossed one.
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
    # survivors of each detection: kept[first[k]:first[k + 1]]
    first = np.searchsorted(kept, np.cumsum([0] + counts))
    survivors = np.diff(first).tolist()
    first = first.tolist()
    del kept
    drawn = [det.cloud_ref for det, count in zip(dets, survivors) if count and count != n]
    seeds = iter(_pcg64_seeds(drawn) if drawn else ())
    # each crop's candidate rows of `local`, counted from its first row: a
    # crop with survivors draws from its own, and an empty crop's one
    # candidate is an origin row of its own, after the survivors, so that
    # no row is a candidate of two crops
    origin = survived = local.shape[1]
    every = np.arange(n)
    cands, firsts = [], []
    for lo, count in zip(first, survivors):
        if count == n:
            idx = every
        elif count == 0:
            idx, lo = np.zeros(1, dtype=np.intp), origin
            origin += 1
        else:
            rng = np.random.Generator(np.random.PCG64(_SeedWords(next(seeds))))
            if count > n:
                idx = rng.choice(count, size=n, replace=False)
            else:
                # the draws of rng.choice(count, size=n, replace=True)
                idx = rng.integers(0, count, size=n)
        cands.append(idx)
        firsts.append(lo)
    lens = [len(idx) for idx in cands]
    cand = np.concatenate(cands)
    del cands
    cand += np.repeat(firsts, lens)
    offsets = np.cumsum(lens) - lens
    rows, sizes = _first_draws(cand, offsets, origin)
    del cand
    if origin > survived:
        local = np.concatenate([local, np.zeros((3, origin - survived))], axis=1)
    # finite: the clouds and boxes are checked, and a survivor lies in its box
    points = local.T[rows]
    starts = np.cumsum(sizes) - sizes
    points.setflags(write=False)
    starts.setflags(write=False)
    return CanonicalCloud._stack(points, starts)


def _first_draws(cand: np.ndarray, offsets, values: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sizes): the candidates cand of consecutive crops, crop k's
    from offsets[k], each kept at its first position in its crop only, and
    how many of each crop's are kept. Values are below values, and no two
    crops share one, so one `np.minimum.at` over all of them finds each
    value's first position."""
    pos = np.arange(len(cand))
    at = np.full(values, len(cand))
    np.minimum.at(at, cand, pos)
    keep = at[cand] == pos
    return cand[keep], np.add.reduceat(keep, offsets, dtype=np.intp)


def _in_box(clouds, pose, counts) -> tuple[np.ndarray, np.ndarray]:
    """(kept, local): the indices of the points of the concatenated clouds
    that lie in their detection's box, and their coordinates in its frame,
    (3, len(kept)). Cloud k holds counts[k] points, and pose[k] is its
    detection's center, cos and sin of its yaw, and half extents.

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
    kept = np.flatnonzero(inside)
    del own, g, inside, ok
    local = np.empty((3, len(kept)))
    for row, x in zip(local, (a, c, b)):
        np.take(x, kept, out=row, mode="clip")
    local += 0.0  # -0.0 to +0.0, as the sums of a matrix product give it
    return kept, local


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


def forward_argmax(net: EmbedNet, cloud: CanonicalCloud) -> tuple[np.ndarray, np.ndarray]:
    """Training forward pass over a cloud of one crop: (embedding, arg),
    where arg[j] is the point that attains output coordinate j, the first
    one on a tie.
    """
    x = _mlp(net, cloud.points)
    arg = x.argmax(axis=0)
    return x[arg, np.arange(x.shape[1])], arg


def backward(net: EmbedNet, cloud: CanonicalCloud, upstream, arg=None) -> list[np.ndarray]:
    """Exact gradients of upstream . embedding w.r.t. every weight and bias,
    for a cloud of one crop.

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
