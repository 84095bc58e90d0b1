import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uatrack import embed
from uatrack.core import Box7, Detection, FrameRecord, PointCloud, Sequence
from uatrack.embed import (
    CanonicalCloud,
    EmbedNet,
    backward,
    canon_seed,
    canonicalize,
    detection_crop,
    detection_embedder,
    forward,
    forward_argmax,
    load_checkpoint,
    save_checkpoint,
)
from uatrack.kalman import NumericalError


def box(x=0.0, y=0.0, z=0.0, yaw=0.0, l=4.0, w=2.0, h=1.5):
    return Box7(x, y, z, yaw, l, w, h)


def cosine(e1, e2) -> float:
    """Scalar cosine similarity in [-1, 1], degenerate (near-zero) norms
    mapping to 0: the reference that the row-wise `embed.cosines` and every
    path built on it are held to."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    n1 = float(np.linalg.norm(e1))
    n2 = float(np.linalg.norm(e2))
    if n1 < embed.NORM_EPS or n2 < embed.NORM_EPS:
        return 0.0
    c = float(np.dot(e1, e2) / (n1 * n2))
    return min(1.0, max(-1.0, c))


def reference_canonicalize(cloud, box, n, seed):
    """The n-row crop: a sparse crop is padded to n rows with the draw's
    repeats, and an empty crop is n origin rows. canonicalize keeps each
    drawn point of it once; this is the reference it is held to."""
    pts = cloud.points.astype(np.float64)
    d = pts - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local = d @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    inside = local[(np.abs(local) <= half).all(axis=1)]
    count = inside.shape[0]
    if count == 0:
        return CanonicalCloud(points=np.zeros((n, 3)))
    rng = np.random.default_rng(seed)
    if count > n:
        idx = rng.choice(count, size=n, replace=False)
    elif count < n:
        idx = rng.choice(count, size=n, replace=True)
    else:
        idx = np.arange(count)
    return CanonicalCloud(points=inside[idx])


def previous_canonicalize(cloud, box, n, seed):
    """canonicalize before its crop lost the float64 cast copy of the
    points and the all-axes mask; its crops are the reference, byte for
    byte."""
    pts = cloud.points.astype(np.float64)
    d = pts - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local = d @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    inside = local[(np.abs(local) <= half).all(axis=1)]
    count = inside.shape[0]
    if count == 0:
        return CanonicalCloud(points=np.zeros((1, 3)))
    rng = np.random.default_rng(seed)
    if count > n:
        idx = rng.choice(count, size=n, replace=False)
    elif count < n:
        idx = rng.choice(count, size=n, replace=True)
        idx = idx[np.sort(np.unique(idx, return_index=True)[1])]
    else:
        idx = np.arange(count)
    return CanonicalCloud(points=inside[idx])


def cloud_in_box(rng, survivors, outside=3):
    """survivors distinct points inside box(), then a few outside it, shuffled."""
    inner = rng.uniform(-0.7, 0.7, size=(survivors, 3))
    outer = rng.uniform(5.0, 9.0, size=(outside, 3)) * rng.choice([-1.0, 1.0], size=(outside, 3))
    return PointCloud(rng.permutation(np.vstack([inner, outer])))


class TestCanonicalize:
    def test_identity_pose(self):
        pc = PointCloud([[0.1, 0.2, 0.3]])
        out = canonicalize(pc, box(), n=1, seed=0)
        np.testing.assert_allclose(out.points, [[0.1, 0.2, 0.3]], atol=1e-6)

    def test_inverse_rigid_transform(self):
        # box at (5, 0, 0) with yaw pi/2; world point (5, 1, 0) -> (1, 0, 0)
        pc = PointCloud([[5.0, 1.0, 0.0]])
        out = canonicalize(pc, box(x=5.0, yaw=math.pi / 2), n=1, seed=0)
        np.testing.assert_allclose(out.points, [[1.0, 0.0, 0.0]], atol=1e-6)

    def test_sparse_crop_keeps_each_drawn_survivor_once(self):
        pc = PointCloud([[0.1, 0.1, 0.1], [-0.2, 0.3, -0.1], [99.0, 99.0, 99.0],
                         [0.3, -0.4, 0.2]])
        originals = pc.points[[0, 1, 3]].astype(np.float64)
        for n in (4, 8, 64):
            for seed in range(10):
                out = canonicalize(pc, box(), n=n, seed=seed)
                assert 1 <= out.points.shape[0] <= min(n, 3)
                assert len({tuple(p) for p in out.points}) == out.points.shape[0]
                for p in out.points:
                    assert (originals == p).all(axis=1).any()
        # 64 draws from 3 survivors reach all of them
        assert canonicalize(pc, box(), n=64, seed=0).points.shape == (3, 3)

    def test_sparse_crop_rows_in_first_draw_order(self):
        # box() at the origin with yaw 0 leaves coordinates exact, so the
        # survivors are the inside points in cloud order
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            count = int(rng.integers(1, n))
            pc = cloud_in_box(rng, count)
            pts = pc.points.astype(np.float64)
            inside = pts[(np.abs(pts) <= [2.0, 1.0, 0.75]).all(axis=1)]
            draw = np.random.default_rng(trial).choice(count, size=n, replace=True)
            order = []
            for i in draw:
                if i not in order:
                    order.append(i)
            out = canonicalize(pc, box(), n=n, seed=trial)
            assert out.points.tobytes() == inside[order].tobytes()

    def test_empty_crop_is_one_origin_row(self):
        pc = PointCloud([[50.0, 50.0, 50.0]])
        for n in (1, 8, 128):
            out = canonicalize(pc, box(), n=n, seed=0)
            assert out.points.tobytes() == np.zeros((1, 3)).tobytes()

    def test_full_and_dense_crops_equal_reference(self):
        # count >= n: the draw is kept whole, byte for byte as before
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(1, 40))
            count = n + int(rng.integers(0, n + 1))
            pc = cloud_in_box(rng, count)
            b = box(x=0.1, yaw=float(rng.uniform(-0.2, 0.2)), l=5.0, w=3.0, h=2.0)
            out = canonicalize(pc, b, n=n, seed=trial)
            want = reference_canonicalize(pc, b, n=n, seed=trial)
            assert want.points.shape == (n, 3)
            assert out.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("crop", ["empty", "sparse", "full", "dense"])
    def test_equals_previous_implementation(self, crop):
        rng = np.random.default_rng(["empty", "sparse", "full", "dense"].index(crop))
        for trial in range(40):
            n = int(rng.integers(1, 40))
            # box() is at the origin with yaw 0, so a point on its face stays
            # exactly on it
            b = box() if trial % 4 == 0 else box(
                x=float(rng.uniform(-30, 30)), y=float(rng.uniform(-30, 30)),
                z=float(rng.uniform(-1, 1)), yaw=float(rng.uniform(-math.pi, math.pi)),
                l=float(rng.uniform(2, 6)), w=float(rng.uniform(1, 3)), h=float(rng.uniform(1, 2)))
            count = {"empty": 0, "sparse": int(rng.integers(0, n)), "full": n,
                     "dense": n + int(rng.integers(1, n + 2))}[crop]
            # local points inside the box, some on its faces, and some outside
            local = rng.uniform(-0.5, 0.5, size=(count, 3)) * [b.l, b.w, b.h]
            axis = int(rng.integers(0, 3))
            local[: count // 2, axis] = [b.l, b.w, b.h][axis] / 2 * rng.choice([-1, 1])
            outer = rng.uniform(0.51, 3.0, size=(5, 3)) * [b.l, b.w, b.h]
            c, s = math.cos(b.yaw), math.sin(b.yaw)
            world = np.vstack([local, outer]) @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
            pc = PointCloud(rng.permutation(world + b.center))
            want = previous_canonicalize(pc, b, n, seed=trial)
            got = canonicalize(pc, b, n, seed=trial)
            assert got.points.tobytes() == want.points.tobytes()

    def test_full_crop_creates_no_generator(self, monkeypatch):
        rng = np.random.default_rng(2)
        pc = cloud_in_box(rng, 12)
        want = previous_canonicalize(pc, box(), 12, seed=0)

        def refuse(seed):
            raise AssertionError("a crop of exactly n points draws nothing")

        monkeypatch.setattr(embed.np.random, "default_rng", refuse)
        assert canonicalize(pc, box(), 12, seed=0).points.tobytes() == want.points.tobytes()

    def test_subsample_without_replacement(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.4, 0.4, size=(50, 3))
        out = canonicalize(PointCloud(pts), box(), n=20, seed=1)
        assert out.points.shape == (20, 3)
        assert len({tuple(p) for p in np.round(out.points, 6)}) == 20

    def test_equivariance(self):
        # translating and yaw-rotating cloud and box together preserves the
        # selection structure exactly and coordinates to float tolerance
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.5, 1.5, size=(60, 3)).astype(np.float32)
        b0 = box(l=3.0, w=2.0, h=2.0)
        out0 = canonicalize(PointCloud(pts), b0, n=32, seed=9)

        th = 0.7
        t = np.array([3.0, -2.0, 0.5])
        c, s = math.cos(th), math.sin(th)
        rot_t = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        moved = pts.astype(np.float64) @ rot_t + t
        b1 = box(x=t[0], y=t[1], z=t[2], yaw=th, l=3.0, w=2.0, h=2.0)
        out1 = canonicalize(PointCloud(moved), b1, n=32, seed=9)
        np.testing.assert_allclose(out1.points, out0.points, atol=1e-5)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            canonicalize(PointCloud(np.zeros((1, 3))), box(), n=0, seed=0)

    def test_canon_seed_stable(self):
        assert canon_seed("abc") == canon_seed("abc")
        assert canon_seed("abc") != canon_seed("abd")


class TestForward:
    def test_zero_net_zero_embedding(self):
        net = EmbedNet(
            weights=(np.zeros((4, 3)), np.zeros((2, 4))),
            biases=(np.zeros(4), np.zeros(2)),
        )
        cloud = CanonicalCloud(points=np.random.default_rng(0).normal(size=(10, 3)))
        np.testing.assert_array_equal(forward(net, cloud), np.zeros(2))

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(1)
        net = EmbedNet.random((3, 8, 8, 5), seed=2)
        pts = rng.normal(size=(40, 3))
        cloud = CanonicalCloud(points=pts)
        base = forward(net, cloud)
        for _ in range(5):
            perm = rng.permutation(40)
            shuffled = CanonicalCloud(points=pts[perm])
            np.testing.assert_array_equal(forward(net, shuffled), base)

    def test_single_layer_hand_example(self):
        # W = [[1,0,0],[0,1,0]], points (1,5,0) and (2,1,0) -> max = (2, 5)
        net = EmbedNet(
            weights=(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),),
            biases=(np.zeros(2),),
        )
        cloud = CanonicalCloud(points=np.array([[1.0, 5.0, 0.0], [2.0, 1.0, 0.0]]))
        np.testing.assert_allclose(forward(net, cloud), [2.0, 5.0])

    def test_non_finite_params_rejected(self):
        """A network is refused when it is built, so no pass meets one."""
        for weight, bias in ((np.inf, 0.0), (np.nan, 0.0), (0.0, -np.inf), (0.0, np.nan)):
            with pytest.raises(NumericalError, match="network parameters"):
                EmbedNet(weights=(np.array([[weight, 0.0, 0.0]]),), biases=(np.array([bias]),))
        params = EmbedNet.random((3, 4, 2), seed=0).params()
        params[2] = np.full_like(params[2], np.nan)
        with pytest.raises(NumericalError, match="network parameters"):
            EmbedNet.from_params(params)


class TestCosine:
    def test_identical(self):
        e = np.array([0.3, -0.4, 1.0])
        assert cosine(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_half_diagonal(self):
        # oracle: 1/sqrt(2)
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_degenerate_returns_zero(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b = rng.normal(size=5), rng.normal(size=5)
            c = float(rng.uniform(0.1, 100))
            assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
            assert cosine(c * a, b) == pytest.approx(cosine(a, b), abs=1e-12)


def previous_cosines(x, y, x_norms, y_norms):
    """embed.cosines as it was with np.clip; its values are the reference,
    byte for byte."""
    dots = np.einsum("...j,...j->...", x, y)
    ok = (x_norms >= embed.NORM_EPS) & (y_norms >= embed.NORM_EPS)
    out = np.zeros(np.shape(dots))
    np.divide(dots, x_norms * y_norms, out=out, where=ok)
    return np.clip(out, -1.0, 1.0, out=out)


class TestCosines:
    def test_clip_equals_np_clip_bytes(self):
        rng = np.random.default_rng(8)
        # random rows, with norms scaled so that some quotients leave [-1, 1]
        x, y = rng.normal(size=(300, 8)), rng.normal(size=(300, 8))
        xn = embed.norms(x) * rng.uniform(0.3, 1.5, size=300)
        yn = embed.norms(y)
        got = embed.cosines(x, y, xn, yn)
        assert got.tobytes() == previous_cosines(x, y, xn, yn).tobytes()
        assert (np.abs(x @ y.T).diagonal() > xn * yn).any()
        # one-wide rows with unit norms: the quotient is the value itself
        up, down = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)
        values = np.array([0.0, np.nan, 1.0, -1.0, up, down, np.nextafter(1.0, 0.0),
                           np.nextafter(-1.0, 0.0), 3.0, -3.0, np.inf, -np.inf, -1e-300])
        ones = np.ones(len(values))
        # the last row underflows to -0.0: -1e-300 / 1e300
        big = np.where(values == -1e-300, 1e150, 1.0)
        got = embed.cosines(values[:, None], ones[:, None], big, big)
        assert got.tobytes() == previous_cosines(values[:, None], ones[:, None], big, big).tobytes()
        assert np.signbit(got[-1]) and got[-1] == 0.0
        assert np.isnan(got[1]) and got[4] == 1.0 and got[5] == -1.0

    def test_match_cosine(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 8)) * rng.uniform(1e-3, 1e3, size=(60, 1))
        y = rng.normal(size=(60, 8))
        x[5] = 0.0
        y[9] = 1e-14
        x[11] = -2.5 * y[11]
        got = embed.cosines(x, y, embed.norms(x), embed.norms(y))
        want = np.array([cosine(a, b) for a, b in zip(x, y)])
        assert np.abs(got - want).max() <= 1e-15
        assert got[5] == got[9] == 0.0 and got[11] == -1.0
        one = embed.cosines(x, y[0], embed.norms(x), embed.norms(y[0]))
        assert np.abs(one - [cosine(a, y[0]) for a in x]).max() <= 1e-15
        np.testing.assert_allclose(embed.norms(x), np.linalg.norm(x, axis=1), rtol=1e-15)

    def test_clipped(self):
        v = np.array([[0.1, 0.7, 0.3]])
        got = embed.cosines(v * 3.0, v, embed.norms(v * 3.0), embed.norms(v))
        assert -1.0 <= got[0] <= 1.0 and got[0] == pytest.approx(1.0, abs=1e-15)

    def test_equal_rows_equal_cosines_wherever_they_sit(self):
        # a BLAS matrix-vector product may sum rows in different orders by
        # position; ties between equal embeddings must stay ties
        rng = np.random.default_rng(4)
        v, anchor = rng.normal(size=64), rng.normal(size=64)
        x = np.tile(v, (37, 1))
        got = embed.cosines(x, anchor, embed.norms(x), embed.norms(anchor))
        assert len(set(got.tolist())) == 1
        assert int(np.argmax(got)) == 0


def fd_gradients(net, cloud, upstream, h=1e-5):
    """Central finite differences of upstream . embedding, the oracle."""
    params = net.params()
    grads = []
    for slot, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.copy().reshape(-1)
        for k in range(flat.size):
            for sign in (+1, -1):
                bumped = [q.copy() for q in params]
                bq = bumped[slot].reshape(-1)
                bq[k] += sign * h
                net2 = EmbedNet.from_params(bumped)
                val = float(np.dot(upstream, forward(net2, cloud)))
                if sign > 0:
                    plus = val
                else:
                    minus = val
            g.reshape(-1)[k] = (plus - minus) / (2 * h)
        grads.append(g)
    return grads


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        net = EmbedNet.random((3, 6, 4), seed=0)
        cloud = CanonicalCloud(points=np.random.default_rng(1).normal(size=(12, 3)))
        grads = backward(net, cloud, np.zeros(4))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            net = EmbedNet.random((3, 5, 4), seed=100 + trial)
            cloud = CanonicalCloud(points=rng.normal(size=(8, 3)))
            upstream = rng.normal(size=4)
            analytic = backward(net, cloud, upstream)
            numeric = fd_gradients(net, cloud, upstream)
            for a, n in zip(analytic, numeric):
                denom = np.maximum(np.abs(n), 1e-6)
                rel = np.abs(a - n) / denom
                assert rel.max() < 1e-4

    def test_frozen_argmax_pattern(self):
        rng = np.random.default_rng(7)
        net = EmbedNet.random((3, 6, 4), seed=3)
        pts = rng.normal(size=(10, 3))
        cloud = CanonicalCloud(points=pts)
        upstream = rng.normal(size=4)

        # identify a point never selected by the max pool and its margin
        feats = cloud.points
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            feats = feats @ w.T + b
            if k < len(net.weights) - 1:
                feats = np.maximum(feats, 0.0)
        arg = set(feats.argmax(axis=0))
        loser = next(i for i in range(10) if i not in arg)
        margin = min(feats[:, d].max() - feats[loser, d] for d in range(4))
        assert margin > 0

        base = backward(net, cloud, upstream)
        bumped = pts.copy()
        bumped[loser] += margin * 1e-3  # well below the selection margin
        out = backward(net, CanonicalCloud(points=bumped), upstream)
        for a, b2 in zip(base, out):
            np.testing.assert_array_equal(a, b2)


def dense_backward(net, cloud, upstream):
    """Reference backward over every point: full forward, scatter the
    upstream onto the first arg-max of each coordinate, backpropagate."""
    upstream = np.asarray(upstream, dtype=np.float64).reshape(net.dim)
    acts = [cloud.points]
    pre = []
    last = len(net.weights) - 1
    x = cloud.points
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = x @ w.T + b
        pre.append(z)
        x = np.maximum(z, 0.0) if k < last else z
        acts.append(x)
    final = acts[-1]
    g = np.zeros_like(final)
    g[final.argmax(axis=0), np.arange(final.shape[1])] = upstream
    grads = [None] * (2 * len(net.weights))
    for k in range(last, -1, -1):
        gz = g if k == last else g * (pre[k] > 0)
        grads[2 * k] = gz.T @ acts[k]
        grads[2 * k + 1] = gz.sum(axis=0)
        g = gz @ net.weights[k]
    return grads


def previous_mlp(net, points):
    """The per-point MLP as it was before it worked in place: a new array
    for each bias add and each rectifier. The new one must equal it bit
    for bit."""
    x = points
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        x = x @ w.T + b
        if k < last:
            x = np.maximum(x, 0.0)
    return x


def previous_backward(net, cloud, upstream, arg=None):
    """backward as it was before it dropped discarded work: the critical
    rows from np.unique, a rerun through the last layer, and the gradient
    with respect to the points. The new one must equal it bit for bit."""
    upstream = np.asarray(upstream, dtype=np.float64).reshape(net.dim)
    if arg is None:
        arg = previous_mlp(net, cloud.points).argmax(axis=0)
    rows, pos = np.unique(arg, return_inverse=True)
    acts = [cloud.points[rows]]
    pre = []
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if k < last else z)
    g = np.zeros((rows.size, net.dim))
    g[pos, np.arange(net.dim)] = upstream
    grads = [None] * (2 * len(net.weights))
    for k in range(last, -1, -1):
        gz = g if k == last else g * (pre[k] > 0)
        grads[2 * k] = gz.T @ acts[k]
        grads[2 * k + 1] = gz.sum(axis=0)
        g = gz @ net.weights[k]
    return grads


def assert_matches_previous(net, cloud, upstream):
    """Embedding, arg-max and gradients equal the previous implementation's
    byte for byte, with arg passed in and computed by backward."""
    feats = previous_mlp(net, cloud.points)
    emb, arg = forward_argmax(net, cloud)
    assert emb.tobytes() == feats.max(axis=0).tobytes()
    assert forward(net, cloud).tobytes() == feats.max(axis=0).tobytes()
    assert arg.tobytes() == feats.argmax(axis=0).tobytes()
    want = previous_backward(net, cloud, upstream)
    for got in (backward(net, cloud, upstream), backward(net, cloud, upstream, arg=arg)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def random_widths(rng):
    """3 inputs, then 2 to 4 layers of random width."""
    return (3,) + tuple(int(w) for w in rng.integers(1, 12, size=rng.integers(2, 5)))


class TestCriticalPointBackward:
    """backward reruns the hidden layers on the arg-max rows only; the dense
    version above is the oracle, and the previous implementation is matched
    bit for bit."""

    @staticmethod
    def assert_matches_dense(net, cloud, upstream):
        assert_matches_previous(net, cloud, upstream)
        want = dense_backward(net, cloud, upstream)
        _, arg = forward_argmax(net, cloud)
        for got in (backward(net, cloud, upstream), backward(net, cloud, upstream, arg=arg)):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_random_nets(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            net = EmbedNet.random(random_widths(rng), seed=trial)
            cloud = CanonicalCloud(points=rng.normal(size=(int(rng.integers(1, 40)), 3)))
            self.assert_matches_dense(net, cloud, rng.normal(size=net.dim))

    def test_duplicated_points_tie_to_first(self):
        # a cloud that repeats points makes arg-max ties common
        rng = np.random.default_rng(12)
        for trial in range(20):
            net = EmbedNet.random(random_widths(rng), seed=200 + trial)
            base = rng.normal(size=(5, 3))
            pts = base[rng.integers(0, 5, size=32)]
            cloud = CanonicalCloud(points=pts)
            _, arg = forward_argmax(net, cloud)
            first = {tuple(p): i for i, p in reversed(list(enumerate(pts)))}
            assert all(a == first[tuple(pts[a])] for a in arg)
            self.assert_matches_dense(net, cloud, rng.normal(size=net.dim))

    def test_empty_crop(self):
        # the origin row alone embeds as the n origin rows of the reference,
        # where every coordinate ties and row 0 takes them all
        rng = np.random.default_rng(13)
        for trial in range(10):
            net = EmbedNet(
                weights=tuple(EmbedNet.random((3, 7, 5, 4), seed=trial).weights),
                biases=(rng.normal(size=7), rng.normal(size=5), rng.normal(size=4)),
            )
            cloud = canonicalize(PointCloud([[50.0, 50.0, 50.0]]), box(), n=16, seed=0)
            ref = reference_canonicalize(PointCloud([[50.0, 50.0, 50.0]]), box(), n=16, seed=0)
            assert cloud.points.tobytes() == np.zeros((1, 3)).tobytes()
            emb, arg = forward_argmax(net, cloud)
            ref_emb, ref_arg = forward_argmax(net, ref)
            np.testing.assert_array_equal(arg, np.zeros(4, dtype=arg.dtype))
            np.testing.assert_array_equal(ref_arg, np.zeros(4, dtype=arg.dtype))
            np.testing.assert_allclose(emb, ref_emb, rtol=0.0, atol=1e-12)
            upstream = rng.normal(size=4)
            self.assert_matches_dense(net, cloud, upstream)
            for a, b in zip(backward(net, cloud, upstream), backward(net, ref, upstream)):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_dead_relu_units(self):
        rng = np.random.default_rng(14)
        base = EmbedNet.random((3, 8, 8, 5), seed=4)
        biases = [b.copy() for b in base.biases]
        biases[0][:4] = -1e3  # these hidden units never fire
        biases[1][::2] = -1e3
        net = EmbedNet(weights=base.weights, biases=tuple(biases))
        cloud = CanonicalCloud(points=rng.normal(size=(30, 3)))
        grads = backward(net, cloud, rng.normal(size=5))
        assert not grads[0][:4].any() and not grads[1][:4].any()
        self.assert_matches_dense(net, cloud, rng.normal(size=5))

    def test_forward_argmax_equals_forward(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            net = EmbedNet.random(random_widths(rng), seed=300 + trial)
            cloud = CanonicalCloud(points=rng.normal(size=(24, 3)))
            emb, arg = forward_argmax(net, cloud)
            assert emb.tobytes() == forward(net, cloud).tobytes()
            assert arg.shape == (net.dim,)


@st.composite
def crop_cases(draw):
    """(cloud, box, n, seed, net, upstream): 0 to 2n survivors of a cloud,
    on a coarse grid half the time so that points repeat and arg-max ties
    are common, and a random 2- to 4-layer net whose biases may silence
    whole layers."""
    n = draw(st.integers(1, 24))
    survivors = draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pc = cloud_in_box(rng, survivors)
    if draw(st.booleans()):
        pc = PointCloud(np.round(pc.points * 4.0) / 4.0)
    widths = (3,) + tuple(draw(st.lists(st.integers(1, 12), min_size=2, max_size=4)))
    bias_scale = draw(st.sampled_from([0.0, 1.0, 5.0]))
    net = EmbedNet(
        weights=EmbedNet.random(widths, seed=draw(st.integers(0, 2**16))).weights,
        biases=tuple(rng.normal(0.0, bias_scale, size=w) for w in widths[1:]),
    )
    b = box(yaw=draw(st.sampled_from([0.0, 0.3])))
    return pc, b, n, draw(st.integers(0, 2**16)), net, rng.normal(size=net.dim)


class TestPreviousImplementation:
    """The in-place MLP and the backward that skips discarded work give the
    bytes of the implementations they replace."""

    @given(crop_cases())
    @settings(max_examples=200, deadline=None)
    @example((PointCloud([[50.0, 50.0, 50.0]]), box(), 8, 0,
              EmbedNet.random((3, 4, 2), seed=0), np.ones(2)))
    def test_crops(self, case):
        pc, b, n, seed, net, upstream = case
        assert_matches_previous(net, canonicalize(pc, b, n, seed), upstream)
        assert_matches_previous(net, reference_canonicalize(pc, b, n, seed), upstream)

    def test_single_layer_and_all_dead_units(self):
        rng = np.random.default_rng(16)
        cloud = CanonicalCloud(points=rng.normal(size=(20, 3)))
        assert_matches_previous(EmbedNet.random((3, 5), seed=1), cloud, rng.normal(size=5))
        base = EmbedNet.random((3, 6, 6, 4), seed=2)
        dead = EmbedNet(weights=base.weights,
                        biases=(np.full(6, -1e3), base.biases[1], base.biases[2]))
        assert_matches_previous(dead, cloud, rng.normal(size=4))
        assert not any(g.any() for g in backward(dead, cloud, rng.normal(size=4))[:4])


class TestReferenceEquivalence:
    """Embedding each drawn point once gives the embedding, the critical
    points and the gradients of the n-row reference crop."""

    @given(crop_cases())
    @settings(max_examples=200, deadline=None)
    @example((PointCloud([[50.0, 50.0, 50.0]]), box(), 8, 0,
              EmbedNet.random((3, 4, 2), seed=0), np.ones(2)))
    def test_matches_reference_crop(self, case):
        pc, b, n, seed, net, upstream = case
        cloud = canonicalize(pc, b, n, seed)
        ref = reference_canonicalize(pc, b, n, seed)
        assert 1 <= cloud.points.shape[0] <= n
        np.testing.assert_allclose(forward(net, cloud), forward(net, ref), rtol=0.0, atol=1e-12)
        emb, arg = forward_argmax(net, cloud)
        ref_emb, ref_arg = forward_argmax(net, ref)
        np.testing.assert_allclose(emb, ref_emb, rtol=0.0, atol=1e-12)
        assert cloud.points[arg].tobytes() == ref.points[ref_arg].tobytes()
        got = backward(net, cloud, upstream, arg=arg)
        want = backward(net, ref, upstream, arg=ref_arg)
        for a, w in zip(got, want):
            np.testing.assert_allclose(a, w, rtol=0.0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = EmbedNet.random((3, 16, 8, 6), seed=5)
        save_checkpoint(tmp_path / "n.uann", net)
        back = load_checkpoint(tmp_path / "n.uann")
        assert len(back.params()) == len(net.params())
        for a, b in zip(back.params(), net.params()):
            np.testing.assert_array_equal(a, b)

    def test_magic_checked(self, tmp_path):
        (tmp_path / "bad.uann").write_bytes(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "bad.uann")

    def test_truncated_checkpoint(self, tmp_path):
        save_checkpoint(tmp_path / "n.uann", EmbedNet.random((3, 4, 2), seed=0))
        raw = (tmp_path / "n.uann").read_bytes()
        for keep in (4, 6, 8, 12, 16, 40, len(raw) - 1):
            (tmp_path / "t.uann").write_bytes(raw[:keep])
            with pytest.raises(ValueError, match=r"t\.uann: "):
                load_checkpoint(tmp_path / "t.uann")


class TestDetectionPath:
    SRC = Path(__file__).resolve().parent.parent / "src" / "uatrack"

    def test_canonicalize_is_called_only_by_detection_crop(self):
        callers = []

        def visit(node, path, fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")) == "canonicalize":
                    callers.append((path.name, fn))
            for child in ast.iter_child_nodes(node):
                visit(child, path, fn)

        for path in sorted(self.SRC.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
        assert callers == [("embed.py", "detection_crop")]

    def test_detection_crop_and_embedder(self, monkeypatch):
        det = Detection(frame=0, box=box(x=1.0), score=0.9, cloud_ref="c0")
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(40, 3)) + [1.0, 0.0, 0.0]
        seq = Sequence(frames=(FrameRecord(index=0, detections=(det,)),),
                       clouds={"c0": PointCloud(pts)})
        crop = detection_crop(seq, det, 16)
        want = canonicalize(PointCloud(pts), det.box, 16, seed=canon_seed("c0"))
        assert np.array_equal(crop.points, want.points)

        net = EmbedNet.random((3, 8, 8), seed=0)
        calls = []
        monkeypatch.setattr(embed, "forward", lambda n, c: calls.append(c) or forward(n, c))
        embedding = detection_embedder(net, seq, 16)
        first = embedding(det)
        assert embedding(replace(det)) is first
        assert not first.flags.writeable
        assert len(calls) == 1
        assert np.array_equal(first, forward(net, want))
