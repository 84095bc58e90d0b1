import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uatrack import embed
from uatrack.core import Box7, Detection, FrameRecord, PointCloud, Sequence
from uatrack.embed import (
    MAX_BACKWARD_ROWS,
    MAX_PASS_POINTS,
    MAX_PASS_ROWS,
    CanonicalCloud,
    EmbedNet,
    backward,
    canonicalize,
    forward,
    forward_argmax,
    load_checkpoint,
    save_checkpoint,
)
from uatrack.kalman import NumericalError


def box(x=0.0, y=0.0, z=0.0, yaw=0.0, l=4.0, w=2.0, h=1.5):
    return Box7(x, y, z, yaw, l, w, h)


def scene(*clouds_and_boxes):
    """A one-frame scene of detections (cloud, box), the k-th with cloud
    ref "c<k>", and its detections."""
    dets = tuple(Detection(frame=0, box=b, score=1.0, cloud_ref=f"c{k}")
                 for k, (_, b) in enumerate(clouds_and_boxes))
    seq = Sequence(frames=(FrameRecord(index=0, detections=dets),),
                   clouds={f"c{k}": pc for k, (pc, _) in enumerate(clouds_and_boxes)})
    return seq, dets


def crop(pc, b, n):
    """The crop of one detection (cloud pc, box b)."""
    dets = (Detection(frame=0, box=b, score=1.0, cloud_ref="c0"),)
    seq = Sequence(frames=(FrameRecord(index=0, detections=dets),), clouds={"c0": pc})
    out = canonicalize(seq, dets, n)
    assert_well_formed(out)
    assert out.bounds.tolist() == [0, len(out.points)]
    return out


def assert_well_formed(stack):
    """What `canonicalize` builds every stack to be: bounds from row 0 to
    the last row, each crop at least one row, and both arrays read-only."""
    bounds = stack.bounds
    assert bounds[0] == 0 and bounds[-1] == len(stack.points)
    assert (np.diff(bounds) > 0).all()
    assert not stack.points.flags.writeable and not bounds.flags.writeable


def one_crop(points):
    """A stack of one crop, points, built by hand."""
    points = np.asarray(points, dtype=np.float64)
    return CanonicalCloud(points, np.array([0, len(points)]))


def crops_of(stack):
    """Each crop of a stack as a stack of its own."""
    bounds = stack.bounds.tolist()
    return [one_crop(stack.points[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


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


def matrix_product_survivors(cloud, box):
    """The points of cloud in box, in cloud order, in its frame: rotated
    by a matrix product, one crop at a time."""
    pts = cloud.points.astype(np.float64)
    d = pts - box.center
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local = d @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    return local[(np.abs(local) <= half).all(axis=1)]


def reference_canonicalize(cloud, box, n):
    """The n-row crop: row j is survivor (j * count) // n, so a sparse crop
    repeats its survivors in order up to n rows, and an empty crop is n
    origin rows. canonicalize keeps each of its rows once; this is the
    reference it is held to."""
    inside = matrix_product_survivors(cloud, box)
    count = inside.shape[0]
    if count == 0:
        return one_crop(np.zeros((n, 3)))
    return one_crop(inside[np.arange(n) * count // n])


def previous_canonicalize(cloud, box, n):
    """The crop rule cut one crop at a time, with the matrix-product
    rotation and the all-axes mask: every survivor when there are at most
    n, else survivor (j * count) // n for j < n, and one origin row when
    there are none. Its crops are the reference, byte for byte."""
    inside = matrix_product_survivors(cloud, box)
    count = inside.shape[0]
    if count == 0:
        return one_crop(np.zeros((1, 3)))
    if count <= n:
        return one_crop(inside)
    return one_crop(inside[np.arange(n) * count // n])


# the largest difference measured between a frame's stacked forward and its
# crops' own was 5.0e-16 of the largest entry, over 300 random frames
STACK_TOL = 1e-15

# the largest difference measured between the per-coordinate rotation and
# the previous matrix product: 1 ulp of the row's largest coordinate (of 1
# when all are smaller), over 6,000 random crops
ROTATION_ULPS = 1


def assert_same_crop(got, want, exact):
    """The same rows in the same order: byte for byte when exact, else
    within ROTATION_ULPS."""
    assert got.points.shape == want.points.shape
    if exact:
        assert got.points.tobytes() == want.points.tobytes()
    scale = np.maximum(np.abs(want.points).max(axis=1), 1.0)
    assert (np.abs(got.points - want.points).max(axis=1)
            <= ROTATION_ULPS * np.spacing(scale)).all()


def previous_local(cloud, box):
    """The cloud's points in the box's frame, as previous_canonicalize
    computes them."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return (cloud.points.astype(np.float64) - box.center) @ np.array(
        [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def previous_inside(cloud, box):
    """Which points previous_canonicalize keeps in the box, and which lie
    within ROTATION_ULPS of a face there, where the per-coordinate rotation
    may decide them the other way."""
    local = previous_local(cloud, box)
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    ulp = ROTATION_ULPS * np.spacing(np.maximum(np.abs(local).max(axis=1), 1.0))
    near = (np.abs(np.abs(local) - half) <= ulp[:, None]).any(axis=1)
    return (np.abs(local) <= half).all(axis=1), near


def inside_alone(cloud, box):
    """Which points canonicalize keeps in the box: each point is cropped as
    a detection of its own, with n = 1, so a kept point is its own crop and
    a dropped one the origin."""
    pts = cloud.points
    dets = tuple(Detection(frame=0, box=box, score=1.0, cloud_ref=str(i))
                 for i in range(len(pts)))
    seq = Sequence(frames=(FrameRecord(index=0, detections=dets),),
                   clouds={str(i): PointCloud(pts[i:i + 1]) for i in range(len(pts))})
    return (canonicalize(seq, dets, 1).points != 0.0).any(axis=1)


def cloud_in_box(rng, survivors, outside=3):
    """survivors distinct points inside box(), then a few outside it, shuffled."""
    inner = rng.uniform(-0.7, 0.7, size=(survivors, 3))
    outer = rng.uniform(5.0, 9.0, size=(outside, 3)) * rng.choice([-1.0, 1.0], size=(outside, 3))
    return PointCloud(rng.permutation(np.vstack([inner, outer])))


class TestCanonicalize:
    def test_identity_pose(self):
        pc = PointCloud([[0.1, 0.2, 0.3]])
        out = crop(pc, box(), 1)
        np.testing.assert_allclose(out.points, [[0.1, 0.2, 0.3]], atol=1e-6)

    def test_inverse_rigid_transform(self):
        # box at (5, 0, 0) with yaw pi/2; world point (5, 1, 0) -> (1, 0, 0)
        pc = PointCloud([[5.0, 1.0, 0.0]])
        out = crop(pc, box(x=5.0, yaw=math.pi / 2), 1)
        np.testing.assert_allclose(out.points, [[1.0, 0.0, 0.0]], atol=1e-6)

    def test_sparse_crop_keeps_each_drawn_survivor_once(self):
        pc = PointCloud([[0.1, 0.1, 0.1], [-0.2, 0.3, -0.1], [99.0, 99.0, 99.0],
                         [0.3, -0.4, 0.2]])
        originals = pc.points[[0, 1, 3]].astype(np.float64)
        for n in (3, 4, 8, 64):
            # every survivor, once each, in cloud order
            assert crop(pc, box(), n).points.tobytes() == originals.tobytes()

    def test_sparse_crop_rows_in_cloud_order(self):
        # box() at the origin with yaw 0 leaves coordinates exact, so the
        # survivors are the inside points in cloud order
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            count = int(rng.integers(1, n + 1))
            pc = cloud_in_box(rng, count)
            pts = pc.points.astype(np.float64)
            inside = pts[(np.abs(pts) <= [2.0, 1.0, 0.75]).all(axis=1)]
            assert len(inside) == count
            assert crop(pc, box(), n).points.tobytes() == inside.tobytes()

    def test_dense_crop_keeps_evenly_spaced_survivors(self):
        # 10 survivors and n = 4: survivors 0, 2, 5 and 7 (j * 10 // 4)
        pts = np.array([[0.1 * k - 0.5, 0.0, 0.0] for k in range(10)] + [[9.0, 9.0, 9.0]])
        out = crop(PointCloud(pts[[0, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9]]), box(), 4)
        assert out.points.tobytes() == pts[[0, 2, 5, 7]].astype(np.float32).astype(
            np.float64).tobytes()

    def test_empty_crop_is_one_origin_row(self):
        pc = PointCloud([[50.0, 50.0, 50.0]])
        for n in (1, 8, 128):
            out = crop(pc, box(), n)
            assert out.points.tobytes() == np.zeros((1, 3)).tobytes()

    def test_full_and_dense_crops_equal_reference(self):
        # count >= n: the n rows of the reference, each once
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(1, 40))
            count = n + int(rng.integers(0, n + 1))
            pc = cloud_in_box(rng, count)
            b = box(x=0.1, yaw=float(rng.uniform(-0.2, 0.2)), l=5.0, w=3.0, h=2.0)
            out = crop(pc, b, n)
            want = reference_canonicalize(pc, b, n=n)
            assert want.points.shape == (n, 3)
            assert_same_crop(out, want, exact=False)

    @pytest.mark.parametrize("kind", ["empty", "sparse", "full", "dense"])
    def test_equals_previous_implementation(self, kind):
        """Byte for byte where the rotation is exact (yaw 0). Rotated, a
        point within ROTATION_ULPS of a face may fall on the other side of
        it than in the previous crop; every other point is kept or dropped
        alike. With the same survivors, the crop is the previous one: the
        same rows in the same order, within ROTATION_ULPS; otherwise it is
        the previous crop of its own survivors."""
        rng = np.random.default_rng(["empty", "sparse", "full", "dense"].index(kind))
        flipped = 0
        for trial in range(40):
            n = int(rng.integers(1, 40))
            exact = trial % 4 == 0
            # box() is at the origin with yaw 0, so a point on its face stays
            # exactly on it
            b = box() if exact else box(
                x=float(rng.uniform(-30, 30)), y=float(rng.uniform(-30, 30)),
                z=float(rng.uniform(-1, 1)), yaw=float(rng.uniform(-math.pi, math.pi)),
                l=float(rng.uniform(2, 6)), w=float(rng.uniform(1, 3)), h=float(rng.uniform(1, 2)))
            count = {"empty": 0, "sparse": int(rng.integers(0, n)), "full": n,
                     "dense": n + int(rng.integers(1, n + 2))}[kind]
            # local points inside the box, some on its faces, and some outside
            local = rng.uniform(-0.5, 0.5, size=(count, 3)) * [b.l, b.w, b.h]
            axis = int(rng.integers(0, 3))
            local[: count // 2, axis] = [b.l, b.w, b.h][axis] / 2 * rng.choice([-1, 1])
            outer = rng.uniform(0.51, 3.0, size=(5, 3)) * [b.l, b.w, b.h]
            c, s = math.cos(b.yaw), math.sin(b.yaw)
            world = np.vstack([local, outer]) @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
            pc = PointCloud(rng.permutation(world + b.center))
            if count and not exact:
                # float32 storage moved the face points off a rotated face:
                # fit the box's l and w to the outermost inner points, which
                # puts two points exactly on its faces as the previous crop
                # computes them (outer points are 0.01 of an extent or more
                # past a face)
                u = np.abs(previous_local(pc, b))
                inner = (u <= np.array([b.l, b.w, b.h]) / 2 + 1e-3).all(axis=1)
                b = box(b.x, b.y, b.z, b.yaw, 2.0 * u[inner, 0].max(), 2.0 * u[inner, 1].max(),
                        b.h)
            was, near = previous_inside(pc, b)
            now = inside_alone(pc, b)
            assert (was == now)[~near].all()
            got = crop(pc, b, n)
            if (was == now).all():
                want = previous_canonicalize(pc, b, n)
            else:
                assert not exact
                flipped += int((was != now).sum())
                # the previous crop of the survivors: a box grown by 1e-9
                # keeps those on its faces, at the same coordinates
                want = previous_canonicalize(PointCloud(pc.points[now]),
                                             box(b.x, b.y, b.z, b.yaw, b.l + 1e-9, b.w + 1e-9,
                                                 b.h + 1e-9), n)
            assert_same_crop(got, want, exact)
        # some face points do cross (3, 6 and 7 of them for sparse, full and
        # dense crops), so the case above is exercised
        assert flipped > 0 or kind == "empty"

    def test_subsample_without_replacement(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.4, 0.4, size=(50, 3))
        out = crop(PointCloud(pts), box(), 20)
        assert out.points.shape == (20, 3)
        assert len({tuple(p) for p in np.round(out.points, 6)}) == 20

    def test_equivariance(self):
        # translating and yaw-rotating cloud and box together preserves the
        # selection structure exactly and coordinates to float tolerance
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.5, 1.5, size=(60, 3)).astype(np.float32)
        b0 = box(l=3.0, w=2.0, h=2.0)
        out0 = crop(PointCloud(pts), b0, 32)

        th = 0.7
        t = np.array([3.0, -2.0, 0.5])
        c, s = math.cos(th), math.sin(th)
        rot_t = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        moved = pts.astype(np.float64) @ rot_t + t
        b1 = box(x=t[0], y=t[1], z=t[2], yaw=th, l=3.0, w=2.0, h=2.0)
        out1 = crop(PointCloud(moved), b1, 32)
        np.testing.assert_allclose(out1.points, out0.points, atol=1e-5)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            crop(PointCloud(np.zeros((1, 3))), box(), 0)


class TestForward:
    def test_zero_net_zero_embedding(self):
        net = EmbedNet(
            weights=(np.zeros((4, 3)), np.zeros((2, 4))),
            biases=(np.zeros(4), np.zeros(2)),
        )
        cloud = one_crop(np.random.default_rng(0).normal(size=(10, 3)))
        np.testing.assert_array_equal(forward(net, cloud), np.zeros((1, 2)))

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(1)
        net = EmbedNet.random((3, 8, 8, 5), seed=2)
        pts = rng.normal(size=(40, 3))
        cloud = one_crop(pts)
        base = forward(net, cloud)
        for _ in range(5):
            perm = rng.permutation(40)
            shuffled = one_crop(pts[perm])
            np.testing.assert_array_equal(forward(net, shuffled), base)

    def test_single_layer_hand_example(self):
        # W = [[1,0,0],[0,1,0]], points (1,5,0) and (2,1,0) -> max = (2, 5)
        net = EmbedNet(
            weights=(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),),
            biases=(np.zeros(2),),
        )
        cloud = one_crop(np.array([[1.0, 5.0, 0.0], [2.0, 1.0, 0.0]]))
        np.testing.assert_allclose(forward(net, cloud), [[2.0, 5.0]])

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
                val = float(np.dot(upstream, forward(net2, cloud)[0]))
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
        cloud = one_crop(np.random.default_rng(1).normal(size=(12, 3)))
        grads = backward(net, cloud.points, np.zeros(4), forward_argmax(net, cloud.points)[1])
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            net = EmbedNet.random((3, 5, 4), seed=100 + trial)
            cloud = one_crop(rng.normal(size=(8, 3)))
            upstream = rng.normal(size=4)
            analytic = backward(net, cloud.points, upstream, forward_argmax(net, cloud.points)[1])
            numeric = fd_gradients(net, cloud, upstream)
            for a, n in zip(analytic, numeric):
                denom = np.maximum(np.abs(n), 1e-6)
                rel = np.abs(a - n) / denom
                assert rel.max() < 1e-4

    def test_frozen_argmax_pattern(self):
        rng = np.random.default_rng(7)
        net = EmbedNet.random((3, 6, 4), seed=3)
        pts = rng.normal(size=(10, 3))
        cloud = one_crop(pts)
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

        base = backward(net, cloud.points, upstream, forward_argmax(net, cloud.points)[1])
        bumped = pts.copy()
        bumped[loser] += margin * 1e-3  # well below the selection margin
        out = backward(net, bumped, upstream, forward_argmax(net, bumped)[1])
        for a, b2 in zip(base, out):
            np.testing.assert_array_equal(a, b2)


def dense_backward(net, points, upstream):
    """Reference backward over every point: full forward, scatter the
    upstream onto the first arg-max of each coordinate, backpropagate."""
    upstream = np.asarray(upstream, dtype=np.float64).reshape(net.dim)
    acts = [points]
    pre = []
    last = len(net.weights) - 1
    x = points
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


def previous_backward(net, points, upstream, arg=None):
    """backward as it was before it dropped discarded work: the critical
    rows from np.unique, a rerun through the last layer, and the gradient
    with respect to the points. The new one must equal it bit for bit."""
    upstream = np.asarray(upstream, dtype=np.float64).reshape(net.dim)
    if arg is None:
        arg = previous_mlp(net, points).argmax(axis=0)
    rows, pos = np.unique(arg, return_inverse=True)
    acts = [points[rows]]
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
    byte for byte."""
    feats = previous_mlp(net, cloud.points)
    emb, arg = forward_argmax(net, cloud.points)
    assert emb.tobytes() == feats.max(axis=0).tobytes()
    assert forward(net, cloud).tobytes() == feats.max(axis=0).tobytes()
    assert arg.tobytes() == feats.argmax(axis=0).tobytes()
    want = previous_backward(net, cloud.points, upstream)
    got = backward(net, cloud.points, upstream, arg)
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
        want = dense_backward(net, cloud.points, upstream)
        got = backward(net, cloud.points, upstream, forward_argmax(net, cloud.points)[1])
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_random_nets(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            net = EmbedNet.random(random_widths(rng), seed=trial)
            cloud = one_crop(rng.normal(size=(int(rng.integers(1, 40)), 3)))
            self.assert_matches_dense(net, cloud, rng.normal(size=net.dim))

    def test_duplicated_points_tie_to_first(self):
        # a cloud that repeats points makes arg-max ties common
        rng = np.random.default_rng(12)
        for trial in range(20):
            net = EmbedNet.random(random_widths(rng), seed=200 + trial)
            base = rng.normal(size=(5, 3))
            pts = base[rng.integers(0, 5, size=32)]
            cloud = one_crop(pts)
            _, arg = forward_argmax(net, cloud.points)
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
            cloud = crop(PointCloud([[50.0, 50.0, 50.0]]), box(), 16)
            ref = reference_canonicalize(PointCloud([[50.0, 50.0, 50.0]]), box(), n=16)
            assert cloud.points.tobytes() == np.zeros((1, 3)).tobytes()
            emb, arg = forward_argmax(net, cloud.points)
            ref_emb, ref_arg = forward_argmax(net, ref.points)
            np.testing.assert_array_equal(arg, np.zeros(4, dtype=arg.dtype))
            np.testing.assert_array_equal(ref_arg, np.zeros(4, dtype=arg.dtype))
            np.testing.assert_allclose(emb, ref_emb, rtol=0.0, atol=1e-12)
            upstream = rng.normal(size=4)
            self.assert_matches_dense(net, cloud, upstream)
            for a, b in zip(backward(net, cloud.points, upstream, arg),
                            backward(net, ref.points, upstream, ref_arg)):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_dead_relu_units(self):
        rng = np.random.default_rng(14)
        base = EmbedNet.random((3, 8, 8, 5), seed=4)
        biases = [b.copy() for b in base.biases]
        biases[0][:4] = -1e3  # these hidden units never fire
        biases[1][::2] = -1e3
        net = EmbedNet(weights=base.weights, biases=tuple(biases))
        cloud = one_crop(rng.normal(size=(30, 3)))
        grads = backward(net, cloud.points, rng.normal(size=5),
                         forward_argmax(net, cloud.points)[1])
        assert not grads[0][:4].any() and not grads[1][:4].any()
        self.assert_matches_dense(net, cloud, rng.normal(size=5))

    def test_forward_argmax_equals_forward(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            net = EmbedNet.random(random_widths(rng), seed=300 + trial)
            cloud = one_crop(rng.normal(size=(24, 3)))
            emb, arg = forward_argmax(net, cloud.points)
            assert emb.tobytes() == forward(net, cloud).tobytes()
            assert arg.shape == (net.dim,)


class TestStackedBackward:
    """backward over several crops, as a training step calls it: the sum of
    each crop's dense backward, in passes of whole consecutive crops of at
    most MAX_BACKWARD_ROWS critical rows."""

    @staticmethod
    def _crops(rng, net, count, sphere=False):
        """count crops of 1 to 200 rows, a third of them on a coarse grid so
        that arg-max ties are common, with their upstreams and arg-maxes.
        With sphere, the rows lie on the unit sphere instead, so that a wide
        net takes most of them as critical points."""
        crops = []
        for _ in range(count):
            pts = rng.normal(size=(int(rng.integers(1, 200)), 3))
            if sphere:
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            elif rng.random() < 1 / 3:
                pts = np.round(pts * 2.0) / 2.0
            crops.append(pts)
        return crops, [rng.normal(size=net.dim) for _ in crops], \
            [forward_argmax(net, c)[1] for c in crops]

    def test_sum_of_dense_backward_per_crop(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            widths = random_widths(rng) if trial % 2 else (3, 64, 64, 64)
            net = EmbedNet.random(widths, seed=400 + trial)
            crops, ups, args = self._crops(rng, net, int(rng.integers(2, 40)))
            got = backward(net, crops, ups, args)
            want = [sum(parts) for parts in
                    zip(*(dense_backward(net, c, u) for c, u in zip(crops, ups)))]
            assert len(got) == len(want) == len(net.params())
            for a, b in zip(got, want):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_one_crop_in_a_list_is_the_one_crop_call(self):
        rng = np.random.default_rng(22)
        net = EmbedNet.random((3, 64, 64, 64), seed=5)
        crops, ups, args = self._crops(rng, net, 1)
        for a, b in zip(backward(net, crops, ups, args), backward(net, crops[0], ups[0], args[0])):
            assert a.tobytes() == b.tobytes()

    def test_no_crops_zero_gradients(self):
        net = EmbedNet.random((3, 6, 4), seed=0)
        got = backward(net, [], [], [])
        assert [g.shape for g in got] == [p.shape for p in net.params()]
        assert not any(g.any() for g in got)

    def test_passes_hold_whole_crops_within_the_cap(self, monkeypatch):
        """The passes cover each crop's critical rows, in ascending order,
        crops in the order given; a pass holds whole consecutive crops, at
        most MAX_BACKWARD_ROWS rows unless it is one crop, and ends only
        where the next crop would take it past the cap: that is the memory
        contract of backward."""
        rng = np.random.default_rng(23)
        passes = []
        backprop = embed._backprop
        monkeypatch.setattr(embed, "_backprop", lambda net, rows, pos, up, grads: passes.append(
            (rows.copy(), len(pos))) or backprop(net, rows, pos, up, grads))
        multi = big = 0
        for trial in range(12):
            net = EmbedNet.random(((3, 16, 8), (3, 64, 64), (3, 64, 256))[trial % 3],
                                  seed=500 + trial)
            crops, ups, args = self._crops(rng, net, 30, sphere=trial % 3 == 2)
            passes.clear()
            backward(net, crops, ups, args)
            critical = [c[np.unique(a)] for c, a in zip(crops, args)]
            sizes = [len(c) for c in critical]
            assert np.concatenate([r for r, _ in passes]).tobytes() == \
                np.concatenate(critical).tobytes()
            k = 0
            for rows, count in passes:
                assert count >= 1 and len(rows) == sum(sizes[k:k + count])
                assert len(rows) <= MAX_BACKWARD_ROWS or count == 1
                if k + count < len(sizes):
                    assert len(rows) + sizes[k + count] > MAX_BACKWARD_ROWS
                k += count
                multi += count > 1
                big += len(rows) > MAX_BACKWARD_ROWS
            assert k == len(crops)
        assert multi and big  # both kinds of pass are exercised


@st.composite
def crop_cases(draw):
    """(cloud, box, n, net, upstream): 0 to 2n survivors of a cloud,
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
    return pc, b, n, net, rng.normal(size=net.dim)


class TestPreviousImplementation:
    """The in-place MLP and the backward that skips discarded work give the
    bytes of the implementations they replace."""

    @given(crop_cases())
    @settings(max_examples=200, deadline=None)
    @example((PointCloud([[50.0, 50.0, 50.0]]), box(), 8,
              EmbedNet.random((3, 4, 2), seed=0), np.ones(2)))
    def test_crops(self, case):
        pc, b, n, net, upstream = case
        assert_matches_previous(net, crop(pc, b, n), upstream)
        assert_matches_previous(net, reference_canonicalize(pc, b, n), upstream)

    def test_single_layer_and_all_dead_units(self):
        rng = np.random.default_rng(16)
        cloud = one_crop(rng.normal(size=(20, 3)))
        assert_matches_previous(EmbedNet.random((3, 5), seed=1), cloud, rng.normal(size=5))
        base = EmbedNet.random((3, 6, 6, 4), seed=2)
        dead = EmbedNet(weights=base.weights,
                        biases=(np.full(6, -1e3), base.biases[1], base.biases[2]))
        assert_matches_previous(dead, cloud, rng.normal(size=4))
        arg = forward_argmax(dead, cloud.points)[1]
        assert not any(g.any() for g in backward(dead, cloud.points, rng.normal(size=4), arg)[:4])


class TestReferenceEquivalence:
    """Embedding each row of the reference once gives the embedding and the
    gradients of the n-row reference crop, and the critical points of a
    reference with the crop's own rows.

    The critical points are compared on a matrix product of the crop's own
    row count: MLP rows computed in passes of different row counts can
    differ in their last bits, so an exact tie between points can break
    one way in the crop and another in its n-row reference."""

    @given(crop_cases())
    @settings(max_examples=200, deadline=None)
    @example((PointCloud([[50.0, 50.0, 50.0]]), box(), 8,
              EmbedNet.random((3, 4, 2), seed=0), np.ones(2)))
    def test_matches_reference_crop(self, case):
        pc, b, n, net, upstream = case
        cloud = crop(pc, b, n)
        ref = reference_canonicalize(pc, b, n)
        assert 1 <= cloud.points.shape[0] <= n
        np.testing.assert_allclose(forward(net, cloud), forward(net, ref), rtol=0.0, atol=1e-12)
        emb, arg = forward_argmax(net, cloud.points)
        ref_emb, ref_arg = forward_argmax(net, ref.points)
        np.testing.assert_allclose(emb, ref_emb, rtol=0.0, atol=1e-12)
        own = previous_canonicalize(pc, b, n)
        _, own_arg = forward_argmax(net, own.points)
        assert_same_crop(one_crop(cloud.points[arg]),
                         one_crop(own.points[own_arg]), exact=b.yaw == 0.0)
        got = backward(net, cloud.points, upstream, arg=arg)
        want = backward(net, ref.points, upstream, arg=ref_arg)
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


class TestFramePass:
    SRC = Path(__file__).resolve().parent.parent / "src" / "uatrack"

    def test_canonicalize_callers(self):
        """Every path crops through canonicalize: the tracker and harvest
        (`mot._PairFeatures`), SOT and training (`cli.frame_crops`, as
        each training scene is read) a run of frames at a time through
        canonicalize_frames, SOT its anchors in one more call."""
        callers = {"canonicalize": [], "canonicalize_frames": []}

        def visit(node, path, fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                if name in callers:
                    callers[name].append((path.name, fn))
            for child in ast.iter_child_nodes(node):
                visit(child, path, fn)

        for path in sorted(self.SRC.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
        assert callers == {
            "canonicalize": [("embed.py", "canonicalize_frames"),
                             ("embed.py", "canonicalize_frames"),
                             ("evaluation.py", "sot_evaluate")],
            "canonicalize_frames": [("cli.py", "frame_crops"), ("evaluation.py", "sot_evaluate"),
                                    ("mot.py", "__init__")],
        }

    @staticmethod
    def _frame(rng, n, yaw_zero, dets=(1, 12)):
        """A frame of dets[0] to dets[1] detections whose crops are empty,
        sparse, full or dense, each cloud with up to 6 points outside its
        box."""
        pairs = []
        for k in range(int(rng.integers(dets[0], dets[1] + 1))):
            b = box(x=float(rng.uniform(-30, 30)), y=float(rng.uniform(-30, 30)),
                    yaw=0.0 if yaw_zero else float(rng.uniform(-math.pi, math.pi)),
                    l=float(rng.uniform(2, 6)), w=float(rng.uniform(1, 3)))
            count = [0, int(rng.integers(1, n + 1)), n, n + int(rng.integers(1, 2 * n))][k % 4]
            local = rng.uniform(-0.49, 0.49, size=(count, 3)) * [b.l, b.w, b.h]
            # outside along one axis only, so that each axis's test matters
            outer = rng.uniform(-0.49, 0.49, size=(int(rng.integers(0, 7)), 3))
            axis = rng.integers(0, 3, size=len(outer))
            outer[np.arange(len(outer)), axis] = rng.uniform(0.51, 2.0, size=len(outer)) * \
                rng.choice([-1.0, 1.0], size=len(outer))
            outer *= [b.l, b.w, b.h]
            c, s = math.cos(b.yaw), math.sin(b.yaw)
            world = np.vstack([local, outer]) @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
            pairs.append((PointCloud(rng.permutation(world + b.center)), b))
        return pairs

    @pytest.mark.parametrize("yaw_zero", [True, False], ids=["exact", "rotated"])
    def test_frame_crop_equals_crops_alone_and_previous(self, yaw_zero):
        rng = np.random.default_rng(int(yaw_zero))
        for trial in range(30):
            n = int(rng.integers(1, 40))
            pairs = self._frame(rng, n, yaw_zero)
            seq, dets = scene(*pairs)
            stack = canonicalize(seq, dets, n)
            crops = crops_of(stack)
            assert_well_formed(stack)
            assert len(crops) == len(stack.bounds) - 1 == len(dets)
            for k, (det, (pc, b)) in enumerate(zip(dets, pairs)):
                alone = canonicalize(seq, [det], n)
                assert crops[k].points.tobytes() == alone.points.tobytes()
                want = previous_canonicalize(pc, b, n)
                assert_same_crop(crops[k], want, yaw_zero)
            assert np.array_equal(np.concatenate([c.points for c in crops]), stack.points)

    def test_no_detections(self):
        seq, _ = scene((PointCloud(np.zeros((1, 3))), box()))
        stack = canonicalize(seq, [], 8)
        assert_well_formed(stack)
        assert stack.points.shape == (0, 3) and stack.bounds.tolist() == [0]
        assert forward(EmbedNet.random((3, 4, 2), seed=0), stack).shape == (0, 2)

    def test_stacked_forward_equals_per_crop(self, monkeypatch):
        """Whole crops, at most MAX_PASS_ROWS rows a pass (a longer crop
        alone), give each crop's embedding within STACK_TOL."""
        rng = np.random.default_rng(7)
        passes = []
        mlp = embed._mlp
        monkeypatch.setattr(embed, "_mlp", lambda net, pts: passes.append(len(pts)) or
                            mlp(net, pts))
        for trial in range(20):
            n = int(rng.integers(50, 700))
            seq, dets = scene(*self._frame(rng, n, False))
            stack = canonicalize(seq, dets, n)
            net = EmbedNet(weights=EmbedNet.random((3, 64, 64, 64), seed=trial).weights,
                           biases=tuple(rng.normal(0.0, 0.5, size=64) for _ in range(3)))
            passes.clear()
            got = forward(net, stack)
            sizes = np.diff(stack.bounds)
            # passes cover whole consecutive crops, longer ones alone
            bounds = np.cumsum(sizes).tolist()
            assert sum(passes) == len(stack.points)
            assert all(p <= MAX_PASS_ROWS or p in sizes for p in passes)
            assert all(b in bounds for b in np.cumsum(passes).tolist())
            want = np.array([forward(net, c)[0] for c in crops_of(stack)])
            assert got.shape == want.shape == (len(dets), 64)
            assert np.abs(got - want).max() <= STACK_TOL * np.abs(want).max()

    @staticmethod
    def _scene(frames):
        """A scene of frames of detections (cloud, box), the k-th of frame
        f with cloud ref "f<f>c<k>"."""
        recs, clouds = [], {}
        for f, pairs in enumerate(frames):
            dets = []
            for k, (pc, b) in enumerate(pairs):
                clouds[f"f{f}c{k}"] = pc
                dets.append(Detection(frame=f, box=b, score=1.0, cloud_ref=f"f{f}c{k}"))
            recs.append(FrameRecord(index=f, detections=tuple(dets)))
        return Sequence(frames=tuple(recs), clouds=clouds)

    @pytest.mark.parametrize("yaw_zero", [True, False], ids=["exact", "rotated"])
    def test_frame_passes_equal_frames_alone(self, yaw_zero, monkeypatch):
        """Runs of frames cut in one pass give each frame the bytes of its
        own canonicalize call, frames without detections and a frame above
        the point budget included. A pass covers whole consecutive frames
        and holds at most MAX_PASS_POINTS cloud points unless it is one
        frame: that is the memory contract of canonicalize_frames."""
        rng = np.random.default_rng(2 + int(yaw_zero))
        passes = []
        crop = embed.canonicalize
        monkeypatch.setattr(embed, "canonicalize",
                            lambda seq, dets, n: passes.append(list(dets)) or crop(seq, dets, n))
        multi = big = 0
        for trial in range(6):
            n = int(rng.integers(1, 60))
            frames = [self._frame(rng, n, yaw_zero, dets=(0, 12)) for _ in range(12)]
            frames[3] = []
            # a frame of 12 detections of up to about 1,200 points each is above the budget
            frames[int(rng.integers(0, 12))] = self._frame(rng, 400, yaw_zero, dets=(12, 12))
            seq = self._scene(frames)
            recs = seq.frames
            passes.clear()
            got = list(embed.canonicalize_frames(seq, (r.detections for r in recs), n))
            cut = passes[:]
            assert len(got) == len(recs)
            for stack, rec in zip(got, recs):
                alone = crop(seq, rec.detections, n)
                assert stack.points.tobytes() == alone.points.tobytes()
                assert stack.bounds.tolist() == alone.bounds.tolist()
                assert_well_formed(stack)
                assert_well_formed(alone)
            # the passes are runs of whole consecutive frames, in order
            assert [d for dets in cut for d in dets] == [d for r in recs for d in r.detections]
            for dets in cut:
                frames_in = sorted({d.frame for d in dets})
                if frames_in:
                    assert dets == [d for f in range(frames_in[0], frames_in[-1] + 1)
                                    for d in recs[f].detections]
                size = sum(seq.cloud_of(d).count for d in dets)
                assert size <= MAX_PASS_POINTS or len(frames_in) == 1
                multi += len(frames_in) > 1
                big += size > MAX_PASS_POINTS
        assert multi and big  # both kinds of pass are exercised
