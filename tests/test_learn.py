import math
from dataclasses import replace

import numpy as np
import pytest
from test_embed import cosine, dense_backward, one_crop, reference_canonicalize, rounded

from uatrack import assoc, cli, embed, kalman, learn, sim
from uatrack.learn import (
    AdamState,
    DetRef,
    TrainerConfig,
    TrainingDataExhausted,
    Triplet,
    adam_step,
    batch_loss_and_grads,
    build_triplet_source,
    mine_hard_negative,
    sample_triplet,
    train,
    triplet_loss,
)


class TestTripletLoss:
    def test_margin_satisfied(self):
        assert learn.TRIPLET_MARGIN == 0.2
        assert triplet_loss(0.9, 0.5) == 0.0

    def test_hand_value(self):
        assert triplet_loss(0.6, 0.5) == pytest.approx(0.1, abs=1e-12)

    def test_equal_similarities_give_margin(self):
        assert triplet_loss(0.5, 0.5) == pytest.approx(0.2, abs=1e-12)


def alone_forward(net, crops):
    """A fwd for `batch_loss_and_grads` that embeds each crop alone, as a
    one-crop stack."""
    def fwd(ref):
        embs, arg = embed.forward_argmax(net, embed.one_crop(crops(ref)))
        return embs[0], arg[0]
    return fwd


class TestWeightedLoss:
    """A triplet's weight scales its hinge loss in `batch_loss_and_grads`,
    run here on one-triplet batches whose hinge is active: the negative is
    the anchor's own crop, so cos_neg is 1, no less than cos_pos, and the
    hinge is at least the margin."""

    ANCHOR, POSITIVE = DetRef(0, 0, 0), DetRef(0, 1, 0)

    def _run(self, w):
        rng = np.random.default_rng(4)
        clouds = {ref: one_crop(rng.normal(size=(12, 3))) for ref in (self.ANCHOR, self.POSITIVE)}
        net = embed.EmbedNet.random((3, 8, 4), seed=3)

        def crops(ref):
            return clouds[ref].points

        loss, grads, weight = batch_loss_and_grads(
            net, crops, [Triplet(self.ANCHOR, self.POSITIVE, self.ANCHOR, w)],
            alone_forward(net, crops))
        e_a, e_p = (embed.forward(net, clouds[ref])[0] for ref in (self.ANCHOR, self.POSITIVE))
        return loss, grads, weight, triplet_loss(cosine(e_a, e_p), cosine(e_a, e_a))

    def test_product(self):
        loss, _, weight, raw = self._run(0.5)
        assert raw > 0.0 and weight == 0.5
        assert loss == pytest.approx(0.5 * raw, abs=1e-12)

    def test_zero_weight_silences(self):
        loss, grads, _, raw = self._run(0.0)
        assert raw > 0.0 and loss == 0.0
        assert all(not g.any() for g in grads)

    def test_unit_weight_identity(self):
        loss, _, _, raw = self._run(1.0)
        assert loss == pytest.approx(raw, abs=1e-12)


def mine(rows, anchor):
    """mine_hard_negative over a frame whose embeddings are rows."""
    embs = np.array(rows, dtype=np.float64)
    return mine_hard_negative(embs, embed.norms(embs), anchor)


class TestMineHardNegative:
    def test_highest_cosine_wins(self):
        assert mine([[0.9, 0.1], [0.0, 1.0], [1.0, 0.0]], 2) == 0

    def test_single_candidate(self):
        assert mine([[1.0, 0.0], [0.0, 1.0]], 0) == 1

    def test_tie_goes_to_lowest_index(self):
        e = [0.5, 0.5]
        assert mine([[0.0, -1.0], e, e, [1.0, 0.0]], 3) == 1

    def test_empty_returns_none(self):
        # a frame that holds only the anchor offers no candidate
        assert mine([[1.0]], 0) is None

    def test_anchor_row_excluded(self):
        # the anchor's cosine with itself, 1, is the highest in the frame
        assert mine([[0.0, 1.0], [1.0, 0.0], [0.6, 0.8]], 1) == 2

    def test_zero_norm_row_scores_zero(self):
        # the zero row scores 0, above the other candidate's negative cosine
        assert mine([[-1.0, 0.1], [1.0, 0.0], [0.0, 0.0]], 1) == 2
        # and below a positive one; a zero-norm anchor scores 0 with all
        assert mine([[0.0, 0.0], [1.0, 0.0], [0.3, 0.1]], 1) == 2
        assert mine([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], 1) == 0


def negative_candidates(src, anchor):
    """Detection indices in the anchor's frame that mining may pick: every
    detection but the anchor."""
    return [d for d in range(src.det_count(anchor.seq, anchor.frame)) if d != anchor.det]


def _source_from_tracks(track_members, link_conf, frame_sizes, n_dets_per_frame=3):
    """Build a TripletSource from hand-specified tracks over one scene of
    stub frames, each detection's crop one origin row."""
    from uatrack.core import TrackletLabel

    max_frame = max(f for members in track_members.values() for f, _ in members)
    sizes = {f: frame_sizes.get(f, n_dets_per_frame) for f in range(max_frame + 1)}
    frames = {f: embed.CanonicalCloud(np.zeros((k, 3)), np.arange(k + 1))
              for f, k in sizes.items() if k}
    tracks = [TrackletLabel(tid, tuple(members), tuple(link_conf[tid]))
              for tid, members in track_members.items()]
    return build_triplet_source([frames], [tracks])


def test_source_keeps_the_stacks_as_cut():
    """build_triplet_source holds each stack that `cli.frame_crops` cut, the
    object itself, and a crop is its rows between the stack's bounds."""
    frames, tracks = _mini_training_setup(seed=5, n_frames=12, n_objects=4)
    src = build_triplet_source(frames, tracks)
    assert len(src.frames) == len(frames[0]) > 6
    for index, stack in frames[0].items():
        assert src.frames[(0, index)] is stack
        assert src.det_count(0, index) == len(stack.bounds) - 1
        for d in range(len(stack.bounds) - 1):
            want = stack.points[stack.bounds[d]:stack.bounds[d + 1]]
            assert np.array_equal(src.crop(DetRef(0, index, d)), want)


class TestSampleTriplet:
    def test_forced_pair_and_weight(self):
        src = _source_from_tracks({0: [(0, 0), (1, 0)]}, {0: [0.7]}, {})
        rng = np.random.default_rng(0)
        anchor, positive, weight = sample_triplet(src, rng)
        assert anchor == DetRef(0, 0, 0)
        assert positive == DetRef(0, 1, 0)
        assert weight == pytest.approx(0.7)

    def test_chain_weight_product(self):
        src = _source_from_tracks({0: [(0, 0), (1, 0), (2, 0)]}, {0: [0.9, 0.8]}, {})
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            anchor, positive, weight = sample_triplet(src, rng)
            seen.add((anchor.frame, positive.frame, round(weight, 6)))
        assert (0, 2, round(0.72, 6)) in seen  # matches the product rule
        assert (0, 1, 0.9) in seen
        assert (1, 2, 0.8) in seen

    def test_oracle_tracks_weight_one(self):
        src = _source_from_tracks({0: [(0, 0), (1, 0)]}, {0: [1.0]}, {})
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert sample_triplet(src, rng)[2] == 1.0

    def test_exhausted_raises(self):
        with pytest.raises(TrainingDataExhausted):
            _source_from_tracks({0: [(0, 0)]}, {0: []}, {})

    def test_lonely_anchor_frame_skips(self):
        src = _source_from_tracks({0: [(0, 0), (1, 0)]}, {0: [1.0]}, {0: 1})
        t = sample_triplet(src, np.random.default_rng(0))
        assert t is None

    def test_max_gap_respected(self):
        """A pair MAX_GAP frames apart is drawn; one a frame further is not."""
        gap = learn.MAX_GAP
        assert gap == 10
        src = _source_from_tracks({0: [(0, 0), (gap + 1, 0)], 1: [(0, 1), (gap, 1)]},
                                  {0: [0.5], 1: [0.5]}, {})
        rng = np.random.default_rng(0)
        drawn = [sample_triplet(src, rng) for _ in range(40)]
        assert None in drawn  # track 0's one pair is out of range
        assert {(t[0], t[1]) for t in drawn if t is not None} == {
            (DetRef(0, 0, 1), DetRef(0, gap, 1))}

    def test_no_pair_within_max_gap_raises(self):
        gap = learn.MAX_GAP
        with pytest.raises(TrainingDataExhausted, match=f"MAX_GAP={gap}"):
            _source_from_tracks({0: [(0, 0), (gap + 1, 0)], 1: [(1, 1), (gap + 5, 1)]},
                                {0: [0.5], 1: [0.9]}, {})


@pytest.mark.parametrize("key, value, message", [
    ("learning_rate", math.inf, "learning rate must be finite and >= 0, got inf"),
    ("learning_rate", math.nan, "learning rate must be finite and >= 0, got nan"),
])
def test_non_finite_trainer_value_rejected(key, value, message):
    """Refused when the config is built, not at step 0 as a non-finite
    batch loss or a parameter the network refuses."""
    with pytest.raises(ValueError, match=message):
        TrainerConfig(**{key: value})


class TestAdam:
    def _params(self):
        return [np.array([1.0, -2.0]), np.array([[0.5]])]

    def test_zero_grad_identity(self):
        params = self._params()
        state = AdamState.init(params)
        out, state2 = adam_step(params, [np.zeros(2), np.zeros((1, 1))], state,
                                TrainerConfig(learning_rate=0.1))
        for a, b in zip(out, params):
            np.testing.assert_array_equal(a, b)
        assert state2.step == 1

    def test_first_step_is_signed_lr(self):
        # oracle: first bias-corrected step = -lr * g / (|g| + ~eps)
        cfg = TrainerConfig(learning_rate=0.01)
        params = [np.array([1.0])]
        grads = [np.array([0.003])]
        out, _ = adam_step(params, grads, AdamState.init(params), cfg)
        assert out[0][0] == pytest.approx(1.0 - 0.01, rel=1e-4)

    def test_constant_gradient_update_magnitude_non_increasing(self):
        cfg = TrainerConfig(learning_rate=0.05)
        params = [np.array([0.0, 1.0, -2.0])]
        grads = [np.array([0.2, -0.1, 0.4])]
        state = AdamState.init(params)
        p1, state = adam_step(params, grads, state, cfg)
        step1 = np.abs(np.asarray(p1[0]) - np.asarray(params[0]))
        p2, state = adam_step(p1, grads, state, cfg)
        step2 = np.abs(np.asarray(p2[0]) - np.asarray(p1[0]))
        assert (step2 <= step1 + 1e-9).all()


def dense_batch_loss_and_grads(net, crops, triplets, fwd=None, use_uncertainty=True):
    """Reference for batch_loss_and_grads: every active triplet member is
    embedded by forward and backpropagated on its own, through the dense
    backward over all points. fwd is accepted and ignored."""
    grads = [np.zeros_like(p) for p in net.params()]
    loss_sum = weight_sum = 0.0
    for t in triplets:
        e_a, e_p, e_n = (embed.forward(net, one_crop(crops(r)))[0]
                         for r in (t.anchor, t.positive, t.negative))
        w = t.weight if use_uncertainty else 1.0
        cp, dp_a, dp_p = (x[0] for x in learn._cosines_and_grads(e_a[None], e_p[None]))
        cn, dn_a, dn_n = (x[0] for x in learn._cosines_and_grads(e_a[None], e_n[None]))
        raw = triplet_loss(cp, cn)
        loss_sum += raw * w
        weight_sum += w
        if raw > 0.0 and w > 0.0:
            for ref, up in ((t.anchor, w * (dn_a - dp_a)), (t.positive, -w * dp_p),
                            (t.negative, w * dn_n)):
                for slot, g in enumerate(dense_backward(net, crops(ref), up)):
                    grads[slot] += g
    return loss_sum, grads, weight_sum


def _mini_scene(seed=0, n_frames=10, n_objects=3, base_points=120):
    """A small simulated scene and its pseudo-tracks."""
    scene = sim.SceneConfig(n_objects=n_objects, n_frames=n_frames,
                            base_points=base_points, min_points=20)
    seq = sim.generate_sequence(scene, seed=seed)
    return seq, assoc.build_pseudo_tracks(seq, assoc.AssocConfig())


def _mini_training_setup(seed=0, n_frames=10, n_objects=3):
    """train's inputs for one small scene: its frames cut into crops as
    `cli.run_train` cuts them, and its pseudo-tracks."""
    seq, tracks = _mini_scene(seed, n_frames, n_objects)
    return [cli.frame_crops(seq)], [tracks]


class TestTrain:
    def test_zero_lr_bit_identical(self):
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 8, 4), seed=1)
        cfg = TrainerConfig(learning_rate=0.0, batch_size=4, epochs=1)
        out, history = train(frames, tracks, net, cfg, seed=0)
        for a, b in zip(out.params(), net.params()):
            np.testing.assert_array_equal(a, b)
        assert history

    def test_zero_weights_leave_params_unchanged(self):
        frames, tracks = _mini_training_setup()
        zero = [replace(lab, link_conf=(0.0,) * len(lab.link_conf)) for lab in tracks[0]]
        net = embed.EmbedNet.random((3, 8, 8, 4), seed=1)
        cfg = TrainerConfig(learning_rate=1e-2, batch_size=4, epochs=1)
        out, _ = train(frames, [zero], net, cfg, seed=0)
        for a, b in zip(out.params(), net.params()):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self, tmp_path):
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 8, 4), seed=1)
        cfg = TrainerConfig(learning_rate=1e-3, batch_size=4, epochs=2)
        files = []
        for run in range(2):
            out, history = train(frames, tracks, net, cfg, seed=7)
            embed.save_checkpoint(tmp_path / f"{run}.uann", out)
            learn.write_loss_history(tmp_path / f"{run}.csv", history)
            files.append(((tmp_path / f"{run}.uann").read_bytes(),
                          (tmp_path / f"{run}.csv").read_bytes()))
        assert files[0] == files[1]

    def test_history_matches_dense_per_member_path(self, monkeypatch):
        frames, tracks = _mini_training_setup(seed=5, n_frames=12, n_objects=4)
        net = embed.EmbedNet.random((3, 16, 16, 8), seed=3)
        cfg = TrainerConfig(learning_rate=3e-3, batch_size=8, epochs=4)
        out, history = train(frames, tracks, net, cfg, seed=2)
        monkeypatch.setattr(learn, "batch_loss_and_grads", dense_batch_loss_and_grads)
        ref_out, ref_history = train(frames, tracks, net, cfg, seed=2)
        assert len(history) == len(ref_history) > 10
        for r, q in zip(history, ref_history):
            assert r.mean_weight == q.mean_weight
            assert abs(r.mean_loss - q.mean_loss) <= 1e-9
        for a, b in zip(out.params(), ref_out.params()):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)

    def test_history_matches_reference_crops(self, monkeypatch):
        """Training on crops that keep each row of the reference once follows
        training on the n-row reference crops, whose copies the max pool
        ignores."""
        # clouds dense enough that some crops are cut to POINTS_PER_CROP rows
        seq, tracks = _mini_scene(seed=5, n_frames=12, n_objects=4,
                                  base_points=2 * embed.POINTS_PER_CROP)
        net = embed.EmbedNet.random((3, 16, 16, 8), seed=3)
        cfg = TrainerConfig(learning_rate=3e-3, batch_size=8, epochs=4)
        rows = []
        canonicalize = embed.canonicalize

        def recording(seq, dets, n):
            got = canonicalize(seq, dets, n)
            rows.extend(np.diff(got.bounds).tolist())
            return got

        def reference_stack(seq, dets, n):
            crops = [reference_canonicalize(seq.cloud_of(d), d.box, n) for d in dets]
            return embed.CanonicalCloud(
                np.concatenate([rounded(c).points for c in crops]),
                n * np.arange(len(crops) + 1))

        monkeypatch.setattr(embed, "canonicalize", recording)
        out, history = train([cli.frame_crops(seq)], [tracks], net, cfg, seed=2)
        n = embed.POINTS_PER_CROP
        assert max(rows) == n and min(rows) < n  # both the dense and the sparse path
        monkeypatch.setattr(embed, "canonicalize", reference_stack)
        ref_out, ref_history = train([cli.frame_crops(seq)], [tracks], net, cfg, seed=2)
        assert len(history) == len(ref_history) > 10
        for r, q in zip(history, ref_history):
            assert r.mean_weight == q.mean_weight
            assert abs(r.mean_loss - q.mean_loss) <= 1e-12
        for a, b in zip(out.params(), ref_out.params()):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_each_frame_is_cut_whole_once(self, monkeypatch):
        """A scene is cut as it is read (`cli.frame_crops`): each frame
        with detections once, whole, its stack the bytes that
        `embed.canonicalize` gives its detection tuple, over two scenes
        whose frames share their indices; training itself cuts nothing."""
        seqs, frames, tracks = [], [], []
        for seed in (5, 6):
            seq, t = _mini_scene(seed=seed, n_frames=12, n_objects=4)
            seqs.append(seq)
            frames.append(cli.frame_crops(seq))
            tracks.append(t)
        for seq, crops in zip(seqs, frames):
            recs = [rec for rec in seq.frames if rec.detections]
            assert list(crops) == [rec.index for rec in recs] and len(recs) > 6
            for rec in recs:
                want = embed.canonicalize(seq, rec.detections, embed.POINTS_PER_CROP)
                assert crops[rec.index].points.tobytes() == want.points.tobytes()
                assert crops[rec.index].bounds.tolist() == want.bounds.tolist()

        def no_cut(*args):
            raise AssertionError("training cut a crop")

        monkeypatch.setattr(embed, "canonicalize", no_cut)
        monkeypatch.setattr(embed, "canonicalize_frames", no_cut)
        net = embed.EmbedNet.random((3, 8, 4), seed=2)
        _, history = train(frames, tracks, net,
                           TrainerConfig(learning_rate=1e-3, batch_size=8, epochs=2), seed=1)
        assert history

    def test_one_backward_a_step(self, monkeypatch):
        """Each step backpropagates its crops in one `embed.backward` call,
        each crop once."""
        calls = []
        backward = embed.backward

        def recording(net, crops, upstream, arg):
            # each crop is a view of its frame's stack; its first row's address names it
            calls.append([c.__array_interface__["data"][0] for c in crops])
            return backward(net, crops, upstream, arg)

        monkeypatch.setattr(embed, "backward", recording)
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 4), seed=2)
        _, history = train(frames, tracks, net,
                           TrainerConfig(learning_rate=1e-3, batch_size=8, epochs=2), seed=1)
        assert len(calls) == len(history) and max(map(len, calls)) > 1
        assert all(len(set(crops)) == len(crops) for crops in calls)

    def test_one_stacked_forward_per_anchor_frame(self, monkeypatch):
        """Each step embeds each of its anchor frames with one
        `embed.forward_argmax` call on that frame's stack itself, a positive
        outside those frames alone, and no crop twice."""
        events = []
        forward_argmax, backward, sample = embed.forward_argmax, embed.backward, \
            learn.sample_triplet
        monkeypatch.setattr(embed, "forward_argmax", lambda net, stack: events.append(
            ("forward", stack)) or forward_argmax(net, stack))
        monkeypatch.setattr(embed, "backward", lambda *args: events.append(
            ("backward", None)) or backward(*args))
        monkeypatch.setattr(learn, "sample_triplet", lambda src, rng: events.append(
            ("sample", sample(src, rng))) or events[-1][1])
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 4), seed=2)
        _, history = train(frames, tracks, net,
                           TrainerConfig(learning_rate=1e-3, batch_size=8, epochs=2), seed=1)

        def address(stack, k):
            # each crop is a view of its frame's stack; its first row's address names it
            return stack.points[stack.bounds[k]:].__array_interface__["data"][0]

        steps = lone = 0
        drawn, calls = [], []
        for kind, got in events:
            if kind == "sample" and got is not None:
                drawn.append(got)
            elif kind == "forward":
                calls.append(got)
            elif kind == "backward":
                anchors = {(a.seq, a.frame) for a, _, _ in drawn}
                whole = [key for key in anchors for stack in calls
                         if stack is frames[key[0]][key[1]]]
                assert sorted(whole) == sorted(anchors)
                alone = [stack for stack in calls
                         if not any(stack is frames[s][f] for s, f in anchors)]
                assert all(len(stack.bounds) == 2 for stack in alone)
                outside = {p for _, p, _ in drawn if (p.seq, p.frame) not in anchors}
                assert sorted(address(stack, 0) for stack in alone) == \
                    sorted(address(frames[p.seq][p.frame], p.det) for p in outside)
                crops = [address(stack, k) for stack in calls
                         for k in range(len(stack.bounds) - 1)]
                assert len(set(crops)) == len(crops)
                steps += 1
                lone += len(alone)
                drawn, calls = [], []
        assert steps == len(history) and lone  # positives outside the anchor frames occur

    def test_non_finite_params_raise(self, monkeypatch):
        """A step whose update makes a parameter NaN stops training: the
        network built from those parameters refuses them."""
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 4), seed=2)
        cfg = TrainerConfig(learning_rate=1e-3, batch_size=4, epochs=1)
        adam_step = learn.adam_step

        def poisoned(params, grads, state, cfg):
            params, state = adam_step(params, grads, state, cfg)
            params[1] = params[1] * np.nan
            return params, state

        monkeypatch.setattr(learn, "adam_step", poisoned)
        with pytest.raises(kalman.NumericalError, match="network parameters"):
            train(frames, tracks, net, cfg, seed=1)

    def test_float32_net_trains_float64_params(self, monkeypatch):
        """Given a float32 net, every step embeds and backpropagates with a
        float32 net, while the parameters, the Adam state and the net
        returned are float64; the first step starts from the given
        parameters."""
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 8, 4), seed=1).astype(np.float32)
        nets, steps = [], []
        forward_argmax, adam_step = embed.forward_argmax, learn.adam_step
        monkeypatch.setattr(embed, "forward_argmax", lambda step_net, cloud: nets.append(
            step_net.dtype) or forward_argmax(step_net, cloud))

        def recording(params, grads, state, cfg):
            steps.append((params, grads))
            out = adam_step(params, grads, state, cfg)
            steps.append(out)
            return out

        monkeypatch.setattr(learn, "adam_step", recording)
        out, history = train(frames, tracks, net, TrainerConfig(learning_rate=1e-3, batch_size=4,
                                                                epochs=1), seed=0)
        assert len(steps) == 2 * len(history) > 2 and set(nets) == {np.dtype(np.float32)}
        for p, q in zip(steps[0][0], net.params()):
            assert p.dtype == np.float64 and np.array_equal(p, q)
        for params, grads in steps[0::2]:
            assert all(g.dtype == np.float32 for g in grads)
        for params, state in steps[1::2]:
            assert all(a.dtype == np.float64 for a in (*params, *state.m, *state.v))
        assert out.dtype == np.float64
        for p, q in zip(out.params(), steps[-1][0]):
            assert p.tobytes() == q.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_float32_range_left_stops_at_the_step(self):
        """A step whose float64 parameters leave float32's range is refused
        by name, with no numpy overflow warning: lr 1e300 takes them there
        in one step."""
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 4), seed=2).astype(np.float32)
        cfg = TrainerConfig(learning_rate=1e300, batch_size=4, epochs=1)
        with pytest.raises(kalman.NumericalError, match=r"^network parameters leave the "
                           r"float32 range at step 1 \(epoch 0\)$"):
            train(frames, tracks, net, cfg, seed=1)

    @pytest.mark.filterwarnings("error")
    def test_float32_range_left_by_the_last_step(self):
        """A run whose last step takes the parameters out of float32's range
        is refused by name too, rather than returning a network that no
        later stage can cast: here a one-step run."""
        frames, tracks = _mini_training_setup()
        net = embed.EmbedNet.random((3, 8, 4), seed=2).astype(np.float32)
        cfg = TrainerConfig(learning_rate=1e300, batch_size=64, epochs=1)
        assert build_triplet_source(frames, tracks).total_members <= cfg.batch_size
        with pytest.raises(kalman.NumericalError, match=r"^network parameters leave the "
                           r"float32 range after step 0, the last$"):
            train(frames, tracks, net, cfg, seed=1)

    def test_loss_decreases_on_shape_dataset(self):
        frames, tracks = _mini_training_setup(seed=5, n_frames=16, n_objects=4)
        net = embed.EmbedNet.random((3, 32, 32, 32), seed=0)
        cfg = TrainerConfig(learning_rate=3e-3, batch_size=16, epochs=30)
        _, history = train(frames, tracks, net, cfg, seed=0)
        k = max(1, len(history) // 6)
        first = np.mean([r.mean_loss for r in history[:k]])
        last = np.mean([r.mean_loss for r in history[-k:]])
        assert last < 0.5 * first

    def test_exhausted_without_pairs(self):
        frames, tracks = _mini_training_setup(n_frames=2)
        singles = [replace(lab, members=lab.members[:1], link_conf=()) for lab in tracks[0]]
        net = embed.EmbedNet.random((3, 4, 4), seed=0)
        with pytest.raises(TrainingDataExhausted):
            train(frames, [singles], net, TrainerConfig(batch_size=2, epochs=1))

    def test_exhausted_without_pairs_in_range(self):
        """Two-member tracks whose frame gap exceeds MAX_GAP give no pair:
        training stops before sampling and names MAX_GAP."""
        frames, tracks = _mini_training_setup(n_frames=learn.MAX_GAP + 4)
        far = [replace(lab, members=(lab.members[0], lab.members[-1]), link_conf=(0.9,))
               for lab in tracks[0] if lab.members[-1][0] - lab.members[0][0] > learn.MAX_GAP]
        assert far
        net = embed.EmbedNet.random((3, 4, 4), seed=0)
        with pytest.raises(TrainingDataExhausted, match=f"MAX_GAP={learn.MAX_GAP}"):
            train(frames, [far], net, TrainerConfig(batch_size=2, epochs=1))

    def test_negative_is_the_hardest_candidate(self, monkeypatch):
        """Every negative train picks has the highest cosine to the anchor
        among the other detections of its frame."""
        calls = []

        def recording(embs, norms, anchor):
            pick = mine_hard_negative(embs, norms, anchor)
            calls.append((embs, anchor, pick))
            return pick

        monkeypatch.setattr(learn, "mine_hard_negative", recording)
        # six objects, so that anchors have up to five candidates to rank
        frames, tracks = _mini_training_setup(n_objects=6)
        net = embed.EmbedNet.random((3, 8, 4), seed=2)
        cfg = TrainerConfig(learning_rate=1e-3, batch_size=4, epochs=1)
        train(frames, tracks, net, cfg, seed=1)
        assert calls and max(len(embs) for embs, _, _ in calls) > 3
        for embs, anchor, pick in calls:
            cos = {d: cosine(embs[anchor], e) for d, e in enumerate(embs) if d != anchor}
            assert all(c <= cos[pick] + 1e-12 for c in cos.values())


class TestBatchGradients:
    @staticmethod
    def _batch(seed=0, size=48):
        # longer than MAX_GAP, so that some pairs are out of range
        frames, tracks = _mini_training_setup(seed=seed, n_frames=learn.MAX_GAP + 4,
                                              n_objects=4)
        src = build_triplet_source(frames, tracks)
        rng = np.random.default_rng(seed)
        batch = []
        while len(batch) < size:
            drawn = sample_triplet(src, rng)
            cands = [] if drawn is None else negative_candidates(src, drawn[0])
            if cands:
                a, p, w = drawn
                batch.append(Triplet(a, p, a._replace(det=cands[int(rng.integers(len(cands)))]),
                                     w))
        return src.crop, batch

    def test_aggregation_equals_per_member_sum(self, monkeypatch):
        """The batch's crops go through one `embed.backward` call of several
        passes, and its gradients are the sum of every active member's."""
        calls, passes = [], []
        backward, backprop = embed.backward, embed._backprop
        monkeypatch.setattr(embed, "backward", lambda net, crops, up, arg: calls.append(
            len(crops)) or backward(net, crops, up, arg))
        monkeypatch.setattr(embed, "_backprop", lambda net, rows, pos, up, grads: passes.append(
            len(rows)) or backprop(net, rows, pos, up, grads))
        crops, batch = self._batch()
        members = [r for t in batch for r in (t.anchor, t.positive, t.negative)]
        assert len(set(members)) < len(members)  # crops repeat, so sums are taken
        for trial in range(5):
            net = embed.EmbedNet.random((3, 16, 16, 8), seed=60 + trial)
            for use_uncertainty in (True, False):
                calls.clear()
                passes.clear()
                got = batch_loss_and_grads(net, crops, batch, alone_forward(net, crops),
                                           use_uncertainty)
                assert len(calls) == 1 and calls[0] > 1 and len(passes) > 1
                want = dense_batch_loss_and_grads(net, crops, batch,
                                                  use_uncertainty=use_uncertainty)
                assert got[0] == want[0] > 0.0 and got[2] == want[2]
                for a, b in zip(got[1], want[1]):
                    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_non_finite_net_rejected(self):
        """No non-finite network reaches the loss: building one raises."""
        base = embed.EmbedNet.random((3, 8, 4), seed=0)
        with pytest.raises(kalman.NumericalError):
            embed.EmbedNet(weights=base.weights, biases=(base.biases[0], np.full(4, np.inf)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        frames, tracks = _mini_training_setup(seed=3, n_frames=8, n_objects=3)
        src = build_triplet_source(frames, tracks)
        crops = src.crop

        checked = 0
        for trial in range(40):
            if checked >= 5:
                break
            net = embed.EmbedNet.random((3, 6, 4), seed=50 + trial)
            drawn = sample_triplet(src, rng)
            if drawn is None:
                continue
            a, p, w = drawn
            cands = negative_candidates(src, a)
            if not cands:
                continue
            t = Triplet(a, p, a._replace(det=cands[0]), w)
            loss, grads, _ = batch_loss_and_grads(net, crops, [t], alone_forward(net, crops))
            if loss < 1e-3:  # keep a margin from the hinge kink
                continue
            checked += 1

            params = net.params()
            h = 1e-5
            for slot in range(len(params)):
                flat = params[slot].reshape(-1)
                for k in range(flat.size):
                    vals = []
                    for sign in (+1, -1):
                        bumped = [q.copy() for q in params]
                        bumped[slot].reshape(-1)[k] += sign * h
                        bumped_net = embed.EmbedNet.from_params(bumped)
                        l2, _, _ = batch_loss_and_grads(
                            bumped_net, crops, [t], alone_forward(bumped_net, crops))
                        vals.append(l2)
                    num = (vals[0] - vals[1]) / (2 * h)
                    ana = grads[slot].reshape(-1)[k]
                    assert abs(ana - num) / max(abs(num), 1e-6) < 1e-4
        assert checked == 5
