import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uatrack import kalman
from uatrack.core import Box7, Detection, wrap_angle
from uatrack.kalman import H, OBS_DIM, STATE_DIM, NoiseConfig, NumericalError

# ---------------------------------------------------------------------------
# The one-track filter that the stacked functions replaced, kept as the
# reference they must equal bit for bit.


@dataclass(frozen=True)
class TrackState:
    """One track's Kalman mean/covariance and consecutive-miss count."""

    mean: np.ndarray
    cov: np.ndarray
    track_id: int
    misses: int = 0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(STATE_DIM).copy()
        cov = np.asarray(self.cov, dtype=np.float64).reshape(STATE_DIM, STATE_DIM).copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def box(self) -> Box7:
        return Box7.from_array(self.mean[:OBS_DIM])


def ref_init_track(det: Detection, cfg: NoiseConfig, track_id: int) -> TrackState:
    mean = np.zeros(STATE_DIM)
    mean[:OBS_DIM] = det.box.to_array()
    return TrackState(mean=mean, cov=np.diag(cfg.p0_diag), track_id=track_id)


def ref_predict(s: TrackState, dt: float, cfg: NoiseConfig) -> TrackState:
    f = kalman.transition_matrix(dt)
    mean = f @ s.mean
    mean[3] = wrap_angle(mean[3])
    cov = f @ s.cov @ f.T + np.diag(cfg.q_diag)
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, cov=cov)


def ref_innovation(s: TrackState, obs: Box7, cfg: NoiseConfig):
    r = obs.to_array() - s.mean[:OBS_DIM]
    r[3] = wrap_angle(r[3])
    S = s.cov[:OBS_DIM, :OBS_DIM] + np.diag(cfg.r_diag)
    return r, 0.5 * (S + S.T)


def ref_mahalanobis(s: TrackState, boxes, cfg: NoiseConfig) -> np.ndarray:
    r = np.array([b.to_array() for b in boxes], dtype=np.float64).reshape(-1, OBS_DIM)
    r -= s.mean[:OBS_DIM]
    r[:, 3] = [wrap_angle(a) for a in r[:, 3]]
    S = s.cov[:OBS_DIM, :OBS_DIM] + np.diag(cfg.r_diag)
    c = np.linalg.cholesky(0.5 * (S + S.T))
    y = np.linalg.solve(c, r[:, :, None])
    return np.sqrt((y.transpose(0, 2, 1) @ y).reshape(-1))


def ref_update(s: TrackState, obs: Box7, cfg: NoiseConfig) -> TrackState:
    r, S = ref_innovation(s, obs, cfg)
    k = np.linalg.solve(S, H @ s.cov).T
    mean = s.mean + k @ r
    mean[3] = wrap_angle(mean[3])
    cov = (np.eye(STATE_DIM) - k @ H) @ s.cov
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, cov=cov, misses=0)


def ref_mark_missed(s: TrackState) -> TrackState:
    return replace(s, misses=s.misses + 1)


# ---------------------------------------------------------------------------


def make_det(x=1.0, y=2.0, z=3.0, yaw=0.0, l=4.0, w=2.0, h=1.5):
    return Detection(frame=0, box=Box7(x, y, z, yaw, l, w, h), score=1.0, cloud_ref="c")


def one(mean=None, cov=None, cfg=None):
    """A stack of one track: (mean (1, 11), cov (1, 11, 11))."""
    cfg = cfg or NoiseConfig()
    if mean is None:
        mean = np.zeros(11)
    if cov is None:
        cov = np.diag(cfg.p0_diag)
    return np.array(mean, dtype=float)[None], np.array(cov, dtype=float)[None]


def boxes(*bs):
    return np.array([b.to_array() for b in bs])


class TestInit:
    def test_mean_copies_box_with_zero_velocities(self):
        mean, cov = kalman.init_tracks(boxes(make_det(1, 2, 3, 0, 4, 2, 1.5).box,
                                             make_det(-1, 0, 2, 0.5, 3, 1, 1).box),
                                       NoiseConfig())
        np.testing.assert_allclose(mean, [[1, 2, 3, 0, 4, 2, 1.5, 0, 0, 0, 0],
                                          [-1, 0, 2, 0.5, 3, 1, 1, 0, 0, 0, 0]])
        assert cov.shape == (2, 11, 11)

    def test_identity_cov_from_unit_p0(self):
        cfg = NoiseConfig(p0_diag=np.ones(11))
        _, cov = kalman.init_tracks(boxes(make_det().box, make_det(5).box), cfg)
        np.testing.assert_array_equal(cov, [np.eye(11)] * 2)

    def test_no_boxes_no_tracks(self):
        mean, cov = kalman.init_tracks(np.zeros((0, 7)), NoiseConfig())
        assert mean.shape == (0, 11) and cov.shape == (0, 11, 11)


class TestPredict:
    def test_constant_velocity_step(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        mean[7] = 1.0  # v_x
        out, _ = kalman.predict(*one(mean=mean), 1.0, NoiseConfig())
        assert out[0, 0] == pytest.approx(1.0)

    def test_static_positions_cov_grows(self):
        cfg = NoiseConfig()
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        m0, c0 = one(mean=mean, cfg=cfg)
        m1, c1 = kalman.predict(m0, c0, 0.5, cfg)
        np.testing.assert_allclose(m1, m0)
        f = kalman.transition_matrix(0.5)
        np.testing.assert_allclose(c1[0], f @ c0[0] @ f.T + np.diag(cfg.q_diag), atol=1e-12)

    def test_angle_wraps(self):
        # oracle: 3.0 + 0.5*1 = 3.5 -> 3.5 - 2*pi
        mean = np.zeros(11)
        mean[3] = 3.0
        mean[4:7] = (4, 2, 1.5)
        mean[10] = 0.5
        out, _ = kalman.predict(*one(mean=mean), 1.0, NoiseConfig())
        assert out[0, 3] == pytest.approx(-2.7831853071795862, abs=1e-12)

    def test_dt_nonpositive_rejected(self):
        for dt in (0.0, -0.5):
            with pytest.raises(ValueError):
                kalman.predict(*one(), dt, NoiseConfig())


class TestInnovation:
    def test_zero_residual(self):
        mean = np.zeros(11)
        mean[:7] = (1, 2, 3, 0.5, 4, 2, 1.5)
        r, _ = kalman.innovation(*one(mean=mean), boxes(Box7(1, 2, 3, 0.5, 4, 2, 1.5)),
                                 NoiseConfig())
        np.testing.assert_allclose(r, 0.0, atol=1e-15)

    def test_angle_residual_wraps_across_pi(self):
        mean = np.zeros(11)
        mean[3] = math.pi - 0.1
        mean[4:7] = (4, 2, 1.5)
        obs = Box7(0, 0, 0, -math.pi + 0.1, 4, 2, 1.5)
        r, _ = kalman.innovation(*one(mean=mean), boxes(obs), NoiseConfig())
        assert r[0, 3] == pytest.approx(0.2, abs=1e-12)

    def test_s_is_obs_noise_when_cov_tiny(self):
        cfg = NoiseConfig(r_diag=np.ones(7))
        _, S = kalman.innovation(*one(cov=np.eye(11) * 1e-15), boxes(Box7(0, 0, 0, 0, 4, 2, 1.5)),
                                 cfg)
        np.testing.assert_allclose(S[0], np.eye(7), atol=1e-12)


class TestMahalanobis:
    def test_zero_residual_gives_zero(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        m = kalman.mahalanobis(*one(mean=mean), boxes(Box7(0, 0, 0, 0, 4, 2, 1.5)), NoiseConfig())
        assert m.shape == (1, 1) and m[0, 0] == 0.0

    def _state_with_S(self, s_diag):
        # tiny cov so S ~= r_diag
        cfg = NoiseConfig(r_diag=np.asarray(s_diag, dtype=float))
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        return one(mean=mean, cov=np.eye(11) * 1e-18), cfg

    def test_identity_s_reduces_to_euclidean(self):
        s, cfg = self._state_with_S(np.ones(7))
        # residual (3, 4, 0, 0, 0, 0, 0) -> 5
        obs = Box7(3, 4, 0, 0, 4, 2, 1.5)
        assert kalman.mahalanobis(*s, boxes(obs), cfg)[0, 0] == pytest.approx(5.0, rel=1e-9)

    def test_scaled_s(self):
        # oracle: sqrt(2^2 / 4) = 1
        s, cfg = self._state_with_S([4, 1, 1, 1, 1, 1, 1])
        obs = Box7(2, 0, 0, 0, 4, 2, 1.5)
        assert kalman.mahalanobis(*s, boxes(obs), cfg)[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_singular_s_reports_condition(self):
        mean = np.zeros((3, 11))
        mean[:, 4:7] = (4, 2, 1.5)
        cov = np.repeat(np.eye(11)[None], 3, axis=0)
        cov[1] = 0.0
        bad = NoiseConfig()
        # bypass frozen validation to force a singular S in row 1 only
        object.__setattr__(bad, "r_diag", np.zeros(7))
        with pytest.raises(NumericalError, match=r"row 1 .*cond="):
            kalman.mahalanobis(mean, cov, boxes(Box7(1, 0, 0, 0, 4, 2, 1.5)), bad)


class TestUpdate:
    def test_near_perfect_measurement_limit(self):
        cfg = NoiseConfig(r_diag=np.full(7, 1e-12))
        s = kalman.init_tracks(boxes(make_det(0, 0, 0).box), cfg)
        obs = Box7(1.0, -2.0, 0.5, 0.3, 4.4, 2.1, 1.6)
        mean, _ = kalman.update(*s, boxes(obs), cfg)
        np.testing.assert_allclose(mean[0, :7], obs.to_array(), atol=1e-6)

    def test_zero_residual_identity_on_mean(self):
        cfg = NoiseConfig()
        m0, c0 = kalman.init_tracks(boxes(make_det(1, 2, 3, 0.5).box), cfg)
        mean, _ = kalman.update(m0, c0, m0[:, :7], cfg)
        np.testing.assert_allclose(mean, m0, atol=1e-12)

    def test_variance_monotone_under_repeated_updates(self):
        cfg = NoiseConfig()
        mean, cov = kalman.init_tracks(boxes(make_det(1, 2, 3).box), cfg)
        obs = mean[:, :7].copy()
        prev = np.diag(cov[0])[:3].copy()
        for _ in range(20):
            mean, cov = kalman.update(mean, cov, obs, cfg)
            cur = np.diag(cov[0])[:3]
            assert (cur <= prev + 1e-12).all()
            prev = cur.copy()

    def test_singular_s_reports_condition(self):
        mean = np.zeros((2, 11))
        mean[:, 4:7] = (4, 2, 1.5)
        cov = np.repeat(np.eye(11)[None], 2, axis=0)
        cov[1] = 0.0
        bad = NoiseConfig()
        object.__setattr__(bad, "r_diag", np.zeros(7))
        with pytest.raises(NumericalError, match=r"row 1 .*cond="):
            kalman.update(mean, cov, mean[:, :7], bad)


_box = st.builds(Box7, *[st.floats(-50.0, 50.0)] * 3, st.floats(-10.0, 10.0),
                 *[st.floats(0.5, 8.0)] * 3)
# One filter step on a stack of up to 4 tracks: ("predict", dt), or
# ("update", per-row box or None); a row with None is missed that frame.
_steps = st.one_of(
    st.tuples(st.just("predict"), st.floats(0.05, 2.0)),
    st.tuples(st.just("update"), st.lists(st.one_of(st.none(), _box), min_size=4, max_size=4)),
)
_filter_runs = dict(firsts=st.lists(_box, min_size=1, max_size=4),
                    scale=st.sampled_from([0.1, 1.0, 10.0]), ops=st.lists(_steps, max_size=40))


def _scaled_cfg(scale):
    base = NoiseConfig()
    return NoiseConfig(q_diag=base.q_diag * scale, r_diag=base.r_diag * scale,
                       p0_diag=base.p0_diag * scale)


def _run_filter(firsts, ops, cfg):
    """Yield (mean, cov, one-track reference states) after birth and after
    each op, filtering the stack and each track on its own side by side."""
    mean, cov = kalman.init_tracks(boxes(*firsts), cfg)
    ref = [ref_init_track(Detection(frame=0, box=b, score=1.0, cloud_ref="c"), cfg, i)
           for i, b in enumerate(firsts)]
    yield mean, cov, ref
    for op, arg in ops:
        if op == "predict":
            mean, cov = kalman.predict(mean, cov, arg, cfg)
            ref = [ref_predict(s, arg, cfg) for s in ref]
        else:
            rows = [i for i in range(len(ref)) if arg[i] is not None]
            if rows:
                mean[rows], cov[rows] = kalman.update(
                    mean[rows], cov[rows], boxes(*(arg[i] for i in rows)), cfg)
            ref = [ref_update(s, arg[i], cfg) if arg[i] is not None else ref_mark_missed(s)
                   for i, s in enumerate(ref)]
        yield mean, cov, ref


class TestInvariants:
    def test_cov_stays_symmetric_pd(self):
        rng = np.random.default_rng(0)
        cfg = NoiseConfig()
        mean, cov = kalman.init_tracks(boxes(make_det().box, make_det(4, -3, 1, 2.0).box), cfg)
        for k in range(30):
            mean, cov = kalman.predict(mean, cov, 0.5, cfg)
            obs = mean[:, :7].copy()
            obs[:, :3] += rng.normal(0, 0.3, (2, 3))
            obs[:, 4:7] = (4.0, 2.0, 1.5)
            mean, cov = kalman.update(mean, cov, obs, cfg)
            assert np.abs(cov - cov.transpose(0, 2, 1)).max() < 1e-9
            np.linalg.cholesky(cov)  # raises if not PD

    def test_noise_free_cv_convergence(self):
        # documented config: q_diag=1e-4, r_diag=1e-6
        cfg = NoiseConfig(q_diag=np.full(11, 1e-4), r_diag=np.full(7, 1e-6))
        v = np.array([2.0, -1.0, 0.3])
        dt = 0.5
        mean, cov = kalman.init_tracks(boxes(make_det(0.0, 0.0, 0.0).box), cfg)
        residual_norm = math.inf
        for f in range(1, 21):
            mean, cov = kalman.predict(mean, cov, dt, cfg)
            pos = v * f * dt
            obs = boxes(Box7(pos[0], pos[1], pos[2], 0.0, 4.0, 2.0, 1.5))
            r, _ = kalman.innovation(mean, cov, obs, cfg)
            residual_norm = float(np.linalg.norm(r[0, :3]))
            mean, cov = kalman.update(mean, cov, obs, cfg)
        assert residual_norm < 1e-6

    def test_mahalanobis_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(11, 11))
            cov = a @ a.T + 11 * np.eye(11)
            cov = 0.5 * (cov + cov.T)
            mean = rng.normal(size=11)
            mean[3] = 0.2
            mean[4:7] = np.abs(mean[4:7]) + 1.0
            cfg = NoiseConfig()  # equal x/y observation noise
            obs_arr = mean[:7] + rng.normal(0, 0.5, 7)
            obs_arr[4:7] = np.abs(obs_arr[4:7]) + 0.5
            obs = Box7.from_array(obs_arr)
            d0 = kalman.mahalanobis(*one(mean=mean, cov=cov), boxes(obs), cfg)[0, 0]

            th = rng.uniform(0, 2 * math.pi)
            c, si = math.cos(th), math.sin(th)
            rot2 = np.array([[c, -si], [si, c]])
            t11 = np.eye(11)
            t11[:2, :2] = rot2
            mean2 = t11 @ mean
            cov2 = t11 @ cov @ t11.T
            obs2_arr = obs_arr.copy()
            obs2_arr[:2] = rot2 @ obs_arr[:2]
            d1 = kalman.mahalanobis(*one(mean=mean2, cov=0.5 * (cov2 + cov2.T)),
                                    boxes(Box7.from_array(obs2_arr)), cfg)[0, 0]
            assert d1 == pytest.approx(d0, abs=1e-8)

    @settings(max_examples=150, deadline=None)
    @given(**_filter_runs)
    def test_every_state_is_symmetric_pd_with_wrapped_yaw(self, firsts, scale, ops):
        """What TrackState once re-checked on every construction holds for
        every row of every stack that init_tracks, predict and update make."""
        for mean, cov, _ in _run_filter(firsts, ops, _scaled_cfg(scale)):
            assert np.abs(cov - cov.transpose(0, 2, 1)).max() < 1e-9
            np.linalg.cholesky(cov)  # raises if a row is not PD
            assert (-math.pi <= mean[:, 3]).all() and (mean[:, 3] < math.pi).all()

    @settings(max_examples=150, deadline=None)
    @given(**_filter_runs, probe=_box)
    def test_stack_equals_one_track_filter(self, firsts, scale, ops, probe):
        """Each row of the stack is bit for bit the one-track filter run on
        that track alone, and so is its Mahalanobis distance to two boxes."""
        cfg = _scaled_cfg(scale)
        for mean, cov, ref in _run_filter(firsts, ops, cfg):
            assert np.array_equal(mean, [s.mean for s in ref])
            assert np.array_equal(cov, [s.cov for s in ref])
            got = kalman.mahalanobis(mean, cov, boxes(probe, firsts[0]), cfg)
            assert np.array_equal(got, [ref_mahalanobis(s, [probe, firsts[0]], cfg) for s in ref])

    def test_no_factoring_outside_mahalanobis(self, monkeypatch):
        cfg = NoiseConfig()
        mean, cov = kalman.init_tracks(
            boxes(make_det().box, make_det(5, 5).box, make_det(-5, 0).box), cfg)
        factored = []
        cholesky = np.linalg.cholesky

        def counted(a):
            factored.append(int(np.prod(np.shape(a)[:-2])))  # matrices in the stack
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        mean, cov = kalman.predict(mean, cov, 0.5, cfg)
        mean, cov = kalman.update(mean, cov, boxes(make_det(1.2, 2.1, 3.0, 0.1).box,
                                                   make_det(5, 5.2).box,
                                                   make_det(-5.1, 0).box), cfg)
        assert factored == []
        kalman.mahalanobis(mean, cov, boxes(make_det().box, make_det(5, 5).box), cfg)
        assert factored == [3]
