import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uatrack import kalman
from uatrack.core import Box7, Detection
from uatrack.kalman import NoiseConfig, NumericalError, TrackState


def make_det(x=1.0, y=2.0, z=3.0, yaw=0.0, l=4.0, w=2.0, h=1.5):
    return Detection(frame=0, box=Box7(x, y, z, yaw, l, w, h), score=1.0, cloud_ref="c")


def make_state(mean=None, cov=None, cfg=None):
    cfg = cfg or NoiseConfig()
    if mean is None:
        mean = np.zeros(11)
    if cov is None:
        cov = np.diag(cfg.p0_diag)
    return TrackState(mean=mean, cov=cov, track_id=0)


class TestInit:
    def test_mean_copies_box_with_zero_velocities(self):
        s = kalman.init_track(make_det(1, 2, 3, 0, 4, 2, 1.5), NoiseConfig(), 7)
        np.testing.assert_allclose(s.mean, [1, 2, 3, 0, 4, 2, 1.5, 0, 0, 0, 0])
        assert s.track_id == 7

    def test_identity_cov_from_unit_p0(self):
        cfg = NoiseConfig(p0_diag=np.ones(11))
        s = kalman.init_track(make_det(), cfg, 0)
        np.testing.assert_array_equal(s.cov, np.eye(11))

    def test_birth_counters(self):
        s = kalman.init_track(make_det(), NoiseConfig(), 0)
        assert s.misses == 0


class TestPredict:
    def test_constant_velocity_step(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        mean[7] = 1.0  # v_x
        s = make_state(mean=mean)
        out = kalman.predict(s, 1.0, NoiseConfig())
        assert out.mean[0] == pytest.approx(1.0)

    def test_static_positions_cov_grows(self):
        cfg = NoiseConfig()
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        s = make_state(mean=mean, cfg=cfg)
        out = kalman.predict(s, 0.5, cfg)
        np.testing.assert_allclose(out.mean, s.mean)
        f = kalman.transition_matrix(0.5)
        np.testing.assert_allclose(out.cov, f @ s.cov @ f.T + np.diag(cfg.q_diag), atol=1e-12)

    def test_angle_wraps(self):
        # oracle: 3.0 + 0.5*1 = 3.5 -> 3.5 - 2*pi
        mean = np.zeros(11)
        mean[3] = 3.0
        mean[4:7] = (4, 2, 1.5)
        mean[10] = 0.5
        s = make_state(mean=mean)
        out = kalman.predict(s, 1.0, NoiseConfig())
        assert out.mean[3] == pytest.approx(-2.7831853071795862, abs=1e-12)

    def test_dt_nonpositive_rejected(self):
        s = make_state()
        for dt in (0.0, -0.5):
            with pytest.raises(ValueError):
                kalman.predict(s, dt, NoiseConfig())


class TestInnovation:
    def test_zero_residual(self):
        mean = np.zeros(11)
        mean[:7] = (1, 2, 3, 0.5, 4, 2, 1.5)
        s = make_state(mean=mean)
        r, _ = kalman.innovation(s, Box7(1, 2, 3, 0.5, 4, 2, 1.5), NoiseConfig())
        np.testing.assert_allclose(r, 0.0, atol=1e-15)

    def test_angle_residual_wraps_across_pi(self):
        mean = np.zeros(11)
        mean[3] = math.pi - 0.1
        mean[4:7] = (4, 2, 1.5)
        s = make_state(mean=mean)
        obs = Box7(0, 0, 0, -math.pi + 0.1, 4, 2, 1.5)
        r, _ = kalman.innovation(s, obs, NoiseConfig())
        assert r[3] == pytest.approx(0.2, abs=1e-12)

    def test_s_is_obs_noise_when_cov_tiny(self):
        cfg = NoiseConfig(r_diag=np.ones(7))
        s = make_state(cov=np.eye(11) * 1e-15)
        _, S = kalman.innovation(s, Box7(0, 0, 0, 0, 4, 2, 1.5), cfg)
        np.testing.assert_allclose(S, np.eye(7), atol=1e-12)


class TestMahalanobis:
    def test_zero_residual_gives_zero(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        s = make_state(mean=mean)
        assert kalman.mahalanobis(s, [Box7(0, 0, 0, 0, 4, 2, 1.5)], NoiseConfig())[0] == 0.0

    def _state_with_S(self, s_diag):
        # tiny cov so S ~= r_diag
        cfg = NoiseConfig(r_diag=np.asarray(s_diag, dtype=float))
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        s = TrackState(mean=mean, cov=np.eye(11) * 1e-18, track_id=0)
        return s, cfg

    def test_identity_s_reduces_to_euclidean(self):
        s, cfg = self._state_with_S(np.ones(7))
        # residual (3, 4, 0, 0, 0, 0, 0) -> 5
        obs = Box7(3, 4, 0, 0, 4, 2, 1.5)
        assert kalman.mahalanobis(s, [obs], cfg)[0] == pytest.approx(5.0, rel=1e-9)

    def test_scaled_s(self):
        # oracle: sqrt(2^2 / 4) = 1
        s, cfg = self._state_with_S([4, 1, 1, 1, 1, 1, 1])
        obs = Box7(2, 0, 0, 0, 4, 2, 1.5)
        assert kalman.mahalanobis(s, [obs], cfg)[0] == pytest.approx(1.0, rel=1e-9)

    def test_singular_s_reports_condition(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        s = TrackState(mean=mean, cov=np.eye(11), track_id=0)
        bad = NoiseConfig()
        # bypass frozen validation to force a singular S
        object.__setattr__(bad, "r_diag", np.zeros(7))
        object.__setattr__(s, "cov", np.zeros((11, 11)))
        with pytest.raises(NumericalError):
            kalman.mahalanobis(s, [Box7(1, 0, 0, 0, 4, 2, 1.5)], bad)


class TestUpdate:
    def test_near_perfect_measurement_limit(self):
        cfg = NoiseConfig(r_diag=np.full(7, 1e-12))
        s = kalman.init_track(make_det(0, 0, 0), cfg, 0)
        obs = Box7(1.0, -2.0, 0.5, 0.3, 4.4, 2.1, 1.6)
        out = kalman.update(s, obs, cfg)
        np.testing.assert_allclose(out.mean[:7], obs.to_array(), atol=1e-6)

    def test_zero_residual_identity_on_mean(self):
        cfg = NoiseConfig()
        s = kalman.mark_missed(kalman.init_track(make_det(1, 2, 3, 0.5), cfg, 0))
        out = kalman.update(s, s.box(), cfg)
        np.testing.assert_allclose(out.mean, s.mean, atol=1e-12)
        assert out.misses == 0

    def test_variance_monotone_under_repeated_updates(self):
        cfg = NoiseConfig()
        s = kalman.init_track(make_det(1, 2, 3), cfg, 0)
        obs = s.box()
        prev = np.diag(s.cov)[:3].copy()
        for _ in range(20):
            s = kalman.update(s, obs, cfg)
            cur = np.diag(s.cov)[:3]
            assert (cur <= prev + 1e-12).all()
            prev = cur.copy()


class TestInvariants:
    def test_cov_stays_symmetric_pd(self):
        rng = np.random.default_rng(0)
        cfg = NoiseConfig()
        s = kalman.init_track(make_det(), cfg, 0)
        for k in range(30):
            s = kalman.predict(s, 0.5, cfg)
            obs = Box7(*(s.mean[:3] + rng.normal(0, 0.3, 3)),
                       s.mean[3], 4.0, 2.0, 1.5)
            s = kalman.update(s, obs, cfg)
            assert np.abs(s.cov - s.cov.T).max() < 1e-9
            np.linalg.cholesky(s.cov)  # raises if not PD

    def test_noise_free_cv_convergence(self):
        # documented config: q_diag=1e-4, r_diag=1e-6
        cfg = NoiseConfig(q_diag=np.full(11, 1e-4), r_diag=np.full(7, 1e-6))
        v = np.array([2.0, -1.0, 0.3])
        dt = 0.5
        det0 = make_det(0.0, 0.0, 0.0)
        s = kalman.init_track(det0, cfg, 0)
        residual_norm = math.inf
        for f in range(1, 21):
            s = kalman.predict(s, dt, cfg)
            pos = v * f * dt
            obs = Box7(pos[0], pos[1], pos[2], 0.0, 4.0, 2.0, 1.5)
            r, _ = kalman.innovation(s, obs, cfg)
            residual_norm = float(np.linalg.norm(r[:3]))
            s = kalman.update(s, obs, cfg)
        assert residual_norm < 1e-6

    def test_mahalanobis_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(11, 11))
            cov = a @ a.T + 11 * np.eye(11)
            mean = rng.normal(size=11)
            mean[3] = 0.2
            mean[4:7] = np.abs(mean[4:7]) + 1.0
            cfg = NoiseConfig()  # equal x/y observation noise
            s = TrackState(mean=mean, cov=0.5 * (cov + cov.T), track_id=0)
            obs_arr = mean[:7] + rng.normal(0, 0.5, 7)
            obs_arr[4:7] = np.abs(obs_arr[4:7]) + 0.5
            obs = Box7.from_array(obs_arr)
            d0 = kalman.mahalanobis(s, [obs], cfg)[0]

            th = rng.uniform(0, 2 * math.pi)
            c, si = math.cos(th), math.sin(th)
            rot2 = np.array([[c, -si], [si, c]])
            t11 = np.eye(11)
            t11[:2, :2] = rot2
            mean2 = t11 @ mean
            cov2 = t11 @ s.cov @ t11.T
            obs2_arr = obs_arr.copy()
            obs2_arr[:2] = rot2 @ obs_arr[:2]
            s2 = TrackState(mean=mean2, cov=0.5 * (cov2 + cov2.T), track_id=0)
            d1 = kalman.mahalanobis(s2, [Box7.from_array(obs2_arr)], cfg)[0]
            assert d1 == pytest.approx(d0, abs=1e-8)

    def test_mark_missed(self):
        s = kalman.init_track(make_det(), NoiseConfig(), 0)
        out = kalman.mark_missed(kalman.mark_missed(s))
        assert out.misses == 2
        np.testing.assert_array_equal(out.mean, s.mean)
        np.testing.assert_array_equal(out.cov, s.cov)

    boxes = st.builds(Box7, *[st.floats(-50.0, 50.0)] * 3, st.floats(-10.0, 10.0),
                      *[st.floats(0.5, 8.0)] * 3)
    # One filter step: ("predict", dt), ("update", box) or ("missed", None).
    steps = st.one_of(
        st.tuples(st.just("predict"), st.floats(0.05, 2.0)),
        st.tuples(st.just("update"), boxes),
        st.tuples(st.just("missed"), st.none()),
    )

    @settings(max_examples=150, deadline=None)
    @given(first=boxes, scale=st.sampled_from([0.1, 1.0, 10.0]),
           ops=st.lists(steps, max_size=40))
    def test_every_state_is_symmetric_pd_with_wrapped_yaw(self, first, scale, ops):
        """What TrackState once re-checked on every construction holds for
        every state that init_track, predict, update and mark_missed make."""
        base = NoiseConfig()
        cfg = NoiseConfig(q_diag=base.q_diag * scale, r_diag=base.r_diag * scale,
                          p0_diag=base.p0_diag * scale)
        s = kalman.init_track(
            Detection(frame=0, box=first, score=1.0, cloud_ref="c"), cfg, 0)
        for op, arg in [("init", None)] + ops:
            if op == "predict":
                s = kalman.predict(s, arg, cfg)
            elif op == "update":
                s = kalman.update(s, arg, cfg)
            elif op == "missed":
                s = kalman.mark_missed(s)
            assert np.abs(s.cov - s.cov.T).max() < 1e-9
            np.linalg.cholesky(s.cov)  # raises if not PD
            assert -math.pi <= s.mean[3] < math.pi

    def test_no_factoring_outside_mahalanobis(self, monkeypatch):
        cfg = NoiseConfig()
        s = kalman.init_track(make_det(), cfg, 0)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(1)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        s = kalman.predict(s, 0.5, cfg)
        s = kalman.update(s, make_det(1.2, 2.1, 3.0, 0.1).box, cfg)
        kalman.mark_missed(s)
        assert calls == []
