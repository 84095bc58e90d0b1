import ast
import math
import pkgutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import uatrack
from uatrack import kalman
from uatrack.core import Box7, Detection, wrap_angle
from uatrack.kalman import COV_DIM, OBS_DIM, P0_DIAG, Q_DIAG, R_DIAG, STATE_DIM, NumericalError

# ---------------------------------------------------------------------------
# The dense one-track filter that the per-axis functions replaced: 11 x 11
# covariances, a Cholesky factor and LAPACK solves. The per-axis filter
# must agree with it to the tolerances below.

# Measurement matrix: observation = first 7 state components.
H = np.zeros((OBS_DIM, STATE_DIM))
H[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM)

# Tolerances against the dense filter, relative to the larger magnitude of
# the two numbers, or to 1 below 1 (`assert_close`). The largest
# differences measured over 5,000 random `_near_runs` (up to 20
# tracks, 12 steps) were 5.7e-13 (means), 1.6e-13 (covariances) and
# 3.3e-13 (distances); with the noise scaled by 0.1 to 10, covariances
# reached 1.3e-12. Both filters lose digits to cancellation in
# P - K H P where R << P, so the differences grow with P / R.
MEAN_TOL = 1e-12
COV_TOL = 2e-12
M_TOL = 1e-12


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 7] = dt
    f[1, 8] = dt
    f[2, 9] = dt
    f[3, 10] = dt
    return f


def dense(cov) -> np.ndarray:
    """The (T, 11, 11) covariances of per-axis covariances (T, 15)."""
    cov = np.asarray(cov, dtype=np.float64).reshape(-1, COV_DIM)
    out = np.zeros((len(cov), STATE_DIM, STATE_DIM))
    idx = np.arange(STATE_DIM)
    out[:, idx, idx] = cov[:, :STATE_DIM]
    for p in range(4):
        out[:, p, p + OBS_DIM] = out[:, p + OBS_DIM, p] = cov[:, STATE_DIM + p]
    return out


def per_axis(cov) -> np.ndarray:
    """The (T, 15) per-axis form of block-diagonal covariances (T, 11, 11)."""
    cov = np.asarray(cov, dtype=np.float64).reshape(-1, STATE_DIM, STATE_DIM)
    idx = np.arange(4)
    return np.concatenate([np.diagonal(cov, axis1=1, axis2=2), cov[:, idx, idx + OBS_DIM]],
                          axis=1)


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


def ref_init_track(det: Detection, track_id: int) -> TrackState:
    mean = np.zeros(STATE_DIM)
    mean[:OBS_DIM] = det.box.to_array()
    return TrackState(mean=mean, cov=np.diag(P0_DIAG), track_id=track_id)


def ref_predict(s: TrackState, dt: float) -> TrackState:
    f = transition_matrix(dt)
    mean = f @ s.mean
    mean[3] = wrap_angle(mean[3])
    cov = f @ s.cov @ f.T + np.diag(Q_DIAG)
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, cov=cov)


def ref_innovation(s: TrackState, obs: Box7):
    r = obs.to_array() - s.mean[:OBS_DIM]
    r[3] = wrap_angle(r[3])
    S = s.cov[:OBS_DIM, :OBS_DIM] + np.diag(R_DIAG)
    return r, 0.5 * (S + S.T)


def ref_mahalanobis(s: TrackState, boxes) -> np.ndarray:
    r = np.array([b.to_array() for b in boxes], dtype=np.float64).reshape(-1, OBS_DIM)
    r -= s.mean[:OBS_DIM]
    r[:, 3] = [wrap_angle(a) for a in r[:, 3]]
    S = s.cov[:OBS_DIM, :OBS_DIM] + np.diag(R_DIAG)
    c = np.linalg.cholesky(0.5 * (S + S.T))
    y = np.linalg.solve(c, r[:, :, None])
    return np.sqrt((y.transpose(0, 2, 1) @ y).reshape(-1))


def ref_update(s: TrackState, obs: Box7) -> TrackState:
    r, S = ref_innovation(s, obs)
    k = np.linalg.solve(S, H @ s.cov).T
    mean = s.mean + k @ r
    mean[3] = wrap_angle(mean[3])
    cov = (np.eye(STATE_DIM) - k @ H) @ s.cov
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, cov=cov, misses=0)


def ref_mark_missed(s: TrackState) -> TrackState:
    return replace(s, misses=s.misses + 1)


def assert_close(got, want, tol):
    """Every entry within tol of the dense filter's, relative to the larger
    magnitude of the two, or to 1 where both are below 1."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)
    assert (np.abs(got - want) <= tol * scale).all(), np.max(np.abs(got - want) / scale)


# ---------------------------------------------------------------------------


def make_det(x=1.0, y=2.0, z=3.0, yaw=0.0, l=4.0, w=2.0, h=1.5):
    return Detection(frame=0, box=Box7(x, y, z, yaw, l, w, h), score=1.0, cloud_ref="c")


def one(mean=None, cov=None):
    """A stack of one track: (mean (1, 11), per-axis cov (1, 15)); cov is
    given dense, block-diagonal."""
    if mean is None:
        mean = np.zeros(11)
    if cov is None:
        cov = np.diag(P0_DIAG)
    return np.array(mean, dtype=float)[None], per_axis(cov)


def boxes(*bs):
    return np.array([b.to_array() for b in bs])


def singular_rows(n, bad_row, value=0.0):
    """n tracks with unit variances, except that row bad_row's z variance
    is value - R_DIAG[2], so that its z innovation variance is value (0 by
    default, NaN or inf as given): that one innovation variance is bad."""
    mean = np.zeros((n, 11))
    mean[:, 4:7] = (4, 2, 1.5)
    cov = np.repeat(per_axis(np.eye(11)), n, axis=0)
    cov[bad_row, 2] = value - R_DIAG[2]
    return mean, cov


class TestNoise:
    def test_constants_are_the_hand_set_variances(self):
        want = {"Q_DIAG": [1e-2] * 7 + [1e-1] * 4,
                "R_DIAG": [1e-1] * 7,
                "P0_DIAG": [1.0] * 7 + [10.0] * 4}
        for name, values in want.items():
            v = getattr(kalman, name)
            assert v.dtype == np.float64 and v.tolist() == values, name
            assert np.isfinite(v).all() and (v > 0).all(), name
            assert not v.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 1.0

    def test_noise_is_not_an_argument(self):
        """The tracker filters with Q_DIAG, R_DIAG and P0_DIAG alone: kalman
        defines no NoiseConfig, no function of uatrack takes a kcfg or a
        NoiseConfig, no kalman function a cfg, and association_confidence
        no eps."""
        names = [m.name for m in pkgutil.iter_modules(uatrack.__path__)]
        assert "kalman" in names and "assoc" in names
        for name in names:
            tree = ast.parse((Path(uatrack.__path__[0]) / f"{name}.py").read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                where = f"{name}.{getattr(fn, 'name', 'lambda')}"
                assert "kcfg" not in {a.arg for a in params}, where
                assert not any("NoiseConfig" in ast.unparse(a.annotation)
                               for a in params if a.annotation is not None), where
                if name == "kalman":
                    assert "cfg" not in {a.arg for a in params}, where
                if getattr(fn, "name", None) == "association_confidence":
                    assert [a.arg for a in params] == ["m", "i", "j"], where
            if name == "kalman":
                defined = {getattr(n, "name", None) or getattr(n, "id", None)
                           for n in ast.walk(tree)}
                assert "NoiseConfig" not in defined


class TestInit:
    def test_mean_copies_box_with_zero_velocities(self):
        mean, cov = kalman.init_tracks(boxes(make_det(1, 2, 3, 0, 4, 2, 1.5).box,
                                             make_det(-1, 0, 2, 0.5, 3, 1, 1).box))
        np.testing.assert_allclose(mean, [[1, 2, 3, 0, 4, 2, 1.5, 0, 0, 0, 0],
                                          [-1, 0, 2, 0.5, 3, 1, 1, 0, 0, 0, 0]])
        assert cov.shape == (2, 15)

    def test_identity_cov_from_unit_p0(self):
        # P0_DIAG's box variances are 1: the box block is the identity, and
        # no box component starts correlated with a velocity
        _, cov = kalman.init_tracks(boxes(make_det().box, make_det(5).box))
        np.testing.assert_array_equal(cov[:, :7], [[1.0] * 7] * 2)
        np.testing.assert_array_equal(dense(cov)[:, :7, :], [np.eye(7, 11)] * 2)

    def test_cov_is_diag_p0(self):
        _, cov = kalman.init_tracks(boxes(make_det().box, make_det(5).box))
        np.testing.assert_array_equal(cov, [[1.0] * 7 + [10.0] * 4 + [0, 0, 0, 0]] * 2)
        np.testing.assert_array_equal(dense(cov), [np.diag(P0_DIAG)] * 2)

    def test_no_boxes_no_tracks(self):
        mean, cov = kalman.init_tracks(np.zeros((0, 7)))
        assert mean.shape == (0, 11) and cov.shape == (0, 15)


class TestPredict:
    def test_constant_velocity_step(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        mean[7] = 1.0  # v_x
        out, _ = kalman.predict(*one(mean=mean), 1.0)
        assert out[0, 0] == pytest.approx(1.0)

    def test_static_positions_cov_grows(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        m0, c0 = one(mean=mean)
        m1, c1 = kalman.predict(m0, c0, 0.5)
        np.testing.assert_allclose(m1, m0)
        f = transition_matrix(0.5)
        np.testing.assert_allclose(dense(c1)[0], f @ dense(c0)[0] @ f.T + np.diag(Q_DIAG),
                                   atol=1e-12)

    def test_hand_computed_block(self):
        # P_xx = 2, P_xv = 0.5, P_vv = 3, dt = 0.5, q = 0.01 / 0.1:
        # P_xx' = 2 + 2 * 0.5 * 0.5 + 0.25 * 3 + 0.01 = 3.26, P_xv' = 0.5 + 1.5
        cov = np.diag(P0_DIAG)
        cov[0, 0], cov[7, 7], cov[0, 7] = 2.0, 3.0, 0.5
        cov[7, 0] = 0.5
        _, out = kalman.predict(*one(cov=cov), 0.5)
        assert out[0, 0] == pytest.approx(3.26, rel=1e-15)
        assert out[0, 7] == pytest.approx(3.1, rel=1e-15)
        assert out[0, 11] == pytest.approx(2.0, rel=1e-15)
        # y from the prior: P_yy = 1 + 0.25 * 10 + 0.01, P_yv = 0 + 0.5 * 10
        assert out[0, 1] == pytest.approx(3.51, rel=1e-15)
        assert out[0, 12] == pytest.approx(5.0, rel=1e-15)

    def test_angle_wraps(self):
        # oracle: 3.0 + 0.5*1 = 3.5 -> 3.5 - 2*pi
        mean = np.zeros(11)
        mean[3] = 3.0
        mean[4:7] = (4, 2, 1.5)
        mean[10] = 0.5
        out, _ = kalman.predict(*one(mean=mean), 1.0)
        assert out[0, 3] == pytest.approx(-2.7831853071795862, abs=1e-12)

    def test_dt_nonpositive_rejected(self):
        for dt in (0.0, -0.5):
            with pytest.raises(ValueError):
                kalman.predict(*one(), dt)

    def test_inputs_untouched(self):
        m0, c0 = one()
        m0[0, 7] = 1.0
        before = m0.copy(), c0.copy()
        kalman.predict(m0, c0, 0.5)
        kalman.update(m0, c0, m0[:, :7] + 1.0)
        assert np.array_equal(m0, before[0]) and np.array_equal(c0, before[1])


class TestInnovation:
    def test_zero_residual(self):
        mean = np.zeros(11)
        mean[:7] = (1, 2, 3, 0.5, 4, 2, 1.5)
        r, _ = kalman.innovation(*one(mean=mean), boxes(Box7(1, 2, 3, 0.5, 4, 2, 1.5)))
        np.testing.assert_allclose(r, 0.0, atol=1e-15)

    def test_angle_residual_wraps_across_pi(self):
        mean = np.zeros(11)
        mean[3] = math.pi - 0.1
        mean[4:7] = (4, 2, 1.5)
        obs = Box7(0, 0, 0, -math.pi + 0.1, 4, 2, 1.5)
        r, _ = kalman.innovation(*one(mean=mean), boxes(obs))
        assert r[0, 3] == pytest.approx(0.2, abs=1e-12)

    def test_s_is_obs_noise_when_cov_tiny(self):
        _, S = kalman.innovation(*one(cov=np.eye(11) * 1e-15), boxes(Box7(0, 0, 0, 0, 4, 2, 1.5)))
        np.testing.assert_allclose(S[0], np.full(7, 0.1), atol=1e-12)


class TestMahalanobis:
    def test_zero_residual_gives_zero(self):
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        m = kalman.mahalanobis(*one(mean=mean), boxes(Box7(0, 0, 0, 0, 4, 2, 1.5)))
        assert m.shape == (1, 1) and m[0, 0] == 0.0

    def _state_with_x_var(self, p_xx):
        # tiny cov but P_xx, so S ~= R_DIAG = 0.1 except S_x = p_xx + 0.1
        mean = np.zeros(11)
        mean[4:7] = (4, 2, 1.5)
        cov = np.eye(11) * 1e-18
        cov[0, 0] = p_xx
        return one(mean=mean, cov=cov)

    def test_identity_s_reduces_to_euclidean(self):
        s = self._state_with_x_var(1e-18)
        # S = 0.1 I: residual (3, 4, 0, 0, 0, 0, 0) -> 5 / sqrt(0.1)
        obs = Box7(3, 4, 0, 0, 4, 2, 1.5)
        m = kalman.mahalanobis(*s, boxes(obs))
        assert m[0, 0] == pytest.approx(5.0 / math.sqrt(0.1), rel=1e-9)

    def test_scaled_s(self):
        # oracle: S_x = 3.9 + 0.1 = 4, so sqrt(2^2 / 4) = 1; along y,
        # 2 / sqrt(0.1)
        s = self._state_with_x_var(3.9)
        obs = boxes(Box7(2, 0, 0, 0, 4, 2, 1.5), Box7(0, 2, 0, 0, 4, 2, 1.5))
        got = kalman.mahalanobis(*s, obs)
        assert got[0, 0] == pytest.approx(1.0, rel=1e-9)
        assert got[0, 1] == pytest.approx(2.0 / math.sqrt(0.1), rel=1e-9)

    def test_singular_s_reports_condition(self):
        mean, cov = singular_rows(3, 1)
        with pytest.raises(NumericalError, match=r"track row 1 is not finite and > 0"):
            kalman.mahalanobis(mean, cov, boxes(Box7(1, 0, 0, 0, 4, 2, 1.5)))

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_non_finite_or_negative_variance_names_row(self, value):
        mean, cov = singular_rows(4, 2, value)
        with pytest.raises(NumericalError, match=r"track row 2 is not finite and > 0"):
            kalman.mahalanobis(mean, cov, boxes(Box7(1, 0, 0, 0, 4, 2, 1.5)))
        with pytest.raises(NumericalError, match=r"track row 2 is not finite and > 0"):
            kalman.update(mean, cov, mean[:, :7])


class TestUpdate:
    def test_near_perfect_measurement_limit(self):
        # a prior 1e13 times vaguer than R_DIAG: the measurement is as good
        # as perfect, and the mean moves onto it
        obs = Box7(1.0, -2.0, 0.5, 0.3, 4.4, 2.1, 1.6)
        mean, _ = kalman.update(*one(cov=np.eye(11) * 1e12), boxes(obs))
        np.testing.assert_allclose(mean[0, :7], obs.to_array(), atol=1e-6)

    def test_zero_residual_identity_on_mean(self):
        m0, c0 = kalman.init_tracks(boxes(make_det(1, 2, 3, 0.5).box))
        mean, _ = kalman.update(m0, c0, m0[:, :7])
        np.testing.assert_allclose(mean, m0, atol=1e-12)

    def test_variance_monotone_under_repeated_updates(self):
        mean, cov = kalman.init_tracks(boxes(make_det(1, 2, 3).box))
        obs = mean[:, :7].copy()
        prev = cov[0, :3].copy()
        for _ in range(20):
            mean, cov = kalman.update(mean, cov, obs)
            cur = cov[0, :3]
            assert (cur <= prev + 1e-12).all()
            prev = cur.copy()

    def test_hand_computed_block(self):
        # P_xx = 2, P_xv = 0.5, P_vv = 3, R_x = 0.1: S = 2.1, k = 2 / 2.1,
        # g = 0.5 / 2.1; residual 1 moves x by k and v_x by g. P - k P is
        # P R / S, but rounds 1e-15 away from it, so it is written as the
        # filter's subtraction.
        cov = np.diag(P0_DIAG)
        cov[0, 0], cov[7, 7], cov[0, 7] = 2.0, 3.0, 0.5
        cov[7, 0] = 0.5
        m0, c0 = one(cov=cov)
        obs = m0[:, :7].copy()
        obs[0, 0] += 1.0
        mean, out = kalman.update(m0, c0, obs)
        assert mean[0, 0] == pytest.approx(2.0 / 2.1, rel=1e-15)
        assert mean[0, 7] == pytest.approx(0.5 / 2.1, rel=1e-15)
        assert out[0, 0] == pytest.approx(2.0 - 2.0 / 2.1 * 2.0, rel=1e-15)  # P R / S
        assert out[0, 11] == pytest.approx(0.5 - 2.0 / 2.1 * 0.5, rel=1e-15)
        assert out[0, 7] == pytest.approx(3.0 - 0.25 / 2.1, rel=1e-15)

    def test_singular_s_reports_condition(self):
        mean, cov = singular_rows(2, 1)
        with pytest.raises(NumericalError, match=r"track row 1 is not finite and > 0"):
            kalman.update(mean, cov, mean[:, :7])


_box = st.builds(Box7, *[st.floats(-50.0, 50.0)] * 3, st.floats(-10.0, 10.0),
                 *[st.floats(0.5, 8.0)] * 3)


def _runs(observation, max_ops):
    """Filter runs on a stack of up to 20 tracks: a list of steps, each
    ("predict", dt) or ("update", per-row observation or None); a row with
    None is missed that frame."""
    step = st.one_of(
        st.tuples(st.just("predict"), st.floats(0.05, 2.0)),
        st.tuples(st.just("update"), st.lists(st.one_of(st.none(), observation), min_size=20,
                                              max_size=20)))
    return dict(firsts=st.lists(_box, max_size=20), ops=st.lists(step, max_size=max_ops))


# Long runs observing any box in +-50, however far from the track: the
# invariants and the stack's independence of its other rows must hold there.
_filter_runs = _runs(_box, 40)
# Short runs observing a box within +-3 of each row's predicted box, as a
# gated match does: the comparison with the dense filter. Far boxes put the
# dense filter's own rounding above 1e-11 on the means.
_near_runs = _runs(st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7), 12)


def _observed(mean, obs) -> Box7:
    """obs itself if a box, else the box obs away from a track's predicted
    box mean (extents kept > 0)."""
    if isinstance(obs, Box7):
        return obs
    box = mean[:OBS_DIM] + obs
    box[4:] = np.maximum(box[4:], 0.1)
    return Box7.from_array(box)


def _run_filter(firsts, ops, with_dense=False):
    """Yield (mean, cov, dense one-track reference states or None, per-axis
    states of each track filtered alone) after birth and after each op,
    filtering the stack and each track on its own side by side."""
    mean, cov = kalman.init_tracks(boxes(*firsts))
    ref = [ref_init_track(Detection(frame=0, box=b, score=1.0, cloud_ref="c"), i)
           for i, b in enumerate(firsts)] if with_dense else None
    alone = [kalman.init_tracks(boxes(b)) for b in firsts]
    yield mean, cov, ref, alone
    for op, arg in ops:
        if op == "predict":
            mean, cov = kalman.predict(mean, cov, arg)
            alone = [kalman.predict(*s, arg) for s in alone]
            if with_dense:
                ref = [ref_predict(s, arg) for s in ref]
        else:
            obs = [None if arg[i] is None else _observed(m[0], arg[i])
                   for i, (m, _) in enumerate(alone)]
            rows = [i for i in range(len(alone)) if obs[i] is not None]
            if rows:
                mean[rows], cov[rows] = kalman.update(
                    mean[rows], cov[rows], boxes(*(obs[i] for i in rows)))
            alone = [kalman.update(*s, boxes(obs[i])) if obs[i] is not None else s
                     for i, s in enumerate(alone)]
            if with_dense:
                ref = [ref_update(s, obs[i]) if obs[i] is not None else ref_mark_missed(s)
                       for i, s in enumerate(ref)]
        yield mean, cov, ref, alone


class TestInvariants:
    def test_cov_stays_symmetric_pd(self):
        rng = np.random.default_rng(0)
        mean, cov = kalman.init_tracks(boxes(make_det().box, make_det(4, -3, 1, 2.0).box))
        for k in range(30):
            mean, cov = kalman.predict(mean, cov, 0.5)
            obs = mean[:, :7].copy()
            obs[:, :3] += rng.normal(0, 0.3, (2, 3))
            obs[:, 4:7] = (4.0, 2.0, 1.5)
            mean, cov = kalman.update(mean, cov, obs)
            np.linalg.cholesky(dense(cov))  # raises if not PD

    def test_noise_free_cv_convergence(self):
        # a constant-velocity target observed without error: the residual
        # falls below 1e-6 by frame 30 (2e-6 at frame 20)
        v = np.array([2.0, -1.0, 0.3])
        dt = 0.5
        mean, cov = kalman.init_tracks(boxes(make_det(0.0, 0.0, 0.0).box))
        residual_norm = math.inf
        for f in range(1, 31):
            mean, cov = kalman.predict(mean, cov, dt)
            pos = v * f * dt
            obs = boxes(Box7(pos[0], pos[1], pos[2], 0.0, 4.0, 2.0, 1.5))
            r, _ = kalman.innovation(mean, cov, obs)
            residual_norm = float(np.linalg.norm(r[0, :3]))
            mean, cov = kalman.update(mean, cov, obs)
        assert residual_norm < 1e-6

    def test_mahalanobis_rotation_invariance(self):
        # with equal x and y blocks, turning x-y rotates the residual only
        assert R_DIAG[0] == R_DIAG[1]
        rng = np.random.default_rng(3)
        for _ in range(20):
            cov = per_axis(np.diag(rng.uniform(0.5, 3.0, size=11)))
            cov[0, 1] = cov[0, 0]
            mean = rng.normal(size=11)
            mean[3] = 0.2
            mean[4:7] = np.abs(mean[4:7]) + 1.0
            obs_arr = mean[:7] + rng.normal(0, 0.5, 7)
            obs_arr[4:7] = np.abs(obs_arr[4:7]) + 0.5
            obs = Box7.from_array(obs_arr)
            d0 = kalman.mahalanobis(mean[None], cov, boxes(obs))[0, 0]

            th = rng.uniform(0, 2 * math.pi)
            c, si = math.cos(th), math.sin(th)
            rot2 = np.array([[c, -si], [si, c]])
            mean2 = mean.copy()
            mean2[:2] = rot2 @ mean[:2]
            obs2_arr = obs_arr.copy()
            obs2_arr[:2] = rot2 @ obs_arr[:2]
            d1 = kalman.mahalanobis(mean2[None], cov, boxes(Box7.from_array(obs2_arr)))[0, 0]
            assert d1 == pytest.approx(d0, abs=1e-8)

    @settings(max_examples=150, deadline=None)
    @given(**_filter_runs)
    def test_every_state_is_symmetric_pd_with_wrapped_yaw(self, firsts, ops):
        """What TrackState once re-checked on every construction holds for
        every row of every stack that init_tracks, predict and update make:
        positive variances and positive definite 2x2 blocks (the per-axis
        form is symmetric by construction), and a wrapped yaw."""
        for mean, cov, _, _ in _run_filter(firsts, ops):
            assert (cov[:, :STATE_DIM] > 0).all()
            det = cov[:, :4] * cov[:, 7:11] - cov[:, 11:] ** 2
            assert (det > 0).all()
            assert (-math.pi <= mean[:, 3]).all() and (mean[:, 3] < math.pi).all()

    @settings(max_examples=150, deadline=None)
    @given(**_filter_runs, probe=_box)
    @example(firsts=[], ops=[("predict", 0.5)], probe=Box7(0, 0, 0, 0, 1, 1, 1))
    def test_stack_equals_one_track_filter(self, firsts, ops, probe):
        """Each row of the stack is bit for bit the per-axis filter run on
        that track alone, and so is its Mahalanobis distance to two boxes."""
        probes = [probe] + firsts[:1]
        for mean, cov, _, alone in _run_filter(firsts, ops):
            assert mean.shape == (len(firsts), 11) and cov.shape == (len(firsts), 15)
            assert np.array_equal(mean.reshape(-1), [v for m, _ in alone for v in m[0]])
            assert np.array_equal(cov.reshape(-1), [v for _, c in alone for v in c[0]])
            if firsts:
                got = kalman.mahalanobis(mean, cov, boxes(*probes))
                assert np.array_equal(got, [kalman.mahalanobis(*s, boxes(*probes))[0]
                                            for s in alone])

    @settings(max_examples=150, deadline=None)
    @given(**_near_runs, probe=_box)
    def test_stack_within_dense_filter(self, firsts, ops, probe):
        """Each row of the stack is within the tolerances above of the dense
        one-track filter, and so is its Mahalanobis distance to two boxes."""
        probes = [probe] + firsts[:1]
        for mean, cov, ref, _ in _run_filter(firsts, ops, with_dense=True):
            if firsts:
                assert_close(mean, [s.mean for s in ref], MEAN_TOL)
                assert_close(dense(cov), [s.cov for s in ref], COV_TOL)
                assert_close(kalman.mahalanobis(mean, cov, boxes(*probes)),
                             [ref_mahalanobis(s, probes) for s in ref], M_TOL)

    def test_no_factoring_outside_mahalanobis(self, monkeypatch):
        """No step factors, solves, inverts or multiplies a matrix, and
        mahalanobis neither."""
        mean, cov = kalman.init_tracks(
            boxes(make_det().box, make_det(5, 5).box, make_det(-5, 0).box))

        def refuse(*args, **kwargs):
            raise AssertionError("a matrix routine was called")

        for name in ("cholesky", "solve", "inv", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "matmul", refuse)
        monkeypatch.setattr(np, "einsum", refuse)
        mean, cov = kalman.predict(mean, cov, 0.5)
        mean, cov = kalman.update(mean, cov, boxes(make_det(1.2, 2.1, 3.0, 0.1).box,
                                                   make_det(5, 5.2).box,
                                                   make_det(-5.1, 0).box))
        assert kalman.mahalanobis(mean, cov,
                                  boxes(make_det().box, make_det(5, 5).box)).shape == (3, 2)
