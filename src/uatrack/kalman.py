"""Constant-velocity Kalman filter over the 11-dim object state.

State layout: (x, y, z, a, l, w, h, v_x, v_y, v_z, v_a) with `a` the box
yaw. Observations are the first seven components (a detected box). The
motion model moves position and yaw at their velocity components; extents
carry no velocity and only drift through process noise.

predict/update are pure functions returning new TrackState values, so
multiple sequences can be filtered concurrently without shared state.

mahalanobis scores one track against many boxes: the innovation covariance
S is the track's alone, so association factors it once per (frame, track)
rather than once per (track, detection) pair. It is also the one place that
factors a covariance: every state is born in init_track from a validated
Detection and NoiseConfig, and predict and update symmetrise the covariance
and wrap the yaw, so a state is not re-validated; a covariance that has lost
definiteness raises NumericalError at its next mahalanobis.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Box7, Detection, wrap_angle

STATE_DIM = 11
OBS_DIM = 7
ANGLE = 3  # index of yaw in both state and observation

# Measurement matrix: observation = first 7 state components.
H = np.zeros((OBS_DIM, STATE_DIM))
H[:OBS_DIM, :OBS_DIM] = np.eye(OBS_DIM)
H.setflags(write=False)


class NumericalError(ArithmeticError):
    """Raised when a required matrix operation is numerically unusable."""


def _default_q() -> np.ndarray:
    q = np.full(STATE_DIM, 1e-2)
    q[OBS_DIM:] = 1e-1
    return q


def _default_r() -> np.ndarray:
    return np.full(OBS_DIM, 1e-1)


def _default_p0() -> np.ndarray:
    p = np.ones(STATE_DIM)
    p[OBS_DIM:] = 10.0
    return p


@dataclass(frozen=True, eq=False)
class NoiseConfig:
    """Diagonal process / observation / initial covariance variances."""

    q_diag: np.ndarray = field(default_factory=_default_q)
    r_diag: np.ndarray = field(default_factory=_default_r)
    p0_diag: np.ndarray = field(default_factory=_default_p0)

    def __post_init__(self):
        for name, dim in (("q_diag", STATE_DIM), ("r_diag", OBS_DIM), ("p0_diag", STATE_DIM)):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(dim).copy()
            if not np.isfinite(v).all() or (v <= 0).any():
                raise ValueError(f"{name} entries must be finite and > 0")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __eq__(self, other):
        if not isinstance(other, NoiseConfig):
            return NotImplemented
        return (
            np.array_equal(self.q_diag, other.q_diag)
            and np.array_equal(self.r_diag, other.r_diag)
            and np.array_equal(self.p0_diag, other.p0_diag)
        )


@dataclass(frozen=True)
class TrackState:
    """Kalman mean/covariance plus the track's consecutive-miss count.

    Construction only normalises: float64 copies of the right shapes, made
    read-only. Symmetry, definiteness and the yaw range hold by how
    init_track, predict and update build a state (see the module docstring).
    """

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


def init_track(det: Detection, cfg: NoiseConfig, track_id: int) -> TrackState:
    """Birth a track from a detection: velocities zero, cov = diag(p0)."""
    mean = np.zeros(STATE_DIM)
    mean[:OBS_DIM] = det.box.to_array()
    return TrackState(mean=mean, cov=np.diag(cfg.p0_diag), track_id=track_id)


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 7] = dt
    f[1, 8] = dt
    f[2, 9] = dt
    f[ANGLE, 10] = dt
    return f


def predict(s: TrackState, dt: float, cfg: NoiseConfig) -> TrackState:
    """Propagate mean/cov by dt seconds under the constant-velocity model."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    f = transition_matrix(dt)
    mean = f @ s.mean
    mean[ANGLE] = wrap_angle(mean[ANGLE])
    cov = f @ s.cov @ f.T + np.diag(cfg.q_diag)
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, cov=cov)


def _innovation_cov(s: TrackState, cfg: NoiseConfig) -> np.ndarray:
    """Innovation covariance S = H P H' + R, symmetrised."""
    S = s.cov[:OBS_DIM, :OBS_DIM] + np.diag(cfg.r_diag)
    return 0.5 * (S + S.T)


def innovation(s: TrackState, obs: Box7, cfg: NoiseConfig):
    """Observation residual (yaw wrapped) and innovation covariance S."""
    r = obs.to_array() - s.mean[:OBS_DIM]
    r[ANGLE] = wrap_angle(r[ANGLE])
    return r, _innovation_cov(s, cfg)


def mahalanobis(s: TrackState, boxes, cfg: NoiseConfig) -> np.ndarray:
    """Square-root Mahalanobis distances sqrt(r' S^-1 r) from s to each box.

    S depends on the track alone, so it is factored once and every box's
    residual r (yaw wrapped) is solved against that one factor. Returns an
    array with one distance per box, bit-identical to factoring S and
    solving for each box on its own. That needs each residual to be its own
    right-hand side of `solve` and r' r a dot product per box: one solve
    with all residuals as columns, or an einsum sum, changes the last bits.

    Raises:
        ValueError: if a yaw residual is not finite.
        NumericalError: if S is not positive definite.
    """
    r = np.array([b.to_array() for b in boxes], dtype=np.float64).reshape(-1, OBS_DIM)
    r -= s.mean[:OBS_DIM]
    r[:, ANGLE] = [wrap_angle(a) for a in r[:, ANGLE]]
    S = _innovation_cov(s, cfg)
    try:
        c = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular (cond={np.linalg.cond(S):.3e})"
        ) from exc
    y = np.linalg.solve(c, r[:, :, None])
    return np.sqrt((y.transpose(0, 2, 1) @ y).reshape(-1))


def update(s: TrackState, obs: Box7, cfg: NoiseConfig) -> TrackState:
    """Standard Kalman correction; resets misses."""
    r, S = innovation(s, obs, cfg)
    try:
        # K = cov H' S^-1, using S symmetry: solve(S, H cov)' = cov H' S^-1
        k = np.linalg.solve(S, H @ s.cov).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance is singular (cond={np.linalg.cond(S):.3e})"
        ) from exc
    mean = s.mean + k @ r
    mean[ANGLE] = wrap_angle(mean[ANGLE])
    cov = (np.eye(STATE_DIM) - k @ H) @ s.cov
    cov = 0.5 * (cov + cov.T)
    return replace(s, mean=mean, cov=cov, misses=0)


def mark_missed(s: TrackState) -> TrackState:
    """Bookkeeping for a frame with no associated detection."""
    return replace(s, misses=s.misses + 1)
