"""Constant-velocity Kalman filter over a stack of 11-dim object states,
one axis at a time.

State layout: (x, y, z, a, l, w, h, v_x, v_y, v_z, v_a) with `a` the box
yaw. Observations are the first seven components (a detected box). The
motion model moves position and yaw at their velocity components; extents
carry no velocity and only drift through process noise.

The process, observation and initial covariances are diagonal, the
transition couples each of x, y, z and a with its own velocity only, and an
observation reads each of the seven box components alone. So a covariance
that starts diagonal stays block-diagonal: four 2x2 blocks (a component
and its velocity) and three 1x1 blocks (the extents). A track's covariance
is therefore held as 15 numbers, a row of a (T, 15) stack: the 11
variances in state order, then the covariances of x, y, z and a with their
velocities. The innovation covariance S is diagonal, S_i = P_ii + R_i, and
predict, update and the Mahalanobis distance are the dense filter's
arithmetic written out per axis (`mahalanobis`: m^2 = sum_i r_i^2 / S_i).
No matrix is factored, solved or multiplied.

Every function takes the states of T tracks as one stack, means (T, 11)
and covariances (T, 15), and returns new arrays, so one call filters all
live tracks of a frame and nothing is shared between calls. Each step is
elementwise arithmetic and sums over a track's own components, so a
track's numbers are bit for bit those of filtering it alone, whatever else
is in its stack, and do not depend on the BLAS build.

Every state is born in init_tracks from detected boxes and a validated
NoiseConfig, and predict and update keep the variances positive and wrap
the yaw, so a state is not re-validated. An innovation variance that is
not finite and > 0 (only a hand-made state can have one) raises
NumericalError naming the track's row.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import wrap_angles

STATE_DIM = 11
OBS_DIM = 7
COV_DIM = 15  # 11 variances, then the 4 component-velocity covariances
ANGLE = 3  # index of yaw in both state and observation
# x, y, z and yaw, the components that move, are state[:4]; their
# velocities are state[7:]; their covariances with them are cov[:, 11:]
MOVING = slice(0, 4)
VELOCITY = slice(OBS_DIM, STATE_DIM)
CROSS = slice(STATE_DIM, COV_DIM)


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


def init_tracks(boxes, cfg: NoiseConfig):
    """Birth one track per (x, y, z, yaw, l, w, h) row of boxes: velocities
    zero, covariance diag(p0). Returns (means (T, 11), covs (T, 15))."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, OBS_DIM)
    mean = np.zeros((len(boxes), STATE_DIM))
    mean[:, :OBS_DIM] = boxes
    cov = np.zeros((len(boxes), COV_DIM))
    cov[:, :STATE_DIM] = cfg.p0_diag
    return mean, cov


def predict(mean, cov, dt: float, cfg: NoiseConfig):
    """Propagate every track by dt seconds under the constant-velocity model.
    Returns (means, covs).

    Per moving component p with velocity v: p += dt v, P_pp += dt (P_pv +
    P_pv') + q_p with P_pv' = P_pv + dt P_vv, and every variance gains its
    process noise."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    mean = mean.copy()
    mean[:, MOVING] += dt * mean[:, VELOCITY]
    mean[:, ANGLE] = wrap_angles(mean[:, ANGLE])
    out = cov.copy()
    out[:, :STATE_DIM] += cfg.q_diag
    cross = cov[:, CROSS] + dt * cov[:, VELOCITY]
    out[:, MOVING] += dt * (cov[:, CROSS] + cross)
    out[:, CROSS] = cross
    return mean, out


def _innovation_var(cov, cfg: NoiseConfig) -> np.ndarray:
    """Each track's innovation variances S_i = P_ii + R_i, (T, 7).

    Raises NumericalError naming the first row with one that is not finite
    and > 0."""
    s = cov[:, :OBS_DIM] + cfg.r_diag
    ok = (s > 0) & (s < np.inf)
    if not ok.all():
        row = int(np.argmin(ok.all(axis=1)))
        raise NumericalError(f"innovation variance of track row {row} is not finite and > 0: "
                             f"{s[row].tolist()}")
    return s


def innovation(mean, cov, obs, cfg: NoiseConfig):
    """Each track's residual against its row of obs (yaw wrapped), (T, 7),
    and its innovation variances S, (T, 7): S is diagonal."""
    r = np.asarray(obs, dtype=np.float64) - mean[:, :OBS_DIM]
    r[:, ANGLE] = wrap_angles(r[:, ANGLE])
    return r, _innovation_var(cov, cfg)


def mahalanobis(mean, cov, boxes, cfg: NoiseConfig) -> np.ndarray:
    """Square-root Mahalanobis distances of every track to every (x, y, z,
    yaw, l, w, h) row of boxes: a (T, D) array of sqrt(sum_i r_i^2 / S_i),
    with r the residual (yaw wrapped) and S the track's innovation
    variances, summed in component order.

    Raises:
        ValueError: if a yaw residual is not finite.
        NumericalError: if an innovation variance is not finite and > 0.
    """
    r = np.asarray(boxes, dtype=np.float64)[None, :, :] - mean[:, None, :OBS_DIM]
    r[:, :, ANGLE] = wrap_angles(r[:, :, ANGLE])
    s = _innovation_var(cov, cfg)
    r *= r
    r /= s[:, None, :]
    return np.sqrt(r.sum(axis=2))


def update(mean, cov, obs, cfg: NoiseConfig):
    """Kalman correction of each track by its row of obs.
    Returns (means, covs).

    Per observed component i, with gain k_i = P_ii / S_i on itself and
    g_i = P_iv / S_i on its velocity v (moving components only):
    x_i += k_i r_i, v += g_i r_i, P_vv -= g_i P_iv, P_iv -= k_i P_iv and
    P_ii -= k_i P_ii.
    """
    r, s = innovation(mean, cov, obs, cfg)
    k = cov[:, :OBS_DIM] / s
    g = cov[:, CROSS] / s[:, MOVING]
    mean = mean.copy()
    mean[:, :OBS_DIM] += k * r
    mean[:, VELOCITY] += g * r[:, MOVING]
    mean[:, ANGLE] = wrap_angles(mean[:, ANGLE])
    out = cov.copy()
    out[:, VELOCITY] -= g * cov[:, CROSS]
    out[:, CROSS] -= k[:, MOVING] * cov[:, CROSS]
    out[:, :OBS_DIM] -= k * cov[:, :OBS_DIM]
    return mean, out
