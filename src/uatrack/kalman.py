"""Constant-velocity Kalman filter over a stack of 11-dim object states,
one axis at a time.

State: (x, y, z, a, l, w, h, v_x, v_y, v_z, v_a), a the yaw; an
observation is a detected box, the first seven. Extents have no velocity.

The noise covariances are diagonal, and the transition couples each of x,
y, z and a with its own velocity only, so a covariance that starts
diagonal stays block-diagonal. A track's covariance is therefore 15
numbers, a row of a (T, 15) stack: the 11 variances in state order, then
the covariances of x, y, z and a with their velocities. The innovation
covariance is diagonal, and predict, update and the distance are the
dense filter's arithmetic written out per axis: no matrix is factored,
solved or multiplied.

Every function takes T tracks as one stack, means (T, 11) and covariances
(T, 15), and returns new arrays. A track's numbers are bit for bit those
of filtering it alone, whatever else is in its stack, and do not depend on
the BLAS build. States are born in init_tracks with the variances
P0_DIAG, predict adds Q_DIAG and the innovation adds R_DIAG, all three
hand-set, finite and > 0; predict and update keep the variances positive
and wrap the yaw, so no state is validated again.
"""

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
    """A computation met a value it cannot use, such as a non-finite one."""


def _constant(values) -> np.ndarray:
    v = np.array(values, dtype=np.float64)
    v.setflags(write=False)
    return v


# diagonal variances of the process noise, the observation noise and a
# newborn track
Q_DIAG = _constant([1e-2] * OBS_DIM + [1e-1] * (STATE_DIM - OBS_DIM))
R_DIAG = _constant([1e-1] * OBS_DIM)
P0_DIAG = _constant([1.0] * OBS_DIM + [10.0] * (STATE_DIM - OBS_DIM))


def init_tracks(boxes):
    """Birth one track per (x, y, z, yaw, l, w, h) row of boxes: velocities
    zero, covariance diag(P0_DIAG). Returns (means (T, 11), covs (T, 15))."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, OBS_DIM)
    mean = np.zeros((len(boxes), STATE_DIM))
    mean[:, :OBS_DIM] = boxes
    cov = np.zeros((len(boxes), COV_DIM))
    cov[:, :STATE_DIM] = P0_DIAG
    return mean, cov


def predict(mean, cov, dt: float):
    """(means, covs) of every track dt seconds on: per moving component p
    with velocity v, p += dt v, P_pv' = P_pv + dt P_vv, P_pp += dt (P_pv +
    P_pv'), and every variance gains its process noise."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    mean = mean.copy()
    mean[:, MOVING] += dt * mean[:, VELOCITY]
    mean[:, ANGLE] = wrap_angles(mean[:, ANGLE])
    out = cov.copy()
    out[:, :STATE_DIM] += Q_DIAG
    cross = cov[:, CROSS] + dt * cov[:, VELOCITY]
    out[:, MOVING] += dt * (cov[:, CROSS] + cross)
    out[:, CROSS] = cross
    return mean, out


def _innovation_var(cov) -> np.ndarray:
    """Each track's innovation variances S_i = P_ii + R_i, (T, 7); one not
    finite and > 0, which only a hand-made state has, raises NumericalError
    naming its row."""
    s = cov[:, :OBS_DIM] + R_DIAG
    ok = (s > 0) & (s < np.inf)
    if not ok.all():
        row = int(np.argmin(ok.all(axis=1)))
        raise NumericalError(f"innovation variance of track row {row} is not finite and > 0: "
                             f"{s[row].tolist()}")
    return s


def innovation(mean, cov, obs):
    """Each track's residual against its row of obs, yaw wrapped, and its
    innovation variances, (T, 7) each."""
    r = np.asarray(obs, dtype=np.float64) - mean[:, :OBS_DIM]
    r[:, ANGLE] = wrap_angles(r[:, ANGLE])
    return r, _innovation_var(cov)


def mahalanobis(mean, cov, boxes) -> np.ndarray:
    """(T, D) distances sqrt(sum_i r_i^2 / S_i), summed in component order,
    of every track to every box row, r the residual with its yaw wrapped. A
    non-finite yaw residual raises ValueError."""
    r = np.asarray(boxes, dtype=np.float64)[None, :, :] - mean[:, None, :OBS_DIM]
    r[:, :, ANGLE] = wrap_angles(r[:, :, ANGLE])
    s = _innovation_var(cov)
    r *= r
    r /= s[:, None, :]
    return np.sqrt(r.sum(axis=2))


def update(mean, cov, obs):
    """(means, covs) of each track corrected by its row of obs: per
    component i, gains k_i = P_ii / S_i and, if it moves, g_i = P_iv / S_i
    on its velocity v: x_i += k_i r_i, v += g_i r_i, P_vv -= g_i P_iv,
    P_iv -= k_i P_iv and P_ii -= k_i P_ii."""
    r, s = innovation(mean, cov, obs)
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
