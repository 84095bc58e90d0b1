"""Constant-velocity Kalman filter over a stack of 11-dim object states.

State layout: (x, y, z, a, l, w, h, v_x, v_y, v_z, v_a) with `a` the box
yaw. Observations are the first seven components (a detected box). The
motion model moves position and yaw at their velocity components; extents
carry no velocity and only drift through process noise.

Every function takes the states of T tracks as one stack, means (T, 11) and
covariances (T, 11, 11), and returns new arrays, so one call filters all
live tracks of a frame and nothing is shared between calls. numpy runs the
stacked matmul, cholesky and solve slice by slice with the same BLAS/LAPACK
call as the 2-D form, so a track's numbers are bit for bit those of
filtering it alone, whatever else is in its stack. That holds only while
each mean is moved by a matrix-vector product per slice (`f @ mean`, never
`means @ f.T`) and each residual is its own right-hand side of `solve`.

mahalanobis scores every track against every box: the innovation covariance
S is a track's alone, so it is factored once per (frame, track) rather than
once per (track, detection) pair. It is also the one place that factors a
covariance: every state is born in init_tracks from detected boxes and a
validated NoiseConfig, and predict and update symmetrise the covariance and
wrap the yaw, so a state is not re-validated; a covariance that has lost
definiteness raises NumericalError at its next mahalanobis.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import wrap_angles

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


def init_tracks(boxes, cfg: NoiseConfig):
    """Birth one track per (x, y, z, yaw, l, w, h) row of boxes: velocities
    zero, cov = diag(p0). Returns (means, covs)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, OBS_DIM)
    mean = np.zeros((len(boxes), STATE_DIM))
    mean[:, :OBS_DIM] = boxes
    cov = np.repeat(np.diag(cfg.p0_diag)[None], len(boxes), axis=0)
    return mean, cov


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 7] = dt
    f[1, 8] = dt
    f[2, 9] = dt
    f[ANGLE, 10] = dt
    return f


def predict(mean, cov, dt: float, cfg: NoiseConfig):
    """Propagate every track by dt seconds under the constant-velocity model.
    Returns (means, covs)."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    f = transition_matrix(dt)
    mean = (f @ mean[:, :, None])[:, :, 0]
    mean[:, ANGLE] = wrap_angles(mean[:, ANGLE])
    cov = f @ cov @ f.T + np.diag(cfg.q_diag)
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return mean, cov


def _innovation_cov(cov, cfg: NoiseConfig) -> np.ndarray:
    """Innovation covariances S = H P H' + R, symmetrised: (T, 7, 7)."""
    S = cov[:, :OBS_DIM, :OBS_DIM] + np.diag(cfg.r_diag)
    return 0.5 * (S + S.transpose(0, 2, 1))


def _singular(S, op) -> NumericalError:
    """The error for a stack S that op (a factor or a solve) refused as a
    whole: it names the first row op refuses on its own, and its condition
    number."""
    for i, s in enumerate(S):
        try:
            op(s)
        except np.linalg.LinAlgError:
            break
    return NumericalError(
        f"innovation covariance of track row {i} is singular (cond={np.linalg.cond(s):.3e})"
    )


def innovation(mean, cov, obs, cfg: NoiseConfig):
    """Each track's residual against its row of obs (yaw wrapped), (T, 7),
    and its innovation covariance S, (T, 7, 7)."""
    r = np.asarray(obs, dtype=np.float64) - mean[:, :OBS_DIM]
    r[:, ANGLE] = wrap_angles(r[:, ANGLE])
    return r, _innovation_cov(cov, cfg)


def mahalanobis(mean, cov, boxes, cfg: NoiseConfig) -> np.ndarray:
    """Square-root Mahalanobis distances sqrt(r' S^-1 r) of every track to
    every (x, y, z, yaw, l, w, h) row of boxes: a (T, D) array.

    Each track's S is factored once and every residual r (yaw wrapped) is
    solved against that factor. A distance is bit-identical to factoring S
    and solving for that one (track, box) pair alone. That needs each
    residual to be its own right-hand side of `solve` and r' r a dot
    product per pair: one solve with all residuals as columns, or an einsum
    sum, changes the last bits.

    Raises:
        ValueError: if a yaw residual is not finite.
        NumericalError: if an S is not positive definite.
    """
    r = np.asarray(boxes, dtype=np.float64)[None, :, :] - mean[:, None, :OBS_DIM]
    r[:, :, ANGLE] = wrap_angles(r[:, :, ANGLE])
    S = _innovation_cov(cov, cfg)
    try:
        c = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise _singular(S, np.linalg.cholesky) from exc
    y = np.linalg.solve(c[:, None], r[..., None])
    return np.sqrt((y.transpose(0, 1, 3, 2) @ y).reshape(r.shape[:2]))


def update(mean, cov, obs, cfg: NoiseConfig):
    """Standard Kalman correction of each track by its row of obs.
    Returns (means, covs)."""
    r, S = innovation(mean, cov, obs, cfg)
    try:
        # K = cov H' S^-1, using S symmetry: solve(S, H cov)' = cov H' S^-1
        k = np.linalg.solve(S, H @ cov).transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise _singular(S, lambda s: np.linalg.solve(s, np.eye(OBS_DIM))) from exc
    mean = mean + (k @ r[:, :, None])[:, :, 0]
    mean[:, ANGLE] = wrap_angles(mean[:, ANGLE])
    cov = (np.eye(STATE_DIM) - k @ H) @ cov
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return mean, cov
