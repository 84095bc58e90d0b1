import logging

import numpy as np
import pytest

from uatrack import mot
from uatrack.mot import FeatureVector, LogisticModel, fit_logistic


def _model(c_m, c_log_m):
    coef = np.zeros(6)
    coef[mot.FEATURE_NAMES.index("m")] = c_m
    coef[mot.FEATURE_NAMES.index("log_m")] = c_log_m
    return LogisticModel(coef=coef, intercept=0.0)


def _warnings(caplog):
    return [r for r in caplog.records if r.name == "uatrack.mot" and r.levelno == logging.WARNING]


class TestDistanceWarning:
    @pytest.mark.parametrize("m_max, warned", [(50.0, False), (200.0, True)])
    def test_log_term_counts(self, caplog, m_max, warned):
        # c_m > 0 alone does not mean distance is rewarded: with
        # c_log_m = -3.17 the slope 0.032 - 3.17 / m is negative up to m = 99
        mot._warn_if_distance_not_penalized(_model(0.032, -3.17), np.array([0.1, 3.0, m_max]))
        assert len(_warnings(caplog)) == int(warned)

    def test_low_end_checked(self, caplog):
        # slope -1 + 0.5 / m is positive below m = 0.5
        mot._warn_if_distance_not_penalized(_model(-1.0, 0.5), np.array([0.0, 0.2, 9.0]))
        assert len(_warnings(caplog)) == 1

    @pytest.mark.parametrize("near_is_match, warned", [(True, False), (False, True)])
    def test_fit_warns_once_per_model(self, caplog, near_is_match, warned):
        rng = np.random.default_rng(0)
        examples = []
        for _ in range(200):
            near = float(rng.uniform(0.2, 2.0))
            far = float(rng.uniform(4.0, 30.0))
            d = float(rng.uniform(0.5, 1.0))
            examples.append((FeatureVector.build(m=near, a=0.0, d=d), int(near_is_match)))
            examples.append((FeatureVector.build(m=far, a=0.0, d=d), int(not near_is_match)))
        fit_logistic(examples)
        assert len(_warnings(caplog)) == int(warned)
