from dataclasses import fields, replace

import numpy as np
import pytest

from uatrack import embed
from uatrack.assoc import AssocConfig
from uatrack.config import (
    ConfigError,
    EmbedSection,
    EvalSection,
    LearnSection,
    MotSection,
    RunConfig,
    SimSection,
    parse_config,
    serialize_config,
)
from uatrack.kalman import NoiseConfig
from uatrack.learn import TrainerConfig
from uatrack.mot import MODES, MotConfig
from uatrack.sim import NoiseModel, SceneConfig


def _shared(a, b) -> list[str]:
    names = {f.name for f in fields(b)}
    return [f.name for f in fields(a) if f.name in names]


class TestDefaults:
    def test_learn_section_matches_trainer_config(self):
        shared = _shared(LearnSection, TrainerConfig)
        assert len(shared) == 9
        learn, trainer = LearnSection(), TrainerConfig()
        for name in shared:
            assert getattr(learn, name) == getattr(trainer, name), name

    def test_trainer_copies_every_shared_field(self):
        learn = LearnSection(margin=0.3, learning_rate=1e-3, batch_size=8, epochs=2,
                             max_gap=4, beta1=0.8, beta2=0.99, adam_eps=1e-6,
                             use_uncertainty=False)
        cfg = learn.trainer(seed=5, points_per_crop=32)
        assert (cfg.seed, cfg.points_per_crop) == (5, 32)
        for name in _shared(LearnSection, TrainerConfig):
            assert getattr(cfg, name) == getattr(learn, name), name

    def test_embed_section_matches_embed_constants(self):
        sect = EmbedSection()
        assert sect.widths == embed.DEFAULT_WIDTHS
        assert sect.points_per_crop == embed.DEFAULT_POINTS

    def test_sim_section_matches_scene_and_noise_models(self):
        sect, scene, noise = SimSection(), SceneConfig(), NoiseModel()
        assert (sect.objects, sect.frames, sect.frame_period, sect.bounds) == (
            scene.n_objects, scene.n_frames, scene.frame_period, scene.bounds)
        for name in ("center_pct", "size_pct", "yaw_deg"):
            assert getattr(sect, name) == getattr(noise, name), name

    def test_mot_section_matches_mot_config(self):
        assert MotSection().modes == MODES

    def test_learn_mode_weak_is_rejected(self):
        with pytest.raises(ConfigError, match=r"\[learn\].*'weak'"):
            parse_config("[learn]\nmode = weak\n", from_path=False)

    def test_mot_section_rejects_what_mot_config_rejects(self):
        with pytest.raises(ValueError, match="mode"):
            MotConfig(mode="fused")
        with pytest.raises(ValueError, match="mode"):
            MotSection(modes=("motion", "fused"))


class TestRoundTrip:
    @staticmethod
    def _round_trip(rc: RunConfig) -> RunConfig:
        return parse_config(serialize_config(rc), from_path=False)

    def test_default_config(self):
        assert self._round_trip(RunConfig()) == RunConfig()

    def test_every_section_changed(self):
        rc = RunConfig(
            seed=7,
            kalman=NoiseConfig(q_diag=np.arange(1.0, 12.0) / 7.0,
                               r_diag=np.arange(1.0, 8.0) / 3.0,
                               p0_diag=np.full(11, 2.5)),
            assoc=AssocConfig(gate=9.5, max_age=5, eps=1e-3),
            embed=EmbedSection(widths=(3, 16, 8), points_per_crop=32),
            learn=LearnSection(margin=0.3, learning_rate=1e-3, batch_size=8, epochs=2,
                               max_gap=4, beta1=0.8, beta2=0.99, adam_eps=1e-6,
                               use_uncertainty=False, mode="oracle"),
            sim=replace(SimSection(), train_scenes=2, frame_period=0.1, yaw_deg=2.5),
            mot=MotSection(modes=("motion", "motion+score")),
            eval=EvalSection(match_dist=1.5, recall_levels=10, sot_noise="on"),
        )
        for name in ("kalman", "assoc", "embed", "learn", "sim", "mot", "eval"):
            assert getattr(rc, name) != getattr(RunConfig(), name), name
        assert self._round_trip(rc) == rc
