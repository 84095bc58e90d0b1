from dataclasses import replace

import numpy as np
import pytest

from uatrack import embed, mot, sim
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
from uatrack.mot import MODES
from uatrack.sim import NoiseModel, SceneConfig


class TestDefaults:
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

    def test_learn_trainer_values_are_checked_when_parsed(self):
        """[learn] is the trainer's config, so a bad value stops the parse
        rather than the train stage."""
        with pytest.raises(ConfigError, match=r"\[learn\].*margin"):
            parse_config("[learn]\nmargin = 0\n", from_path=False)

    def test_mot_section_rejects_what_track_sequence_rejects(self):
        seq = sim.generate_sequence(SceneConfig(n_objects=1, n_frames=2), seed=0)
        with pytest.raises(ValueError, match="mode"):
            mot.track_sequence(seq, NoiseConfig(), AssocConfig(), "fused")
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

    def test_serialized_keys_are_pinned(self):
        """The manifest's config hash is taken over this text, so a field
        that moves (in a section or in a base class) shows here first."""
        keys, section = [], None
        for line in serialize_config(RunConfig()).splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                keys.append((section, line.split(" = ")[0]))
        assert keys == [
            ("global", "seed"),
            ("kalman", "q_diag"), ("kalman", "r_diag"), ("kalman", "p0_diag"),
            ("assoc", "gate"), ("assoc", "max_age"), ("assoc", "eps"),
            ("embed", "widths"), ("embed", "points_per_crop"),
            ("learn", "margin"), ("learn", "learning_rate"), ("learn", "batch_size"),
            ("learn", "epochs"), ("learn", "max_gap"), ("learn", "beta1"),
            ("learn", "beta2"), ("learn", "adam_eps"), ("learn", "use_uncertainty"),
            ("learn", "mode"),
            ("sim", "train_scenes"), ("sim", "fit_scenes"), ("sim", "test_scenes"),
            ("sim", "objects"), ("sim", "test_objects"), ("sim", "frames"),
            ("sim", "frame_period"), ("sim", "crossings"), ("sim", "bounds"),
            ("sim", "center_pct"), ("sim", "size_pct"), ("sim", "yaw_deg"),
            ("sim", "missed_rate"), ("sim", "spurious_rate"),
            ("mot", "modes"),
            ("eval", "match_dist"), ("eval", "recall_levels"), ("eval", "sot_noise"),
        ]
