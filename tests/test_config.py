import ast
from dataclasses import replace
from pathlib import Path

import pytest

from uatrack import cli, config, evaluation, mot, sim
from uatrack.assoc import AssocConfig
from uatrack.config import (
    ConfigError,
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
    def test_sim_section_matches_scene_and_noise_models(self):
        """[sim] sets two of the detector's five noise values; the rest are
        NoiseModel's box-noise defaults and sim.SPURIOUS_RATE."""
        sect, scene = SimSection(), SceneConfig()
        assert (sect.objects, sect.frames) == (scene.n_objects, scene.n_frames)
        assert sect.center_pct == NoiseModel().center_pct
        assert sect.noise() == NoiseModel(center_pct=0.10, size_pct=0.10, yaw_deg=5.0,
                                          spurious_rate=0.10, missed_rate=0.05)
        assert sim.SPURIOUS_RATE == 0.10

    def test_mot_section_matches_mot_config(self):
        assert MotSection().modes == MODES

    def test_learn_mode_weak_is_rejected(self):
        with pytest.raises(ConfigError, match=r"\[learn\].*'weak'"):
            parse_config("[learn]\nmode = weak\n", from_path=False)

    def test_learn_trainer_values_are_checked_when_parsed(self):
        """[learn] is the trainer's config, so a bad value stops the parse
        rather than the train stage."""
        with pytest.raises(ConfigError, match=r"\[learn\].*batch_size >= 1"):
            parse_config("[learn]\nbatch_size = 0\n", from_path=False)

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
            assoc=AssocConfig(gate=9.5),
            learn=LearnSection(learning_rate=1e-3, batch_size=8, epochs=2,
                               use_uncertainty=False, mode="oracle"),
            sim=replace(SimSection(), train_scenes=2, center_pct=0.25),
            mot=MotSection(modes=("motion", "motion+score")),
            eval=EvalSection(recall_levels=10, sot_noise="on"),
        )
        for name in ("assoc", "learn", "sim", "mot", "eval"):
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
            ("assoc", "gate"),
            ("learn", "learning_rate"), ("learn", "batch_size"), ("learn", "epochs"),
            ("learn", "use_uncertainty"), ("learn", "mode"),
            ("sim", "train_scenes"), ("sim", "fit_scenes"), ("sim", "test_scenes"),
            ("sim", "objects"), ("sim", "test_objects"), ("sim", "frames"),
            ("sim", "crossings"), ("sim", "center_pct"), ("sim", "missed_rate"),
            ("mot", "modes"),
            ("eval", "recall_levels"), ("eval", "sot_noise"),
        ]


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_crop_size_and_widths_are_not_settings():
    """Every stage cuts crops of embed.POINTS_PER_CROP rows and trains a
    net of embed.DEFAULT_WIDTHS: no function of cli, mot or evaluation
    takes a crop size, and config imports nothing from embed."""
    for module in (cli, mot, evaluation):
        params = {a.arg for node in ast.walk(_tree(module)) if isinstance(node, ast.arguments)
                  for a in node.posonlyargs + node.args + node.kwonlyargs}
        assert "points_per_crop" not in params, module.__name__
    imported = set()
    for node in ast.walk(_tree(config)):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or "", *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not {name for name in imported if name.split(".")[-1] == "embed"}, imported
