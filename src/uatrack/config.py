"""Key-value run configuration with [section] headers.

A blank config reproduces every module's documented defaults. Unknown
sections or keys are rejected with the offending section/key named, and
values are validated by the module configs they construct, when parsed:
[sim] builds the simulator's SceneConfig for each split and its NoiseModel.
"""

import configparser
import io
import math
from dataclasses import dataclass, field, fields

from .assoc import AssocConfig
from .embed import DEFAULT_POINTS, DEFAULT_WIDTHS
from .learn import TrainerConfig
from .mot import MODES as MOT_MODES
from .sim import SPURIOUS_RATE, NoiseModel, SceneConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EmbedSection:
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    points_per_crop: int = DEFAULT_POINTS  # most rows a crop holds

    def __post_init__(self):
        if len(self.widths) < 2 or self.widths[0] != 3:
            raise ValueError(f"widths must start at 3 with an output layer, got {self.widths}")
        if min(self.widths) < 1:
            raise ValueError(f"every width must be >= 1, got {self.widths}")
        if self.points_per_crop < 1:
            raise ValueError("points_per_crop must be >= 1")


@dataclass(frozen=True)
class SimSection:
    train_scenes: int = 6
    fit_scenes: int = 2
    test_scenes: int = 11
    objects: int = SceneConfig.n_objects
    test_objects: int = 4
    frames: int = SceneConfig.n_frames
    crossings: int = 1
    center_pct: float = NoiseModel.center_pct
    missed_rate: float = 0.05

    def __post_init__(self):
        if min(self.train_scenes, self.fit_scenes, self.test_scenes) < 1:
            raise ValueError("every split needs at least one scene")
        for split in ("train", "test"):  # the fit split's scenes are the train split's
            try:
                self.scene(split)
            except ValueError as exc:
                raise ValueError(f"{split} scenes: {exc}") from exc
        self.noise()

    def scene(self, split: str) -> SceneConfig:
        """The splits differ only in the test split's object count and in its
        giving each object its own template."""
        n = self.test_objects if split == "test" else self.objects
        return SceneConfig(
            n_objects=n, n_frames=self.frames, crossings=min(self.crossings, n // 2),
            distinct_templates=split == "test",
        )

    def noise(self) -> NoiseModel:
        """The detector noise of corrupt_detections; perturb_boxes reads only
        its box noise. Size and yaw noise are NoiseModel's defaults, and the
        spurious rate is sim.SPURIOUS_RATE."""
        return NoiseModel(center_pct=self.center_pct, spurious_rate=SPURIOUS_RATE,
                          missed_rate=self.missed_rate)


@dataclass(frozen=True)
class LearnSection(TrainerConfig):
    """The trainer's config plus which tracks it trains on."""

    mode: str = "selfsup"  # selfsup | oracle

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("selfsup", "oracle"):
            raise ValueError(f"mode must be selfsup/oracle, got {self.mode!r}")


@dataclass(frozen=True)
class MotSection:
    modes: tuple[str, ...] = MOT_MODES

    def __post_init__(self):
        if not self.modes:
            raise ValueError("modes must name at least one mode")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"modes must not repeat a mode, got {', '.join(self.modes)}")
        for mode in self.modes:
            if mode not in MOT_MODES:
                raise ValueError(f"mode must be one of {MOT_MODES}, got {mode!r}")


@dataclass(frozen=True)
class EvalSection:
    recall_levels: int = 40
    sot_noise: str = "both"  # off | on | both

    def __post_init__(self):
        if self.recall_levels < 1:
            raise ValueError(f"recall_levels must be >= 1, got {self.recall_levels}")
        if self.sot_noise not in ("off", "on", "both"):
            raise ValueError(f"sot_noise must be off/on/both, got {self.sot_noise!r}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    assoc: AssocConfig = field(default_factory=AssocConfig)
    embed: EmbedSection = field(default_factory=EmbedSection)
    learn: LearnSection = field(default_factory=LearnSection)
    sim: SimSection = field(default_factory=SimSection)
    mot: MotSection = field(default_factory=MotSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        # a ConfigError itself: --seed sets the seed after parse_config
        if self.seed < 0:
            raise ConfigError(f"[global] seed must be >= 0, got {self.seed}")


# every field but seed is a section, written in field order
_SECTION_TYPES = {f.name: f.type for f in fields(RunConfig) if f.name != "seed"}


def _parse_value(section: str, key: str, raw: str, current):
    """Parse raw text according to the type of the default value. A float
    must be finite."""
    raw = raw.strip()
    try:
        if isinstance(current, bool):
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError(f"not a finite number: {raw!r}")
            return v
        if isinstance(current, str):
            return raw
        if isinstance(current, tuple):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if isinstance(current[0], int):
                return tuple(int(p) for p in parts)
            if isinstance(current[0], str):
                return tuple(parts)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc
    raise ConfigError(f"[{section}] {key}: unsupported value type")


def parse_config(text_or_path, from_path: bool = True) -> RunConfig:
    """Parse a config file (or literal text, which the benchmark's runner
    passes) into a validated RunConfig. Every error is a ConfigError with a
    one-line message; one that reading the file raises names the file.

    [DEFAULT] is a section like any other, and so unknown: configparser
    would otherwise copy its keys into every section.
    """
    # no header names the default section "", so configparser has none
    parser = configparser.ConfigParser(default_section="")
    parser.optionxform = str
    try:
        if from_path:
            with open(text_or_path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        else:
            parser.read_file(io.StringIO(text_or_path))
        sections = {sect: dict(parser[sect]) for sect in parser.sections()}
    except configparser.Error as exc:  # its messages span lines
        raise ConfigError(" ".join(str(exc).split())) from exc
    except OSError as exc:
        raise ConfigError(f"{text_or_path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{text_or_path}: not UTF-8 text ({exc.reason})") from exc

    kwargs = {}
    for sect, items in sections.items():
        if sect == "global":
            for key, raw in items.items():
                if key != "seed":
                    raise ConfigError(f"[global] unknown key {key!r}")
                kwargs["seed"] = _parse_value("global", key, raw, RunConfig.seed)
            continue
        if sect not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{sect}]")
        cls = _SECTION_TYPES[sect]
        defaults = cls()
        names = {f.name for f in fields(cls)}
        updates = {}
        for key, raw in items.items():
            if key not in names:
                raise ConfigError(f"[{sect}] unknown key {key!r}")
            updates[key] = _parse_value(sect, key, raw, getattr(defaults, key))
        try:
            kwargs[sect] = cls(**updates)
        except ValueError as exc:
            raise ConfigError(f"[{sect}]: {exc}") from exc
    return RunConfig(**kwargs)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(rc: RunConfig) -> str:
    """Render a RunConfig back to config text (parse . serialize . parse is
    the identity)."""
    out = ["[global]", f"seed = {rc.seed}", ""]
    for sect, cls in _SECTION_TYPES.items():
        out.append(f"[{sect}]")
        obj = getattr(rc, sect)
        for f in fields(cls):
            out.append(f"{f.name} = {_format_value(getattr(obj, f.name))}")
        out.append("")
    return "\n".join(out)
