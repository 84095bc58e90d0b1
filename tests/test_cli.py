import ast
import gc
import json
import re
import resource
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uatrack import assoc, cli, embed
from uatrack.config import RunConfig, SimSection, parse_config
from uatrack.core import (
    Box7,
    Detection,
    FrameRecord,
    PointCloud,
    Sequence,
    TrackRow,
    write_clouds,
    write_detections,
    write_track_rows,
)

# each stage's input and output hashes of tiny_run: its manifest lines
# without their config hash
PINNED = Path(__file__).with_name("tiny_run_artifacts.json")

TINY = """\
[global]
seed = 3

[sim]
train_scenes = 1
fit_scenes = 1
test_scenes = 1
objects = 3
test_objects = 3
frames = 8

[learn]
epochs = 1
batch_size = 8
learning_rate = 1e-3

[eval]
recall_levels = 5
"""


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Every stage of the pipeline on a tiny config, run once."""
    out = tmp_path_factory.mktemp("run")
    cli.run_pipeline(parse_config(TINY, from_path=False), cli.STAGE_ORDER, out)
    return out


@pytest.fixture(scope="module")
def three_scene_run(tmp_path_factory):
    """A tiny config with three scenes in every split, run through the
    stages that mot-run and sot-eval read from."""
    rc = parse_config(re.sub(r"(\w+_scenes) = 1", r"\1 = 3", TINY), from_path=False)
    out = tmp_path_factory.mktemp("three")
    cli.run_pipeline(rc, ["simulate", "pseudo-tracks", "train", "fit-logistic"], out)
    return rc, out


class TestPipeline:
    def test_manifest_byte_identical_across_runs(self, tiny_run, tmp_path):
        cli.run_pipeline(parse_config(TINY, from_path=False), cli.STAGE_ORDER, tmp_path)
        first = (tiny_run / "manifest.jsonl").read_bytes()
        assert (tmp_path / "manifest.jsonl").read_bytes() == first
        stages = [json.loads(line)["stage"] for line in first.decode().splitlines()]
        assert stages == list(cli.STAGE_ORDER)

    def test_artifacts_are_the_pinned_bytes(self, tiny_run):
        """Every artifact of the tiny run has the hash that PINNED holds.
        The config hash is left out: it moves whenever a key is added or
        removed. A mismatch names the first stage whose artifacts moved.
        From train onward, a BLAS that sums in another order moves the
        checkpoint's last bits, and with them every later artifact. A change
        that moves an output rewrites PINNED from the new tiny run."""
        want = json.loads(PINNED.read_text(encoding="utf-8"))
        got = [{key: line[key] for key in ("stage", "inputs", "outputs")}
               for line in map(json.loads, (tiny_run / "manifest.jsonl").open())]
        for g, w in zip(got, want):
            if g != w:
                moved = sorted(name for part in ("inputs", "outputs")
                               for name in g[part].keys() | w[part].keys()
                               if g[part].get(name) != w[part].get(name))
                pytest.fail(f"artifacts moved from stage {g['stage']!r} onward: {moved}")
        assert [g["stage"] for g in got] == [w["stage"] for w in want]

    def test_pass_budget_changes_no_output(self, tiny_run, tmp_path, monkeypatch):
        """Cutting every frame in a pass of its own gives every artifact of
        the run that cuts runs of frames together: a crop depends on its
        own cloud and box alone."""
        monkeypatch.setattr(embed, "MAX_PASS_POINTS", 1)
        cli.run_pipeline(parse_config(TINY, from_path=False), cli.STAGE_ORDER, tmp_path)
        assert (tmp_path / "manifest.jsonl").read_bytes() == \
            (tiny_run / "manifest.jsonl").read_bytes()

    RECORD = {"manifest.jsonl": b'{"stage": "simulate"}\n{"stage": "train"}\n',
              "timings.jsonl": b'{"stage": "simulate", "wall_time_s": 1.0}\n'}

    def test_first_stage_failing_keeps_the_record(self, tmp_path):
        """A rerun whose first stage fails leaves the manifest and timings of
        the run the directory holds byte for byte."""
        rc = parse_config(TINY, from_path=False)
        for name, raw in self.RECORD.items():
            (tmp_path / name).write_bytes(raw)
        with pytest.raises(cli.PipelineError, match="missing input artifact"):
            cli.run_pipeline(rc, ["train", "sot-eval"], tmp_path)
        (tmp_path / "sim" / "train_00" / "clouds").mkdir(parents=True)
        with pytest.raises(ValueError, match="clouds: is a directory"):
            cli.run_pipeline(rc, ["simulate"], tmp_path)
        assert {name: (tmp_path / name).read_bytes() for name in self.RECORD} == self.RECORD

    def test_one_stage_leaves_its_one_line(self, tmp_path):
        for name, raw in self.RECORD.items():
            (tmp_path / name).write_bytes(raw)
        lines = cli.run_pipeline(parse_config(TINY, from_path=False), ["simulate"], tmp_path)
        manifest = (tmp_path / "manifest.jsonl").read_text().splitlines()
        timings = (tmp_path / "timings.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in manifest] == lines
        assert [json.loads(line)["stage"] for line in timings] == ["simulate"]

    def test_timings_carry_the_resident_high_water_mark(self, tiny_run):
        """Each timings line carries the process's resident high-water mark
        after its stage, in MB: positive, and never falling from one stage
        to the next of a run."""
        lines = [json.loads(line) for line in (tiny_run / "timings.jsonl").open()]
        assert [line["stage"] for line in lines] == list(cli.STAGE_ORDER)
        peaks = [line["peak_rss_mb"] for line in lines]
        assert peaks[0] > 0 and peaks == sorted(peaks)
        assert peaks[-1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @pytest.mark.parametrize("stage", ["train", "fit-logistic", "mot-run", "sot-eval"])
    def test_stage_holds_one_scene_of_clouds_at_a_time(self, three_scene_run, stage,
                                                       monkeypatch):
        """Every stage that reads clouds lets go of a scene's before it
        reads the next: when the next scene's clouds are read, and when the
        stage is done, every cloud of the scenes before is gone."""
        rc, out = three_scene_run
        read_clouds = cli.read_clouds
        scenes = []  # per read, weak references to its clouds' points

        def alive():
            gc.collect()
            return sum(ref() is not None for refs in scenes for ref in refs)

        def recording(path):
            assert alive() == 0
            clouds = read_clouds(path)
            scenes.append([weakref.ref(pc.points) for pc in clouds.values()])
            return clouds

        monkeypatch.setattr(cli, "read_clouds", recording)
        cli.run_pipeline(rc, [stage], out)
        assert len(scenes) == 3 and all(scenes)
        assert alive() == 0

    @pytest.mark.parametrize("stage, embeds", [
        ("train", "forward_argmax"), ("fit-logistic", "forward"), ("mot-run", "forward"),
        ("sot-eval", "forward")])
    def test_stage_embeds_with_a_float32_net(self, three_scene_run, stage, embeds,
                                             monkeypatch):
        """Every stage that embeds runs its passes with a float32 net
        (`embed.PASS_DTYPE`): train's initial net and the float64
        checkpoint that the inference stages load are cast to it."""
        rc, out = three_scene_run
        dtypes = []
        embedding = getattr(embed, embeds)
        monkeypatch.setattr(embed, embeds, lambda net, cloud: dtypes.append(net.dtype) or
                            embedding(net, cloud))
        cli.run_pipeline(rc, [stage], out)
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}

    def test_each_scene_is_four_files(self, tiny_run):
        """A scene's clouds are one pack file, not a directory, and the
        pseudo-tracks stage, which uses boxes only, does not read it."""
        scenes = sorted((tiny_run / "sim").iterdir())
        assert [d.name for d in scenes] == ["fit_00", "test_00", "train_00"]
        for d in scenes:
            assert sorted(p.name for p in d.iterdir()) == [
                "clouds", "corrupted.jsonl", "detections.jsonl", "gt_tracks.jsonl"]
            assert all(p.is_file() for p in d.iterdir())
        lines = [json.loads(line) for line in (tiny_run / "manifest.jsonl").open()]
        pseudo = next(line for line in lines if line["stage"] == "pseudo-tracks")
        assert list(pseudo["inputs"]) == ["sim/train_00/corrupted.jsonl"]

    def test_gt_tracks_are_pseudo_tracks_an_oracle_run_trains_on(self, tmp_path):
        """simulate writes the true tracklets of each scene's corrupted
        detections in the pseudo-track format and nothing more: they read
        back as assoc.gt_tracks of that scene, and [learn] mode = oracle
        trains on them and on the same detections that selfsup mode uses."""
        rc = parse_config(TINY, from_path=False)
        # misses move the corrupted detections' indices off the clean ones
        oracle = replace(rc, learn=replace(rc.learn, mode="oracle"),
                         sim=replace(rc.sim, missed_rate=0.3))
        lines = cli.run_pipeline(oracle, ["simulate", "train"], tmp_path / "run")
        assert list(lines[1]["inputs"]) == ["sim/train_00/clouds", "sim/train_00/corrupted.jsonl",
                                            "sim/train_00/gt_tracks.jsonl"]
        net = embed.load_checkpoint(tmp_path / "run" / "train" / "checkpoint.uann")
        assert net.dim == embed.DEFAULT_WIDTHS[-1]

        scene = tmp_path / "run" / "sim" / "train_00"
        path = scene / "gt_tracks.jsonl"
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert objs and all(set(obj) == {"track_id", "members", "link_conf"} for obj in objs)
        seq = cli._read_boxes(oracle, scene / "corrupted.jsonl")
        tracks = assoc.read_pseudo_tracks(path, seq)
        assert tracks == assoc.gt_tracks(seq) != assoc.gt_tracks(
            cli._read_boxes(oracle, scene / "detections.jsonl"))
        rec = {r.index: r for r in seq.frames}
        assert all(rec[f].detections[d].gt_id == lab.track_id
                   for lab in tracks for f, d in lab.members)
        assert all(lab.link_conf == (1.0,) * (len(lab.members) - 1) for lab in tracks)
        assoc.write_pseudo_tracks(tmp_path / "gt.jsonl", tracks)
        assert (tmp_path / "gt.jsonl").read_bytes() == path.read_bytes()


def _main(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().err


class TestMalformedInput:
    """A malformed or truncated input file exits with code 1 and a one-line
    error naming the file, not a traceback."""

    @staticmethod
    def assert_one_line_error(code, err, name):
        assert code == 1
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1 and name in lines[0]

    def test_detections_missing_key(self, tiny_run, tmp_path, capsys):
        scene = tiny_run / "sim" / "train_00"
        lines = (scene / "corrupted.jsonl").read_text().splitlines()
        obj = json.loads(lines[0])
        del obj["score"]
        (tmp_path / "dets.jsonl").write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
        code, err = _main(capsys, ["pseudo-tracks", "--detections", str(tmp_path / "dets.jsonl"),
                                   "--out", str(tmp_path / "pt.jsonl")])
        self.assert_one_line_error(code, err, "dets.jsonl:1: missing key 'score'")

    def test_truncated_cloud_pack(self, tiny_run, tmp_path, capsys):
        scene = tiny_run / "sim" / "test_00"
        write_clouds(tmp_path / "x.uapk", {"c": PointCloud(np.ones((3, 3)))})
        (tmp_path / "x.uapk").write_bytes((tmp_path / "x.uapk").read_bytes()[:-1])
        code, err = _main(capsys, ["mot-run", "--detections", str(scene / "corrupted.jsonl"),
                                   "--clouds", str(tmp_path / "x.uapk"),
                                   "--out-tracks", str(tmp_path / "t.jsonl")])
        self.assert_one_line_error(code, err, "x.uapk: cloud 'c': truncated")
        assert not (tmp_path / "t.jsonl").exists()

    def test_directory_cloud_store(self, tiny_run, tmp_path, capsys):
        """The clouds/ directory of a run made before cloud packs."""
        scene = tiny_run / "sim" / "test_00"
        (tmp_path / "clouds").mkdir()
        (tmp_path / "clouds" / "f0o0.uapc").write_bytes(b"UAPC" + bytes(4))
        code, err = _main(capsys, ["mot-run", "--detections", str(scene / "corrupted.jsonl"),
                                   "--clouds", str(tmp_path / "clouds"),
                                   "--out-tracks", str(tmp_path / "t.jsonl")])
        self.assert_one_line_error(code, err, "clouds: is a directory, not a cloud pack")
        assert [p.name for p in (tmp_path / "clouds").iterdir()] == ["f0o0.uapc"]

    def test_mot_eval_track_row_past_the_scene(self, tiny_run, tiny_config, tmp_path, capsys):
        """A track row at a frame past its scene is refused, not pooled into
        the next scene's frames and scored against its ground truth."""
        lines = (tiny_run / "mot" / "test_00.tracks.motion.jsonl").read_text().splitlines()
        obj = json.loads(lines[0])
        obj["frame"] += 8  # the tiny config's scenes have 8 frames
        (tmp_path / "t.jsonl").write_text("\n".join(lines + [json.dumps(obj)]) + "\n")
        code = cli.main(["mot-eval", "--pred-tracks", str(tmp_path / "t.jsonl"),
                         "--gt-detections", str(tiny_run / "sim" / "test_00" / "detections.jsonl"),
                         "--config", str(tiny_config)])
        out, err = capsys.readouterr()
        self.assert_one_line_error(code, err, f"t.jsonl:{len(lines) + 1}: track row at frame")
        assert "AMOTA" not in out

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_out_dir_of_a_run_before_cloud_packs(self, command, tiny_config, tmp_path, capsys):
        """simulate into an --out-dir whose scenes hold clouds/ directories
        stops at the first one, in one line, and changes no scene file."""
        before = {}
        for split in cli.SPLITS:
            scene = tmp_path / "sim" / f"{split}_00"
            (scene / "clouds").mkdir(parents=True)
            for name in ("clouds/f0o0.uapc", "detections.jsonl", "corrupted.jsonl"):
                (scene / name).write_bytes(b"old " + name.encode())
                before[scene / name] = b"old " + name.encode()
        code, err = _main(capsys, [command, "--config", str(tiny_config),
                                   "--out-dir", str(tmp_path)])
        self.assert_one_line_error(code, err, "train_00/clouds: is a directory")
        assert {p: p.read_bytes() for p in tmp_path.glob("sim/*/**/*") if p.is_file()} == before

    def test_truncated_checkpoint(self, tiny_run, tmp_path, capsys):
        raw = (tiny_run / "train" / "checkpoint.uann").read_bytes()
        (tmp_path / "n.uann").write_bytes(raw[:len(raw) // 2])
        scene = tiny_run / "sim" / "test_00"
        code, err = _main(capsys, ["sot-eval", "--detections", str(scene / "detections.jsonl"),
                                   "--clouds", str(scene / "clouds"),
                                   "--checkpoint", str(tmp_path / "n.uann"),
                                   "--out-dir", str(tmp_path / "sot")])
        self.assert_one_line_error(code, err, "n.uann")

    def test_checkpoint_of_another_input_width(self, tiny_run, tmp_path, capsys):
        """A net whose first layer does not take a crop row's 3 coordinates
        is refused when it is loaded, naming the file, not in a matrix
        product."""
        embed.save_checkpoint(tmp_path / "n.uann", embed.EmbedNet.random((5, 8, 8), seed=0))
        scene = tiny_run / "sim" / "test_00"
        code, err = _main(capsys, ["sot-eval", "--detections", str(scene / "detections.jsonl"),
                                   "--clouds", str(scene / "clouds"),
                                   "--checkpoint", str(tmp_path / "n.uann"),
                                   "--out-dir", str(tmp_path / "sot")])
        self.assert_one_line_error(code, err,
                                   "n.uann: first layer takes 5 inputs; a crop row has 3")

    def test_logistic_model_missing_key(self, tiny_run, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"intercept": 0.5}\n')
        scene = tiny_run / "sim" / "test_00"
        code, err = _main(capsys, ["mot-run", "--detections", str(scene / "corrupted.jsonl"),
                                   "--clouds", str(scene / "clouds"), "--mode", "motion+score",
                                   "--logistic-model", str(tmp_path / "bad.json"),
                                   "--out-tracks", str(tmp_path / "t.jsonl")])
        self.assert_one_line_error(code, err, "bad.json: missing key 'coef'")

    def test_fit_logistic_unpaired_inputs(self, tiny_run, tmp_path, capsys):
        scene = tiny_run / "sim" / "fit_00"
        code, err = _main(capsys, ["fit-logistic",
                                   "--detections", str(scene / "corrupted.jsonl"),
                                   str(scene / "detections.jsonl"),
                                   "--clouds", str(scene / "clouds"),
                                   "--out-model", str(tmp_path / "m.json")])
        self.assert_one_line_error(code, err, "--detections and --clouds must pair up")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("conf", ["-0.5", "1.5", "NaN"])
    def test_link_confidence_out_of_range(self, conf, tiny_run, tmp_path, capsys):
        lines = (tiny_run / "pseudo" / "train_00.jsonl").read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if json.loads(line)["link_conf"])
        obj = json.loads(lines[k])
        obj["link_conf"][0] = float(conf)
        lines[k] = json.dumps(obj)
        (tmp_path / "pt.jsonl").write_text("\n".join(lines) + "\n")
        code, err = _main(capsys, ["confidence-report",
                                   "--pseudo-tracks", str(tmp_path / "pt.jsonl"),
                                   "--gt-detections",
                                   str(tiny_run / "sim" / "train_00" / "corrupted.jsonl")])
        self.assert_one_line_error(code, err, f"pt.jsonl:{k + 1}: ")

    @pytest.mark.parametrize("member", [[1, 99], [99, 0]], ids=["detection", "frame"])
    @pytest.mark.parametrize("command", ["train", "confidence-report"])
    def test_member_outside_the_scene(self, command, member, tiny_run, tiny_config,
                                      tmp_path, capsys):
        scene = tiny_run / "sim" / "train_00"
        lines = (tiny_run / "pseudo" / "train_00.jsonl").read_text().splitlines()
        lines.append(json.dumps({"track_id": 999, "members": [member], "link_conf": []}))
        (tmp_path / "pt.jsonl").write_text("\n".join(lines) + "\n")
        if command == "train":
            argv = ["train", "--detections", scene / "corrupted.jsonl", "--clouds",
                    scene / "clouds", "--out-checkpoint", tmp_path / "c.uann"]
        else:
            argv = ["confidence-report", "--gt-detections", scene / "corrupted.jsonl"]
        code, err = _main(capsys, [*map(str, argv), "--pseudo-tracks", str(tmp_path / "pt.jsonl"),
                                   "--config", str(tiny_config)])
        self.assert_one_line_error(code, err, f"pt.jsonl:{len(lines)}: track 999: member")
        assert not (tmp_path / "c.uann").exists()


    @pytest.mark.parametrize("command", ["train", "confidence-report"])
    def test_repeated_track_id(self, command, tiny_run, tiny_config, tmp_path, capsys):
        """A second line with an earlier line's track_id is refused, not
        read as the first track's confidences."""
        scene = tiny_run / "sim" / "train_00"
        lines = (tiny_run / "pseudo" / "train_00.jsonl").read_text().splitlines()
        objs = [json.loads(line) for line in lines]
        first = next(k for k, obj in enumerate(objs) if obj["link_conf"])
        second = next(k for k, obj in enumerate(objs)
                      if len(obj["link_conf"]) != len(objs[first]["link_conf"]))
        first, second = sorted((first, second))
        objs[second]["track_id"] = objs[first]["track_id"]
        lines[second] = json.dumps(objs[second])
        (tmp_path / "pt.jsonl").write_text("\n".join(lines) + "\n")
        if command == "train":
            argv = ["train", "--detections", scene / "corrupted.jsonl", "--clouds",
                    scene / "clouds", "--out-checkpoint", tmp_path / "c.uann"]
        else:
            argv = ["confidence-report", "--gt-detections", scene / "corrupted.jsonl"]
        code, err = _main(capsys, [*map(str, argv), "--pseudo-tracks", str(tmp_path / "pt.jsonl"),
                                   "--config", str(tiny_config)])
        self.assert_one_line_error(
            code, err, f"pt.jsonl:{second + 1}: track {objs[first]['track_id']} is on an earlier")
        assert not (tmp_path / "c.uann").exists()


def _with_setting(section, key, value):
    """TINY with key = value in [section], in place of TINY's own value of
    a key that it sets (its keys are set in one section each)."""
    header = f"[{section}]\n"
    setting = f"{key} = {value}\n"
    if f"\n{key} = " in TINY:
        return re.sub(rf"\n{key} = .*\n", f"\n{setting}", TINY)
    if header in TINY:
        return TINY.replace(header, header + setting)
    return TINY + "\n" + header + setting


def _config_error(tmp_path, capsys, text):
    """The stderr line of a pipeline run refused for its config."""
    (tmp_path / "bad.cfg").write_text(text)
    code, err = _main(capsys, ["pipeline", "--config", str(tmp_path / "bad.cfg"),
                               "--out-dir", str(tmp_path / "run")])
    assert code == 2 and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert not (tmp_path / "run").exists()
    return lines[0]


@pytest.mark.parametrize("section, key, value", [
    ("mot", "score_gate", "0.5"),
    ("assoc", "distance", "sqrt"),
    ("learn", "hard_negative_mining", "true"),
    ("sim", "dropout_rate", "0.0"),
    ("learn", "seed", "5"),
    ("learn", "points_per_crop", "32"),
    ("kalman", "q_diag", "0.01"),
    ("kalman", "r_diag", "0.1,0.1,0.1,-inf,0.1,0.1,0.1"),
    ("kalman", "p0_diag", "1.0"),
    ("assoc", "max_age", "3"),
    ("assoc", "eps", "inf"),
    ("learn", "beta1", "0.9"),
    ("learn", "beta2", "0.999"),
    ("learn", "adam_eps", "1e-8"),
    ("eval", "match_dist", "nan"),
    ("learn", "margin", "nan"),
    ("sim", "frame_period", "nan"),
    ("sim", "bounds", "0"),
    ("sim", "size_pct", "0.1"),
    ("sim", "yaw_deg", "5.0"),
    ("sim", "spurious_rate", "0.1"),
    ("embed", "widths", "3,8,8"),
    ("embed", "points_per_crop", "16"),
])
def test_removed_key_exits_2(section, key, value, tmp_path, capsys):
    """Keys whose options are gone (the fused modes' score gate, the squared
    Mahalanobis variant, random negatives, cloud dropout), a key set in
    another section (the trainer's seed is [global] seed), and keys that
    became constants (the Kalman noise, the tracker's max age and AC
    epsilon, Adam's betas and epsilon, AMOTA's match distance, the triplet
    margin, the frame period, the scene bounds, the detector's size, yaw
    and spurious noise, and the network's widths and crop size, in [embed]
    or [learn]) are refused, whatever their value, not ignored. [kalman]
    and [embed] have no key left, so each section itself is refused."""
    header = f"[{section}]\n"
    setting = f"{key} = {value}\n"
    text = (TINY.replace(header, header + setting) if header in TINY
            else TINY + "\n" + header + setting)
    want = (f"unknown section [{section}]" if section in ("kalman", "embed")
            else f"[{section}] unknown key {key!r}")
    assert _config_error(tmp_path, capsys, text) == f"config error: {want}"


@pytest.mark.parametrize("section, key, value", [
    ("assoc", "gate", "nan"),
    ("learn", "learning_rate", "inf"),
    ("sim", "missed_rate", "nan"),
])
def test_non_finite_value_exits_2(section, key, value, tmp_path, capsys):
    """A float that is not finite is refused when the config is parsed: a
    gate of NaN admits no pair, so the run would go on to fail at train
    with a misleading error."""
    line = _config_error(tmp_path, capsys, _with_setting(section, key, value))
    assert line.startswith(f"config error: [{section}] {key}: not a finite number: ")


@pytest.mark.parametrize("section, key, value, code, prefix", [
    ("sim", "crossings", "-1", 2, "config error: [sim]: train scenes: crossings must be >= 0"),
    ("sim", "objects", "0", 2,
     "config error: [sim]: train scenes: a scene needs at least 1 object, got 0"),
    ("sim", "test_objects", "0", 2,
     "config error: [sim]: test scenes: a scene needs at least 1 object, got 0"),
    ("sim", "frames", "1", 2,
     "config error: [sim]: train scenes: a scene needs at least 2 frames, got 1"),
    ("sim", "missed_rate", "2", 2, "config error: [sim]: missed_rate must be in [0, 1], got 2.0"),
    ("sim", "center_pct", "-1", 2, "config error: [sim]: center_pct must be >= 0, got -1.0"),
    # too long a scene for a crossing pair to stay inside the bounds
    ("sim", "frames", "60", 1, "error: could not place a crossing pair inside bounds 45.0"),
])
def test_value_a_later_stage_rejects(section, key, value, code, prefix, tmp_path, capsys):
    """A value that a stage would fail on is refused when the config is
    parsed, with one line and exit 2, before any stage runs; a scene that
    cannot be placed ends the simulate stage with one error line."""
    (tmp_path / "bad.cfg").write_text(_with_setting(section, key, value))
    got, err = _main(capsys, ["pipeline", "--config", str(tmp_path / "bad.cfg"),
                              "--out-dir", str(tmp_path / "run")])
    lines = err.splitlines()
    assert got == code and len(lines) == 1 and lines[0].startswith(prefix), err
    if code == 2:
        assert not (tmp_path / "run").exists()


def test_cli_builds_no_simulator_config():
    """[sim] alone maps its keys to the simulator: the stages take
    rc.sim.scene(split) and rc.sim.noise(), which the parse has checked."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    built = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("SceneConfig", "NoiseModel")]
    assert built == []


@pytest.mark.parametrize("modes", ["", "motion, motion",
                                   "motion+score, motion, motion+score"])
def test_mot_modes_empty_or_repeated_exit_2(modes, tmp_path, capsys):
    line = _config_error(tmp_path, capsys, TINY + f"\n[mot]\nmodes = {modes}\n")
    assert line.startswith("config error: [mot]: ")


@pytest.mark.parametrize("text", [
    TINY.replace("seed = 3", "seed = 3\nseed = 4"),
    TINY + "\n[global]\nseed = 4\n",
    "seed = 3\n" + TINY,
    TINY.replace("seed = 3", "seed = 3\nnot a setting"),
    TINY + "\n[assoc]\ngate = 5%\n",
], ids=["repeated-key", "repeated-section", "no-section-header", "not-key-value",
        "bare-percent"])
def test_unparsable_config_exits_2(text, tmp_path, capsys):
    """configparser's own errors end in one line, like the config's."""
    assert _config_error(tmp_path, capsys, text).startswith("config error: ")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nepochs = 3\n",
    "[learn]\nepochs = 3\n[DEFAULT]\ngate = 5\n",
], ids=["alone", "after-a-section"])
def test_default_section_exits_2(text, tmp_path, capsys):
    """configparser would fold [DEFAULT]'s keys into every other section:
    alone it would set nothing, and after [learn] its key would be blamed
    on [learn]. It is an unknown section like any other."""
    assert _config_error(tmp_path, capsys, text) == "config error: unknown section [DEFAULT]"


def test_non_integer_seed_exits_2(tmp_path, capsys):
    line = _config_error(tmp_path, capsys, TINY.replace("seed = 3", "seed = abc"))
    assert line.startswith("config error: [global] seed: ")


def test_negative_config_seed_exits_2(tmp_path, capsys):
    line = _config_error(tmp_path, capsys, TINY.replace("seed = 3", "seed = -1"))
    assert line == "config error: [global] seed must be >= 0, got -1"


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_negative_seed_flag_exits_2(command, tmp_path, capsys):
    """--seed -1 is refused before any stage runs or any directory is made."""
    code, err = _main(capsys, [command, "--seed", "-1", "--out-dir", str(tmp_path / "run")])
    assert code == 2 and err.splitlines() == ["config error: [global] seed must be >= 0, got -1"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("old, new, message", [
    # a gate that admits no pair: no pseudo-track has two members
    ("[learn]\n", "[assoc]\ngate = 1e-9\n\n[learn]\n",
     "no pseudo-track has two or more members"),
    # spurious detections only: tracks form, but their anchors have no negatives
    ("frames = 8", "frames = 8\nmissed_rate = 1.0", "anchors have no negatives"),
    # the divergence leaves float32's range, refused before a loss is computed
    pytest.param("learning_rate = 1e-3", "learning_rate = 1e300",
                 "network parameters leave the float32 range at step 1",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    # a one-step run: the last step's parameters leave float32's range
    pytest.param("batch_size = 8\nlearning_rate = 1e-3",
                 "batch_size = 64\nlearning_rate = 1e300",
                 "network parameters leave the float32 range after step 0, the last",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_run_that_cannot_train_exits_1(old, new, message, tmp_path, capsys):
    """A valid config whose data cannot train (TrainingDataExhausted) or
    whose training diverges (NumericalError) ends in one error line, and
    writes no checkpoint."""
    assert old in TINY
    (tmp_path / "run.cfg").write_text(TINY.replace(old, new))
    code, err = _main(capsys, ["pipeline", "--config", str(tmp_path / "run.cfg"),
                               "--out-dir", str(tmp_path / "run")])
    TestMalformedInput.assert_one_line_error(code, err, message)
    assert not (tmp_path / "run" / "train" / "checkpoint.uann").exists()


@pytest.mark.parametrize("case", ["config-a-directory", "config-not-utf8", "out-dir-a-file",
                                  "pipeline-out-dir-a-file", "detections-a-directory",
                                  "out-under-a-file", "checkpoint-a-directory"])
def test_path_that_cannot_be_used_exits_in_one_line(case, tiny_run, tmp_path, capsys):
    """A path that names a directory where a file is wanted, a file where a
    directory is wanted, or a config that is not UTF-8 ends in one stderr
    line naming the path: exit 2 for the config, 1 for any other path."""
    test = tiny_run / "sim" / "test_00"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    code, bad, argv = {
        "config-a-directory": (2, tmp_path, ["pipeline", "--config", tmp_path,
                                             "--out-dir", tmp_path / "run"]),
        "config-not-utf8": (2, tmp_path / "latin1.cfg",
                            ["pipeline", "--config", tmp_path / "latin1.cfg",
                             "--out-dir", tmp_path / "run"]),
        "out-dir-a-file": (1, a_file, ["simulate", "--out-dir", a_file]),
        "pipeline-out-dir-a-file": (1, a_file, ["pipeline", "--out-dir", a_file]),
        "detections-a-directory": (1, tmp_path, ["pseudo-tracks", "--detections", tmp_path,
                                                 "--out", tmp_path / "pt.jsonl"]),
        "out-under-a-file": (1, a_file / "x.jsonl",
                             ["pseudo-tracks", "--detections", test / "corrupted.jsonl",
                              "--out", a_file / "x.jsonl"]),
        "checkpoint-a-directory": (1, tmp_path,
                                   ["sot-eval", "--detections", test / "detections.jsonl",
                                    "--clouds", test / "clouds", "--checkpoint", tmp_path,
                                    "--out-dir", tmp_path / "sot"]),
    }[case]
    (tmp_path / "latin1.cfg").write_bytes("[global]\n# café\nseed = 3\n".encode("latin-1"))
    got, err = _main(capsys, [str(arg) for arg in argv])
    lines = err.splitlines()
    assert got == code and len(lines) == 1, err
    assert lines[0].startswith("config error: " if code == 2 else "error: ")
    assert str(bad) in lines[0]
    if case.endswith("out-dir-a-file"):
        assert lines[0] == f"error: {a_file}: not a directory"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("gt_ids", [(7, 0), (1_000_000, 0), (0, -1_000_000)],
                         ids=["small", "scene-0-at-1e6", "scene-1-at-minus-1e6"])
def test_mot_eval_keeps_each_scenes_ids_apart(gt_ids, tmp_path):
    """mot-eval pools its scenes into one sequence. Each scene holds one
    object over 3 frames, and pred track 5 follows it exactly, so AMOTA is 1
    with no ID switch whatever ids the scenes' objects have."""
    rc = RunConfig(sim=replace(SimSection(), frames=3))
    box = Box7(x=10.0, y=0.0, z=0.8, yaw=0.0, l=4.0, w=1.8, h=1.6)
    gt_paths, pred_paths = [], []
    for i, gt_id in enumerate(gt_ids):
        gt_paths.append(tmp_path / f"d{i}.jsonl")
        pred_paths.append(tmp_path / f"t{i}.jsonl")
        write_detections(gt_paths[-1], Sequence(frames=[
            FrameRecord(index=f, detections=[Detection(frame=f, box=box, score=1.0,
                                                       cloud_ref="c", gt_id=gt_id)])
            for f in range(3)], clouds={"c": PointCloud(np.zeros((1, 3)))}))
        write_track_rows(pred_paths[-1], [TrackRow(frame=f, track_id=5, box=box, score=0.9)
                                          for f in range(3)])
    _, (score,) = cli.run_mot_eval(rc, gt_paths, [pred_paths])
    assert score.amota == 1.0
    assert [t.ids for t in score.thresholds] == [0] * rc.eval.recall_levels


def test_pooled_ids_stay_distinct_in_scene_order():
    """Each (scene, id) pair gets its own pooled id, ranked as the pairs
    sort, for any int id."""
    box = Box7(x=0.0, y=0.0, z=0.0, yaw=0.0, l=1.0, w=1.0, h=1.0)
    ids = [[1_000_000, 3, 1_000_000], [0, -1_000_000]]
    pooled = cli._pooled_rows([[TrackRow(frame=0, track_id=t, box=box, score=0.5) for t in scene]
                               for scene in ids], frame_stride=10)
    assert [r.track_id for r in pooled] == [1, 0, 1, 3, 2]
    assert [r.frame for r in pooled] == [0, 0, 0, 10, 10]


MODES = ("motion", "motion+score", "motion+score+appearance")


def _parity_case(name, run: Path, out: Path):
    """(argv lists, (subcommand output, pipeline artifact) pairs) for a
    subcommand run on the pipeline's own inputs."""
    train, fit, test = (run / "sim" / f"{split}_00" for split in ("train", "fit", "test"))
    ckpt = run / "train" / "checkpoint.uann"
    logistic = {m: run / "mot" / f"logistic_{m}.json" for m in MODES[1:]}
    if name == "simulate":
        return [["simulate", "--out-dir", out]], [(out / "sim", run / "sim")]
    if name == "pseudo-tracks":
        return ([["pseudo-tracks", "--detections", train / "corrupted.jsonl",
                  "--out", out / "pt.jsonl"]],
                [(out / "pt.jsonl", run / "pseudo" / "train_00.jsonl")])
    if name == "train":
        return ([["train", "--detections", train / "corrupted.jsonl",
                  "--pseudo-tracks", run / "pseudo" / "train_00.jsonl",
                  "--clouds", train / "clouds", "--out-checkpoint", out / "c.uann",
                  "--out-history", out / "h.csv"]],
                [(out / "c.uann", ckpt), (out / "h.csv", run / "train" / "loss_history.csv")])
    if name == "fit-logistic":
        fit_args = ["fit-logistic", "--detections", fit / "corrupted.jsonl",
                    "--clouds", fit / "clouds"]
        return ([fit_args + ["--out-model", out / "s.json"],
                 fit_args + ["--checkpoint", ckpt, "--out-model", out / "a.json"]],
                [(out / "s.json", logistic[MODES[1]]), (out / "a.json", logistic[MODES[2]])])
    if name == "mot-run":
        mot_args = ["mot-run", "--detections", test / "corrupted.jsonl",
                    "--clouds", test / "clouds"]
        extra = {MODES[0]: [], MODES[1]: ["--logistic-model", logistic[MODES[1]]],
                 MODES[2]: ["--logistic-model", logistic[MODES[2]], "--checkpoint", ckpt]}
        return ([mot_args + ["--mode", m, "--out-tracks", out / f"{m}.jsonl"] + extra[m]
                 for m in MODES],
                [(out / f"{m}.jsonl", run / "mot" / f"test_00.tracks.{m}.jsonl") for m in MODES])
    if name == "sot-eval":
        return ([["sot-eval", "--detections", test / "detections.jsonl",
                  "--clouds", test / "clouds", "--checkpoint", ckpt, "--out-dir", out / "sot"]],
                [(out / "sot" / f, run / "eval" / f)
                 for f in ("sot_clean.csv", "sot_noisy.csv", "sot_summary.json")])
    if name == "confidence-report":
        return ([["confidence-report", "--pseudo-tracks", run / "pseudo" / "train_00.jsonl",
                  "--gt-detections", train / "corrupted.jsonl", "--out-csv", out / "c.csv"]],
                [(out / "c.csv", run / "eval" / "confidence.csv")])
    raise ValueError(name)


def _contents(path: Path):
    """A file's bytes, or a directory tree's {relative path: bytes}."""
    if path.is_dir():
        return {str(p.relative_to(path)): p.read_bytes()
                for p in sorted(path.rglob("*")) if p.is_file()}
    return path.read_bytes()


class TestSubcommandParity:
    """Each subcommand, run on the pipeline's own inputs and config,
    reproduces the pipeline stage's artifacts byte for byte."""

    @pytest.mark.parametrize("name", ["simulate", "pseudo-tracks", "train", "fit-logistic",
                                      "mot-run", "sot-eval", "confidence-report"])
    def test_artifacts_match_the_stage(self, name, tiny_run, tiny_config, tmp_path, capsys):
        argvs, pairs = _parity_case(name, tiny_run, tmp_path)
        for argv in argvs:
            code, err = _main(capsys, [*map(str, argv), "--config", str(tiny_config)])
            assert code == 0, err
        for produced, expected in pairs:
            assert _contents(produced) == _contents(expected), expected.name

    @pytest.mark.parametrize("mode", MODES)
    def test_mot_eval_prints_the_stage_scores(self, mode, tiny_run, tiny_config, capsys):
        code = cli.main(["mot-eval", "--config", str(tiny_config),
                         "--pred-tracks", str(tiny_run / "mot" / f"test_00.tracks.{mode}.jsonl"),
                         "--gt-detections", str(tiny_run / "sim" / "test_00" / "detections.jsonl")])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        stage = json.loads((tiny_run / "eval" / f"amota_{mode}.json").read_text())
        assert printed[0] == f"AMOTA: {stage['amota']:.4f}"
        rows = [line.split() for line in printed[2:]]
        assert len(rows) == len(stage["thresholds"]) == 5
        for row, t in zip(rows, stage["thresholds"]):
            assert row[0] == f"{t['recall_target']:.3f}" and row[3] == f"{t['mota']:.3f}"
            assert [int(v) for v in row[4:]] == [t["fp"], t["fn"], t["ids"]]

    def test_seed_flag_overrides_the_config_seed(self, tiny_run, tiny_config, tmp_path, capsys):
        argvs, pairs = _parity_case("train", tiny_run, tmp_path)
        code, err = _main(capsys, [*map(str, argvs[0]), "--config", str(tiny_config),
                                   "--seed", "4"])
        assert code == 0, err
        assert pairs[0][0].read_bytes() != pairs[0][1].read_bytes()

    def test_confidence_report_without_a_correct_link(self, tiny_run, tmp_path, capsys,
                                                      caplog):
        """With no correct link the correct side's mean is missing, and the
        stage's log line and the subcommand print the same words for it."""
        scene = tiny_run / "sim" / "train_00"
        dets = [json.loads(line) for line in (scene / "corrupted.jsonl").read_text().splitlines()]
        first = [d for d in dets if d["frame"] == 0]
        second = [d for d in dets if d["frame"] == 1]
        j, k = next((j, k) for j, a in enumerate(first) for k, b in enumerate(second)
                    if a["gt_id"] != b["gt_id"])
        out = tmp_path / "run"
        (out / "sim" / "train_00").mkdir(parents=True)
        (out / "pseudo").mkdir()
        (out / "sim" / "train_00" / "corrupted.jsonl").write_bytes(
            (scene / "corrupted.jsonl").read_bytes())
        pseudo = out / "pseudo" / "train_00.jsonl"
        pseudo.write_text(json.dumps({"track_id": 0, "members": [[0, j], [1, k]],
                                      "link_conf": [0.5]}) + "\n")
        rc = parse_config(TINY, from_path=False)
        with caplog.at_level("INFO", logger="uatrack"):
            cli.run_pipeline(rc, ["confidence-report"], out)
        logged = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("confidence-report: ")]
        code = cli.main(["confidence-report", "--pseudo-tracks", str(pseudo),
                         "--gt-detections", str(out / "sim" / "train_00" / "corrupted.jsonl")])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "mean AC correct: absent; incorrect: 0.5000; links: 1"
        assert logged == [f"confidence-report: {printed}"]
        summary = json.loads((out / "eval" / "confidence_summary.json").read_text())
        assert summary == {"mean_correct": None, "mean_incorrect": 0.5, "n_links": 1}


STAGE_CALLS = {("assoc", "build_pseudo_tracks"), ("learn", "train"), ("mot", "harvest_features"),
               ("mot", "fit_logistic"), ("mot", "track_sequence"), ("evaluation", "sot_evaluate"),
               ("evaluation", "amota"), ("evaluation", "confidence_links")}


def test_subcommands_reach_the_modules_through_stage_functions():
    """No _cmd_* in cli.py calls a stage's module function itself."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    cmds = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(cmds) == len(cli.STAGE_ORDER) + 1
    names = {attr for _, attr in STAGE_CALLS}
    direct = []
    for fn in cmds:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and (f.value.id, f.attr) in STAGE_CALLS) or \
                    (isinstance(f, ast.Name) and f.id in names):
                direct.append((fn.name, ast.unparse(f)))
    assert direct == []
