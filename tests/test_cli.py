import json

import numpy as np
import pytest

from uatrack import cli
from uatrack.config import parse_config
from uatrack.core import PointCloud, write_point_cloud

TINY = """\
[global]
seed = 3

[embed]
widths = 3,8,8
points_per_crop = 16

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
def tiny_run(tmp_path_factory):
    """Every stage of the pipeline on a tiny config, run once."""
    out = tmp_path_factory.mktemp("run")
    cli.run_pipeline(parse_config(TINY, from_path=False), cli.STAGE_ORDER, out)
    return out


class TestPipeline:
    def test_manifest_byte_identical_across_runs(self, tiny_run, tmp_path):
        cli.run_pipeline(parse_config(TINY, from_path=False), cli.STAGE_ORDER, tmp_path)
        first = (tiny_run / "manifest.jsonl").read_bytes()
        assert (tmp_path / "manifest.jsonl").read_bytes() == first
        stages = [json.loads(line)["stage"] for line in first.decode().splitlines()]
        assert stages == list(cli.STAGE_ORDER)


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
                                   "--clouds", str(scene / "clouds"),
                                   "--out", str(tmp_path / "pt.jsonl")])
        self.assert_one_line_error(code, err, "dets.jsonl:1: missing key 'score'")

    def test_truncated_point_cloud(self, tiny_run, tmp_path, capsys):
        scene = tiny_run / "sim" / "train_00"
        clouds = tmp_path / "clouds"
        clouds.mkdir()
        write_point_cloud(clouds / "x.uapc", PointCloud(np.ones((3, 3))))
        (clouds / "x.uapc").write_bytes((clouds / "x.uapc").read_bytes()[:6])
        code, err = _main(capsys, ["pseudo-tracks",
                                   "--detections", str(scene / "corrupted.jsonl"),
                                   "--clouds", str(clouds), "--out", str(tmp_path / "pt.jsonl")])
        self.assert_one_line_error(code, err, "x.uapc")

    def test_truncated_checkpoint(self, tiny_run, tmp_path, capsys):
        raw = (tiny_run / "train" / "checkpoint.uann").read_bytes()
        (tmp_path / "n.uann").write_bytes(raw[:len(raw) // 2])
        scene = tiny_run / "sim" / "test_00"
        code, err = _main(capsys, ["sot-eval", "--detections", str(scene / "detections.jsonl"),
                                   "--clouds", str(scene / "clouds"),
                                   "--checkpoint", str(tmp_path / "n.uann")])
        self.assert_one_line_error(code, err, "n.uann")

    def test_fit_logistic_unpaired_inputs(self, tiny_run, tmp_path, capsys):
        scene = tiny_run / "sim" / "fit_00"
        code, err = _main(capsys, ["fit-logistic",
                                   "--detections", str(scene / "corrupted.jsonl"),
                                   str(scene / "detections.jsonl"),
                                   "--clouds", str(scene / "clouds"),
                                   "--out-model", str(tmp_path / "m.json")])
        self.assert_one_line_error(code, err, "--detections and --clouds must pair up")
        assert not (tmp_path / "m.json").exists()
