"""Command line: a subcommand per pipeline stage, and `pipeline`.

Each stage is a function of explicit paths (`run_*`; `_stage_simulate`)
that writes its artifacts and returns the (inputs, outputs) the manifest
records, or its results in place of outputs for the two evaluation stages
that print. A subcommand maps its flags to those paths, and `run_pipeline`
maps the --out-dir layout to them (`_stage_*`).

Settings come only from --config; --seed, where a subcommand has it,
overrides [global] seed. The pooled stages take their scenes as lists in
the pipeline's order, a scene's index being its place in the list. Every
stage that reads clouds holds one scene's at a time.
"""

import argparse
import hashlib
import json
import logging
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assoc, embed, evaluation, kalman, learn, mot, sim
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .core import (
    Sequence,
    TrackRow,
    read_detections,
    read_clouds,
    read_track_rows,
    write_detections,
    write_clouds,
    write_track_rows,
)

log = logging.getLogger("uatrack")

SPLITS = ("train", "fit", "test")


class PipelineError(RuntimeError):
    pass


def _make_dir(path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise PipelineError(f"{path}: not a directory") from None
    return path


def _load_config(path, seed: int | None = None) -> RunConfig:
    rc = RunConfig() if path is None else parse_config(path)
    return rc if seed is None else replace(rc, seed=seed)


def _write_json(path: Path, obj) -> Path:
    """Write obj to path as one line of JSON with sorted keys; returns path."""
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _confidence_text(report: evaluation.ConfidenceReport) -> str:
    """The one line that both confidence-report paths print; a side with no
    link reads "absent"."""
    mc, mi = ("absent" if v is None else f"{v:.4f}"
              for v in (report.mean_correct, report.mean_incorrect))
    return f"mean AC correct: {mc}; incorrect: {mi}; links: {report.n_links}"


def _read_scene(rc: RunConfig, det_path, clouds_path) -> Sequence:
    return read_detections(det_path, read_clouds(clouds_path), n_frames=rc.sim.frames)


def _read_boxes(rc: RunConfig, det_path) -> Sequence:
    return read_detections(det_path, clouds=None, n_frames=rc.sim.frames)


# ---------------------------------------------------------------------------
# pipeline stages


def _scene_seed(rc: RunConfig, split: str, index: int, salt: int = 0):
    return (rc.seed, SPLITS.index(split), index, salt)


def _split_counts(rc: RunConfig) -> dict[str, int]:
    return {"train": rc.sim.train_scenes, "fit": rc.sim.fit_scenes,
            "test": rc.sim.test_scenes}


def _scene_dir(out: Path, split: str, index: int) -> Path:
    return out / "sim" / f"{split}_{index:02d}"


def _stage_simulate(rc: RunConfig, out: Path):
    outputs = []
    noise = rc.sim.noise()
    for split, count in _split_counts(rc).items():
        scene = rc.sim.scene(split)
        for i in range(count):
            seq = sim.generate_sequence(scene, _scene_seed(rc, split, i))
            corrupted = sim.corrupt_detections(seq, noise, _scene_seed(rc, split, i, 100))
            d = _scene_dir(out, split, i)
            _make_dir(d)
            # clouds first: a run made before cloud packs has a directory
            # there, and write_clouds refuses it before any file is touched
            write_clouds(d / "clouds", corrupted.clouds)
            write_detections(d / "detections.jsonl", seq)
            write_detections(d / "corrupted.jsonl", corrupted)
            assoc.write_pseudo_tracks(d / "gt_tracks.jsonl", assoc.gt_tracks(corrupted))
            outputs += [d / "detections.jsonl", d / "corrupted.jsonl",
                        d / "gt_tracks.jsonl", d / "clouds"]
    return [], outputs


# ---------------------------------------------------------------------------
# stage functions


def run_pseudo_tracks(rc: RunConfig, detections, target):
    """Pseudo-tracks of one scene, from its boxes alone."""
    seq = _read_boxes(rc, detections)
    tracks = assoc.build_pseudo_tracks(seq, rc.assoc)
    assoc.write_pseudo_tracks(target, tracks)
    return [detections], [target]


def frame_crops(seq: Sequence) -> dict:
    """{frame index: its stack of crops} of seq's frames with detections."""
    recs = [rec for rec in seq.frames if rec.detections]
    return dict(zip((rec.index for rec in recs),
                    embed.canonicalize_frames(seq, (rec.detections for rec in recs),
                                              embed.POINTS_PER_CROP),
                    strict=True))


def run_train(rc: RunConfig, scenes, checkpoint, history):
    """Train on (detections, clouds, tracks) scenes. A scene's clouds are
    dropped once its crops are cut, so training holds one scene's at a time."""
    inputs, frames, tracks = [], [], []
    for det_path, clouds_path, track_path in scenes:
        seq = _read_scene(rc, det_path, clouds_path)
        tracks.append(assoc.read_pseudo_tracks(track_path, seq))
        frames.append(frame_crops(seq))
        del seq
        inputs += [det_path, clouds_path, track_path]
    net = embed.EmbedNet.random(seed=rc.seed).astype(embed.PASS_DTYPE)
    net, rows = learn.train(frames, tracks, net, rc.learn, seed=rc.seed)
    embed.save_checkpoint(checkpoint, net)
    learn.write_loss_history(history, rows)
    return inputs, [checkpoint, history]


def run_fit_logistic(rc: RunConfig, scenes, checkpoint, models):
    """Fit each fused mode's model ({mode: target}) on the pairs of the
    (detections, clouds) scenes. The motion tracker decides alike in every
    mode, so the scenes are harvested once, and motion+score fits the same
    pairs with the cosine at 0."""
    if not models:  # motion-only: nothing to fit, nothing read
        return [], []
    net = (embed.load_checkpoint(checkpoint).astype(embed.PASS_DTYPE)
           if mot.APPEARANCE in models else None)
    harvests = [mot.harvest_features(_read_scene(rc, det_path, clouds_path), rc.assoc, net=net)
                for det_path, clouds_path in scenes]
    x = np.concatenate([x for x, _ in harvests])
    y = np.concatenate([y for _, y in harvests])
    for mode, target in models.items():
        # a derived copy dies with its fit call, so one is held at a time
        mot.save_logistic(target, mot.fit_logistic(
            x if mode == mot.APPEARANCE else mot.without_appearance(x), y))
    inputs = [p for scene in scenes for p in scene] + ([checkpoint] if net is not None else [])
    return inputs, list(models.values())


def run_mot(rc: RunConfig, scenes, checkpoint, logistic):
    """Track each (detections, clouds, {mode: target}) scene in its modes;
    logistic maps each fused mode to its model file."""
    modes = {mode for *_, targets in scenes for mode in targets}
    net = (embed.load_checkpoint(checkpoint).astype(embed.PASS_DTYPE)
           if checkpoint is not None and mot.APPEARANCE in modes else None)
    models = {mode: mot.load_logistic(path) for mode, path in logistic.items()}
    inputs = list(logistic.values()) + ([checkpoint] if net is not None else [])
    outputs = []
    for det_path, clouds_path, targets in scenes:
        seq = _read_scene(rc, det_path, clouds_path)
        for mode, target in targets.items():
            rows = mot.track_sequence(seq, rc.assoc, mode, net=net, model=models.get(mode))
            write_track_rows(target, rows)
            outputs.append(target)
        del seq
        inputs += [det_path, clouds_path]
    return inputs, outputs


def run_sot_eval(rc: RunConfig, scenes, checkpoint, out_dir):
    """SOT accuracy of the (detections, clouds) scenes on the candidates
    [eval] sot_noise names; writes sot_<clean|noisy>.csv and
    sot_summary.json to out_dir. Only each scene's triples are kept."""
    net = embed.load_checkpoint(checkpoint).astype(embed.PASS_DTYPE)
    out_dir = _make_dir(out_dir)
    noise = rc.sim.noise()
    modes = {"off": ["clean"], "on": ["noisy"], "both": ["clean", "noisy"]}[rc.eval.sot_noise]
    per_task = {name: [] for name in modes}
    for i, (det_path, clouds_path) in enumerate(scenes):
        seq = _read_scene(rc, det_path, clouds_path)
        for name, triples in per_task.items():
            cand = (sim.perturb_boxes(seq, noise, _scene_seed(rc, "test", i, 200))
                    if name == "noisy" else None)
            triples += evaluation.sot_evaluate(net, seq, cand).per_task
        del seq, cand  # the copy shares seq's clouds; both go before the next read
    outputs, summary = [], {}
    for name, triples in per_task.items():
        result = evaluation.SotResult(tuple(triples))
        evaluation.write_sot_csv(out_dir / f"sot_{name}.csv", result)
        outputs.append(out_dir / f"sot_{name}.csv")
        summary[name] = {"accuracy": result.accuracy, "frames": result.total}
        log.info("sot-eval %s: accuracy %.4f over %d frames",
                 name, result.accuracy, result.total)
    outputs.append(_write_json(out_dir / "sot_summary.json", summary))
    return [checkpoint] + [p for scene in scenes for p in scene], outputs


def _gt_rows_from_detections(seq: Sequence) -> list[TrackRow]:
    rows = []
    for rec in seq.frames:
        for det in rec.detections:
            if det.gt_id is not None:
                rows.append(TrackRow(frame=det.frame, track_id=det.gt_id,
                                     box=det.box, score=1.0))
    return rows


def _pooled_rows(per_scene_rows, frame_stride: int):
    """One sequence of every scene's rows, scene i's frames from
    i * frame_stride. Each (scene, track id) becomes its rank among them,
    so they stay distinct and ordered whatever the ids."""
    pairs = sorted({(i, r.track_id) for i, rows in enumerate(per_scene_rows) for r in rows})
    rank = {pair: k for k, pair in enumerate(pairs)}
    return [TrackRow(frame=r.frame + i * frame_stride, track_id=rank[i, r.track_id],
                     box=r.box, score=r.score)
            for i, rows in enumerate(per_scene_rows) for r in rows]


def run_mot_eval(rc: RunConfig, gt_detections, pred_tracks):
    """(inputs, one MotScore per run) of each run's track files, one per
    scene, against the gt_ids of the detection files, scenes pooled."""
    stride = rc.sim.frames + 100
    gt_rows = _pooled_rows([_gt_rows_from_detections(_read_boxes(rc, p))
                            for p in gt_detections], stride)
    scores = [evaluation.amota(_pooled_rows([read_track_rows(p, n_frames=rc.sim.frames)
                                            for p in paths], stride),
                               gt_rows, L=rc.eval.recall_levels)
              for paths in pred_tracks]
    return [*gt_detections, *(p for paths in pred_tracks for p in paths)], scores


def run_confidence_report(rc: RunConfig, scenes):
    """(inputs, ConfidenceReport) of the (detections, tracks) scenes."""
    inputs, correct, incorrect = [], [], []
    for det_path, track_path in scenes:
        seq = _read_boxes(rc, det_path)
        c, w = evaluation.confidence_links(seq, assoc.read_pseudo_tracks(track_path, seq))
        correct += c
        incorrect += w
        inputs += [det_path, track_path]
    return inputs, evaluation.report_from_links(correct, incorrect)


# ---------------------------------------------------------------------------
# the --out-dir layout of the other stages


def _scenes(rc: RunConfig, out: Path, split: str, detections: str):
    """(detections file, cloud file) of each scene of a split."""
    dirs = [_scene_dir(out, split, i) for i in range(_split_counts(rc)[split])]
    return [(d / detections, d / "clouds") for d in dirs]


def _pseudo_path(out: Path, index: int) -> Path:
    return out / "pseudo" / f"train_{index:02d}.jsonl"


def _checkpoint_path(out: Path) -> Path:
    return out / "train" / "checkpoint.uann"


def _tracks_path(out: Path, index: int, mode: str) -> Path:
    return out / "mot" / f"test_{index:02d}.tracks.{mode}.jsonl"


def _mot_models(rc: RunConfig, out: Path) -> dict[str, Path]:
    return {m: out / "mot" / f"logistic_{m}.json" for m in rc.mot.modes if m != "motion"}


def _stage_pseudo_tracks(rc: RunConfig, out: Path):
    _make_dir(out / "pseudo")
    inputs, outputs = [], []
    for i, (det_path, _) in enumerate(_scenes(rc, out, "train", "corrupted.jsonl")):
        scene_inputs, scene_outputs = run_pseudo_tracks(rc, det_path, _pseudo_path(out, i))
        inputs += scene_inputs
        outputs += scene_outputs
    return inputs, outputs


def _stage_train(rc: RunConfig, out: Path):
    oracle = rc.learn.mode == "oracle"
    scenes = [(det_path, clouds_path,
               _scene_dir(out, "train", i) / "gt_tracks.jsonl" if oracle else _pseudo_path(out, i))
              for i, (det_path, clouds_path)
              in enumerate(_scenes(rc, out, "train", "corrupted.jsonl"))]
    _make_dir(out / "train")
    return run_train(rc, scenes, _checkpoint_path(out), out / "train" / "loss_history.csv")


def _stage_fit_logistic(rc: RunConfig, out: Path):
    _make_dir(out / "mot")
    return run_fit_logistic(rc, _scenes(rc, out, "fit", "corrupted.jsonl"),
                            _checkpoint_path(out), _mot_models(rc, out))


def _stage_mot_run(rc: RunConfig, out: Path):
    _make_dir(out / "mot")
    scenes = [(det_path, clouds_path, {m: _tracks_path(out, i, m) for m in rc.mot.modes})
              for i, (det_path, clouds_path)
              in enumerate(_scenes(rc, out, "test", "corrupted.jsonl"))]
    return run_mot(rc, scenes, _checkpoint_path(out), _mot_models(rc, out))


def _stage_sot_eval(rc: RunConfig, out: Path):
    return run_sot_eval(rc, _scenes(rc, out, "test", "detections.jsonl"),
                        _checkpoint_path(out), out / "eval")


def _stage_mot_eval(rc: RunConfig, out: Path):
    eval_dir = out / "eval"
    _make_dir(eval_dir)
    n = rc.sim.test_scenes
    inputs, scores = run_mot_eval(
        rc, [det_path for det_path, _ in _scenes(rc, out, "test", "detections.jsonl")],
        [[_tracks_path(out, i, mode) for i in range(n)] for mode in rc.mot.modes])
    outputs = []
    for mode, score in zip(rc.mot.modes, scores):
        outputs.append(_write_json(eval_dir / f"amota_{mode}.json", {
            "mode": mode,
            "amota": score.amota,
            "thresholds": [
                {"recall_target": t.recall_target, "mota": t.mota, "fp": t.fp,
                 "fn": t.fn, "ids": t.ids}
                for t in score.thresholds
            ],
        }))
        log.info("mot-eval %s: AMOTA %.4f", mode, score.amota)
    return inputs, outputs


def _stage_confidence_report(rc: RunConfig, out: Path):
    inputs, report = run_confidence_report(rc, [
        (det_path, _pseudo_path(out, i))
        for i, (det_path, _) in enumerate(_scenes(rc, out, "train", "corrupted.jsonl"))])
    eval_dir = out / "eval"
    _make_dir(eval_dir)
    evaluation.write_confidence_csv(eval_dir / "confidence.csv", report)
    summary = _write_json(eval_dir / "confidence_summary.json", {
        "mean_correct": report.mean_correct,
        "mean_incorrect": report.mean_incorrect,
        "n_links": report.n_links,
    })
    log.info("confidence-report: %s", _confidence_text(report))
    return inputs, [eval_dir / "confidence.csv", summary]


_STAGES = {
    "simulate": _stage_simulate,
    "pseudo-tracks": _stage_pseudo_tracks,
    "train": _stage_train,
    "fit-logistic": _stage_fit_logistic,
    "mot-run": _stage_mot_run,
    "sot-eval": _stage_sot_eval,
    "mot-eval": _stage_mot_eval,
    "confidence-report": _stage_confidence_report,
}
STAGE_ORDER = tuple(_STAGES)  # dependency order


def _hash_path(path: Path) -> str:
    """sha256 of an artifact; every artifact is one file."""
    if not path.is_file():
        raise PipelineError(f"missing artifact: {path}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(rc: RunConfig, stages, out_dir) -> list[dict]:
    """Run the stages in dependency order under out_dir.

    Each appends a manifest line {stage, order, config, inputs, outputs},
    with the sha256 of every artifact, so equal config and seed give equal
    manifests; its wall time and the resident high-water mark after it go
    to timings.jsonl. The first stage's lines replace both files, so a run
    whose first stage fails leaves the run before's record as it was.
    """
    out = _make_dir(out_dir)
    unknown = [s for s in stages if s not in _STAGES]
    if unknown:
        raise PipelineError(f"unknown stages: {unknown}")
    ordered = [s for s in STAGE_ORDER if s in set(stages)]

    config_hash = hashlib.sha256(serialize_config(rc).encode()).hexdigest()
    manifest_path = out / "manifest.jsonl"
    timing_path = out / "timings.jsonl"
    lines = []
    for order, stage in enumerate(ordered):
        t0 = time.perf_counter()
        try:
            inputs, outputs = _STAGES[stage](rc, out)
        except FileNotFoundError as exc:
            raise PipelineError(
                f"stage {stage!r} is missing input artifact {exc.filename!r}; "
                f"run its upstream stages first"
            ) from exc
        elapsed = time.perf_counter() - t0
        line = {
            "stage": stage,
            "order": order,
            "config": config_hash,
            "inputs": {str(p.relative_to(out)) if p.is_relative_to(out) else str(p):
                       _hash_path(Path(p)) for p in sorted(set(map(Path, inputs)))},
            "outputs": {str(p.relative_to(out)) if p.is_relative_to(out) else str(p):
                        _hash_path(Path(p)) for p in sorted(set(map(Path, outputs)))},
        }
        mode = "a" if lines else "w"
        with manifest_path.open(mode, encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
        with timing_path.open(mode, encoding="utf-8") as fh:
            # Linux gives ru_maxrss in KB
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            fh.write(json.dumps({"stage": stage, "wall_time_s": elapsed,
                                 "peak_rss_mb": peak_mb}) + "\n")
        log.info("stage %s done in %.2fs", stage, elapsed)
        lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# subcommands: flags to the stage functions' paths


def _paired(args, *flags):
    """The per-scene values of these list flags, zipped; they must pair up."""
    lists = [getattr(args, flag.replace("-", "_")) for flag in flags]
    if len({len(values) for values in lists}) > 1:
        names = [f"--{flag}" for flag in flags]
        raise ValueError(f"{', '.join(names[:-1])} and {names[-1]} must pair up")
    return list(zip(*lists))


def _cmd_simulate(args) -> int:
    rc = _load_config(args.config, args.seed)
    out = _make_dir(args.out_dir)
    _stage_simulate(rc, out)
    print(f"simulated {sum(_split_counts(rc).values())} scenes under {out / 'sim'}")
    return 0


def _cmd_pseudo_tracks(args) -> int:
    run_pseudo_tracks(_load_config(args.config), args.detections, args.out)
    print(f"wrote pseudo-tracks to {args.out}")
    return 0


def _cmd_train(args) -> int:
    history = args.out_history or f"{args.out_checkpoint}.history.csv"
    run_train(_load_config(args.config, args.seed),
              _paired(args, "detections", "clouds", "pseudo-tracks"),
              args.out_checkpoint, history)
    print(f"checkpoint at {args.out_checkpoint}; loss history at {history}")
    return 0


def _cmd_fit_logistic(args) -> int:
    mode = mot.APPEARANCE if args.checkpoint else "motion+score"
    run_fit_logistic(_load_config(args.config), _paired(args, "detections", "clouds"),
                     args.checkpoint, {mode: args.out_model})
    print(f"fit the {mode} model; model at {args.out_model}")
    return 0


def _cmd_mot_run(args) -> int:
    logistic = {args.mode: args.logistic_model} if args.logistic_model else {}
    run_mot(_load_config(args.config),
            [(args.detections, args.clouds, {args.mode: args.out_tracks})],
            args.checkpoint, logistic)
    print(f"wrote {args.mode} tracks to {args.out_tracks}")
    return 0


def _cmd_sot_eval(args) -> int:
    _, outputs = run_sot_eval(_load_config(args.config, args.seed),
                              _paired(args, "detections", "clouds"),
                              args.checkpoint, args.out_dir)
    print(f"wrote {', '.join(p.name for p in outputs)} to {args.out_dir}")
    return 0


def _cmd_mot_eval(args) -> int:
    scenes = _paired(args, "pred-tracks", "gt-detections")
    _, (score,) = run_mot_eval(_load_config(args.config), [gt for _, gt in scenes],
                               [[pred for pred, _ in scenes]])
    print(f"AMOTA: {score.amota:.4f}")
    print("recall_target score_cut recall   mota   fp   fn  ids")
    for t in score.thresholds:
        print(f"{t.recall_target:13.3f} {t.score_cut:9.4f} {t.recall:6.3f} "
              f"{t.mota:6.3f} {t.fp:4d} {t.fn:4d} {t.ids:4d}")
    return 0


def _cmd_confidence_report(args) -> int:
    _, report = run_confidence_report(
        _load_config(args.config), _paired(args, "gt-detections", "pseudo-tracks"))
    if args.out_csv:
        evaluation.write_confidence_csv(args.out_csv, report)
    print(_confidence_text(report))
    return 0


def _cmd_pipeline(args) -> int:
    rc = _load_config(args.config, args.seed)
    stages = args.stages or list(STAGE_ORDER)
    run_pipeline(rc, stages, args.out_dir)
    print(f"pipeline complete; manifest at {Path(args.out_dir) / 'manifest.jsonl'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uatrack",
        description="Uncertainty-aware self-supervised 3D data association toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic scenes")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pseudo-tracks", help="build self-supervised pseudo-tracks")
    p.add_argument("--detections", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pseudo_tracks)

    p = sub.add_parser("train", help="train the embedding on pseudo-tracks")
    p.add_argument("--detections", nargs="+", required=True)
    p.add_argument("--pseudo-tracks", nargs="+", required=True)
    p.add_argument("--clouds", nargs="+", required=True,
                   help="the scene's cloud file, one per --detections")
    p.add_argument("--config", default=None)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-history", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fit-logistic", help="fit the association score fusion model")
    p.add_argument("--detections", nargs="+", required=True)
    p.add_argument("--clouds", nargs="+", required=True,
                   help="the scene's cloud file, one per --detections")
    p.add_argument("--checkpoint", default=None,
                   help="fit the appearance mode's model; without it, motion+score's")
    p.add_argument("--config", default=None)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=_cmd_fit_logistic)

    p = sub.add_parser("mot-run", help="run the multi-object tracker")
    p.add_argument("--detections", required=True)
    p.add_argument("--clouds", required=True, help="the scene's cloud file")
    p.add_argument("--mode", choices=mot.MODES, default="motion")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--logistic-model", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out-tracks", required=True)
    p.set_defaults(func=_cmd_mot_run)

    p = sub.add_parser("sot-eval", help="single-object association accuracy")
    p.add_argument("--detections", nargs="+", required=True)
    p.add_argument("--clouds", nargs="+", required=True,
                   help="the scene's cloud file, one per --detections")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sot_eval)

    p = sub.add_parser("mot-eval", help="AMOTA against the gt_ids of detection files")
    p.add_argument("--pred-tracks", nargs="+", required=True)
    p.add_argument("--gt-detections", nargs="+", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_mot_eval)

    p = sub.add_parser("confidence-report", help="AC validity vs ground truth")
    p.add_argument("--pseudo-tracks", nargs="+", required=True)
    p.add_argument("--gt-detections", nargs="+", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_confidence_report)

    p = sub.add_parser("pipeline", help="run staged end-to-end pipeline")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stages", nargs="*", default=None, choices=STAGE_ORDER)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError, ValueError,
            learn.TrainingDataExhausted, kalman.NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
