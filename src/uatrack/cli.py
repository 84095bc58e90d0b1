"""Unified command line: simulate, pseudo-tracks, train, fit-logistic,
mot-run, sot-eval, mot-eval, confidence-report, and the staged pipeline.

The pipeline executes stages in dependency order, writes every artifact
under --out-dir, and appends one manifest line per stage (stage name,
execution order, input/output hashes). Wall-clock timings go to a separate
timings.jsonl so the manifest itself is deterministic.
"""

import argparse
import hashlib
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import assoc, embed, evaluation, learn, mot, sim
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .core import (
    FrameRecord,
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

STAGE_ORDER = (
    "simulate",
    "pseudo-tracks",
    "train",
    "fit-logistic",
    "mot-run",
    "sot-eval",
    "mot-eval",
    "confidence-report",
)

SPLITS = ("train", "fit", "test")


class PipelineError(RuntimeError):
    pass


def _load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config(path)


def _load_sequence(det_path, clouds_dir, frame_period: float,
                   n_frames: int | None = None) -> Sequence:
    clouds = read_clouds(clouds_dir)
    return read_detections(det_path, clouds, frame_period=frame_period, n_frames=n_frames)


# ---------------------------------------------------------------------------
# pipeline stages


def _scene_seed(rc: RunConfig, split: str, index: int, salt: int = 0):
    return (rc.seed, SPLITS.index(split), index, salt)


def _scene_config(rc: RunConfig, split: str) -> sim.SceneConfig:
    s = rc.sim
    if split == "test":
        return sim.SceneConfig(
            n_objects=s.test_objects, n_frames=s.frames, frame_period=s.frame_period,
            bounds=s.bounds, crossings=min(s.crossings, s.test_objects // 2),
            distinct_templates=True,
        )
    return sim.SceneConfig(
        n_objects=s.objects, n_frames=s.frames, frame_period=s.frame_period,
        bounds=s.bounds, crossings=min(s.crossings, s.objects // 2),
    )


def _noise_model(rc: RunConfig, corruption: bool) -> sim.NoiseModel:
    s = rc.sim
    return sim.NoiseModel(
        center_pct=s.center_pct, size_pct=s.size_pct, yaw_deg=s.yaw_deg,
        dropout_rate=s.dropout_rate if corruption else 0.0,
        spurious_rate=s.spurious_rate if corruption else 0.0,
        missed_rate=s.missed_rate if corruption else 0.0,
    )


def _split_counts(rc: RunConfig) -> dict[str, int]:
    return {"train": rc.sim.train_scenes, "fit": rc.sim.fit_scenes,
            "test": rc.sim.test_scenes}


def _scene_dir(out: Path, split: str, index: int) -> Path:
    return out / "sim" / f"{split}_{index:02d}"


def _write_gt_tracks(path, seq: Sequence, labels) -> None:
    conf = {lab.track_id: [1.0] * (len(lab.members) - 1) for lab in labels}
    extra = {lab.track_id: {"gt_purity": 1.0, "gt_id": lab.track_id} for lab in labels}
    assoc.write_pseudo_tracks(path, labels, conf, extra=extra)


def _stage_simulate(rc: RunConfig, out: Path):
    outputs = []
    for split, count in _split_counts(rc).items():
        scene = _scene_config(rc, split)
        for i in range(count):
            seq, labels = sim.generate_sequence(scene, _scene_seed(rc, split, i))
            corrupted = sim.corrupt_detections(
                seq, _noise_model(rc, corruption=True), _scene_seed(rc, split, i, 100))
            d = _scene_dir(out, split, i)
            d.mkdir(parents=True, exist_ok=True)
            write_detections(d / "detections.jsonl", seq)
            write_detections(d / "corrupted.jsonl", corrupted)
            write_clouds(d / "clouds", corrupted.clouds)
            _write_gt_tracks(d / "gt_tracks.jsonl", seq, labels)
            outputs += [d / "detections.jsonl", d / "corrupted.jsonl",
                        d / "gt_tracks.jsonl", d / "clouds"]
    return [], outputs


def _train_inputs(rc: RunConfig, out: Path, index: int):
    """(detections path, clouds dir) for one training scene per learn.mode."""
    d = _scene_dir(out, "train", index)
    det = d / ("corrupted.jsonl" if rc.learn.mode == "selfsup" else "detections.jsonl")
    return det, d / "clouds"


def _stage_pseudo_tracks(rc: RunConfig, out: Path):
    inputs, outputs = [], []
    pseudo_dir = out / "pseudo"
    pseudo_dir.mkdir(parents=True, exist_ok=True)
    for i in range(rc.sim.train_scenes):
        det_path, clouds_dir = _train_inputs(rc, out, i)
        seq = _load_sequence(det_path, clouds_dir, rc.sim.frame_period, rc.sim.frames)
        labels, conf = assoc.build_pseudo_tracks(seq, rc.kalman, rc.assoc)
        target = pseudo_dir / f"train_{i:02d}.jsonl"
        assoc.write_pseudo_tracks(target, labels, conf)
        inputs += [det_path, clouds_dir]
        outputs.append(target)
    return inputs, outputs


def _stage_train(rc: RunConfig, out: Path):
    inputs, outputs = [], []
    seqs, tracks = [], []
    for i in range(rc.sim.train_scenes):
        det_path, clouds_dir = _train_inputs(rc, out, i)
        seq = _load_sequence(det_path, clouds_dir, rc.sim.frame_period, rc.sim.frames)
        if rc.learn.mode == "oracle":
            track_path = _scene_dir(out, "train", i) / "gt_tracks.jsonl"
        else:
            track_path = out / "pseudo" / f"train_{i:02d}.jsonl"
        labels, conf = assoc.read_pseudo_tracks(track_path)
        seqs.append(seq)
        tracks.append((labels, conf))
        inputs += [det_path, clouds_dir, track_path]
    net = embed.EmbedNet.random(rc.embed.widths, seed=rc.seed)
    cfg = rc.learn.trainer(seed=rc.seed, points_per_crop=rc.embed.points_per_crop)
    net, history = learn.train(seqs, tracks, net, cfg)
    train_dir = out / "train"
    train_dir.mkdir(parents=True, exist_ok=True)
    embed.save_checkpoint(train_dir / "checkpoint.uann", net)
    learn.write_loss_history(train_dir / "loss_history.csv", history)
    outputs += [train_dir / "checkpoint.uann", train_dir / "loss_history.csv"]
    return inputs, outputs


def _mot_models(rc: RunConfig) -> list[str]:
    return [m for m in rc.mot.modes if m != "motion"]


def _stage_fit_logistic(rc: RunConfig, out: Path):
    inputs, outputs = [], []
    ckpt = out / "train" / "checkpoint.uann"
    mot_dir = out / "mot"
    mot_dir.mkdir(parents=True, exist_ok=True)
    for mode in _mot_models(rc):
        use_net = mode == "motion+score+appearance"
        net = embed.load_checkpoint(ckpt) if use_net else None
        examples = []
        for i in range(rc.sim.fit_scenes):
            d = _scene_dir(out, "fit", i)
            seq = _load_sequence(d / "corrupted.jsonl", d / "clouds",
                                 rc.sim.frame_period, rc.sim.frames)
            examples += mot.harvest_features(
                seq, rc.kalman, rc.assoc, net=net,
                points_per_crop=rc.embed.points_per_crop,
            )
            inputs += [d / "corrupted.jsonl", d / "clouds"]
        if use_net:
            inputs.append(ckpt)
        model = mot.fit_logistic(examples)
        target = mot_dir / f"logistic_{mode}.json"
        mot.save_logistic(target, model)
        outputs.append(target)
    return inputs, outputs


def _stage_mot_run(rc: RunConfig, out: Path):
    inputs, outputs = [], []
    ckpt = out / "train" / "checkpoint.uann"
    for mode in rc.mot.modes:
        use_net = mode == "motion+score+appearance"
        net = embed.load_checkpoint(ckpt) if use_net else None
        model = None
        if mode != "motion":
            model_path = out / "mot" / f"logistic_{mode}.json"
            model = mot.load_logistic(model_path)
            inputs.append(model_path)
        if use_net:
            inputs.append(ckpt)
        mcfg = mot.MotConfig(
            mode=mode, score_gate=rc.mot.score_gate, assoc=rc.assoc,
            points_per_crop=rc.embed.points_per_crop,
        )
        for i in range(rc.sim.test_scenes):
            d = _scene_dir(out, "test", i)
            seq = _load_sequence(d / "corrupted.jsonl", d / "clouds",
                                 rc.sim.frame_period, rc.sim.frames)
            rows = mot.track_sequence(seq, rc.kalman, mcfg, net=net, model=model)
            target = out / "mot" / f"test_{i:02d}.tracks.{mode}.jsonl"
            target.parent.mkdir(parents=True, exist_ok=True)
            write_track_rows(target, rows)
            inputs += [d / "corrupted.jsonl", d / "clouds"]
            outputs.append(target)
    return inputs, outputs


def _sot_accuracy(rc: RunConfig, out: Path, net, noisy: bool):
    tasks = []
    for i in range(rc.sim.test_scenes):
        d = _scene_dir(out, "test", i)
        seq = _load_sequence(d / "detections.jsonl", d / "clouds",
                             rc.sim.frame_period, rc.sim.frames)
        cand = None
        if noisy:
            cand = sim.perturb_boxes(seq, _noise_model(rc, corruption=False),
                                     _scene_seed(rc, "test", i, 200))
        tasks += evaluation.build_sot_tasks(seq, candidate_seq=cand)
    return evaluation.sot_evaluate(net, tasks, rc.embed.points_per_crop)


def _stage_sot_eval(rc: RunConfig, out: Path):
    inputs, outputs = [], []
    ckpt = out / "train" / "checkpoint.uann"
    net = embed.load_checkpoint(ckpt)
    inputs.append(ckpt)
    for i in range(rc.sim.test_scenes):
        d = _scene_dir(out, "test", i)
        inputs += [d / "detections.jsonl", d / "clouds"]
    eval_dir = out / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    modes = {"off": [False], "on": [True], "both": [False, True]}[rc.eval.sot_noise]
    for noisy in modes:
        result = _sot_accuracy(rc, out, net, noisy)
        name = "noisy" if noisy else "clean"
        evaluation.write_sot_csv(eval_dir / f"sot_{name}.csv", result)
        outputs.append(eval_dir / f"sot_{name}.csv")
        summary[name] = {"accuracy": result.accuracy, "frames": result.total}
        log.info("sot-eval %s: accuracy %.4f over %d frames",
                 name, result.accuracy, result.total)
    (eval_dir / "sot_summary.json").write_text(
        json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8")
    outputs.append(eval_dir / "sot_summary.json")
    return inputs, outputs


def _gt_rows_from_detections(seq: Sequence) -> list[TrackRow]:
    rows = []
    for rec in seq.frames:
        for det in rec.detections:
            if det.gt_id is not None:
                rows.append(TrackRow(frame=det.frame, track_id=det.gt_id,
                                     box=det.box, score=1.0))
    return rows


def _pooled_rows(per_scene_rows, frame_stride: int):
    pooled = []
    for i, rows in enumerate(per_scene_rows):
        for r in rows:
            pooled.append(TrackRow(
                frame=r.frame + i * frame_stride,
                track_id=r.track_id + i * 1_000_000,
                box=r.box, score=r.score,
            ))
    return pooled


def _stage_mot_eval(rc: RunConfig, out: Path):
    inputs, outputs = [], []
    eval_dir = out / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    stride = rc.sim.frames + 100
    gt_per_scene = []
    for i in range(rc.sim.test_scenes):
        d = _scene_dir(out, "test", i)
        seq = _load_sequence(d / "detections.jsonl", d / "clouds",
                             rc.sim.frame_period, rc.sim.frames)
        gt_per_scene.append(_gt_rows_from_detections(seq))
        inputs += [d / "detections.jsonl", d / "clouds"]
    gt_rows = _pooled_rows(gt_per_scene, stride)
    for mode in rc.mot.modes:
        pred_per_scene = []
        for i in range(rc.sim.test_scenes):
            p = out / "mot" / f"test_{i:02d}.tracks.{mode}.jsonl"
            pred_per_scene.append(read_track_rows(p))
            inputs.append(p)
        pred_rows = _pooled_rows(pred_per_scene, stride)
        score = evaluation.amota(pred_rows, gt_rows,
                                 match_dist=rc.eval.match_dist, L=rc.eval.recall_levels)
        target = eval_dir / f"amota_{mode}.json"
        target.write_text(json.dumps({
            "mode": mode,
            "amota": score.amota,
            "thresholds": [
                {"recall_target": t.recall_target, "mota": t.mota, "fp": t.fp,
                 "fn": t.fn, "ids": t.ids}
                for t in score.thresholds
            ],
        }, sort_keys=True) + "\n", encoding="utf-8")
        outputs.append(target)
        log.info("mot-eval %s: AMOTA %.4f", mode, score.amota)
    return inputs, outputs


def _stage_confidence_report(rc: RunConfig, out: Path):
    inputs, outputs = [], []
    correct_vals: list[float] = []
    incorrect_vals: list[float] = []
    for i in range(rc.sim.train_scenes):
        det_path, clouds_dir = _train_inputs(rc, out, i)
        seq = _load_sequence(det_path, clouds_dir, rc.sim.frame_period, rc.sim.frames)
        track_path = out / "pseudo" / f"train_{i:02d}.jsonl"
        labels, conf = assoc.read_pseudo_tracks(track_path)
        c, w = evaluation.confidence_links(seq, labels, conf)
        correct_vals += c
        incorrect_vals += w
        inputs += [det_path, clouds_dir, track_path]
    report = evaluation.report_from_links(correct_vals, incorrect_vals)
    eval_dir = out / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    evaluation.write_confidence_csv(eval_dir / "confidence.csv", report)
    (eval_dir / "confidence_summary.json").write_text(json.dumps({
        "mean_correct": report.mean_correct,
        "mean_incorrect": report.mean_incorrect,
        "n_links": report.n_links,
    }, sort_keys=True) + "\n", encoding="utf-8")
    outputs += [eval_dir / "confidence.csv", eval_dir / "confidence_summary.json"]
    log.info("confidence-report: correct %.4f vs incorrect %s over %d links",
             report.mean_correct if report.mean_correct is not None else float("nan"),
             f"{report.mean_incorrect:.4f}" if report.mean_incorrect is not None else "absent",
             report.n_links)
    return inputs, outputs


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


def _hash_path(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for p in sorted(path.rglob("*")):
            if p.is_file():
                h.update(p.name.encode())
                h.update(hashlib.sha256(p.read_bytes()).digest())
    elif path.is_file():
        h.update(path.read_bytes())
    else:
        raise PipelineError(f"missing artifact: {path}")
    return h.hexdigest()


def run_pipeline(rc: RunConfig, stages, out_dir) -> list[dict]:
    """Execute the requested stages in dependency order.

    Each stage appends a manifest line {stage, order, inputs, outputs} with
    sha256 hashes of every artifact; reruns with identical config and seed
    produce bit-identical manifests. Timings are logged separately.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    unknown = [s for s in stages if s not in _STAGES]
    if unknown:
        raise PipelineError(f"unknown stages: {unknown}")
    ordered = [s for s in STAGE_ORDER if s in set(stages)]

    config_hash = hashlib.sha256(serialize_config(rc).encode()).hexdigest()
    manifest_path = out / "manifest.jsonl"
    timing_path = out / "timings.jsonl"
    lines = []
    with manifest_path.open("w", encoding="utf-8") as mfh, \
            timing_path.open("w", encoding="utf-8") as tfh:
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
            mfh.write(json.dumps(line, sort_keys=True) + "\n")
            tfh.write(json.dumps({"stage": stage, "wall_time_s": elapsed}) + "\n")
            log.info("stage %s done in %.2fs", stage, elapsed)
            lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    rc = _load_config(args.scene_config or args.config)
    if args.seed is not None:
        rc = replace(rc, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _stage_simulate(rc, out)
    print(f"simulated {sum(_split_counts(rc).values())} scenes under {out / 'sim'}")
    return 0


def _cmd_pseudo_tracks(args) -> int:
    rc = _load_config(args.config)
    seq = _load_sequence(args.detections, args.clouds, rc.sim.frame_period)
    labels, conf = assoc.build_pseudo_tracks(seq, rc.kalman, rc.assoc)
    assoc.write_pseudo_tracks(args.out, labels, conf)
    print(f"wrote {len(labels)} pseudo-tracks to {args.out}")
    return 0


def _cmd_train(args) -> int:
    rc = _load_config(args.config)
    if len(args.detections) != len(args.pseudo_tracks) or len(args.detections) != len(args.clouds):
        raise ValueError("--detections, --pseudo-tracks and --clouds must pair up")
    seqs, tracks = [], []
    for det, trk, cl in zip(args.detections, args.pseudo_tracks, args.clouds):
        seqs.append(_load_sequence(det, cl, rc.sim.frame_period))
        labels, conf = assoc.read_pseudo_tracks(trk)
        if args.mode == "oracle":
            conf = {tid: [1.0] * len(v) for tid, v in conf.items()}
        tracks.append((labels, conf))
    seed = args.seed if args.seed is not None else rc.seed
    net = embed.EmbedNet.random(rc.embed.widths, seed=seed)
    cfg = rc.learn.trainer(seed=seed, points_per_crop=rc.embed.points_per_crop)
    net, history = learn.train(seqs, tracks, net, cfg)
    embed.save_checkpoint(args.out_checkpoint, net)
    history_path = args.out_history or (str(args.out_checkpoint) + ".history.csv")
    learn.write_loss_history(history_path, history)
    print(f"trained {len(history)} steps; checkpoint at {args.out_checkpoint}")
    return 0


def _assign_gt_from_tracks(seq: Sequence, labels) -> Sequence:
    by_member = {}
    for lab in labels:
        for f, d in lab.members:
            by_member[(f, d)] = lab.track_id
    frames = []
    for rec in seq.frames:
        dets = []
        for j, det in enumerate(rec.detections):
            gt = by_member.get((rec.index, j))
            dets.append(replace(det, gt_id=gt) if det.gt_id is None else det)
        frames.append(FrameRecord(index=rec.index, detections=tuple(dets)))
    return Sequence(frames=tuple(frames), clouds=seq.clouds, frame_period=seq.frame_period)


def _cmd_fit_logistic(args) -> int:
    rc = _load_config(args.config)
    net = embed.load_checkpoint(args.checkpoint) if args.checkpoint else None
    if len(args.detections) != len(args.clouds):
        raise ValueError("--detections and --clouds must pair up")
    examples = []
    for det, cl in zip(args.detections, args.clouds):
        seq = _load_sequence(det, cl, rc.sim.frame_period)
        if args.gt_tracks:
            labels, _ = assoc.read_pseudo_tracks(args.gt_tracks)
            seq = _assign_gt_from_tracks(seq, labels)
        examples += mot.harvest_features(seq, rc.kalman, rc.assoc, net=net,
                                         points_per_crop=rc.embed.points_per_crop)
    model = mot.fit_logistic(examples)
    mot.save_logistic(args.out_model, model)
    print(f"fit logistic on {len(examples)} pairs; model at {args.out_model}")
    return 0


def _cmd_mot_run(args) -> int:
    rc = _load_config(args.config)
    net = embed.load_checkpoint(args.checkpoint) if args.checkpoint else None
    model = mot.load_logistic(args.logistic_model) if args.logistic_model else None
    mcfg = mot.MotConfig(mode=args.mode, score_gate=rc.mot.score_gate,
                         assoc=rc.assoc, points_per_crop=rc.embed.points_per_crop)
    seq = _load_sequence(args.detections, args.clouds, rc.sim.frame_period)
    rows = mot.track_sequence(seq, rc.kalman, mcfg, net=net, model=model)
    write_track_rows(args.out_tracks, rows)
    print(f"wrote {len(rows)} track rows to {args.out_tracks}")
    return 0


def _cmd_sot_eval(args) -> int:
    rc = _load_config(args.config)
    net = embed.load_checkpoint(args.checkpoint)
    seq = _load_sequence(args.detections, args.clouds, rc.sim.frame_period)
    cand = None
    if args.noise == "on":
        cand = sim.perturb_boxes(seq, _noise_model(rc, corruption=False),
                                 (args.seed, 200))
    tasks = evaluation.build_sot_tasks(seq, candidate_seq=cand)
    result = evaluation.sot_evaluate(net, tasks, rc.embed.points_per_crop)
    if args.out_csv:
        evaluation.write_sot_csv(args.out_csv, result)
    print(f"sot accuracy: {result.accuracy:.4f} ({result.correct}/{result.total} frames)")
    return 0


def _load_gt_rows(gt_path, detections_path, frame_period) -> list[TrackRow]:
    """Ground-truth rows from either the track-output schema or the
    pseudo-track schema (the latter resolves boxes via --detections)."""
    with open(gt_path, "r", encoding="utf-8") as fh:
        first = ""
        for line in fh:
            if line.strip():
                first = line
                break
    if not first:
        return []
    obj = json.loads(first)
    if "members" in obj:
        if detections_path is None:
            raise ValueError("pseudo-schema gt tracks need --detections to resolve boxes")
        seq = read_detections(detections_path, clouds=None, frame_period=frame_period)
        labels, _ = assoc.read_pseudo_tracks(gt_path)
        rec_by_index = {rec.index: rec for rec in seq.frames}
        rows = []
        for lab in labels:
            for f, d in lab.members:
                det = rec_by_index[f].detections[d]
                rows.append(TrackRow(frame=f, track_id=lab.track_id, box=det.box, score=1.0))
        return rows
    return read_track_rows(gt_path)


def _cmd_mot_eval(args) -> int:
    rc = _load_config(args.config)
    pred = read_track_rows(args.pred_tracks)
    gt = _load_gt_rows(args.gt_tracks, args.detections, rc.sim.frame_period)
    score = evaluation.amota(pred, gt, match_dist=args.match_dist, L=args.L)
    print(f"AMOTA: {score.amota:.4f}")
    print("recall_target score_cut recall   mota   fp   fn  ids")
    for t in score.thresholds:
        print(f"{t.recall_target:13.3f} {t.score_cut:9.4f} {t.recall:6.3f} "
              f"{t.mota:6.3f} {t.fp:4d} {t.fn:4d} {t.ids:4d}")
    return 0


def _cmd_confidence_report(args) -> int:
    rc = _load_config(args.config)
    seq = _load_sequence(args.gt_detections, args.clouds, rc.sim.frame_period)
    labels, conf = assoc.read_pseudo_tracks(args.pseudo_tracks)
    report = evaluation.confidence_report(seq, labels, conf)
    if args.out_csv:
        evaluation.write_confidence_csv(args.out_csv, report)
    mc = "n/a" if report.mean_correct is None else f"{report.mean_correct:.4f}"
    mi = "absent" if report.mean_incorrect is None else f"{report.mean_incorrect:.4f}"
    print(f"mean AC correct: {mc}; incorrect: {mi}; links: {report.n_links}")
    return 0


def _cmd_pipeline(args) -> int:
    rc = _load_config(args.config)
    if args.seed is not None:
        rc = replace(rc, seed=args.seed)
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
    p.add_argument("--scene-config", default=None, help="config file with a [sim] section")
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pseudo-tracks", help="build self-supervised pseudo-tracks")
    p.add_argument("--detections", required=True)
    p.add_argument("--clouds", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pseudo_tracks)

    p = sub.add_parser("train", help="train the embedding on pseudo-tracks")
    p.add_argument("--detections", nargs="+", required=True)
    p.add_argument("--pseudo-tracks", nargs="+", required=True)
    p.add_argument("--clouds", nargs="+", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-history", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=("selfsup", "weak", "oracle"), default="selfsup")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fit-logistic", help="fit the association score fusion model")
    p.add_argument("--detections", nargs="+", required=True)
    p.add_argument("--clouds", nargs="+", required=True)
    p.add_argument("--gt-tracks", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=_cmd_fit_logistic)

    p = sub.add_parser("mot-run", help="run the multi-object tracker")
    p.add_argument("--detections", required=True)
    p.add_argument("--clouds", required=True)
    p.add_argument("--mode", choices=mot.MODES, default="motion")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--logistic-model", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out-tracks", required=True)
    p.set_defaults(func=_cmd_mot_run)

    p = sub.add_parser("sot-eval", help="single-object association accuracy")
    p.add_argument("--detections", required=True)
    p.add_argument("--clouds", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--noise", choices=("on", "off"), default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_sot_eval)

    p = sub.add_parser("mot-eval", help="AMOTA against ground-truth tracks")
    p.add_argument("--pred-tracks", required=True)
    p.add_argument("--gt-tracks", required=True)
    p.add_argument("--detections", default=None,
                   help="resolves boxes when --gt-tracks is in pseudo-track schema")
    p.add_argument("--L", type=int, default=40)
    p.add_argument("--match-dist", type=float, default=2.0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_mot_eval)

    p = sub.add_parser("confidence-report", help="AC validity vs ground truth")
    p.add_argument("--pseudo-tracks", required=True)
    p.add_argument("--gt-detections", required=True)
    p.add_argument("--clouds", required=True)
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
    except (ConfigError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
