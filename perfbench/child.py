"""One workload in one single-threaded process; started by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR

Every stage runs in its own ``cli.run_pipeline`` call. Set-up runs
``setup_repeats`` times into a fresh output directory, then the timed
stages run ``repeats`` times; both counts are fixed per workload, and the
timed repeats must fit in --seconds or the run fails. Meanwhile
``hostspeed.Probe`` samples the host's speed, and run.py reports, for
set-up and for the timed region, the fastest repeat taken at the reference
host speed. Every repeat must give the same manifest line per stage. Stages
that the quality metrics need and the workload has not run follow untimed.

With --trace 1, set-up runs once traced, the timed region once untraced
and once traced; the per-layer metrics cover the two traced parts, and
trace.overhead_ratio compares the two timed runs.

The full result goes to DIR/result.json, spans to DIR/spans.csv; the
process log goes to stderr, which run.py sends to DIR/child.log.
"""

import argparse
import json
import logging
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Probe
from tracing import Tracer, layer_metrics
from workloads import AMOTA_MODES, WORKLOADS

# uatrack, and with it numpy, is imported inside the functions below so that
# main() can pin the BLAS thread pools before numpy is first imported.

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

log = logging.getLogger("perfbench")


class StageFailure(RuntimeError):
    pass


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    return {
        **{v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# output checks


def expected_outputs(rc, stage: str) -> list[str]:
    """Artifacts the manifest must list for a stage, relative to the run dir."""
    from uatrack.cli import SPLITS

    counts = {"train": rc.sim.train_scenes, "fit": rc.sim.fit_scenes, "test": rc.sim.test_scenes}
    test = range(rc.sim.test_scenes)
    if stage == "simulate":
        return [f"sim/{split}_{i:02d}/{f}" for split in SPLITS for i in range(counts[split])
                for f in ("detections.jsonl", "corrupted.jsonl", "gt_tracks.jsonl", "clouds")]
    if stage == "pseudo-tracks":
        return [f"pseudo/train_{i:02d}.jsonl" for i in range(rc.sim.train_scenes)]
    if stage == "train":
        return ["train/checkpoint.uann", "train/loss_history.csv"]
    if stage == "fit-logistic":
        return [f"mot/logistic_{m}.json" for m in rc.mot.modes if m != "motion"]
    if stage == "mot-run":
        return [f"mot/test_{i:02d}.tracks.{m}.jsonl" for m in rc.mot.modes for i in test]
    if stage == "sot-eval":
        names = {"off": ["clean"], "on": ["noisy"], "both": ["clean", "noisy"]}[rc.eval.sot_noise]
        return [f"eval/sot_{n}.csv" for n in names] + ["eval/sot_summary.json"]
    if stage == "mot-eval":
        return [f"eval/amota_{m}.json" for m in rc.mot.modes]
    if stage == "confidence-report":
        return ["eval/confidence.csv", "eval/confidence_summary.json"]
    raise ValueError(f"no expected outputs for stage {stage!r}")


def _unit(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0


def check_stage(rc, stage: str, out: Path, line: dict) -> list[str]:
    """Problems with one stage's manifest line and artifacts ([] if none)."""
    missing = [p for p in expected_outputs(rc, stage) if p not in line["outputs"]]
    if missing:
        return [f"manifest lacks {missing[:3]}"]
    problems = []
    if stage == "train":
        rows = (out / "train" / "loss_history.csv").read_text().split()
        if not rows or not all(math.isfinite(float(r.split(",")[1])) for r in rows):
            problems.append("loss history empty or not finite")
    elif stage == "sot-eval":
        summary = json.loads((out / "eval" / "sot_summary.json").read_text())
        for name, s in summary.items():
            if s["frames"] <= 0 or not _unit(s["accuracy"]):
                problems.append(f"sot {name}: {s}")
    elif stage == "mot-eval":
        for mode in rc.mot.modes:
            a = json.loads((out / "eval" / f"amota_{mode}.json").read_text())
            if len(a["thresholds"]) != rc.eval.recall_levels or not _unit(a["amota"]):
                problems.append(f"amota {mode}: {len(a['thresholds'])} thresholds, "
                                f"amota {a['amota']}")
    elif stage == "confidence-report":
        c = json.loads((out / "eval" / "confidence_summary.json").read_text())
        if c["n_links"] <= 0 or not _unit(c["mean_correct"]) or not _unit(c["mean_incorrect"]):
            problems.append(f"confidence: {c}")
    return problems


# ---------------------------------------------------------------------------
# running stages


class Runner:
    """Runs stages one cli.run_pipeline call each, checks them, and keeps the
    failure accounting: each stage run is one attempted operation."""

    def __init__(self, rc, out: Path):
        self.rc = rc
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.manifests: dict[str, str] = {}  # stage -> its first manifest line
        self.stage_times: dict[str, float] = {}  # the program's own, last run

    def run(self, stages) -> dict:
        """Run stages in order, sampling the host's speed (hostspeed.py).
        Returns {"stages": wall seconds per stage, less the sampling's own
        time; "probe_us": the reference kernel times sampled meanwhile}."""
        from uatrack import cli

        times = {}
        probe = Probe()
        with probe.sampling():
            for stage in (s for s in cli.STAGE_ORDER if s in stages):
                self.attempted += 1
                spent0 = probe.spent_s
                t0 = time.perf_counter()
                try:
                    cli.run_pipeline(self.rc, [stage], self.out)
                except Exception as exc:  # a stage that raises is a failed operation
                    self.failed += 1
                    log.exception("stage %s raised", stage)
                    raise StageFailure(f"{stage}: {exc}") from exc
                times[stage] = time.perf_counter() - t0 - (probe.spent_s - spent0)
                self._check(stage)
        return {"stages": times, "probe_us": probe.samples_us}

    def _check(self, stage: str) -> None:
        try:
            text = (self.out / "manifest.jsonl").read_text().strip()
            problems = check_stage(self.rc, stage, self.out, json.loads(text))
            self.stage_times[stage] = json.loads(
                (self.out / "timings.jsonl").read_text())["wall_time_s"]
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            text, problems = None, [f"unreadable output: {exc!r}"]
        if text != self.manifests.setdefault(stage, text):
            problems.append("manifest line differs from the first run")
        if problems:
            self.failed += 1
            log.error("stage %s failed its checks: %s", stage, problems)

    def setup(self, stages) -> dict:
        if self.out.exists():
            shutil.rmtree(self.out)
        return self.run(stages)


def quality(out: Path) -> dict[str, float]:
    sot = json.loads((out / "eval" / "sot_summary.json").read_text())
    conf = json.loads((out / "eval" / "confidence_summary.json").read_text())
    q = {
        "sot_acc_clean": sot["clean"]["accuracy"],
        "sot_acc_noisy": sot["noisy"]["accuracy"],
        "ac_gap": conf["mean_correct"] - conf["mean_incorrect"],
    }
    for name, mode in AMOTA_MODES.items():
        q[name] = json.loads((out / "eval" / f"amota_{mode}.json").read_text())["amota"]
    return q


def final_loss(out: Path, epochs: int) -> float:
    """Mean per-step loss over the last training epoch."""
    losses = [float(r.split(",")[1])
              for r in (out / "train" / "loss_history.csv").read_text().split()]
    last = losses[-(len(losses) // epochs):]
    return sum(last) / len(last)


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from uatrack.config import parse_config

    rc = parse_config(wl.config_text(seed), from_path=False)
    runner = Runner(rc, work / "out")
    result = {"workload": wl.name, "seed": seed, "trace": int(trace)}
    setup_runs: list[dict] = []
    timed_runs: list[dict] = []
    try:
        if trace:
            tracer = Tracer()
            cpu0 = time.process_time()
            with tracer.patched():
                setup_runs.append(runner.setup(wl.setup))
            cpu_setup = time.process_time() - cpu0
            timed_runs.append(runner.run(wl.timed))
            first_span = len(tracer.spans)
            cpu0 = time.process_time()
            with tracer.patched():
                traced = runner.run(wl.timed)
            cpu_s = cpu_setup + time.process_time() - cpu0
            pipeline_s = sum(end - start for name, start, end, _ in tracer.spans[first_span:]
                             if name == "cli.run_pipeline")
            result["per_layer"] = layer_metrics(
                tracer, {s: runner.stage_times[s] for s in traced["stages"]}, pipeline_s,
                final_loss(runner.out, rc.learn.epochs),
                sum(traced["stages"].values()) / sum(timed_runs[0]["stages"].values()), cpu_s)
            tracer.write(work / "spans.csv")
        else:
            for _ in range(wl.setup_repeats):
                setup_runs.append(runner.setup(wl.setup))
            t0 = time.perf_counter()
            for _ in range(wl.repeats):
                timed_runs.append(runner.run(wl.timed))
            took = time.perf_counter() - t0
            if took > seconds:
                raise StageFailure(f"{wl.repeats} timed repeats took {took:.1f}s, "
                                   f"over the --seconds budget of {seconds:g}s")
        if wl.quality_stages():
            runner.run(wl.quality_stages())
        result["quality"] = quality(runner.out)
    except (StageFailure, OSError, ValueError, KeyError, TypeError) as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    result.update({
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "setup_runs_s": setup_runs,
        "timed_runs_s": timed_runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work-dir", required=True)
    args = p.parse_args(argv)

    # single-threaded BLAS: must happen before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")

    work = Path(args.work_dir)
    env = environment(Path.cwd())
    log.info("environment: %s", json.dumps(env, sort_keys=True))
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)
    result["env"] = env
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
