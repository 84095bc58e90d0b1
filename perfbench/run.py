"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload {train,eval,crowded} --seed N \
        --seconds S --trace {0,1}

The workload runs in a child process (perfbench/child.py) with every BLAS
thread pool pinned to one thread, against the sources in ./src. Its log
goes to .perfbench/<workload>-s<seed>-t<trace>/child.log, next to the full
result and, for a traced run, the spans. The last line of standard output
is one JSON object: correct, attempted, failed, and the metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import THREAD_VARS  # noqa: E402
from hostspeed import repeat_s  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402


def end_to_end(result: dict) -> dict[str, float]:
    m = {
        # the fastest repeat at the reference host speed (hostspeed.py)
        "setup_s": min(map(repeat_s, result["setup_runs_s"])),
        "wall_s": min(map(repeat_s, result["timed_runs_s"])),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    m.update({k: v for k, v in result["quality"].items() if k in END_TO_END})
    return m


def in_range(name: str, v: float) -> bool:
    if not math.isfinite(v):
        return False
    if name in ("setup_s", "wall_s", "peak_rss_mb"):
        return v > 0
    if name == "ac_gap":
        return -1.0 <= v <= 1.0
    return 0.0 <= v <= 1.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="uatrack pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "uatrack" / "cli.py").is_file():
        print(f"perfbench: no uatrack sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    work = root / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    # the timed region gets --seconds; set-up, the untimed quality stages and,
    # with --trace 1, the traced repeat get as long again plus a fixed allowance
    timeout = 2 * args.seconds + 80
    with open(work / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=root, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: workload exceeded {timeout:g}s; see {work / 'child.log'}",
                  file=sys.stderr)
            return 1
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        print(f"perfbench: workload process exited with {proc.returncode}; "
              f"see {work / 'child.log'}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    print("environment:", json.dumps(result["env"], sort_keys=True))
    correct = "error" not in result and result["failed"] == 0
    if args.trace:
        names, values = PER_LAYER, result.get("per_layer", {})
    else:
        names, values = END_TO_END, end_to_end(result) if correct else {}
    metrics = {}
    for name, (unit, _better) in names.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            if not args.trace and not in_range(name, values[name]):
                correct = False
                print(f"out of range: {name} = {values[name]}", file=sys.stderr)
        else:
            correct = False
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    for name, v in result.get("quality", {}).items():
        if name not in metrics:
            print(f"{name:40s} {v:14.6g} (quality, not in the result line)")
    if "error" in result:
        print(f"perfbench: {result['error']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
