"""Self-tests of the benchmark harness, on a tiny workload.

Run with the sources on the path:
    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import END_TO_END, WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = Workload(
    name="tiny",
    why="smallest run that executes every stage",
    config="[sim]\ntrain_scenes = 1\nfit_scenes = 1\ntest_scenes = 1\nobjects = 3\n"
           "test_objects = 3\nframes = 8\n\n[learn]\nepochs = 1\nbatch_size = 8\n"
           "learning_rate = 1e-3\n",
    setup=("simulate", "pseudo-tracks", "train"),
    timed=("fit-logistic", "mot-run", "sot-eval", "mot-eval", "confidence-report"),
    setup_repeats=1,
    repeats=2,
)


def _run(tmp_path, name, seed=0, trace=False):
    return child.run_workload(TINY, seed, 600.0, trace, tmp_path / name)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    return {
        "plain": _run(tmp, "plain"),
        "plain_again": _run(tmp, "plain_again"),
        "seed3": _run(tmp, "seed3", seed=3),
        "traced": _run(tmp, "traced", trace=True),
        "traced_again": _run(tmp, "traced_again", trace=True),
    }


def test_runs_are_correct(runs):
    for name, r in runs.items():
        assert "error" not in r, name
        assert r["failed"] == 0 and r["attempted"] > 0, name
    plain = runs["plain"]
    assert len(plain["setup_runs_s"]) == TINY.setup_repeats
    assert len(plain["timed_runs_s"]) == TINY.repeats
    assert list(plain["timed_runs_s"][0]["stages"]) == list(TINY.timed)
    assert all(r["probe_us"] for r in plain["timed_runs_s"] + plain["setup_runs_s"])


def test_over_budget_fails_the_run(tmp_path):
    r = child.run_workload(TINY, 0, 0.0, False, tmp_path / "late")
    assert "--seconds budget" in r["error"]


def test_end_to_end_times_are_the_fastest_scaled_repeat():
    ref = hostspeed.REFERENCE_US
    runs = [{"stages": {"a": 1.0, "b": 2.0}, "probe_us": [ref, 2 * ref, 2 * ref]},  # 1.5
            {"stages": {"a": 2.0, "b": 2.0}, "probe_us": [ref]},  # 4.0
            {"stages": {"a": 1.0, "b": 0.0}, "probe_us": [0.5 * ref]}]  # 2.0
    result = {"setup_runs_s": runs, "timed_runs_s": runs[1:], "peak_rss_mb": 1.0,
              "quality": {}}
    m = run.end_to_end(result)
    assert (m["setup_s"], m["wall_s"]) == (1.5, 2.0)


def test_probe_samples_while_the_block_runs():
    probe = hostspeed.Probe()
    with probe.sampling():
        t0 = time.process_time()
        while time.process_time() - t0 < 0.5:
            pass
    n = len(probe.samples_us)
    # one sample on entry, the others from the profiling timer
    assert n >= 2 and 0 < probe.spent_s < 0.5
    t0 = time.process_time()
    while time.process_time() - t0 < 0.2:
        pass
    assert len(probe.samples_us) == n  # the timer is off after the block


def test_per_layer_counts_repeat_exactly(runs):
    a, b = runs["traced"]["per_layer"], runs["traced_again"]["per_layer"]
    assert set(a) == set(tracing.PER_LAYER)
    exact = [n for n, (unit, _) in tracing.PER_LAYER.items() if unit in ("count", "ratio", "1")]
    exact.remove("trace.overhead_ratio")
    assert {n: a[n] for n in exact} == {n: b[n] for n in exact}
    assert a["embed.forward_calls"] > 0 and a["kalman.mahalanobis_calls"] > 0
    assert a["evaluation.amota_rows"] > 0 and a["learn.steps"] > 0


def test_traced_quality_equals_untraced(runs):
    assert runs["traced"]["quality"] == runs["plain"]["quality"]


def test_seed_changes_quality_and_repeats(runs):
    assert runs["plain_again"]["quality"] == runs["plain"]["quality"]
    assert runs["seed3"]["quality"] != runs["plain"]["quality"]


def test_tracing_restores_the_program():
    from uatrack import assoc, cli, core, embed, mot

    before = (cli.read_clouds, core.read_clouds, mot.run_tracker, embed.forward,
              mot.FeatureVector.__dict__["build"])
    with tracing.Tracer().patched():
        assert cli.read_clouds is core.read_clouds is not before[0]
        assert mot.run_tracker is assoc.run_tracker is not before[2]
    after = (cli.read_clouds, core.read_clouds, mot.run_tracker, embed.forward,
             mot.FeatureVector.__dict__["build"])
    assert after == before


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    s = tracing.summarize(spans)
    assert s["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert s["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}


def test_missing_artifact_fails_the_stage():
    from uatrack.config import parse_config

    rc = parse_config(TINY.config_text(0), from_path=False)
    line = {"outputs": {p: "x" for p in child.expected_outputs(rc, "mot-run")[1:]}}
    assert child.check_stage(rc, "mot-run", Path("."), line)


def test_names_and_benchmark_file_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    for name in [*WORKLOADS, *END_TO_END, *tracing.PER_LAYER]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
