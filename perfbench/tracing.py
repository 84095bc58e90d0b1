"""Span tracing of the uatrack modules, from outside the program.

``Tracer.patched()`` wraps the public functions listed in ``TRACED`` and
binds each wrapper under every name a ``uatrack`` module holds for the
original, so calls made through ``from .x import f`` bindings are traced
too. Spans (name, start, end, parent) stay in memory until ``write``;
self times, counts and the per-layer metrics are derived from them.
``time.perf_counter`` is the only clock.
"""

import csv
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


# Observers: (tracer, bound arguments, return value) -> None, run after the
# call's span has closed.


def _greedy_associate(t, a, result):
    t.counts["assoc.cost_entries"] += a["m"].size
    t.counts["assoc.matched_pairs"] += len(result.pairs)


def _sample_triplet(t, a, result):
    t.counts["learn.sample_accepted"] += result is not None


def _batch_loss_and_grads(t, a, result):
    t.counts["learn.triplets"] += len(a["triplets"])


def _forward(t, a, result):
    # distinct (parameters, crop) inputs; hashes keep the set small
    net, cloud = a["net"], a["cloud"]
    t.forward_inputs.add((hash(net.weights[0].tobytes()), hash(net.weights[-1].tobytes()),
                          hash(cloud.points.tobytes())))


def _amota(t, a, result):
    rows = list(a["pred_rows"])
    t.counts["evaluation.amota_rows"] += len(rows)
    t.counts["evaluation.amota_distinct_scores"] += len({r.score for r in rows})


def _sot_evaluate(t, a, result):
    t.counts["evaluation.sot_frames"] += result.total


# (module, attribute, observer). An attribute with a dot is a class member.
TRACED = (
    ("cli", "run_pipeline", None),
    ("sim", "generate_sequence", None),
    ("sim", "sample_surface", None),
    ("sim", "corrupt_detections", None),
    ("core", "read_clouds", None),
    ("core", "read_detections", None),
    ("core", "write_detections", None),
    ("core", "write_clouds", None),
    ("core", "write_point_cloud", None),
    ("core", "write_track_rows", None),
    ("kalman", "predict", None),
    ("kalman", "update", None),
    ("kalman", "mahalanobis", None),
    ("assoc", "run_tracker", None),
    ("assoc", "mahalanobis_matrix", None),
    ("assoc", "greedy_associate", _greedy_associate),
    ("assoc", "association_confidence", None),
    ("embed", "canonicalize", None),
    ("embed", "forward", _forward),
    ("embed", "backward", None),
    ("learn", "batch_loss_and_grads", _batch_loss_and_grads),
    ("learn", "adam_step", None),
    ("learn", "sample_triplet", _sample_triplet),
    ("learn", "mine_hard_negative", None),
    ("mot", "track_sequence", None),
    ("mot", "harvest_features", None),
    ("mot", "fit_logistic", None),
    ("mot", "FeatureVector.build", None),
    ("mot", "LogisticModel.score", None),
    ("evaluation", "amota", _amota),
    ("evaluation", "sot_evaluate", _sot_evaluate),
    ("evaluation", "confidence_links", None),
)

# Stages that some workload times; each gets a cli.stage.<stage>_s metric.
TIMED_STAGES = ("pseudo-tracks", "train", "fit-logistic", "mot-run", "sot-eval",
                "mot-eval", "confidence-report")

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    **{f"cli.stage.{s}_s": ("s", "lower") for s in TIMED_STAGES},
    "cli.manifest_s": ("s", "lower"),
    "sim.generate_sequence_s": ("s", "lower"),
    "sim.sample_surface_calls": ("count", "lower"),
    "sim.sample_surface_s": ("s", "lower"),
    "sim.corrupt_detections_s": ("s", "lower"),
    "core.read_clouds_calls": ("count", "lower"),
    "core.read_clouds_s": ("s", "lower"),
    "core.read_detections_s": ("s", "lower"),
    "core.write_s": ("s", "lower"),
    "kalman.predict_calls": ("count", "lower"),
    "kalman.predict_us": ("us", "lower"),
    "kalman.update_calls": ("count", "lower"),
    "kalman.update_us": ("us", "lower"),
    "kalman.mahalanobis_calls": ("count", "lower"),
    "kalman.mahalanobis_us": ("us", "lower"),
    "assoc.run_tracker_self_s": ("s", "lower"),
    "assoc.mahalanobis_matrix_s": ("s", "lower"),
    "assoc.cost_entries": ("count", "lower"),
    "assoc.greedy_associate_calls": ("count", "lower"),
    "assoc.greedy_associate_us": ("us", "lower"),
    "assoc.match_ratio": ("ratio", "higher"),
    "assoc.association_confidence_calls": ("count", "lower"),
    "embed.canonicalize_calls": ("count", "lower"),
    "embed.canonicalize_us": ("us", "lower"),
    "embed.forward_calls": ("count", "lower"),
    "embed.forward_us": ("us", "lower"),
    "embed.forward_distinct_ratio": ("ratio", "higher"),
    "embed.backward_calls": ("count", "lower"),
    "embed.backward_us": ("us", "lower"),
    "learn.steps": ("count", "lower"),
    "learn.batch_loss_and_grads_s": ("s", "lower"),
    "learn.adam_step_us": ("us", "lower"),
    "learn.sample_triplet_calls": ("count", "lower"),
    "learn.sample_accept_ratio": ("ratio", "higher"),
    "learn.mine_hard_negative_calls": ("count", "lower"),
    "learn.mine_hard_negative_s": ("s", "lower"),
    "learn.active_triplet_ratio": ("ratio", "higher"),
    "learn.final_loss": ("1", "lower"),
    "mot.track_sequence_self_s": ("s", "lower"),
    "mot.harvest_features_self_s": ("s", "lower"),
    "mot.fit_logistic_s": ("s", "lower"),
    "mot.feature_pairs": ("count", "lower"),
    "mot.logistic_score_calls": ("count", "lower"),
    "evaluation.amota_s": ("s", "lower"),
    "evaluation.amota_rows": ("count", "lower"),
    "evaluation.amota_distinct_scores": ("count", "lower"),
    "evaluation.sot_evaluate_self_s": ("s", "lower"),
    "evaluation.sot_frames": ("count", "lower"),
    "evaluation.confidence_links_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.cpu_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()  # taken by the observers
        self.forward_inputs: set = set()
        self._stack: list[int] = []

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Trace every TRACED function while the block runs; restore after."""
        import uatrack.cli  # noqa: F401  (loads every uatrack module)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "uatrack" or n.startswith("uatrack.")]
        undo = []
        try:
            for mod_name, attr, observe in TRACED:
                mod = sys.modules[f"uatrack.{mod_name}"]
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[member]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, observe))
                    else:
                        new = self._wrap(name, raw, observe)
                    setattr(cls, member, new)
                    undo.append((cls, member, raw))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(name, orig, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            undo.append((m, key, orig))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start", "end"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, parent, name, repr(start), repr(end)])


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds (total minus the
    time covered by direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child_time[i]
    return out


def _top_level_s(spans, prefix: str) -> float:
    """Time in spans named prefix* that are not nested in another such span."""
    return sum(end - start for name, start, end, parent in spans
               if name.startswith(prefix)
               and not (parent >= 0 and spans[parent][0].startswith(prefix)))


def layer_metrics(tracer: Tracer, stage_times: dict[str, float], pipeline_s: float,
                  final_loss: float, overhead_ratio: float, cpu_s: float) -> dict[str, float]:
    """Every PER_LAYER metric. stage_times and pipeline_s describe the traced
    timed region; the other metrics cover traced set-up and timed region."""
    s = summarize(tracer.spans)
    c = tracer.counts

    def calls(n):
        return s[n]["calls"]

    def total(n):
        return s[n]["s"]

    def self_s(n):
        return s[n]["self_s"]

    def mean_us(n):
        return 1e6 * total(n) / calls(n) if calls(n) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"cli.stage.{st}_s": stage_times.get(st, 0.0) for st in TIMED_STAGES}
    m["cli.manifest_s"] = pipeline_s - sum(stage_times.values())
    m.update({
        "sim.generate_sequence_s": total("sim.generate_sequence"),
        "sim.sample_surface_calls": calls("sim.sample_surface"),
        "sim.sample_surface_s": total("sim.sample_surface"),
        "sim.corrupt_detections_s": total("sim.corrupt_detections"),
        "core.read_clouds_calls": calls("core.read_clouds"),
        "core.read_clouds_s": total("core.read_clouds"),
        "core.read_detections_s": total("core.read_detections"),
        "core.write_s": _top_level_s(tracer.spans, "core.write_"),
    })
    for fn in ("predict", "update", "mahalanobis"):
        m[f"kalman.{fn}_calls"] = calls(f"kalman.{fn}")
        m[f"kalman.{fn}_us"] = mean_us(f"kalman.{fn}")
    m.update({
        "assoc.run_tracker_self_s": self_s("assoc.run_tracker"),
        "assoc.mahalanobis_matrix_s": total("assoc.mahalanobis_matrix"),
        "assoc.cost_entries": c["assoc.cost_entries"],
        "assoc.greedy_associate_calls": calls("assoc.greedy_associate"),
        "assoc.greedy_associate_us": mean_us("assoc.greedy_associate"),
        "assoc.match_ratio": ratio(c["assoc.matched_pairs"], c["assoc.cost_entries"]),
        "assoc.association_confidence_calls": calls("assoc.association_confidence"),
    })
    for fn in ("canonicalize", "forward", "backward"):
        m[f"embed.{fn}_calls"] = calls(f"embed.{fn}")
        m[f"embed.{fn}_us"] = mean_us(f"embed.{fn}")
    m["embed.forward_distinct_ratio"] = ratio(len(tracer.forward_inputs), calls("embed.forward"))
    m.update({
        "learn.steps": calls("learn.adam_step"),
        "learn.batch_loss_and_grads_s": total("learn.batch_loss_and_grads"),
        "learn.adam_step_us": mean_us("learn.adam_step"),
        "learn.sample_triplet_calls": calls("learn.sample_triplet"),
        "learn.sample_accept_ratio": ratio(c["learn.sample_accepted"],
                                           calls("learn.sample_triplet")),
        "learn.mine_hard_negative_calls": calls("learn.mine_hard_negative"),
        "learn.mine_hard_negative_s": total("learn.mine_hard_negative"),
        "learn.active_triplet_ratio": ratio(calls("embed.backward") / 3, c["learn.triplets"]),
        "learn.final_loss": final_loss,
        "mot.track_sequence_self_s": self_s("mot.track_sequence"),
        "mot.harvest_features_self_s": self_s("mot.harvest_features"),
        "mot.fit_logistic_s": total("mot.fit_logistic"),
        "mot.feature_pairs": calls("mot.FeatureVector.build"),
        "mot.logistic_score_calls": calls("mot.LogisticModel.score"),
        "evaluation.amota_s": total("evaluation.amota"),
        "evaluation.amota_rows": c["evaluation.amota_rows"],
        "evaluation.amota_distinct_scores": c["evaluation.amota_distinct_scores"],
        "evaluation.sot_evaluate_self_s": self_s("evaluation.sot_evaluate"),
        "evaluation.sot_frames": c["evaluation.sot_frames"],
        "evaluation.confidence_links_s": total("evaluation.confidence_links"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.cpu_s": cpu_s,
    })
    return m
