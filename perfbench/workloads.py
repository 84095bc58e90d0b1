"""The benchmark's workloads and the metrics it reports.

A workload is a config (appended to ``[global] seed``) plus a split of the
pipeline stages into set-up and a timed region, and how many times each is
run. Every workload uses the default scene generator and overrides only the
sections shown. The stages that produce the quality metrics but are in
neither list run untimed after the timed region. The repeat counts are
fixed so that the fastest-run statistic is taken over the same number of
samples on every host and for every version of the program.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    setup_repeats: int
    repeats: int

    def config_text(self, seed: int) -> str:
        """The run config; the workload seed reaches the program only here."""
        return f"[global]\nseed = {seed}\n\n{self.config}"

    def quality_stages(self) -> tuple[str, ...]:
        done = set(self.setup) | set(self.timed)
        return tuple(s for s in QUALITY_STAGES if s not in done)


QUALITY_STAGES = ("fit-logistic", "mot-run", "sot-eval", "mot-eval", "confidence-report")

# 50x the default learning rate: 1-2 epochs then come close to the SOT
# accuracy of the default 100-epoch run, so the quality metrics still guard
# something.
_FAST_LEARN = "[learn]\nepochs = {epochs}\nlearning_rate = 1e-3\n"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train",
            why="self-supervised training alone is timed: embed forward/backward and "
                "the triplet trainer, with no tracker or evaluation work",
            # 4 test scenes keep the untimed quality pass short; training
            # reads only the train split, whose scene seeds do not change
            # 2 epochs a repeat: short timed pieces, so that the fastest of
            # them is more likely to miss every slowdown of a shared host
            config="[sim]\ntest_scenes = 4\n\n" + _FAST_LEARN.format(epochs=2),
            setup=("simulate", "pseudo-tracks"),
            timed=("train",),
            setup_repeats=5,
            repeats=5,
        ),
        Workload(
            name="eval",
            why="the paper's evaluation on default-shaped scenes (4 objects each); "
                "AMOTA is the largest part, then inference and tracking; no backward pass",
            # 7 test scenes instead of the default 11 so that several timed
            # repeats fit in a run; AMOTA still takes about 40% of each
            config="[sim]\ntest_scenes = 7\n\n" + _FAST_LEARN.format(epochs=1),
            setup=("simulate", "pseudo-tracks", "train"),
            timed=("fit-logistic", "mot-run", "sot-eval", "mot-eval", "confidence-report"),
            setup_repeats=2,
            repeats=3,
        ),
        Workload(
            name="crowded",
            why="dense scenes (12 objects, 3 crossings): tracker and embedding work "
                "grow with tracks x detections and AMOTA is kept out of the timed region",
            config="[sim]\ntrain_scenes = 2\nfit_scenes = 1\ntest_scenes = 2\n"
                   "objects = 12\ntest_objects = 12\ncrossings = 3\n\n"
                   + _FAST_LEARN.format(epochs=1),
            setup=("simulate", "pseudo-tracks", "train"),
            timed=("pseudo-tracks", "fit-logistic", "mot-run", "sot-eval", "confidence-report"),
            setup_repeats=2,
            repeats=2,
        ),
    )
}

# End-to-end metrics: name -> (unit, better). Reported by every workload.
# SOT accuracy on box-perturbed candidates (sot_acc_noisy) is computed and
# logged but is not one of them: across seeds 0-9 its quartile spread is
# about a fifth of its median on eval and crowded, too close to the largest
# bound a metric may have (0.25) to pass the benchmark's spread check.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sot_acc_clean": ("1", "higher"),
    "amota_motion": ("1", "higher"),
    "amota_score": ("1", "higher"),
    "amota_fused": ("1", "higher"),
    "ac_gap": ("1", "higher"),
}

AMOTA_MODES = {
    "amota_motion": "motion",
    "amota_score": "motion+score",
    "amota_fused": "motion+score+appearance",
}
