import math

import pytest

from uatrack import embed, sim
from uatrack.evaluation import SotResult, build_sot_tasks, sot_evaluate

NET = embed.EmbedNet.random((3, 8, 8), seed=2)
POINTS = 16


def _sequences():
    """Two clean scenes with distinct templates, and their box-perturbed copies."""
    scene = sim.SceneConfig(n_objects=4, n_frames=10, crossings=1, distinct_templates=True)
    clean = [sim.generate_sequence(scene, seed=s)[0] for s in (3, 4)]
    noisy = [sim.perturb_boxes(seq, sim.NoiseModel(), seed=(s, 200))
             for s, seq in zip((3, 4), clean)]
    return clean, noisy


def _tasks(noisy: bool):
    clean, perturbed = _sequences()
    tasks = []
    for seq, cand in zip(clean, perturbed):
        tasks += build_sot_tasks(seq, candidate_seq=cand if noisy else None)
    return tasks


def oracle_sot(net, tasks, n) -> SotResult:
    """Per-task arg-max-cosine association that crops and embeds the anchor
    and every candidate afresh with `canonicalize` and `forward`."""
    total = correct = 0
    per_task = []
    for task in tasks:
        anchor = task.anchor
        anchor_emb = embed.forward(net, embed.canonicalize(
            task.seq.clouds[anchor.cloud_ref], anchor.box, n,
            seed=embed.canon_seed(anchor.cloud_ref), source=anchor.cloud_ref))
        t_correct = t_total = 0
        for rec in task.seq.frames:
            if rec.index <= task.anchor_frame:
                continue
            if not any(d.gt_id == task.target for d in rec.detections):
                continue
            best_idx, best_cos = None, -math.inf
            for idx, det in enumerate(rec.detections):
                crop = embed.canonicalize(task.seq.cloud_of(det), det.box, n,
                                          seed=embed.canon_seed(det.cloud_ref),
                                          source=det.cloud_ref)
                c = embed.cosine(anchor_emb, embed.forward(net, crop))
                if c > best_cos:
                    best_idx, best_cos = idx, c
            t_total += 1
            t_correct += rec.detections[best_idx].gt_id == task.target
        total += t_total
        correct += t_correct
        per_task.append((task.target, t_correct, t_total))
    return SotResult(accuracy=correct / total if total else 0.0, correct=correct,
                     total=total, per_task=tuple(per_task))


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "perturbed"])
class TestSotEvaluate:
    def test_equals_oracle(self, noisy):
        tasks = _tasks(noisy)
        got = sot_evaluate(NET, tasks, POINTS)
        assert got == oracle_sot(NET, tasks, POINTS)
        assert len(got.per_task) == 8 and got.total > 50
        assert 0 < got.correct < got.total

    def test_embeds_each_detection_once(self, noisy, monkeypatch):
        tasks = _tasks(noisy)
        calls = []
        forward = embed.forward

        def counting(net, cloud):
            calls.append((cloud.source, cloud.points.tobytes()))
            return forward(net, cloud)

        monkeypatch.setattr(embed, "forward", counting)
        sot_evaluate(NET, tasks, POINTS)
        distinct = set()
        for t in tasks:
            distinct.add((id(t.seq), t.anchor))
            for rec in t.seq.frames:
                if rec.index > t.anchor_frame and any(d.gt_id == t.target
                                                      for d in rec.detections):
                    distinct.update((id(t.seq), d) for d in rec.detections)
        assert len(calls) == len(distinct)
        assert len(set(calls)) == len(calls)

