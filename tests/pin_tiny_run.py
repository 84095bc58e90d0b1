"""Rewrite tiny_run_artifacts.json from a fresh pipeline run of test_cli.py's
tiny config: each stage's manifest line without its config hash.

    PYTHONPATH=src python3 tests/pin_tiny_run.py

test_cli.py::TestPipeline::test_artifacts_are_the_pinned_bytes compares
every tiny run with the file. Rewrite it only for a change that moves an
artifact on purpose, and name what moved, and why, in CHANGES.md.

A change to TINY itself that should move no output is pinned with the
parent commit's program: run this script with the new tests/ and the
parent's src/ (a `git archive` of the parent commit; it must accept every
key the new TINY sets). The pin then holds the parent's bytes, and the
change's own tiny run must equal them.

    PYTHONPATH=<parent checkout>/src python3 tests/pin_tiny_run.py
"""

import json
import tempfile
from pathlib import Path

from test_cli import PINNED, TINY
from uatrack import cli
from uatrack.config import parse_config


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cli.run_pipeline(parse_config(TINY, from_path=False), cli.STAGE_ORDER, Path(tmp))
        with (Path(tmp) / "manifest.jsonl").open(encoding="utf-8") as fh:
            lines = [{key: line[key] for key in ("stage", "inputs", "outputs")}
                     for line in map(json.loads, fh)]
    PINNED.write_text(json.dumps(lines, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINNED}: {len(lines)} stages")


if __name__ == "__main__":
    main()
