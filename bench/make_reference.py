"""Record the default-seed allocation digests that ``run.py`` checks.

    python3 bench/make_reference.py

Runs one untimed pass of every workload at the default seed and writes
``bench/reference.json``: the digests, the span predictions and the
Python version, git commit and processor count they were recorded with.
Rerun it only when a change is meant to alter allocations.
"""
from __future__ import annotations

import json
import os
import platform
import subprocess

from run import OUT, REFERENCE, ROOT, load_program


def main() -> None:
    load_program()
    import layers
    import workloads

    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        items = workload.build(workloads.DEFAULT_SEED, OUT / "work" / name)
        outcomes = [workload.step(item) for item in items]
        problems = [o.problem for o in outcomes if o.problem is not None]
        if problems:
            raise SystemExit(f"error: {name} fails its checks: {problems}")
        digests[name] = [o.digest for o in outcomes]
        print(f"{name}: {len(outcomes)} instances")
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    ).stdout.strip()
    document = {
        "default_seed": workloads.DEFAULT_SEED,
        "recorded_with": {
            "python": platform.python_version(),
            "git_sha": sha or None,
            "nproc": os.cpu_count(),
        },
        "digests": digests,
        "span_predictions": {name: sorted(spans) for name, spans in layers.FIRES.items()},
        "layer_predictions": list(layers.PREDICTIONS),
    }
    REFERENCE.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
