#!/usr/bin/env python3
"""Run the whole pipeline on the fixture mini-book with the mock backend.

Writes everything under ./demo_work and prints each stage's summary line.

Usage:
    python scripts/demo_pipeline.py [--workdir demo_work]
"""

import argparse
import json
import sys
from pathlib import Path

from granary.cli import main as granary

REPO = Path(__file__).resolve().parent.parent
MINIBOOK = REPO / "tests" / "fixtures" / "minibook"


def run(workdir: str) -> int:
    config = {
        "corpus_dir": str(MINIBOOK),
        "manifest": str(MINIBOOK / "manifest.json"),
        "workdir": workdir,
        "seed": 0,
        "backend": {"mock": True},
        "model": {"context_window": 256, "init_std": 0.2},
        "train": {"mode": "nsc_sft", "total_steps": 60, "lr_max": 1e-2, "kl_weight": 0.1},
    }
    Path(workdir).mkdir(parents=True, exist_ok=True)
    config_path = Path(workdir) / "demo_config.json"
    config_path.write_text(json.dumps(config, indent=2))

    for stage in (
        ["ingest"],
        ["distill"],
        ["build"],
        ["train"],
        ["eval"],
        ["gradcheck"],
    ):
        print(f"== granary {stage[0]} ==", flush=True)
        code = granary(stage + ["--config", str(config_path)])
        if code != 0:
            print(f"stage {stage[0]} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nartifacts under {workdir}/")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_work")
    args = parser.parse_args()
    sys.exit(run(args.workdir))
