"""The pipeline benchmark is a directory of scripts, not a package: put it
on ``sys.path`` so its modules import as they do when run."""

import sys
from pathlib import Path

PIPELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "pipeline"

if str(PIPELINE) not in sys.path:
    sys.path.insert(0, str(PIPELINE))
