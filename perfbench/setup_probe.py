"""Set-up probe: a fresh process imports ``kerrgate.cli`` and finishes one
warm-up call of each CLI experiment.  run.py times it from launch to exit."""

import tempfile
from pathlib import Path

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import workloads

    with tempfile.TemporaryDirectory(dir=bootstrap.OUT) as scratch:
        workloads.warm_up(Path(scratch))
