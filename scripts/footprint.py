#!/usr/bin/env python3
"""The start-up cost and memory floor of one benchmark pass.

Usage: python scripts/footprint.py [--seeds 1]

Per workload and seed, writes the job inputs of perfbench/workloads.py to a
temporary directory and runs every job once, in job order, in one fresh
interpreter, as a perfbench pass does (PYTHONHASHSEED=0, gc.collect()
between jobs).  Prints one row per workload and seed: the job count, the
wall time of `import superscheme.cli`, the first job's and the median job's
wall times, and the pass's own peak resident memory, VmHWM from
/proc/self/status, next to its ru_maxrss.  On Linux a child's ru_maxrss
starts from the memory of the process that spawned it, so it cannot read
below the spawner's size; VmHWM starts afresh at exec.  The benchmark's
files are only imported, never written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

# argv: the package source directory and a JSON list of job argvs
PASS = """
import gc, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from superscheme.cli import run
import_s = time.perf_counter() - start
walls = []
for argv in json.loads(sys.argv[2]):
    gc.collect()
    start = time.perf_counter()
    run(argv)
    walls.append(time.perf_counter() - start)
hwm = None
try:
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) / 1024 for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([import_s, walls, hwm, maxrss]))
"""

COLUMNS = ("workload", "seed", "jobs", "import_s", "first_job_s", "median_job_s",
           "vmhwm_mb", "ru_maxrss_mb")


def footprint(name, seed):
    """The row of one workload on one seed.  Jobs name their inputs
    relative to the directory they run in."""
    workload = WORKLOADS[name](seed)
    argvs = []
    with tempfile.TemporaryDirectory() as tmp:
        for job in workload.jobs:
            for fname, text in job.files:
                Path(tmp, fname).write_text(text, encoding="utf-8")
            argvs.append([a.format(*(fname for fname, _ in job.files)) for a in job.argv])
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run([sys.executable, "-c", PASS, str(ROOT / "src"), json.dumps(argvs)],
                              cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed}: the pass failed\n{proc.stderr}")
    import_s, walls, hwm, maxrss = json.loads(proc.stdout)
    return (name, seed, len(walls), f"{import_s:.4f}", f"{walls[0]:.4f}",
            f"{statistics.median(walls):.4f}", "-" if hwm is None else f"{hwm:.1f}",
            f"{maxrss:.1f}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args()
    print(*COLUMNS)
    for name in WORKLOADS:
        for seed in args.seeds.split(","):
            print(*footprint(name, int(seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
