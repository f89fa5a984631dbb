#!/usr/bin/env python3
"""Digest every report of the benchmark jobs and of the seeded corpus.

Usage: python scripts/report_digest.py [--seeds 1,2,7] [--corpus N]

Per workload and seed, writes the job inputs of perfbench/workloads.py to a
temporary directory, runs each job once in this process with
superscheme.cli.run, and prints `<workload> seed <s> <sha256>` over every
job's (name, exit code, report), in job order.  After each descent-fp
line it prints `descent-fp seed <s> depth 0 <sha256>`, the same digest of
`descent-check --depth 0` on the input of each descent-check job: no
benchmark job runs depth 0.  Then prints
`corpus seeds 0..<N-1> <sha256>` over the (seed, exit code, report) of
`corpus --seed s` for s < N (default 50; 0 skips it), and
`commands seeds 0..<N-1> <sha256>` over the commands no workload runs:
per seeded_random("morphism", s) over Q and F3 with s < N, report-all,
immersion-check, finite-check, fiber-product of f with itself and fiber at
points 0 to 3 (a point out of range is exit 3); then
`morphisms seeds 0..<N-1> <sha256>` over flat-check, descent-check
--depth 1 and components on the same morphisms, which read the points and
components of their coalgebras.  Two trees that print the same lines print
byte-identical reports.  The benchmark's files are only
imported, never written.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from superscheme.cli import run  # noqa: E402
from superscheme.corpus import seeded_random  # noqa: E402
from superscheme.fields import QQ, PrimeField  # noqa: E402
from superscheme.objfile import serialize_document  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

MORPHISM_COMMANDS = [["report-all"], ["immersion-check"], ["finite-check"],
                     ["fiber-product", "--f", "f", "--g", "f"]] + [
    ["fiber", "--morphism", "f", "--point", str(i)] for i in range(4)]
POINT_COMMANDS = [["flat-check"], ["descent-check", "--depth", "1"], ["components"]]


def _digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, ensure_ascii=False).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def jobs_digest(jobs):
    """The digest of these jobs.  Jobs name their inputs relative to the
    directory they run in, so no report holds a temporary path."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        records = []
        try:
            os.chdir(tmp)
            for job in jobs:
                for fname, text in job.files:
                    Path(fname).write_text(text, encoding="utf-8")
                paths = [fname for fname, _ in job.files]
                text, code = run([a.format(*paths) for a in job.argv])
                records.append([job.name, code, text])
        finally:
            os.chdir(cwd)
    return _digest(records)


def depth0_jobs(seed):
    """The descent-check jobs of descent-fp, each run at depth 0."""
    jobs = []
    for job in WORKLOADS["descent-fp"](seed).jobs:
        if job.argv[0] == "descent-check":
            at = job.argv.index("--depth") + 1
            jobs.append(dataclasses.replace(job, argv=job.argv[:at] + ["0"] + job.argv[at + 1:]))
    return jobs


def corpus_digest(count):
    records = []
    for seed in range(count):
        text, code = run(["corpus", "--seed", str(seed)])
        records.append([seed, code, text])
    return _digest(records)


def command_jobs(count, commands):
    """The commands on each seeded morphism f: S -> T over Q and F3."""
    jobs = []
    for F in (QQ, PrimeField(3)):
        for seed in range(count):
            (f,) = seeded_random("morphism", seed, F).payload
            files = [("morphism.ss", serialize_document(
                F, [("S", f.source), ("T", f.target), ("f", f, None, ("S", "T"))]))]
            jobs.extend(Job(f"{F.describe()} {seed} {' '.join(argv)}",
                            argv[:1] + ["{0}"] + argv[1:], files, None)
                        for argv in commands)
    return jobs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,7")
    parser.add_argument("--corpus", type=int, default=50)
    args = parser.parse_args()
    for name in WORKLOADS:
        for seed in args.seeds.split(","):
            print(f"{name} seed {seed} {jobs_digest(WORKLOADS[name](int(seed)).jobs)}",
                  flush=True)
            if name == "descent-fp":
                print(f"{name} seed {seed} depth 0 {jobs_digest(depth0_jobs(int(seed)))}",
                      flush=True)
    if args.corpus:
        print(f"corpus seeds 0..{args.corpus - 1} {corpus_digest(args.corpus)}")
        for name, commands in (("commands", MORPHISM_COMMANDS), ("morphisms", POINT_COMMANDS)):
            print(f"{name} seeds 0..{args.corpus - 1} "
                  f"{jobs_digest(command_jobs(args.corpus, commands))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
