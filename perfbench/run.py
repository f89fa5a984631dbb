"""Benchmark of the superscheme CLI on seeded object files.

    python3 perfbench/run.py --workload structure-q --seed 1 --seconds 30 --trace 0

Run from the repository root.  A run writes the seeded inputs once, then
makes a fixed number of passes, round(seconds / nominal pass time) and at
least one.  Before each pass and after the last it sets up several times:
a fresh interpreter times its import of the package.  Each pass is a
fresh interpreter running every job of the workload once (child.py).  The
parent checks every report against values computed apart from the program
(workloads.py, algebra.py) and against the first pass's report, and prints
the metrics; the last line of standard output is one JSON object.  With
--trace 1 the run makes one untraced and one traced pass and prints the
per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS, SPANS, table_names
from selftest import selftest_problems
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170.0

SETUPS_PER_SLOT = 4     # set-ups before each pass and after the last one
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import superscheme.cli; "
                "print(time.perf_counter() - t0)")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def write_inputs(workload, inputs):
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    for job in workload.jobs:
        for fname, text in job.files:
            (inputs / fname).write_text(text, encoding="utf-8")


def setup_once():
    """The wall time of importing the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail("cannot import superscheme: " + (proc.stderr.strip().splitlines() or ["?"])[-1])
    return float(proc.stdout.split()[-1])


def manifest(workload, inputs):
    jobs = []
    for job in workload.jobs:
        paths = [os.path.relpath(inputs / fname, ROOT) for fname, _ in job.files]
        jobs.append([job.name, [a.format(*paths) for a in job.argv]])
    return jobs


def run_pass(manifest_path, spans_path, deadline):
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(manifest_path)]
    if spans_path is not None:
        argv.append(str(spans_path))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "pass timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"pass exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(lines[-1]), None


def check_pass(workload, result, first_texts):
    """Problems per job name; a job fails on an error, a wrong report, or a
    report that differs from the first pass's."""
    problems = {}
    by_name = {r["name"]: r for r in result["jobs"]}
    for job in workload.jobs:
        r = by_name.get(job.name)
        if r is None:
            problems[job.name] = ["not run"]
            continue
        if r["error"]:
            problems[job.name] = [r["error"].strip().splitlines()[-1]]
            continue
        got = job.check(r["text"], r["code"])
        first = first_texts.setdefault(job.name, r["text"])
        if r["text"] != first:
            got.append("report differs from the first pass")
        if got:
            problems[job.name] = got
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "superscheme" / "cli.py").is_file():
        fail(f"no superscheme package under {SRC}")
    bad = selftest_problems()
    if bad:
        fail("oracle self-test failed: " + "; ".join(bad[:3]))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{tag}"
    workload = WORKLOADS[args.workload](args.seed)
    write_inputs(workload, inputs)
    manifest_path = OUT / f"manifest-{tag}.json"
    manifest_path.write_text(json.dumps(manifest(workload, inputs)), encoding="utf-8")

    if args.trace:
        plan = [None, OUT / f"spans-{tag}.csv"]
    else:
        plan = [None] * max(1, round(args.seconds / workload.nominal_pass_s))
    attempted = failed = 0
    first_texts = {}
    passes, traced, setups = [], None, []
    for spans_path in plan:
        setups += [setup_once() for _ in range(SETUPS_PER_SLOT)]
        result, error = run_pass(manifest_path, spans_path, deadline)
        attempted += len(workload.jobs)
        if result is None:
            failed += len(workload.jobs)
            print(f"# {error}")
            break
        problems = check_pass(workload, result, first_texts)
        failed += len(problems)
        for name, probs in sorted(problems.items()):
            print(f"# FAILED {name}: {'; '.join(probs[:3])}")
        if spans_path is None:
            passes.append(result)
        else:
            traced = result

    if len(passes) + (traced is not None) < len(plan):
        fail("a pass did not complete; no result")
    setups += [setup_once() for _ in range(SETUPS_PER_SLOT)]
    if args.trace:
        metrics = layer_report(traced, passes, args.workload)
    else:
        metrics = end_to_end(passes, setups, workload)
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(out, setups_s=setups, jobs=[j.name for j in workload.jobs],
                  pass_walls_s=[[r["wall_s"] for r in p["jobs"]] for p in passes],
                  pass_rss_mb=[p["peak_rss_mb"] for p in passes])
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(out))
    return 0


def end_to_end_rate(passes):
    """Jobs completed per second of summed job wall time."""
    walls = [r["wall_s"] for p in passes for r in p["jobs"]]
    return len(walls) / sum(walls)


def end_to_end(passes, setups, workload):
    largest = {j.name for j in workload.jobs if j.largest}
    largest_walls = [r["wall_s"] for p in passes for r in p["jobs"] if r["name"] in largest]
    print(f"# {workload.name}: {len(passes)} pass(es) x {len(workload.jobs)} jobs; "
          f"setup_s median of {len(setups)}; largest_job_s mean of {len(largest_walls)} "
          f"samples of {', '.join(sorted(largest))}")
    # largest_job_s is a mean: the same job's wall time spreads over a range
    # almost 2x wide as the machine's speed shifts, and the median of a few
    # such samples jumps about in it where the mean moves smoothly
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (end_to_end_rate(passes), "1/s"),
        "largest_job_s": (statistics.fmean(largest_walls), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def layer_report(traced, passes, workload_name):
    """Print the per-layer table, each layer's share of self time, the
    skipped names and the tracing overhead; return the per_layer metrics
    that were measured.  A skipped metric is left out, never reported as 0."""
    layers = traced["layers"]
    skipped = traced.get("skipped", [])
    total = sum(r["wall_s"] for r in traced["jobs"])
    for layer in LAYERS:
        spans = [f"{m}.{q}" for m, q, _ in SPANS if m == layer]
        if any(span in skipped for span in spans):
            continue        # a partial sum would read as a gain
        layers[f"layer.{layer}.self_s"] = sum(
            v for k, v in layers.items()
            if k.endswith(".self_s") and k.startswith(layer + "."))
    print(f"# per-layer metrics, {workload_name} (traced pass, {total:.3f} s of jobs)")
    used = sorted(k[:-len(".calls")] + ".self_s" for k, v in layers.items()
                  if k.startswith("cli.") and k.endswith(".calls") and v)
    for name in table_names() + used:
        print(f"#   {name} {layers.get(name, 'skipped')}")
    for layer in LAYERS:
        share = layers.get(f"layer.{layer}.self_s")
        share = "skipped" if share is None else f"{share / total if total else 0.0:.3f}"
        print(f"#   share of self time {layer} {share}")
    for name in skipped:
        print(f"#   skipped {name}")
    untraced = end_to_end_rate(passes)
    tracedrate = len(traced["jobs"]) / total
    print(f"# tracing overhead: jobs_per_s untraced {untraced:.4f}, traced {tracedrate:.4f}, "
          f"difference {untraced - tracedrate:.4f} "
          f"({(untraced / tracedrate - 1) * 100:.1f}% slower)")
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (layers[m["name"]], m["unit"]) for m in per_layer if m["name"] in layers}


if __name__ == "__main__":
    sys.exit(main())
