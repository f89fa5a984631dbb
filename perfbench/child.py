"""One timed pass in a fresh interpreter: run every job of a manifest once.

    python perfbench/child.py SRC_DIR MANIFEST [SPANS_OUT]

The manifest is a JSON list of [job name, argv].  Each job is one call of
``superscheme.cli.run``; ``gc.collect()`` runs between jobs, outside the
timed interval.  With SPANS_OUT the pass is traced (see layertrace).  The
pass prints one JSON object: per job its wall time, exit code and report,
and the process's peak resident memory.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from time import perf_counter


def main(argv):
    src, manifest = argv[0], argv[1]
    spans_out = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, src)
    from superscheme import cli

    with open(manifest, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if spans_out:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for index, (name, job_argv) in enumerate(jobs):
        gc.collect()
        error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                text, code = cli.run(job_argv)
            else:
                text, code = tracer.run_job(index, cli.run, job_argv)
        except Exception:       # a job that raises is a failed operation; the pass goes on
            text, code, error = "", None, traceback.format_exc(limit=4)
        wall = perf_counter() - t0
        results.append({"name": name, "wall_s": wall, "code": code, "text": text, "error": error})
    out = {"jobs": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.write_spans(spans_out)
        out["layers"] = tracer.metrics()
        out["skipped"] = tracer.skipped
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
