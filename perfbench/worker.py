"""One benchmark invocation, run as its own process by run.py.

Usage: python3 perfbench/worker.py JOB.json

The job names the checkout's src directory, the CLI verb, the config to
write, the output directory and, for a traced invocation, the trace files.
The worker imports covlearn from that src directory, writes the config and
calls covlearn.cli.main.  It writes a result file with the monotonic time of
the call into the verb and of its return, the exit code and its own peak
resident set size.  Everything before the call is the invocation's set-up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import covlearn.cli

    if not os.path.realpath(covlearn.cli.__file__).startswith(src + os.sep):
        print(f"covlearn was imported from outside {src}", file=sys.stderr)
        return 2

    rec = None
    if job["trace"]:
        import spans as tracer

        rec = tracer.Recorder()
        tracer.install(rec, job["trace"]["trial_marker"])

    with open(job["config_path"], "w") as fh:
        json.dump(job["config"], fh)
    argv = [job["verb"], "--config", job["config_path"], "--out", job["out"]]

    t_call = time.monotonic()
    if rec is None:
        rc = covlearn.cli.main(argv)
    else:
        root = rec.open(tracer.ROOT_SPAN, "cli")
        try:
            rc = covlearn.cli.main(argv)
        finally:
            rec.close(root)
    t_end = time.monotonic()

    result = {
        "t_call": t_call,
        "t_end": t_end,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is not None:
        rec.write_jsonl(job["trace"]["spans_path"])
        result["trace"] = tracer.summarize(rec)
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
