"""Run one `cubelink` command under the tracer (the traced cli workload).

Usage: python3 cli_child.py STATS_JSON ARGS...

Runs cubelink.cli.main(ARGS) as `python3 -m cubelink.cli ARGS` would and
exits with its code.  Writes to STATS_JSON the time spent importing
cubelink.cli, installing the tracer and running the command, and the
tracer's per-span totals.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import cubelink.cli  # noqa: E402

t1 = time.perf_counter()

import tracer  # noqa: E402  (this file's directory is on sys.path)

rec = tracer.Tracer()
tracer.install(rec)
t2 = time.perf_counter()
code = 1
try:
    code = cubelink.cli.main(sys.argv[2:])
finally:
    t3 = time.perf_counter()
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_s": t1 - t0, "install_s": t2 - t1, "run_s": t3 - t2,
                   "spans": rec.summary()}, fh)
sys.exit(code)
