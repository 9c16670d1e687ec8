#!/usr/bin/env python3
"""Record the reference output of every task a seed can draw.

    python3 bench/record_reference.py

Runs each pool task of each workload once on the sources in `src/` and
writes `bench/reference/<workload>.json`. Run it only when a change to the
program's numbers is intended and justified; the benchmark counts every
deviation from these files as a failed task.
"""

from __future__ import annotations

import json
import sys

from run import HERE, SRC, environment, pin_blas_threads

pin_blas_threads()
sys.path.insert(0, str(SRC))

import tasks  # noqa: E402  (needs src/ on the path)
from workloads import WORKLOADS, pool, task_key  # noqa: E402


def main() -> int:
    env = environment()
    unexpected = 0
    for workload in WORKLOADS:
        lines = []
        for entries in pool(workload).values():
            for argv in entries:
                rec = tasks.extract(argv, tasks.run_task(argv))
                if rec["exit"] in ("raise", "malformed"):
                    unexpected += 1
                    print("%s: %s" % (task_key(argv), rec["error"]),
                          file=sys.stderr)
                lines.append("%s: %s" % (
                    json.dumps(task_key(argv)),
                    json.dumps(tasks.reference_record(rec),
                               separators=(",", ":"))))
        path = HERE / "reference" / ("%s.json" % workload)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"source": %s,\n"records": {\n%s\n}}\n'
                     % (json.dumps(env, sort_keys=True), ",\n".join(lines)))
        print("%s: %d tasks -> %s" % (workload, len(lines), path))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
