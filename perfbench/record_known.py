"""Rewrite ``known_failures.json``: the requests that fail at this commit.

Usage:  python3 perfbench/record_known.py

Runs every request of every workload grid once, untimed, judges it by the
failure rule, and records each failure with the defect that explains it.
``run.py`` reports ``correct: false`` for any failure not in this file, so
regenerate it only when a change is meant to alter which requests fail.
"""

from __future__ import annotations

import json
import os
import sys

import grids
import worker

DEFECTS = {
    "eval": "no ROADMAP item yet: the exact closed form is right (it matches the "
            "reference to 20 digits when evaluated in mpmath), but eval_numeric "
            "loses it to cancellation among large pi-power terms and to zb1 summed "
            "only to the 1e-10 target",
    "item1": "ROADMAP item 1: tanh-sinh loses the log-singular mass at the far "
             "endpoint pi (logsin) or 2pi (ls)",
    "irrational": "no ROADMAP item yet (nearest: items 2-3, the k-series kernel and "
                  "its tail): the direct sine series cannot certify an angle that is "
                  "not a rational multiple of pi and raises AccelerationError",
}


def explain(req: grids.Request, output) -> str:
    if req.kind in ("log_sin_power_integral", "log_sine_integral") and getattr(output, "exact", False):
        return DEFECTS["eval"]
    if req.kind == "quadrature_value" and req.args[2:] in (("pi", "logsin"), ("2pi", "ls")):
        return DEFECTS["item1"]
    if req.kind == "log_sine_any_angle" and grids.is_irrational(req):
        return DEFECTS["irrational"]
    raise SystemExit(f"{req.id} fails without a recorded explanation; fix it or add one")


def main() -> int:
    logsine = worker.import_logsine()
    table = {}
    for workload in grids.WORKLOADS:
        requests = grids.build(workload)
        refs = worker.load_references(requests)
        runner = worker.Runner(logsine, requests)
        failed = {}
        for req in requests:
            try:
                output, exc = runner(req), None
            except Exception as err:  # a raised request is a failed request
                output, exc = None, err
            reason = worker.judge(logsine, req, output, exc, refs)
            if reason is not None:
                failed[req.id] = f"{explain(req, output)} [{reason}]"
        table[workload] = failed
        print(f"{workload}: {len(failed)} of {len(requests)} requests fail")
    path = os.path.join(worker.HERE, "known_failures.json")
    with open(path, "w") as fh:
        json.dump({"workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
