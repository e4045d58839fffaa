"""gepnerstab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload hn_random --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each run is a fresh interpreter with one client: operations run
one at a time, each starting after the previous one ends, and child
processes run one at a time.  See bench/README.md for the workloads, their
warm-up policies and what each metric should move.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced passes over the same
inputs and reports the per-layer metrics of the traced passes, per pass,
with the tracing overhead against the untraced ones.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the line before it
is the run's record (environment, input digests, checks), also written to
bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import common
import tracer
from common import SRC

WORKLOADS = ("hn_random", "exact_tables", "cli_cold")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time; whole passes are measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gepnerstab" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a gepnerstab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    common.OUT.mkdir(parents=True, exist_ok=True)
    workload = importlib.import_module(args.workload)
    out = workload.run(args.seed, args.seconds, bool(args.trace))
    tally = out["tally"]
    if args.trace:
        values = tracer.layer_metrics(tracer.merge(out["aggregates"]), out["passes"])
        values["trace.overhead"] = (out["overhead"], "ratio")
        values["cli.import_s"] = (out.get("import_s", 0.0), "s")
    else:
        values = out["metrics"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": common.environment(),
        **out["record"],
        "failures": tally.failures,
        "metrics": metrics,
    }
    (common.OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
