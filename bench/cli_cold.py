"""cli_cold: a fixed mix of valid ``gepnerstab --json ...`` calls, each cold.

One operation is one call of ``python -m gepnerstab.cli`` in a fresh
interpreter, timed from the spawn to the reaping of the process, exit
code included.  The mix covers every subcommand: table1, classify,
charge, zg, gepner-check, phases (an eps < 0 type and a one-variable
type), ext (C-C and C-point), stability over fields that need extensions
(F_25 and F_49 for ``1,1:4``), and hn on a representation file.  The seed
draws the charge and zg classes and the matrices of the representation;
its dimension vector is fixed, so every seed costs about the same.

Two of the 13 calls take about three times as long as the others, so the
90th percentile falls inside the samples of one of them (``C2m1`` over
F_7 alone) instead of in the noisy top of the band of light calls.

Checks: exit code 0 on every call; table1 and ``gepner-check --type
1,1:4`` byte-equal to ``tests/golden/table1.json`` and
``tests/golden/gepner_check_114.json``; every stability verdict stable;
the hn factors equal to those computed in this process; every other
output a JSON report of its subcommand.

Excluded: invalid inputs, and ``stability --primes 49``, which does not
terminate (GF accepts the non-prime 49 and GF._order loops on its zero
divisors).

Warm-up: none; every call is cold by design.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from common import (
    OUT,
    ROOT,
    ScriptedDims,
    Tally,
    check,
    digest,
    end_to_end,
    python_child,
    setup_probes,
    spawn,
)

HN_TYPE = "1,1:3"
HN_DIMS = (2, 1, 3, 2)
WARMUP = "none: every call is a fresh interpreter"


def make_inputs(seed: int):
    """The argv mix, the representation file and the expected hn factors."""
    from gepnerstab import quiverrep
    from gepnerstab.mfcore import WeightedType

    rng = random.Random(f"cli_cold:{seed}")
    charge_cls = ",".join(str(rng.randint(-3, 3)) for _ in range(3))
    zg_cls = ",".join(str(rng.randint(-3, 3)) for _ in range(6))
    wtype = WeightedType.parse(HN_TYPE)
    quiver = quiverrep.heart_quiver(wtype)
    rep = quiverrep.random_rep(quiver, 5, ScriptedDims(rng.getrandbits(64), HN_DIMS))
    check(rep.dim_vector() == HN_DIMS, "random_rep no longer draws the prescribed dimension vector")
    rep_json = quiverrep.rep_to_json(rep)
    try:
        factors = [list(d) for d, _ in quiverrep.hn_filtration(rep, quiverrep.default_spec(wtype)).factors]
    except ArithmeticError:
        factors = None  # no reference: every hn call fails its check
    rep_path = OUT / f"cli_cold-rep-s{seed}.json"
    rep_path.write_text(json.dumps(rep_json))
    mix = [
        ["table1"],
        ["classify", "--n", "2..4", "--dmax", "6"],
        ["charge", "--type", "1,1,1,1:4", f"--class={charge_cls}"],
        ["zg", "--type", "1,1:4", f"--class={zg_cls}"],
        ["gepner-check", "--type", "1,1:4"],
        ["phases", "--type", "3,1:6"],
        ["phases", "--type", "1:8"],
        ["ext", "--type", "1,1:4", "--from", "C(1)", "--to", "C(0)"],
        ["ext", "--type", "1,1:4", "--from", "C(1)", "--to", "point", "--point", "2"],
        ["stability", "--type", "1,1:4", "--object", "C2m1", "--primes", "5,7"],
        ["stability", "--type", "1,1:4", "--object", "C2m1", "--primes", "7"],
        ["stability", "--type", "1,1:3", "--object", "C1m1", "--primes", "5,7"],
        ["hn", "--rep", str(rep_path.relative_to(ROOT))],
    ]
    return [["--json", *argv] for argv in mix], rep_json, factors


def check_call(argv, stdout: bytes, returncode: int, golden: dict, factors):
    check(returncode == 0, f"exit code {returncode}")
    cmd = argv[1]
    key = tuple(argv[1:])
    if key in golden:
        check(stdout == golden[key], "output differs from its golden file")
        return
    report = json.loads(stdout)
    check(report["command"] == cmd, "report of another command")
    if cmd == "stability":
        check(all(v["status"] == "stable" for v in report["results"]["verdicts"]), "a named object is not stable")
    if cmd == "hn":
        check(factors is not None and report["results"]["factors"] == factors, "hn factors differ")


def run(seed: int, seconds: float, trace: bool) -> dict:
    mix, rep_json, factors = make_inputs(seed)
    golden = {
        ("table1",): (ROOT / "tests" / "golden" / "table1.json").read_bytes(),
        ("gepner-check", "--type", "1,1:4"): (ROOT / "tests" / "golden" / "gepner_check_114.json").read_bytes(),
    }
    setup_s = setup_probes("cli_cold")
    bare_s = setup_probes("bare") if trace else []
    tally = Tally()
    passes = []  # (call times, max RSS, traced)
    aggregates = []
    trace_dir = OUT / f"cli_cold-s{seed}"
    start = time.monotonic()
    while len(passes) < 2 or time.monotonic() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        if traced:
            trace_dir.mkdir(parents=True, exist_ok=True)
        times, rss = [], []
        for n, argv in enumerate(mix):
            trace_file = trace_dir / f"p{len(passes)}-{n}.json"
            cmd = python_child("cli", str(trace_file), *argv) if traced else [sys.executable, "-m", "gepnerstab.cli", *argv]
            child = spawn(cmd)
            times.append(child.wall_s)
            rss.append(child.maxrss_mb)
            exc = None
            try:
                check_call(argv, child.stdout, child.returncode, golden, factors)
            except Exception as e:  # noqa: BLE001 - every error is a failed operation
                exc = e
            tally.record(" ".join(argv), exc)
            if traced:
                aggregates.append(json.loads(trace_file.read_text()))
        passes.append((times, max(rss), traced))

    record = {
        "warmup": WARMUP,
        "passes": len(passes),
        "inputs": {"argv": digest(mix), "rep": digest(rep_json)},
        "excluded": "stability --primes 49 (does not terminate); invalid inputs",
        "setup_probes_s": setup_s,
        "call_s": {" ".join(argv): statistics.median(ts[n] for ts, _, _ in passes) for n, argv in enumerate(mix)},
    }
    if trace:
        traced_s = [sum(t) for t, _, tr in passes if tr]
        untraced_s = [sum(t) for t, _, tr in passes if not tr]
        return {
            "tally": tally,
            "record": record,
            "passes": len(traced_s),
            "aggregates": aggregates,
            "overhead": statistics.median(traced_s) / statistics.median(untraced_s) - 1,
            "import_s": statistics.median(setup_s) - statistics.median(bare_s),
        }
    times = [t for ts, _, _ in passes for t in ts]
    peak_rss_mb = statistics.median(rss for _, rss, _ in passes)
    metrics = end_to_end(setup_s, peak_rss_mb, times, statistics.median(sum(ts) for ts, _, _ in passes))
    record["ops"] = len(times)
    return {"tally": tally, "record": record, "metrics": metrics}
