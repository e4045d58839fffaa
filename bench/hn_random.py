"""hn_random: Harder-Narasimhan filtrations of seeded random representations.

One operation is the acceptance-7 step for one representation over F_5:
``hn_filtration`` (which checks its own factors), then the weak seesaw
check over every subrepresentation class.  The five n = 2 heart quivers
take turns.  The mix fixes each representation's dimension vector, the
main cost factor: they are those of the first MIX_PER_QUIVER
representations that acceptance criterion 7 draws on each quiver.  The
seed draws the matrices through ``random_rep``, so every seed runs the
same mix of sizes on different maps.

Warm-up: a cold pass over the mix, on a random stream disjoint from the
measured ones, fills the process-wide caches (``gfield.all_subspaces``,
the stability key cache); its time is ``cold_pass_s``.  Measured passes
follow until the run's seconds have elapsed.  Only whole passes are
measured, so every run weighs the mix the same way.
"""

from __future__ import annotations

import json
import random
import resource
import time
from contextlib import nullcontext

from common import (
    BENCH,
    DEFAULT_SEED,
    OUT,
    ScriptedDims,
    Tally,
    check,
    digest,
    end_to_end,
    setup_probes,
)
from gepnerstab import quiverrep
from setups import P
from setups import hn_random as setup
from tracer import Tracer

MIX_PER_QUIVER = 21
WARMUP = "one cold pass over the mix on a disjoint seed stream; it is timed as cold_pass_s"


def mix(quivers) -> list[tuple[int, tuple[int, ...]]]:
    """(quiver index, dimension vector) per operation, quivers interleaved."""
    dims = []
    for wtype, quiver, _ in quivers:
        rng = random.Random(4242 + wtype.degree * 10 + wtype.weights[0])  # acceptance criterion 7's stream
        dims.append([quiverrep.random_rep(quiver, P, rng).dim_vector() for _ in range(MIX_PER_QUIVER)])
    return [(i, dims[i][j]) for j in range(MIX_PER_QUIVER) for i in range(len(quivers))]


def make_pass(quivers, entries, stream: str):
    rng = random.Random(stream)
    reps = []
    for i, dims in entries:
        rep = quiverrep.random_rep(quivers[i][1], P, ScriptedDims(rng.getrandbits(64), dims))
        if rep.dim_vector() != dims:
            raise RuntimeError("random_rep no longer draws the prescribed dimension vector: the workload changed")
        reps.append((i, rep))
    return reps


def hn_op(rep, spec):
    res = quiverrep.hn_filtration(rep, spec)
    total = rep.kclass()
    if any(total):
        key_e = spec.key(total)
        for dims in quiverrep.subrep_classes(rep):
            if dims == total or not any(dims):
                continue
            quot = tuple(a - b for a, b in zip(total, dims))
            ks, kq = spec.key(dims), spec.key(quot)
            check((ks <= key_e <= kq) or (ks >= key_e >= kq), f"weak seesaw fails at {dims}")
    return [list(d) for d, _ in res.factors]


def run_pass(quivers, reps, tally: Tally, tag: str, tracer=None):
    """Times and HN types of one pass; a raised error fails the operation."""
    times, types = [], []
    for k, (i, rep) in enumerate(reps):
        ctx = tracer.op("bench.hn_random.rep", f"{tag}.{k}") if tracer else nullcontext()
        exc = hn_type = None
        t0 = time.perf_counter()
        try:
            with ctx:
                hn_type = hn_op(rep, quivers[i][2])
        except Exception as e:  # noqa: BLE001 - every error is a failed operation
            exc = e
        times.append(time.perf_counter() - t0)
        tally.record(f"{tag}.{k} on {quivers[i][0]}", exc)
        types.append(hn_type)
    return times, types


def run(seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    setup_s = [] if trace else setup_probes("hn_random")
    quivers = setup()
    entries = mix(quivers)
    tally = Tally()

    cold = make_pass(quivers, entries, f"hn_random:cold:{seed}")
    cold_times, _ = run_pass(quivers, cold, tally, "cold")

    times, traced_times, untraced_times, pass_inputs, pass_types = [], [], [], [], []
    start = time.monotonic()
    k = 0
    while k == 0 or time.monotonic() - start < seconds:
        reps = make_pass(quivers, entries, f"hn_random:{seed}:{k}")
        pass_inputs.append(digest([quiverrep.rep_to_json(r) for _, r in reps]))
        if tracer is None:
            t, types = run_pass(quivers, reps, tally, f"p{k}")
            times.extend(t)
        else:
            # the same representations untraced and traced, alternating which goes first
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        t, types = run_pass(quivers, reps, tally, f"p{k}", tracer)
                    finally:
                        tracer.uninstall()
                    traced_times.append(sum(t))
                else:
                    t, types = run_pass(quivers, reps, tally, f"p{k}u")
                    untraced_times.append(sum(t))
        pass_types.append(digest(types))
        k += 1

    pinned = json.loads((BENCH / "pinned.json").read_text())["hn_random"]
    pinned_status = "not checked (seed is not the default seed)"
    if seed == DEFAULT_SEED:
        if pass_inputs[0] != pinned["inputs"]:
            pinned_status = "WORKLOAD CHANGED: the inputs of the default seed differ from the pinned digest"
        else:
            ok = pass_types[0] == pinned["hn_types"]
            pinned_status = "HN types match the pinned digest" if ok else "HN types differ from the pinned digest"
            if not ok:
                # the digest covers the whole first pass; every operation of it fails
                tally.add(0, len(entries), ["pass 0: HN types differ from the pinned digest"])

    record = {
        "warmup": WARMUP,
        "passes": k,
        "pass_s": [sum(times[i : i + len(entries)]) for i in range(0, len(times), len(entries))],
        "inputs": {"mix": digest(entries), "cold": digest([quiverrep.rep_to_json(r) for _, r in cold]), "passes": pass_inputs},
        "hn_types": pass_types,
        "pinned": pinned_status,
    }
    if tracer is not None:
        record["overhead_pairs"] = list(zip(untraced_times, traced_times))
        tracer.write_spans(OUT / f"spans-hn_random-s{seed}.jsonl")
        return {"tally": tally, "record": record, "passes": k, "aggregates": [tracer.aggregates()],
                "overhead": sum(traced_times) / sum(untraced_times) - 1}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(setup_s, peak_rss_mb, times, sum(cold_times))
    record["setup_probes_s"] = setup_s
    record["ops"] = len(times)
    return {"tally": tally, "record": record, "metrics": metrics}
