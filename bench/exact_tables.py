"""exact_tables: every exact table of the twelve types, then seeded K-classes.

No finite field, quiver or PhaseKey is involved.  Each pass runs in a fresh
interpreter (``child.py tables``):

1. set-up: import the library and build the twelve heart lattices;
2. the checked table set, timed as one cold pass: classification against
   ``tests/golden/table1.json``, Koszul supertraces against their closed
   form for every twist, ``verify_gepner`` with every single-entry
   mutation failing, ``constants`` on their rays, ``phase_table`` and the
   window reports, ``ext_cc``/``ext_cm`` at every point against their
   closed forms, ``yoneda_relations``, and the one-variable
   ``finite_phases`` for d = 3..12 against the closed form;
3. the operations: for CLASSES_PER_LATTICE seeded nonzero K-classes on
   every lattice, the charge, its phase in the window (theta, theta + 2]
   and the slope.  Most classes are generic, so ``phase_of`` takes its
   certified float path.  Checked outside the timed region: the Gepner
   identity on the class, the phase against an independent float
   evaluation, and the slope's invariance under doubling.

Warm-up: none.  Every pass is cold by design, like a script that imports
the library once; the parent runs passes one at a time until the run's
seconds have elapsed.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import os
import random
import statistics
import time
from contextlib import nullcontext
from fractions import Fraction

from common import OUT, ROOT, Tally, check, digest, end_to_end, python_child, spawn

CLASSES_PER_LATTICE = 120
ENTRY_RANGE = 1000
FINITE_DEGREES = range(3, 13)
WARMUP = "none: every pass is a fresh interpreter, so tables and classes run cold"


def table_items(lattices, golden_rows):
    """(label, check function) for every entry of the table set."""
    from gepnerstab import classify, extcalc, geomcharge, hearts, mfcore
    from gepnerstab.mfcore import WeightedType

    def classification():
        check(classify.table_rows((2, 3, 4), 6) == golden_rows, "classification differs from table1.json")

    def koszul(t):
        for j in range(t.degree):
            check(mfcore.zg(mfcore.koszul_c(t, j)) == mfcore.koszul_closed_form(t, j), f"supertrace of C({j})")

    def lattice(lat):
        check(hearts.verify_gepner(lat), "eigen identity")
        for i in range(lat.rank):
            for j in range(lat.rank):
                rows = [list(r) for r in lat.tau_mat]
                rows[i][j] += 1
                mutated = dataclasses.replace(lat, tau_mat=tuple(tuple(r) for r in rows))
                check(not hearts.verify_gepner(mutated), f"mutation ({i}, {j}) passes")

    def constants(t):
        cst = geomcharge.constants(t)  # asserts the exact ray
        z = _float_value(cst.c_w)
        check(abs(z / abs(z) - cmath.exp(1j * math.pi * float(cst.theta_w))) < 1e-12, "C_W off its ray")

    def phases(t, lat):
        if t.epsilon < 0:
            check(len(hearts.phase_table(lat)) == 1 - t.epsilon, "phase table size")
            if t.n == 2:
                check(hearts.window_inequalities_hold(lat), "window inequalities")
        check(len(hearts.window_property_report(lat)) > 0, "empty window report")

    def ext(t):
        a1, a2 = t.weights
        d = t.degree
        for j in range(1, a1 + a2 + 1):
            if 0 < j < d - a1 - a2 or j == a1 + a2:
                for i in range(4):
                    check(extcalc.ext_cc(t, j, i) == extcalc.ext_cc_closed_form(t, j, i), f"ext_cc j={j} i={i}")
        for point in hearts.points_of(t):
            for j in range(d - a1 - a2):
                for i in range(4):
                    dim, _ = extcalc.ext_cm(t, j, point, i)
                    check(dim == extcalc.ext_cm_closed_form(t, j, i), f"ext_cm j={j} i={i}")

    def yoneda(t):
        rel = extcalc.yoneda_relations(t)
        check(rel.commuting[("x1", "x2")] == 1 and rel.commuting[("x2", "x1")] == -1, "commuting pattern")
        for pattern, (p1, p2) in zip(rel.point_patterns, hearts.points_of(t)):
            check(pattern["x1"] == p2 and pattern["x2"] == -p1, "point pattern")

    def finite(d):
        table = hearts.finite_phases(WeightedType((1,), d))
        check(len(table) == d * (d - 1), "table size")
        for m in range(d):
            for ell in range(1, d):
                want = Fraction(-1, 2) - Fraction(ell, d) + Fraction(2 * m, d)
                check(table.entries[f"Q[{m},{ell}]"] == want, f"Q[{m},{ell}]")

    items = [("classification", classification)]
    for t, lat in lattices:
        items.append((f"koszul {t}", lambda t=t: koszul(t)))
        items.append((f"lattice {t}", lambda lat=lat: lattice(lat)))
        items.append((f"constants {t}", lambda t=t: constants(t)))
        items.append((f"phases {t}", lambda t=t, lat=lat: phases(t, lat)))
        if t.n == 2:
            items.append((f"ext {t}", lambda t=t: ext(t)))
            items.append((f"yoneda {t}", lambda t=t: yoneda(t)))
    for d in FINITE_DEGREES:
        items.append((f"finite_phases 1:{d}", lambda d=d: finite(d)))
    return items


def _float_value(z) -> complex:
    """z as a float, summed here rather than through the library's embedding."""
    return sum(float(c) * cmath.exp(2j * math.pi * m / z.d) for m, c in enumerate(z.coeffs))


def class_list(seed: int, lattices) -> list[list[tuple[int, ...]]]:
    out = []
    for index, (_, lat) in enumerate(lattices):
        rng = random.Random(f"exact_tables:{seed}:{index}")
        classes = []
        while len(classes) < CLASSES_PER_LATTICE:
            v = tuple(rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(lat.rank))
            if any(v):
                classes.append(v)
        out.append(classes)
    return out


def class_op(lat, v):
    import gepnerstab
    from gepnerstab import exactmath, hearts

    z = hearts.zg_class_absolute(lat, v)
    try:
        # through the package: the tracer leaves calls inside exactmath unwrapped
        phase = gepnerstab.phase_of(z, lat.theta)
    except exactmath.ZeroValueError:
        phase = None
    return z, phase, hearts.slope_mu(lat, v)


def check_class(lat, v, z, phase, mu):
    from gepnerstab import exactmath, hearts

    zeta = exactmath.cyclo(lat.wtype.degree, 1)
    check(hearts.zg_class_absolute(lat, lat.tau_apply(v)) == zeta * z, "Gepner identity on the class")
    if z.is_zero():
        check(phase is None, "phase of a zero charge")
    else:
        check(phase is not None and lat.theta < phase <= lat.theta + 2, "phase outside the window")
        w = _float_value(z)
        gap = (float(phase) - cmath.phase(w) / math.pi) % 2
        check(min(gap, 2 - gap) < 1e-9, "phase disagrees with the float value")
    check(hearts.slope_mu(lat, tuple(2 * x for x in v)) == mu, "slope not invariant under doubling")


def child_pass(seed: int, lattices, setup_end: float, tracer) -> int:
    """One cold pass in a fresh interpreter, after set-up; prints its result as JSON."""
    golden_rows = json.loads((ROOT / "tests" / "golden" / "table1.json").read_text())["results"]
    tally = Tally()

    t0 = time.perf_counter()
    for label, fn in table_items(lattices, golden_rows):
        exc = None
        try:
            with tracer.op("bench.exact_tables.table", label) if tracer else nullcontext():
                fn()
        except Exception as e:  # noqa: BLE001 - every error is a failed operation
            exc = e
        tally.record(label, exc)
    tables_s = time.perf_counter() - t0

    classes = class_list(seed, lattices)
    times, exact = [], 0
    for index, ((_, lat), vs) in enumerate(zip(lattices, classes)):
        for k, v in enumerate(vs):
            exc = None
            t1 = time.perf_counter()
            try:
                with tracer.op("bench.exact_tables.class", f"{index}.{k}") if tracer else nullcontext():
                    z, phase, mu = class_op(lat, v)
            except Exception as e:  # noqa: BLE001
                exc = e
            times.append(time.perf_counter() - t1)
            if exc is None:
                exact += isinstance(phase, Fraction)
                try:
                    check_class(lat, v, z, phase, mu)
                except Exception as e:  # noqa: BLE001
                    exc = e
            tally.record(f"class {v} on {lat.wtype}", exc)

    out = {
        "setup_end": setup_end,
        "tables_s": tables_s,
        "class_times": times,
        "exact_phases": exact,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "inputs": digest(classes),
    }
    if tracer is not None:
        tracer.uninstall()
        out["aggregates"] = tracer.aggregates()
        tracer.write_spans(OUT / f"spans-exact_tables-s{seed}-{os.getpid()}.jsonl")
    print(json.dumps(out))
    return 0


def run(seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    passes = []  # (child, result, traced)
    start = time.monotonic()
    while len(passes) < 2 or time.monotonic() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        child = spawn(python_child("tables", str(seed), "1" if traced else "0"))
        if child.returncode != 0:
            raise RuntimeError(f"exact_tables pass failed: {child.stderr.decode()[-2000:]}")
        res = child.json()
        tally.add(res["attempted"], res["failed"], res["failures"])
        passes.append((child, res, traced))

    inputs = sorted({res["inputs"] for _, res, _ in passes})
    check(len(inputs) == 1, "passes of one seed saw different inputs")
    record = {
        "warmup": WARMUP,
        "passes": len(passes),
        "inputs": {"classes": inputs[0]},
        "tables_s": [res["tables_s"] for _, res, _ in passes],
        "exact_phases": passes[0][1]["exact_phases"],
    }
    if trace:

        def pass_s(res):
            return res["tables_s"] + sum(res["class_times"])

        traced = [res for _, res, t in passes if t]
        untraced = [res for _, res, t in passes if not t]
        return {
            "tally": tally,
            "record": record,
            "passes": len(traced),
            "aggregates": [res["aggregates"] for res in traced],
            "overhead": statistics.median(map(pass_s, traced)) / statistics.median(map(pass_s, untraced)) - 1,
        }
    times = [t for _, res, _ in passes for t in res["class_times"]]
    setup_s = [res["setup_end"] - child.t_spawn for child, res, _ in passes]
    peak_rss_mb = statistics.median(child.maxrss_mb for child, _, _ in passes)
    metrics = end_to_end(setup_s, peak_rss_mb, times, statistics.median(record["tables_s"]))
    record["setup_probes_s"] = setup_s
    record["ops"] = len(times)
    return {"tally": tally, "record": record, "metrics": metrics}
