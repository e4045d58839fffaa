"""Golden record of CycloNum arithmetic over Q(zeta_d) for d = 1..48.

For each d a seeded sweep builds zero, a root of unity, a rational, a dense
and a sparse element with small Fraction coefficients, and an element of a
second field Q(zeta_e) with lcm(d, e) <= 96.  The file pins +, - and * (same
d, mixed d, and int, Fraction and d = 1 operands on both sides), inverse,
/, ** with negative and positive exponents, galois, conjugate, promote,
real_part, imag_part, norm, is_real and == across fields.  Each value is
stored as its ``to_json()`` and its ``repr()``, so a result must match in
its field, its coefficients and its printed form.

Regenerate with ``PYTHONPATH=src python tests/test_cyclo_golden.py`` (only
when a change to ``exactmath`` is meant to change its output).
"""

import json
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from gepnerstab.exactmath import CycloNum, cyclo, euler_phi

GOLDEN = Path(__file__).parent / "golden" / "cyclo_arith.json"
DEGREES = range(1, 49)


def _value(v):
    if isinstance(v, CycloNum):
        return {"json": v.to_json(), "repr": repr(v)}
    if isinstance(v, bool):
        return v
    return str(v)  # a Fraction (norm)


def _element(rng, d, density):
    return CycloNum(
        d,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < density else 0 for _ in range(euler_phi(d))],
    )


def _unit(rng, d):
    return next(k for k in iter(lambda: rng.randint(1, 2 * d + 1), None) if math.gcd(k, d) == 1)


def record(d: int) -> list:
    rng = random.Random(1200 + d)
    dense, sparse = _element(rng, d, 0.8), _element(rng, d, 0.3)
    while dense.is_zero() or sparse.is_zero():
        dense, sparse = _element(rng, d, 0.8), _element(rng, d, 0.3)
    e = rng.choice([f for f in DEGREES if math.lcm(d, f) <= 96])
    other = _element(rng, e, 0.7)
    while other.is_zero():
        other = _element(rng, e, 0.7)
    named = {
        "zero": CycloNum.zero(d),
        "root": cyclo(d, rng.randrange(d)),
        "rat": CycloNum.from_rational(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)), d),
        "binom": Fraction(2 * rng.randint(0, 2) + 1, 2) - rng.randint(1, 3) * cyclo(d, rng.randrange(d)),
        "dense": dense,
        "sparse": sparse,
        "other": other,
    }
    # inverses in large fields have huge coefficients: there only the small elements are inverted
    small = [p for p, x in named.items() if p != "zero" and (x.d <= 12 or p in ("root", "rat", "binom"))]
    scalars = {
        "int": rng.randint(-6, 6) or 2,
        "frac": Fraction(rng.randint(-6, 6) or 1, rng.randint(2, 9)),
        "d1": CycloNum(1, [Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 5))]),
    }
    out = [["values", {k: _value(v) for k, v in named.items()}]]

    def put(label, v):
        out.append([label, _value(v)])

    def pick(pool):
        p = rng.choice(list(pool))
        return p, named[p]

    same = [p for p in named if p != "other"]
    for _ in range(2):
        for sym, op in (("+", operator.add), ("-", operator.sub), ("*", operator.mul), ("==", operator.eq)):
            (p, x), (q, y) = pick(same), pick(same)
            put(f"{p}{sym}{q}", op(x, y))
        (p, x), (q, y) = pick(same), pick(small)
        put(f"{p}/{q}", x / y)
    for sym, op in (("+", operator.add), ("-", operator.sub), ("*", operator.mul), ("==", operator.eq)):
        p, x = pick(same)
        put(f"{p}{sym}other", op(x, named["other"]))
        put(f"other{sym}{p}", op(named["other"], x))
    p, x = pick(small)
    put(f"other/{p}", named["other"] / x)
    for s, c in scalars.items():
        for sym, op in (("+", operator.add), ("-", operator.sub), ("*", operator.mul)):
            p, x = pick(same)
            put(f"{p}{sym}{s}", op(x, c))
            p, x = pick(same)
            put(f"{s}{sym}{p}", op(c, x))
        p, x = pick(same)
        put(f"{p}/{s}", x / c)
        p, x = pick(small)
        put(f"{s}/{p}", c / x)
    put("dense**0", named["dense"] ** 0)
    for p in rng.sample(list(named), 4):
        x = named[p]
        if p in small:
            put(f"inv {p}", x.inverse())
            put(f"{p}**-2", x**-2)
            put(f"norm {p}", x.norm())
        if rng.random() < 0.5:
            put(f"{p}**3", x**3)
        k = _unit(rng, x.d)
        put(f"galois {p} {k}", x.galois(k))
        put(f"conj {p}", x.conjugate())
        put(f"re {p}", x.real_part())
        put(f"im {p}", x.imag_part())
        put(f"is_real {p}", x.is_real())
        put(f"is_real re {p}", x.real_part().is_real())
        m = rng.choice([m for m in (1, 2, 3, 4) if x.d * m <= 96])
        y = x.promote(x.d * m)
        put(f"promote {p} {m}", y)
        put(f"{p}==promote {m}", x == y)
        put(f"promote {m}=={p}+1", y == x + 1)
    put("root==cyclo(2d)", named["root"] == cyclo(2 * d, 2 * rng.randrange(d)))
    return out


@lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("d", DEGREES)
def test_cyclo_arith_matches_golden(d):
    assert record(d) == _golden()[str(d)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({str(d): record(d) for d in DEGREES}, sort_keys=True, separators=(",", ":")) + "\n")
