"""GF(p^k) tables: a golden digest per field, and an oracle that shares no code with gfield.

The golden file stores, for each field with q <= 130 and k <= 3 plus
GF(7^3) and GF(19^2), one sha256 of its add, neg, mul and inv tables and
of ``root_of_unity(n)`` for every n dividing q - 1.  Element codes are what
representation files and the other golden files store, so every table
must stay the same.

Regenerate with ``PYTHONPATH=src python tests/test_gf_tables.py`` (only
when a change to ``gfield`` is meant to change its tables).
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from gepnerstab.gfield import GF, is_prime

GOLDEN = Path(__file__).parent / "golden" / "gf_tables.json"
FIELDS = sorted(
    [(p, k) for p in range(2, 131) if is_prime(p) for k in (1, 2, 3) if p**k <= 130] + [(7, 3), (19, 2)],
    key=lambda pk: pk[0] ** pk[1],
)
SMALL_FIELDS = [(p, k) for p, k in FIELDS if p**k <= 49]


def digest(field: GF) -> str:
    q = field.q
    roots = {n: field.root_of_unity(n) for n in range(1, q) if (q - 1) % n == 0}
    record = [field.add, field.neg, field.mul, field.inv, sorted(roots.items())]
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()


@lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_41_fields():
    assert len(FIELDS) == 41 and sorted(_golden()) == sorted(f"{p}^{k}" for p, k in FIELDS)


@pytest.mark.parametrize("p, k", FIELDS, ids=[f"{p}^{k}" for p, k in FIELDS])
def test_gf_tables_match_golden(p, k):
    assert digest(GF(p, k)) == _golden()[f"{p}^{k}"]


def _digits(a, p, k):
    return [a // p**i % p for i in range(k)]


def _code(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


def _product(a, b, modulus, p):
    """a * b in F_p[x]/(modulus), by schoolbook multiplication and long division."""
    k = len(modulus) - 1
    x, y = _digits(a, p, k), _digits(b, p, k)
    out = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            out[i + j] += x[i] * y[j]
    for top in range(2 * k - 2, k - 1, -1):
        c = out[top]
        for j in range(k + 1):
            out[top - k + j] -= c * modulus[j]
    return _code([c % p for c in out[:k]], p)


def _order(field, a):
    x, n = a, 1
    while x != 1:
        x, n = field.mul[x][a], n + 1
    return n


@pytest.mark.parametrize("p, k", SMALL_FIELDS, ids=[f"{p}^{k}" for p, k in SMALL_FIELDS])
def test_tables_against_polynomial_arithmetic(p, k):
    field = GF(p, k)
    q = field.q
    assert field.modulus[-1] == 1 and len(field.modulus) == k + 1
    for a in range(q):
        for b in range(q):
            assert field.mul[a][b] == _product(a, b, field.modulus, p)
            assert field.add[a][b] == _code([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)
        assert field.add[a][field.neg[a]] == 0
        if a:
            assert _product(a, field.inv[a], field.modulus, p) == 1
    for n in range(1, q):
        if (q - 1) % n == 0:
            assert _order(field, field.root_of_unity(n)) == n
    # the generator is the least code of full order
    g = field.root_of_unity(q - 1)
    assert _order(field, g) == q - 1
    assert all(_order(field, a) < q - 1 for a in range(1, g))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({f"{p}^{k}": digest(GF(p, k)) for p, k in FIELDS}, sort_keys=True, indent=0) + "\n")
