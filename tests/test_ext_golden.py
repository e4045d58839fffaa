"""Golden record of the Ext layer on the five n = 2 heart types.

For each type the file pins ``ext_cc`` for every j in 1..a1 + a2 and every
i in 0..3; ``ext_cm``'s dimension and witness for every point, every j in
0..d - a1 - a2 - 1 and every i in 0..3; and ``yoneda_relations``.  Values
in Q(zeta_d) are stored as ``{d, coeffs}``, so a witness must match in its
field as well as in its value.  The record was made before the resolution,
the point modules and the point lists were cached, so the test checks that
the cached path gives the same answers as building everything per call.

Regenerate with ``PYTHONPATH=src python tests/test_ext_golden.py`` (only
when a change to the Ext layer is meant to change its output).
"""

import json
from pathlib import Path

import pytest

from gepnerstab.extcalc import ext_cc, ext_cm, yoneda_relations
from gepnerstab.hearts import points_of
from gepnerstab.mfcore import WeightedType

GOLDEN = Path(__file__).parent / "golden" / "ext_tables.json"
TYPES = ["1,1:3", "2,1:4", "3,2:6", "1,1:4", "3,1:6"]


def _value(x):
    return None if x is None else x.to_json()


def record(type_str: str) -> dict:
    t = WeightedType.parse(type_str)
    a1, a2 = t.weights
    d = t.degree
    cc = {str(j): [ext_cc(t, j, i) for i in range(4)] for j in range(1, a1 + a2 + 1)}
    cm = []
    for point in points_of(t):
        by_j = {}
        for j in range(d - a1 - a2):
            rows = []
            for i in range(4):
                dim, witness = ext_cm(t, j, point, i)
                rows.append([dim, None if witness is None else [_value(x) for x in witness]])
            by_j[str(j)] = rows
        cm.append(by_j)
    rel = yoneda_relations(t)
    return {
        "ext_cc": cc,
        "ext_cm": cm,
        "commuting": {f"{a},{b}": str(c) for (a, b), c in sorted(rel.commuting.items())},
        "point_patterns": [{k: _value(v) for k, v in sorted(p.items())} for p in rel.point_patterns],
    }


@pytest.mark.parametrize("type_str", TYPES)
def test_ext_tables_match_golden(type_str):
    assert record(type_str) == json.loads(GOLDEN.read_text())[type_str]


def test_cached_values_are_not_shared_mutably():
    t = WeightedType.parse("1,1:4")
    pts = points_of(t)
    with pytest.raises(TypeError):
        pts[0] = pts[1]  # type: ignore[index]
    with pytest.raises(TypeError):
        pts[0][0] = pts[1][0]  # type: ignore[index]
    assert points_of(t) == pts
    for j, i in ((0, 1), (1, 2)):
        _, witness = ext_cm(t, j, pts[0], i)
        want = [x.to_json() for x in witness]
        witness[0] = witness[1]
        witness.append(witness[0])
        again = ext_cm(t, j, pts[0], i)[1]
        assert [x.to_json() for x in again] == want
    assert record("1,1:4") == json.loads(GOLDEN.read_text())["1,1:4"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({t: record(t) for t in TYPES}, sort_keys=True, separators=(",", ":")) + "\n")
