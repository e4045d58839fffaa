"""Golden record of the subrepresentation enumeration on seeded random reps.

The brute-force oracles compare dictionaries, so they cannot see the
iteration order of ``subrep_classes``.  That order matters: ``is_stable``
reports the first destabilizing class it meets.  This file pins, for a few
seeded ``random_rep`` outputs per n = 2 quiver, the classes with their
counts in iteration order, the witness subspace of every class, and the
``is_stable`` status and witness.

Regenerate with ``PYTHONPATH=src python tests/test_subrep_golden.py``
(only when a change to the enumeration is meant to change its output).
"""

import json
import random
from pathlib import Path

import pytest

from gepnerstab.mfcore import WeightedType
from gepnerstab.quiverrep import default_spec, heart_quiver, is_stable, random_rep, subrep_classes

GOLDEN = Path(__file__).parent / "golden" / "subrep_classes.json"
TYPES = ["1,1:3", "2,1:4", "3,2:6", "1,1:4", "3,1:6"]
REPS_PER_TYPE = 4


def record(type_str: str) -> list[dict]:
    wtype = WeightedType.parse(type_str)
    quiver = heart_quiver(wtype)
    spec = default_spec(wtype)
    rng = random.Random(f"subrep-golden {type_str}")
    out = []
    for _ in range(REPS_PER_TYPE):
        rep = random_rep(quiver, 5, rng)
        classes = subrep_classes(rep)
        verdict = is_stable(rep, spec)
        out.append(
            {
                "dims": list(rep.dim_vector()),
                "classes": [
                    [list(dims), cls.count, {v: [list(row) for row in rows] for v, rows in cls.witness.items()}]
                    for dims, cls in classes.items()
                ],
                "status": verdict.status,
                "witness": list(verdict.witness) if verdict.witness else None,
            }
        )
    return out


@pytest.mark.parametrize("type_str", TYPES)
def test_subrep_classes_match_golden(type_str):
    golden = json.loads(GOLDEN.read_text())
    assert record(type_str) == golden[type_str]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({t: record(t) for t in TYPES}, separators=(",", ":")) + "\n")
