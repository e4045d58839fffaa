import pytest

from gepnerstab.classify import (
    ADE_NORMAL_FORMS,
    NotFermatError,
    _weight_tuples,
    admissible,
    ambient_cy_type,
    enumerate_types,
    geometry_of,
    is_stacky_free,
    k3_constraint,
    normalize_gcd,
    table_rows,
    uniqueness_regime,
)
from gepnerstab.mfcore import WeightedType

# the reference classification for n in {2,3,4}, d <= 6
GOLDEN_ROWS = [
    ((1, 1, 1, 1), 4, 0, "K3 surface (H^2 = 4)"),
    ((3, 1, 1, 1), 6, 0, "K3 surface (H^2 = 2)"),
    ((1, 1, 1), 4, -1, "genus 3 curve"),
    ((3, 1, 1), 6, -1, "genus 2 curve"),
    ((1, 1), 4, -2, "4 points"),
    ((3, 1), 6, -2, "2 points"),
    ((1, 1, 1), 3, 0, "elliptic curve (H = 3)"),
    ((2, 1, 1), 4, 0, "elliptic curve (H = 2)"),
    ((3, 2, 1), 6, 0, "elliptic curve (H = 1)"),
    ((1, 1), 3, -1, "3 points"),
    ((2, 1), 4, -1, "2 points"),
    ((3, 2), 6, -1, "1 point"),
]


def test_normalize_gcd():
    assert normalize_gcd(WeightedType((2, 2), 8)) == (WeightedType((1, 1), 4), 2)
    assert normalize_gcd(WeightedType((3, 2, 1), 6)) == (WeightedType((3, 2, 1), 6), 1)
    assert normalize_gcd(WeightedType((6, 2), 12)) == (WeightedType((3, 1), 6), 2)


def test_normalize_gcd_idempotent_and_epsilon_scaling():
    t = WeightedType((4, 2), 12)
    red, a = normalize_gcd(t)
    assert normalize_gcd(red) == (red, 1)
    assert t.epsilon == a * red.epsilon


def test_is_stacky_free():
    assert not is_stacky_free(WeightedType((2, 2, 1, 1), 4))
    assert is_stacky_free(WeightedType((3, 1, 1, 1), 6))
    assert is_stacky_free(WeightedType((3, 2, 1), 6))
    with pytest.raises(NotFermatError):
        is_stacky_free(WeightedType((3, 1), 4))  # 3 does not divide 4


def test_k3_constraint_examples():
    assert k3_constraint(2, 4)
    assert k3_constraint(1, 6)
    assert not k3_constraint(3, 5)  # 2cos(2pi/5) is irrational


def test_k3_constraint_exhaustive_window():
    accepted = [(m, d) for m in range(1, 12) for d in range(3, 101) if k3_constraint(m, d)]
    assert accepted == [(1, 6), (2, 4)]


def test_uniqueness_regime():
    assert not uniqueness_regime(WeightedType((1, 1, 1, 1), 4))  # 4 <= 0 false
    assert uniqueness_regime(WeightedType((1, 1, 1), 3))  # 0 <= 0
    assert uniqueness_regime(WeightedType((1, 1), 4))  # -4 <= -4
    assert not uniqueness_regime(WeightedType((1, 1, 1), 4))  # 4 <= -2 false


def test_golden_table():
    rows = table_rows((2, 3, 4), 6)
    assert len(rows) == 12
    got = [(tuple(r["weights"]), r["d"], r["epsilon"], r["X"]) for r in rows]
    assert got == GOLDEN_ROWS
    for r in rows:
        assert r["n"] == len(r["weights"])
        assert "^" in r["W"]


def test_classification_stable_beyond_degree_six():
    # the eigen constraint cuts every candidate with d in 7..12, so the
    # table is complete rather than an artifact of the cutoff
    rows6 = enumerate_types((2, 3, 4), 6)
    rows12 = enumerate_types((2, 3, 4), 12)
    assert rows6 == rows12
    # enumerate_types stops at d = 6 by Niven's theorem; the constraint
    # itself is checked here on every candidate it no longer visits
    for n in (2, 3, 4):
        for d in range(7, 13):
            assert not any(admissible(WeightedType(ws, d)) for ws in _weight_tuples(n, d))


def test_enumeration_is_bounded_in_n_and_d():
    assert enumerate_types(range(1, 13), 60) == enumerate_types((2, 3, 4), 6)


def test_enumerated_types_are_valid():
    for wtype, geom in enumerate_types((2, 3, 4), 6):
        assert is_stacky_free(wtype)
        assert all(wtype.degree % a == 0 for a in wtype.weights)
        red, a = normalize_gcd(wtype)
        assert a == 1 and red == wtype


def test_point_count_against_root_counting_oracle():
    """Count points of the binary Fermat form by explicit root enumeration.

    Solutions with x2 = 1 are x1^(d/a1) = -1; the residual mu_{a2} scaling
    acts by x1 -> lambda^{a1} x1.  The number of orbits must match the
    d/(a1*a2) rule used by the classifier.
    """
    n2_rows = [(t, g) for t, g in enumerate_types((2,), 6)]
    assert len(n2_rows) == 5
    for wtype, geom in n2_rows:
        a1, a2 = wtype.weights
        d = wtype.degree
        k1 = d // a1
        # roots of t^k1 = -1 as exponents of zeta_(2 k1): odd powers
        roots = {(2 * j + 1) % (2 * k1) for j in range(k1)}
        # lambda in mu_(a2): multiplies root exponent by shift of 2*k1/a2... act:
        # lambda = zeta_(a2)^s acts as x1 -> zeta_(a2)^(s*a1) * x1; exponent shift
        # in zeta_(2 k1) units is s * a1 * (2 k1 / a2)
        orbits = set()
        for r in roots:
            orbit = frozenset((r + s * a1 * (2 * k1 // a2)) % (2 * k1) for s in range(a2))
            assert orbit <= roots
            orbits.add(orbit)
        assert len(orbits) == geom.count


def test_elliptic_membership():
    t = WeightedType((1, 1, 1), 3)
    geom = geometry_of(t)
    assert geom.kind == "elliptic" and geom.h_degree == 3
    assert ambient_cy_type(WeightedType((1, 1), 3)) == t


def test_point_counts():
    assert geometry_of(WeightedType((1, 1), 4)).count == 4
    assert geometry_of(WeightedType((3, 2), 6)).count == 1


def test_runtime_budget():
    import time

    start = time.monotonic()
    table_rows((2, 3, 4), 6)
    assert time.monotonic() - start < 1.0


def test_ade_reference_data_present():
    assert set(ADE_NORMAL_FORMS) == {"A_l", "D_l", "E_6", "E_7", "E_8"}
