from fractions import Fraction

import pytest

from gepnerstab.exactmath import QZETA, CycloNum, rank
from gepnerstab.extcalc import (
    HomComplex,
    NoValidSplitError,
    PeriodicResolution,
    PointModule,
    PointNotOnCurveError,
    ResidueTarget,
    WSplit,
    ext_cc,
    ext_cc_closed_form,
    ext_cm,
    ext_cm_closed_form,
    resolution_for,
    split_w,
    u_witness,
    v_witness,
    yoneda_cc_pattern,
    yoneda_cm_pattern,
    yoneda_relations,
)
from gepnerstab.hearts import points_of
from gepnerstab.mfcore import WeightedType
from gepnerstab.polynomials import Poly

T114 = WeightedType((1, 1), 4)
T316 = WeightedType((3, 1), 6)
T113 = WeightedType((1, 1), 3)
T214 = WeightedType((2, 1), 4)
T326 = WeightedType((3, 2), 6)
N2_TYPES = [T113, T214, T326, T114, T316]


def test_split_w_fermat():
    s = split_w(T114.fermat_polynomial(), T114)
    assert s.w1 == Poly.var(2, 0, 3) and s.w2 == Poly.var(2, 1, 3)
    s2 = split_w(T316.fermat_polynomial(), T316)
    assert s2.w1 == Poly.var(2, 0, 1) and s2.w2 == Poly.var(2, 1, 5)


def test_split_w_monomial_case():
    w = Poly.parse("x1*x2", 2)
    s = split_w(w, WeightedType((1, 1), 2))
    assert s.w1 == Poly.monomial(2, (0, 1), Fraction(1, 2))
    assert s.w2 == Poly.monomial(2, (1, 0), Fraction(1, 2))
    assert s.check()


def test_split_w_rejects_constant():
    with pytest.raises(NoValidSplitError):
        split_w(Poly.parse("x1^2 + 1", 2), WeightedType((1, 1), 2))


def _perturbed_split(wtype):
    """A second valid split W1' = W1 + x2 h, W2' = W2 - x1 h, or None."""
    base = split_w(wtype.fermat_polynomial(), wtype)
    a1, a2 = wtype.weights
    mono = _mono_of_degree(wtype, wtype.degree - a1 - a2)
    if mono is None:
        return None
    h = Poly.monomial(2, mono, 1)
    w1 = base.w1 + Poly.var(2, 1) * h
    w2 = base.w2 - Poly.var(2, 0) * h

    def halves(p):
        from gepnerstab.extcalc import _split_two

        return _split_two(p)

    w11, w12 = halves(w1)
    w21, w22 = halves(w2)
    s = WSplit(wtype.fermat_polynomial(), w1, w2, w11, w12, w21, w22)
    assert s.check()
    assert not s.w1.divisible_by_var(1) and not s.w2.divisible_by_var(0)
    return s


def _mono_of_degree(wtype, deg):
    from gepnerstab.polynomials import monomials_of_weighted_degree

    monos = monomials_of_weighted_degree(2, wtype.weights, deg)
    # prefer a pure x2 power so the split conditions survive
    for m in monos:
        if m[0] == 0:
            return m
    return monos[0] if monos else None


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_resolution_exactness_six_periods(t):
    assert resolution_for(t).check_exactness(periods=6)


def test_resolution_twists():
    res = resolution_for(T114)
    assert res.twists(0) == (0,)
    assert res.twists(1) == (-1, -1)
    assert res.twists(2) == (-4, -2)
    assert res.twists(3) == (-5, -5)
    assert res.twists(4) == (-8, -6)


def test_ext_cc_114():
    assert ext_cc(T114, 1, 1) == 2
    assert ext_cc(T114, 1, 0) == 0
    assert ext_cc(T114, 1, 2) == 0
    assert ext_cc(T114, 2, 2) == 1
    assert ext_cc(T114, 2, 1) == 0


def test_ext_cc_316():
    # only Ext^1(C(1), C(0)) = R_1 (dim 1) inside the range
    assert ext_cc(T316, 1, 1) == 1
    for i in range(4):
        assert ext_cc(T316, 2, i) == 0
    assert ext_cc(T316, 3, 1) == 1  # j = a1
    assert ext_cc(T316, 4, 2) == 1  # j = a1 + a2


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_ext_cc_matches_closed_form_in_lemma_range(t):
    a1, a2 = t.weights
    top = t.degree - a1 - a2
    for j in range(1, min(top, a1 + a2) + 1):
        if j >= top and j != a1 + a2:
            continue
        for i in range(4):
            if 0 < j < top or j == a1 + a2:
                assert ext_cc(t, j, i) == ext_cc_closed_form(t, j, i), (t, j, i)


def test_ext_cc_out_of_range():
    with pytest.raises(ValueError):
        ext_cc(T114, 0, 1)
    with pytest.raises(ValueError):
        ext_cc(T114, 3, 1)
    with pytest.raises(ValueError):
        ext_cc(T114, 1, 4)


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_ext_cm_full_ranges(t):
    a1, a2 = t.weights
    d = t.degree
    for point in points_of(t):
        for j in range(0, d - a1 - a2):
            for i in range(4):
                dim, witness = ext_cm(t, j, point, i)
                assert dim == ext_cm_closed_form(t, j, i), (t, j, i)
                if dim == 1 and i in (1, 2):
                    assert witness is not None


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_boundaries_are_the_coboundary_image(t):
    # one cocycle per column of the previous differential, spanning its image
    a1, a2 = t.weights
    for point in points_of(t):
        for j in range(0, t.degree - a1 - a2):
            cx = HomComplex(resolution_for(t), j, PointModule(t, point))
            for i in (1, 2):
                cols = cx.boundaries(i)
                assert len(cols) == cx.dim(i - 1)
                assert all(len(b) == cx.dim(i) and cx.is_cocycle(i, b) for b in cols)
                assert rank(QZETA, cols) == cx.rank(i - 1)


def test_ext_cm_witnesses_114():
    pts = points_of(T114)
    for p in pts:
        dim, w = ext_cm(T114, 0, p, 1)
        assert dim == 1
        # u_0 = p1 e_1 + p2 e_1 in the two stage-1 slots
        assert w[0] == p[0] and w[1] == p[1]
        dim, w = ext_cm(T114, 1, p, 2)
        assert dim == 1
        # v_1 = v e_3 + e_1 with v = p2^3/p1 = -p1^3/p2... both equal W2(p)/p1
        assert w[1] == 1
        assert w[0] * p[0] == p[1] ** 3


def test_ext_cm_point_validation():
    bad = (CycloNum.one(), CycloNum.one())
    with pytest.raises(PointNotOnCurveError):
        ext_cm(T114, 0, bad, 1)


def test_ext_cm_out_of_range():
    with pytest.raises(ValueError):
        ext_cm(T114, 2, points_of(T114)[0], 1)


def test_u_window_316():
    # a1 = 3: the i = 2 window [3, 4) lies outside the lemma range [0, 2)
    for p in points_of(T316):
        for j in (0, 1):
            assert ext_cm(T316, j, p, 2)[0] == 0
        assert ext_cm(T316, 0, p, 1)[0] == 1
        assert ext_cm(T316, 1, p, 1)[0] == 0  # a2 = 1: window is [0, 1)


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_ext_dims_independent_of_split(t):
    base = resolution_for(t)
    split = _perturbed_split(t)
    if split is None:
        pytest.skip("no admissible perturbation of the splitting at this type")
    alt = PeriodicResolution(t, split)
    assert alt.check_exactness(3)
    for j in range(1, t.weights[0] + t.weights[1] + 1):
        for i in range(4):
            c1 = HomComplex(base, j, ResidueTarget()).cohomology_dim(i)
            c2 = HomComplex(alt, j, ResidueTarget()).cohomology_dim(i)
            assert c1 == c2
    pt = points_of(t)[0]
    for j in range(0, t.degree - sum(t.weights)):
        for i in range(4):
            c1 = HomComplex(base, j, PointModule(t, pt)).cohomology_dim(i)
            c2 = HomComplex(alt, j, PointModule(t, pt)).cohomology_dim(i)
            assert c1 == c2


def test_yoneda_cc_pattern():
    pat = yoneda_cc_pattern(T114)
    assert pat[("x1", "x2")] == 1
    assert pat[("x2", "x1")] == -1


def test_yoneda_cm_pattern_114():
    for p in points_of(T114):
        pat = yoneda_cm_pattern(T114, 1, p)
        assert pat["x1"] == p[1]  # p2
        assert pat["x2"] == -p[0]  # -p1


def test_yoneda_relations_structure():
    rel = yoneda_relations(T114)
    assert len(rel.point_patterns) == 4
    rel316 = yoneda_relations(T316)
    assert rel316.point_patterns == []  # no relation in the d = 6 case
    assert rel316.commuting[("x1", "x2")] == 1


def test_exactness_check_catches_mutations():
    # perturbing one entry of the splitting breaks the composition test
    base = split_w(T114.fermat_polynomial(), T114)
    bad = WSplit(
        base.w,
        base.w1 + Poly.var(2, 1, 3),  # w1 no longer satisfies the identity
        base.w2,
        base.w11,
        base.w12,
        base.w21,
        base.w22,
    )
    assert not bad.check()
    res = PeriodicResolution(T114, bad)
    assert not res.check_exactness(1)


def test_stabilization_under_longer_resolution():
    # dims computed from the 2-periodic data do not depend on how many
    # periods are materialized
    res = resolution_for(T114)
    cx = HomComplex(res, 1, ResidueTarget())
    dims_low = [cx.cohomology_dim(i) for i in range(4)]
    assert res.check_exactness(periods=8)
    cx2 = HomComplex(res, 1, ResidueTarget())
    assert dims_low == [cx2.cohomology_dim(i) for i in range(4)]
