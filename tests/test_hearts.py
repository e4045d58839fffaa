import math
import random
from fractions import Fraction
from itertools import product

import pytest

from gepnerstab.classify import enumerate_types
from gepnerstab import hearts
from gepnerstab.exactmath import CycloNum, ResourceLimitError, cyclo, phase_of, sign_real
from gepnerstab.hearts import (
    CaseLattice,
    UnsupportedCaseError,
    _rotation,
    build_lattice,
    clifford_predicate,
    crucial_inequality,
    finite_phases,
    hom_vanishing_window,
    im_units,
    lattice_for,
    phase_key,
    phase_table,
    points_of,
    slope_mu,
    tilt_side,
    verify_gepner,
    window_inequalities_hold,
    window_property_report,
    zg_class,
    zg_class_absolute,
)
from gepnerstab.mfcore import WeightedType

ALL_TYPES = [t for t, _ in enumerate_types((2, 3, 4), 6)]


def lat(ws, d):
    return lattice_for(WeightedType(ws, d))


def test_lattice_3_0_tau():
    L = lat((1, 1, 1), 3)
    # (r, delta) -> (-2r - delta, 3r + delta)
    assert L.tau_apply((1, 0)) == (-2, 3)
    assert L.tau_apply((0, 1)) == (-1, 1)
    z = cyclo(3, 1)
    assert zg_class(L, L.tau_apply((0, 1))) == z * (-1)


def test_lattice_2_2_tau_c1():
    L = lat((1, 1), 4)
    # tau[C(1)] = -(2[C(1)] + 3[C(0)] + sum of points)
    assert L.tau_apply((1, 0, 0, 0, 0, 0)) == (-2, -3, -1, -1, -1, -1)
    # so [C(2)[-1]] = (2, 3, 1, 1, 1, 1)
    assert tuple(-x for x in L.class_of_c(2)) == (2, 3, 1, 1, 1, 1)


def test_lattice_3_1_tau_validated_by_eigen_identity():
    L = lat((1, 1, 1), 4)
    z = cyclo(4, 1)
    assert zg_class(L, L.tau_apply((1, 0, 0))) == z * (1 - z)
    assert zg_class(L, (0, 1, 0)) == 2 * z  # PsiO_X
    assert zg_class(L, (1, 0, 0)) == 1 - z


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_gepner_identity_all_lattices(t):
    assert verify_gepner(lattice_for(t))


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_gepner_identity_mutation_tests(t):
    L = lattice_for(t)
    n = L.rank
    for i in range(n):
        for j in range(n):
            rows = [list(r) for r in L.tau_mat]
            rows[i][j] += 1
            mutated = CaseLattice(
                case=L.case,
                wtype=L.wtype,
                geometry=L.geometry,
                basis=L.basis,
                zg_row=L.zg_row,
                tau_mat=tuple(tuple(r) for r in rows),
                theta=L.theta,
                theta_w=L.theta_w,
                c_w=L.c_w,
                points=L.points,
            )
            assert not verify_gepner(mutated)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_tau_power_d_is_identity(t):
    L = lattice_for(t)
    n = L.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert L.tau_power(t.degree) == ident


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_serre_action(t):
    # numerical Serre action: zg(S v) = (-1)^(n-2) zeta^(-eps) zg(v)
    L = lattice_for(t)
    s = L.serre_mat()
    z = cyclo(t.degree, 1)
    factor = z ** ((-t.epsilon) % t.degree) * (-1 if (t.n - 2) % 2 else 1)
    for j in range(L.rank):
        e = tuple(1 if i == j else 0 for i in range(L.rank))
        sv = tuple(sum(s[i][k] * e[k] for k in range(L.rank)) for i in range(L.rank))
        assert zg_class(L, sv) == factor * zg_class(L, e)


def test_zg_class_values_2_2():
    L4 = lat((1, 1), 4)
    i = cyclo(4, 1)
    # class of tau PsiO(x): [C(0)] + [PsiO(x)]
    assert zg_class(L4, (0, 1, 1, 0, 0, 0)) == -i
    # [C(2)[-2]] = [C(2)], and its charge is -1 + i
    assert zg_class(L4, L4.class_of_c(2)) == -1 + i
    L6 = lat((3, 1), 6)
    z = cyclo(6, 1)
    # Gepner-consistent class of C(2)[-1] is (1, 1, 1, 1)
    assert tuple(-x for x in L6.class_of_c(2)) == (1, 1, 1, 1)
    assert zg_class(L6, (1, 1, 1, 1)) == -(z ** 2) * (1 - z)


def test_zg_class_absolute_identities():
    for t in ALL_TYPES:
        L = lattice_for(t)
        d, z = t.degree, cyclo(t.degree, 1)
        # Z(PsiO_x) = -C_W: the skyscraper class per case
        if t.n == 2:
            pt = L.basis.index("PsiO(p1)")
            e = tuple(1 if i == pt else 0 for i in range(L.rank))
        elif t.epsilon == -1:
            e = (0, 0, 1)
        else:
            e = (0,) * (L.rank - 1) + (1,)
        assert zg_class_absolute(L, e) == -L.c_w
        # Z(C(j)) = C_W zeta^j (1 - zeta) for all j, in every case
        for j in range(d):
            assert zg_class_absolute(L, L.class_of_c(j)) == L.c_w * z ** j * (1 - z)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_zg_class_absolute_matches_cyclonum_sum(t):
    # the integer charge rows against C_W * sum_i v_i zg(e_i) in CycloNums
    L = lattice_for(t)
    rng = random.Random(f"charge rows:{t}")
    for _ in range(100):
        v = tuple(rng.randint(-1000, 1000) for _ in range(L.rank))
        acc = CycloNum.zero(t.degree)
        for c, u in zip(v, L.zg_row):
            acc = acc + c * u
        want = L.c_w * acc
        got = zg_class_absolute(L, v)
        assert got.d == want.d and got.coeffs == want.coeffs, v


def test_tau_rule_consistent_on_twisted_line_bundles():
    # [tau Psi(F)] = [Psi(F(1))] + chi(F(1)) [C(0)] must be tau-linear:
    # applying the lattice tau to the class of O_X(k) reproduces the rule
    for ws, d in (((1, 1, 1), 4), ((3, 1, 1), 6)):
        L = lat(ws, d)
        g = L.geometry.genus
        deg1 = 2 * g - 2  # degree of the hyperplane twist
        for k in range(0, 4):
            cls = (0, 1, k * deg1)  # class of Psi(O_X(k))
            chi = (k + 1) * deg1 + 1 - g
            rule = (chi, 1, (k + 1) * deg1)
            assert L.tau_apply(cls) == rule


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_lattice_charge_matches_supertrace_of_koszul_data(t):
    # two independent routes to Z(C(j)): the lattice row applied to the
    # K-class, and the supertrace of the explicit Koszul shift data
    from gepnerstab.mfcore import koszul_c, zg

    L = lattice_for(t)
    for j in range(t.degree):
        assert zg_class_absolute(L, L.class_of_c(j)) == zg(koszul_c(t, j))


def test_shift_roundtrip_with_maps():
    from gepnerstab.mfcore import WeightedType as WT
    from gepnerstab.mfcore import q_object, shift

    mf = q_object(WT((1,), 4), 1, 2)
    assert shift(shift(mf, 1), -1) == mf
    assert shift(shift(mf, -1), 1) == mf


def test_slope_values():
    L = lat((1, 1, 1), 4)
    assert slope_mu(L, (2, 1, 0)) == 0  # (R, r) = (2, 1)
    assert slope_mu(L, (3, 1, 4)) == Fraction(1, 6)  # sections of O_X(1)
    assert slope_mu(L, (0, 1, 2)) == float("-inf")
    L22 = lat((1, 1), 4)
    assert slope_mu(L22, (0, 1, 1, 0, 0, 0)) == 0  # tau PsiO(x)
    assert slope_mu(L22, (1, 0, 0, 0, 0, 0)) == float("inf")
    assert slope_mu(L22, L22.class_of_c(2)) is not None
    L21 = lat((1, 1), 3)
    assert slope_mu(L21, (1, 0, 0, 0)) == -1
    LK3 = lat((1, 1, 1, 1), 4)
    assert slope_mu(LK3, (1, 0, 0)) == 2
    assert slope_mu(LK3, (0, 0, 1)) == float("inf")


def test_c2m1_slope_positive_d4():
    L = lat((1, 1), 4)
    c2m1 = tuple(-x for x in L.class_of_c(2))
    assert slope_mu(L, c2m1) == Fraction(1, 4)
    assert tilt_side(L, c2m1, Fraction(1, 4)) == "torsion"


def _cos(lat):
    return (cyclo(lat.wtype.degree, 1) + cyclo(lat.wtype.degree, -1)).as_fraction() / 2


def _slope_oracle(lat, v):
    # the case slopes in Fraction arithmetic, term by term
    cos = _cos(lat)
    if lat.case in ((3, 0), (2, -1)):
        return Fraction(-1)
    if lat.case == (4, 0):
        m = Fraction(lat.geometry.h_square) / 2
        r, c = Fraction(v[0]), Fraction(v[1])
        return math.inf if r == 0 else (m * r + 2 * m * c) / r
    if lat.case == (3, -1):
        big_r, small_r = Fraction(v[0]), Fraction(v[1])
        return -math.inf if big_r == 0 else (big_r - 2 * small_r) / (2 * big_r)
    v1, v0, w = Fraction(v[0]), Fraction(v[1]), Fraction(sum(v[2:]))
    return math.inf if w == 0 else (v1 + (1 - cos) * v0) / w - 1


def _im_units_oracle(lat, v):
    cos = _cos(lat)
    if lat.case == (3, -1):
        return Fraction(2 * v[1] - v[0])
    w = Fraction(sum(v[2:]))
    return (w - v[0] - (1 - cos) * v[1]) / (1 - cos)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_slopes_and_im_units_match_fraction_oracle(t):
    L = lattice_for(t)
    rng = random.Random(f"slope-oracle:{t}")
    vs = [tuple(rng.randint(-1000, 1000) for _ in range(L.rank)) for _ in range(200)]
    infinite = 0
    for v in vs + list(product(range(-2, 3), repeat=L.rank)):
        got, want = slope_mu(L, v), _slope_oracle(L, v)
        assert (type(got), got) == (type(want), want), v
        infinite += isinstance(got, float)
        if L.case in ((3, -1), (2, -2)):
            got, want = im_units(L, v), _im_units_oracle(L, v)
            assert (type(got), got) == (type(want), want), v
    if L.case in ((4, 0), (3, -1), (2, -2)):
        assert infinite > 0
    if L.case not in ((3, -1), (2, -2)):
        with pytest.raises(UnsupportedCaseError):
            im_units(L, (1,) * L.rank)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_phase_of_window_forms_agree(t):
    # a window start given as an int, a float, a Fraction or lat.theta gives
    # the same phase and the same type (exact ray or float)
    L = lattice_for(t)
    theta = L.theta
    windows = [(-1, Fraction(-1)), (0, Fraction(0)), (theta, Fraction(theta.numerator, theta.denominator))]
    windows += [(float(w), w) for w in (Fraction(-1, 2), theta) if float(w) == w]
    rng = random.Random(f"phase-windows:{t}")
    vs = [tuple(rng.randint(-1000, 1000) for _ in range(L.rank)) for _ in range(40)]
    vs += [tuple(1 if i == j else 0 for i in range(L.rank)) for j in range(L.rank)]
    kinds = set()
    for v in vs:
        z = zg_class_absolute(L, v)
        if z.is_zero():
            continue
        for given, plain in windows:
            got, want = phase_of(z, given), phase_of(z, plain)
            assert (type(got), got) == (type(want), want), (v, given)
            assert plain < got <= plain + 2
            kinds.add(type(got))
    assert kinds == {Fraction, float}


def test_tilt_side():
    L = lat((1, 1, 1), 4)
    assert tilt_side(L, (3, 1, 4), Fraction(1, 6)) == "torsion"
    assert tilt_side(L, (2, 1, 0), Fraction(0)) == "free"
    assert tilt_side(L, (0, 1, 2), float("-inf")) == "free"


def test_im_units():
    L = lat((1, 1, 1), 4)
    # the heart object is tau PsiO(x)[-1]; its class is the negation
    shifted = tuple(-x for x in L.class_of_tau_psi_point())
    assert im_units(L, shifted) == 1  # minimal positive increment
    L22 = lat((1, 1), 4)
    # d=4: zg(tau PsiO(x)) = -i sits on the window boundary, -Re = 0
    assert im_units(L22, (0, 1, 1, 0, 0, 0)) == 0
    # C(1)[-1] has -Re zg = 1
    assert im_units(L22, (-1, 0, 0, 0, 0, 0)) == 1
    L26 = lat((3, 1), 6)
    # d=6: -Re zg(tau PsiO(x)) = 1/2 is the minimal increment
    assert im_units(L26, (0, 1, 1, 0)) == 1


def test_phase_table_2_1():
    L = lat((1, 1), 3)
    table = phase_table(L)
    th_w = L.theta_w
    assert th_w == Fraction(-1, 2)
    assert table["tauPsiOx"] == th_w + 1 + Fraction(2, 3) == Fraction(7, 6)
    assert table["C(1)"] == th_w + Fraction(1, 3) + Fraction(2, 3) + Fraction(3, 2)


def test_phase_table_2_2():
    L = lat((1, 1), 4)
    table = phase_table(L)
    th_w = L.theta_w
    assert table["C(1)"] == th_w + Fraction(1, 4) + Fraction(1, 2) + Fraction(3, 2)
    assert set(table) == {"tauPsiOx", "C(1)", "C(2)"}


@pytest.mark.parametrize("t", [t for t in ALL_TYPES if t.n == 2], ids=str)
def test_window_inequalities(t):
    assert window_inequalities_hold(lattice_for(t))


@pytest.mark.parametrize("t", [t for t in ALL_TYPES if t.epsilon < 0], ids=str)
def test_phase_tables_all_negative_eps(t):
    table = phase_table(lattice_for(t))
    assert len(table) == 1 - t.epsilon


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_window_property_named_generators(t):
    report = window_property_report(lattice_for(t))
    td = lattice_for(t).theta_dagger
    for label, cls, q in report:
        assert td < q <= td + 1


@pytest.mark.parametrize("t", [t for t in ALL_TYPES if (t.n, t.epsilon) == (2, -1)], ids=str)
def test_charge_sector_width_below_one_for_star_cases(t):
    # the window-phase order is a genuine stability function on these
    # hearts because the basis charges span a sector of width < 1
    L = lattice_for(t)
    phases = []
    for j in range(L.rank):
        e = tuple(1 if i == j else 0 for i in range(L.rank))
        q = phase_of(zg_class(L, e), L.theta_dagger)
        assert isinstance(q, Fraction)
        phases.append(q)
    assert max(phases) - min(phases) < 1


def test_phase_key_ordering():
    L = lat((1, 1), 4)
    # tau PsiO(x) has phase 3/2 - 1/2 = 1 after rotation... compare with PsiO(x)
    k_tau = phase_key(L, (0, 1, 1, 0, 0, 0))
    k_pt = phase_key(L, (0, 0, 1, 0, 0, 0))
    assert k_pt < k_tau
    assert k_pt == phase_key(L, (0, 0, 0, 1, 0, 0))
    assert k_pt == phase_key(L, (0, 0, 2, 0, 0, 0))  # same ray
    k_c2m1 = phase_key(L, tuple(-x for x in L.class_of_c(2)))
    assert k_tau < k_c2m1
    with pytest.raises(ZeroDivisionError):
        phase_key(L, (1, 1, -1, -1, 0, 0) if False else (0, 0, 0, 0, 0, 0))


def _exact_sign(x):
    return sign_real(x) if not x.is_zero() else 0


def _im(x):
    return (x - x.conjugate()) * cyclo(4, -1) * Fraction(1, 2)


def _reference_region(w):
    """0, 1, 2, 3 for phases in (0, 1), {1}, (1, 2), {2} of the rotated charge."""
    s_im = _exact_sign(_im(w))
    if s_im:
        return 0 if s_im > 0 else 2
    return 1 if _exact_sign(w) < 0 else 3


@pytest.mark.parametrize("t", [t for t in ALL_TYPES if t.n == 2], ids=str)
def test_phase_key_matches_exact_cross_sign(t):
    # reference: regions and sign(Im(conj(w_a) w_b)) by CycloNum products and sign_real
    L = lattice_for(t)
    rng = random.Random(5)
    classes = []
    while len(classes) < 24:
        v = tuple(rng.randint(-3, 3) for _ in range(L.rank))
        w = zg_class(L, v) * _rotation(L)
        if w.is_zero():
            with pytest.raises(ZeroDivisionError):
                phase_key(L, v)
            continue
        classes += [v, tuple(2 * x for x in v), tuple(3 * x for x in v)]  # scaled copies tie
    ws = [zg_class(L, v) * _rotation(L) for v in classes]
    keys = [phase_key(L, v) for v in classes]
    form = L._phase_form
    ties = 0
    for v, w, k in zip(classes, ws, keys):
        assert form.im_row.exact_sign(v) == _exact_sign(_im(w))
        assert -form.neg_re_row.exact_sign(v) == _exact_sign(w.real_part())
        for b, wb, kb in zip(classes, ws, keys):
            cross = _exact_sign(_im(w.conjugate() * wb))
            assert k._row.exact_sign(b) == cross
            ra, rb = _reference_region(w), _reference_region(wb)
            if ra != rb:
                expect_eq, expect_lt = False, ra < rb
            else:
                expect_eq = ra in (1, 3) or cross == 0
                expect_lt = ra in (0, 2) and cross > 0
            assert (k == kb) == expect_eq, (v, b)
            assert (k < kb) == expect_lt, (v, b)
            ties += expect_eq
    assert ties >= 3 * len(classes)  # each class ties with itself and its scaled copies


def _eq_by_two_signs(a, b):
    if a.region != b.region:
        return False
    return a.region in (1, 3) or a._row.sign(b.cls, b._norm) == 0


def _lt_by_two_signs(a, b):
    if a.region != b.region:
        return a.region < b.region
    return a.region in (0, 2) and a._row.sign(b.cls, b._norm) > 0


@pytest.mark.parametrize("t", [WeightedType((1, 1), 3), WeightedType((2, 1), 4), WeightedType((3, 2), 6)], ids=str)
def test_phase_key_operators_match_their_two_sign_definitions(t):
    # <= and >= used to be (==) or (<), and > and >= the reflected < and <=;
    # each operator now reads one cross sign
    L = lattice_for(t)
    keys = [phase_key(L, v) for v in product(range(3), repeat=L.rank) if any(v)]
    for a in keys:
        for b in keys:
            eq, lt, gt = _eq_by_two_signs(a, b), _lt_by_two_signs(a, b), _lt_by_two_signs(b, a)
            assert (a == b, a < b, a <= b, a > b, a >= b) == (eq, lt, eq or lt, gt, _eq_by_two_signs(b, a) or gt)


def test_phase_key_total_phases_shift():
    # phase(zg(tau^k v)) = phase(zg(v)) + 2k/d mod 2 whenever both exact
    for t in ALL_TYPES:
        L = lattice_for(t)
        d = t.degree
        v = tuple(1 if i == 0 else 0 for i in range(L.rank))
        p0 = phase_of(zg_class(L, v), Fraction(-1))
        for k in (1, 2):
            vk = v
            for _ in range(k):
                vk = L.tau_apply(vk)
            pk = phase_of(zg_class(L, vk), Fraction(-1))
            if isinstance(p0, Fraction) and isinstance(pk, Fraction):
                assert (pk - p0 - Fraction(2 * k, d)) % 2 == 0


def test_hom_vanishing_window():
    t = WeightedType((1, 1, 1), 3)
    assert hom_vanishing_window(1, 0, 1, t)  # 1 > 0 + 3 - 1 - 2 - 0
    assert hom_vanishing_window(0, 0, 99, t)
    # boundary: phi1 = phi2, k = n - 2 - 2 eps/d gives equality -> False
    assert not hom_vanishing_window(0, 0, 1, t)
    t2 = WeightedType((1, 1), 4)
    # n - k - 2 - 2 eps/d = 2 - k - 2 + 1 = 1 - k
    assert hom_vanishing_window(Fraction(1, 2), 0, 1, t2)
    assert not hom_vanishing_window(0, 0, 0, t2)


def test_finite_phases_n1():
    t = WeightedType((1,), 4)
    table = finite_phases(t)
    assert table.phase("Q[0,1]") == Fraction(-3, 4)
    assert table.phase("Q[0,1]", k=1) == Fraction(1, 4)
    assert len(table) == 4 * 3
    # d in 3..12 ray consistency is asserted inside finite_phases
    for d in range(3, 13):
        finite_phases(WeightedType((1,), d))


def test_finite_phases_n1_with_weight():
    t = WeightedType((2,), 8)  # reduces to d' = 4
    table = finite_phases(t)
    assert table.phase("Q[0,1]") == Fraction(-1, 2) - Fraction(2, 8)


def test_finite_phases_refuses_large_tables(monkeypatch):
    # 1:101 has 101 * 100 entries; refused before any is computed
    with pytest.raises(ResourceLimitError, match="10100 indecomposables"):
        finite_phases(WeightedType((1,), 101))
    with pytest.raises(ResourceLimitError, match="10001 indecomposables"):
        finite_phases(WeightedType((10000, 1), 10001))
    # the bound is inclusive: d (d' - 1) = 12 entries pass at a bound of 12
    monkeypatch.setattr(hearts, "MAX_FINITE_PHASES", 12)
    assert len(finite_phases(WeightedType((1,), 4))) == 12
    with pytest.raises(ResourceLimitError):
        finite_phases(WeightedType((1,), 5))


def test_finite_phases_n2():
    t = WeightedType((1, 1), 2)
    table = finite_phases(t)
    assert table.phase("C(0)") == 1
    assert table.phase("C(1)") == 2
    t2 = WeightedType((3, 2), 5)
    table2 = finite_phases(t2)
    assert table2.phase("C(1)") == 1 + Fraction(2, 5)
    # eps > 0: zero category, empty table
    assert len(finite_phases(WeightedType((2, 1), 2))) == 0


def test_points_of():
    assert len(points_of(WeightedType((1, 1), 4))) == 4
    assert len(points_of(WeightedType((3, 2), 6))) == 1
    assert len(points_of(WeightedType((3, 1), 6))) == 2
    p = points_of(WeightedType((3, 2), 6))[0]
    assert p[0] == 1 and p[1] == -1


def test_clifford_and_crucial():
    assert clifford_predicate(2, 1, 2, genus=3)  # boundary 2 <= 2
    assert not crucial_inequality(2, 2, 4)  # 2 > 2 fails
    assert crucial_inequality(2, 3, 4)
    assert not crucial_inequality(2, 1, 6)  # 1 > 1 fails
    assert not crucial_inequality(2, 3, 3)  # 3 > 3 fails
    with pytest.raises(ValueError):
        clifford_predicate(2, 1, 12, genus=3)  # outside window


@pytest.mark.parametrize("d", [5, 7, 8, 12])
def test_crucial_inequality_with_irrational_cosine(d):
    # cos(2 pi / d) is irrational here, so delta - R (1 - cos) is never 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        step = 1 - mpmath.cos(2 * mpmath.pi / d)
        for big_r, delta in product(range(1, 9), range(0, 9)):
            value = delta - big_r * step
            assert abs(value) > mpmath.mpf(10) ** -6
            assert crucial_inequality(big_r, delta, d) == (value > 0), (big_r, delta)


def test_unsupported_cases():
    with pytest.raises(UnsupportedCaseError):
        build_lattice(WeightedType((1, 1), 2))
    with pytest.raises(UnsupportedCaseError):
        build_lattice(WeightedType((2, 2), 8))  # not gcd-normalized
