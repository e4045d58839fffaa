import math
import operator
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from gepnerstab import exactmath
from gepnerstab.classify import enumerate_types
from gepnerstab.exactmath import (
    QZETA,
    ComplexBox,
    CycloNum,
    ZeroValueError,
    _power_table,
    _float_centre,
    _real_on_ray,
    _rref,
    _trig_enclosure,
    cyclo,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    kernel,
    phase_of,
    rank,
    sign_real,
    solve,
)
from gepnerstab.gfield import GF
from gepnerstab.hearts import lattice_for, zg_class_absolute


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclo_constructor_examples():
    # i in basis (1, zeta) of Q[x]/(x^2+1)
    assert cyclo(4, 1).coeffs == (0, 1)
    # zeta_3^2 = -1 - zeta_3
    assert cyclo(3, 2).coeffs == (-1, -1)
    # zeta_6^3 = -1
    assert cyclo(6, 3) == -1


def test_root_of_unity_relations():
    for d in (3, 4, 6, 8, 12):
        z = cyclo(d, 1)
        assert z ** d == 1
        # Phi_d(zeta_d) = 0
        acc = CycloNum.zero(d)
        for k, c in enumerate(cyclotomic_polynomial(d)):
            acc = acc + c * z ** k
        assert acc.is_zero()


def _random_elt(rng, d):
    phi = euler_phi(d)
    return CycloNum(d, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(phi)])


@pytest.mark.parametrize("d", [3, 4, 6, 12])
def test_ring_axioms_randomized(d):
    rng = random.Random(20_000 + d)
    for _ in range(1000):
        x, y, z = (_random_elt(rng, d) for _ in range(3))
        assert (x * y) == (y * x)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_mixed_degree_promotion():
    assert cyclo(4, 1) * cyclo(3, 1) == cyclo(12, 7)  # i * zeta_3 = zeta_12^(3+4)
    assert cyclo(6, 3) == cyclo(2, 1)
    assert cyclo(6, 2) == cyclo(3, 1)


def test_ring_axioms_across_mixed_conductors():
    rng = random.Random(404)
    fields = (3, 4, 6, 8)
    for _ in range(300):
        x = _random_elt(rng, rng.choice(fields))
        y = _random_elt(rng, rng.choice(fields))
        z = _random_elt(rng, rng.choice(fields))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_inverse_and_division():
    rng = random.Random(7)
    for d in (3, 4, 6, 12):
        for _ in range(25):
            x = _random_elt(rng, d)
            if x.is_zero():
                continue
            assert x * x.inverse() == 1
    assert (cyclo(4, 1) / cyclo(4, 1)) == 1
    # dense elements of large fields: the inverse stays on integer products
    rng = random.Random(5)
    for d in (47, 97):
        x = CycloNum(d, [rng.randint(-3, 3) for _ in range(euler_phi(d))])
        start = time.perf_counter()
        assert x * x.inverse() == 1
        assert time.perf_counter() - start < 2


def test_conjugate_and_parts():
    z = cyclo(12, 1)
    x = 3 * z + Fraction(1, 2)
    assert x.conjugate().conjugate() == x
    assert x.real_part().is_real()
    im = x.imag_part()
    assert im.is_real()
    # numeric agreement
    approx = complex(x)
    assert math.isclose(complex(x.real_part()).real, approx.real, abs_tol=1e-12)
    assert math.isclose(complex(im).real, approx.imag, abs_tol=1e-12)


def test_embed_examples():
    box = embed(cyclo(4, 1))
    assert box.re_lo <= 0 <= box.re_hi
    assert box.im_lo <= 1 <= box.im_hi
    # 1 - zeta_3 = 1.5 - 0.866...i, oracle = direct complex arithmetic
    val = 1 - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    box = embed(1 - cyclo(3, 1))
    mid = box.midpoint()
    assert abs(mid - val) < 1e-12
    zero_box = embed(CycloNum.zero(5))
    assert zero_box == ComplexBox(0, 0, 0, 0)


def test_embed_width_contract():
    x = 5 * cyclo(12, 5) - Fraction(7, 3) * cyclo(12, 1) + 2
    for prec in (53, 100, 200):
        box = embed(x, prec)
        assert box.width() <= Fraction(2) ** (-prec + 2) * max(Fraction(1), x.height())


def test_embed_width_contract_small_height():
    # width bound in terms of the coefficient height also for tiny values
    x = Fraction(1, 1000) * cyclo(12, 5) - Fraction(1, 4096) * cyclo(12, 1)
    for prec in (53, 120):
        box = embed(x, prec)
        assert box.width() <= Fraction(2) ** (-prec + 2) * x.height()


ENCLOSURE_PRECS = (53, 64, 300, 4096)
ANGLES = [(d, k) for d in range(1, 49) for k in range(d)]


@pytest.mark.parametrize("prec", ENCLOSURE_PRECS)
def test_trig_enclosure_contains_float_values(prec):
    # math.cos/sin of the rounded float angle are within ~1e-15 of the true values
    slack = 2e-15
    for d, k in ANGLES:
        (clo, chi), (slo, shi) = _trig_enclosure(k, d, prec)
        assert chi - clo <= Fraction(1, 2**prec) and shi - slo <= Fraction(1, 2**prec), (d, k)
        angle = 2 * math.pi * k / d
        assert clo - slack <= math.cos(angle) <= chi + slack, (d, k)
        assert slo - slack <= math.sin(angle) <= shi + slack, (d, k)


@pytest.mark.parametrize("prec", ENCLOSURE_PRECS)
def test_trig_enclosure_contains_mpmath_values(prec):
    mpmath = pytest.importorskip("mpmath")
    slack = Fraction(1, 2 ** (prec + 190))  # mpmath's own error at prec + 200 bits
    with mpmath.workprec(prec + 200):
        for d, k in ANGLES:
            cos, sin = mpmath.cos_sin(2 * mpmath.pi * k / d)
            for (lo, hi), value in zip(_trig_enclosure(k, d, prec), (cos, sin)):
                man, exp = value.man_exp  # |value| = man * 2^exp
                exact = int(mpmath.sign(value)) * Fraction(man) * Fraction(2) ** exp
                assert lo - slack <= exact <= hi + slack, (d, k)


def _embed_reference(x, precision):
    # the interval sum of c_m [cos] + i c_m [sin] over Fraction intervals
    scale = int(sum(abs(c) for c in x.coeffs)) + 1
    work = precision + scale.bit_length() + 4
    re_lo = re_hi = im_lo = im_hi = Fraction(0)
    for m, c in enumerate(x.coeffs):
        if c:
            (clo, chi), (slo, shi) = _trig_enclosure(m, x.d, work)
            re_lo += min(c * clo, c * chi)
            re_hi += max(c * clo, c * chi)
            im_lo += min(c * slo, c * shi)
            im_hi += max(c * slo, c * shi)
    return ComplexBox(re_lo, re_hi, im_lo, im_hi)


@pytest.mark.parametrize("prec", ENCLOSURE_PRECS)
def test_embed_equals_interval_sum(prec):
    rng = random.Random(f"embed:{prec}")
    samples = [CycloNum.zero(rng.randint(1, 48))]
    for _ in range(40):
        d = rng.randint(1, 48)
        coeffs = [
            Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)) if rng.random() < 0.8 else Fraction(0)
            for _ in range(euler_phi(d))
        ]
        samples.append(CycloNum(d, coeffs))
    for x in samples:
        assert embed(x, prec) == _embed_reference(x, prec), x


def test_embed_exact_zero_coordinates():
    # cos(pi/2) is exactly 0, so 4i has real part 0.0 (not a rounding residue)
    assert complex(4 * cyclo(4, 1)).real == 0.0
    # 1 - 2 zeta_6 = -i sqrt(3): cos(pi/3) = 1/2 is exact
    assert complex(1 - 2 * cyclo(6, 1)).real == 0.0
    # zeta_8 - zeta_8^3 = sqrt(2): sin(pi/4) and sin(3 pi/4) are one value
    assert complex(cyclo(8, 1) - cyclo(8, 3)).imag == 0.0


def test_phase_of_agrees_with_numeric_argument():
    rng = random.Random(31)
    for d in (3, 4, 6, 12):
        for _ in range(40):
            x = _random_elt(rng, d)
            if x.is_zero():
                continue
            q = phase_of(x, Fraction(-1))
            mid = embed(x, 80).midpoint()
            want = math.atan2(mid.imag, mid.real) / math.pi
            assert abs(float(q) - want) < 1e-9 or abs(abs(float(q) - want) - 2) < 1e-9


def test_embed_is_multiplicative_within_slack():
    rng = random.Random(99)
    for d in (4, 6, 12):
        for _ in range(20):
            x, y = _random_elt(rng, d), _random_elt(rng, d)
            bx, by, bxy = embed(x), embed(y), embed(x * y)
            prod = bx.midpoint() * by.midpoint()
            slack = float(bx.width() + by.width() + bxy.width()) * 50 + 1e-12
            assert abs(prod - bxy.midpoint()) < max(slack, 1e-9)


def test_sign_real():
    assert sign_real(CycloNum.from_rational(Fraction(-2, 3))) == -1
    # zeta_6 + zeta_6^-1 = 1 > 0
    assert sign_real(cyclo(6, 1) + cyclo(6, 5)) == 1
    # 2*cos(2pi/5) - 1 < 0 since cos(72 deg) ~ 0.309
    assert sign_real(cyclo(5, 1) + cyclo(5, 4) - 1) == -1
    assert sign_real(CycloNum.from_rational(2) - CycloNum.from_rational(3)) == -1


def test_phase_of_exact_cases():
    # 1 - i = sqrt(2) * exp(-i*pi/4)
    assert phase_of(1 - cyclo(4, 1), Fraction(-1)) == Fraction(-1, 4)
    assert phase_of(CycloNum.from_rational(-1), Fraction(0)) == Fraction(1)
    # 2 + 2i at phase 1/4
    assert phase_of(2 + 2 * cyclo(4, 1), Fraction(0)) == Fraction(1, 4)
    with pytest.raises(ZeroValueError):
        phase_of(CycloNum.zero(4))


def test_phase_of_window_placement():
    x = CycloNum.from_rational(1)  # phase 0 mod 2
    assert phase_of(x, Fraction(0)) == Fraction(2)
    assert phase_of(x, Fraction(-1)) == Fraction(0)
    assert phase_of(x, Fraction(1, 2)) == Fraction(2)


def test_phase_shift_by_zeta():
    # phase(zeta * x) = phase(x) + 2/d when both rational
    for d in (3, 4, 6):
        x = 1 + cyclo(d, 1)
        p = phase_of(x, Fraction(-1))
        q = phase_of(cyclo(d, 1) * x, Fraction(-1))
        assert isinstance(p, Fraction) and isinstance(q, Fraction)
        assert (q - p - Fraction(2, d)) % 2 == 0


def test_phase_of_float_fallback():
    # 3 + i has irrational phase
    val = phase_of(3 + cyclo(4, 1), Fraction(-1))
    assert isinstance(val, float)
    assert abs(val - math.atan2(1, 3) / math.pi) < 1e-9


def test_phase_of_exact_rays_beyond_the_first_box():
    # u^n is tiny against its coefficients, so the 64-bit box cannot
    # certify the angle; the ray must still be found
    u = cyclo(5, 1) + cyclo(5, 4)
    for n in (120, 160, 200):
        un = u**n
        for k in range(20):
            q = phase_of(un * cyclo(20, k))
            want = Fraction(k, 10) if k <= 10 else Fraction(k, 10) - 2
            assert isinstance(q, Fraction) and q == want, (n, k, q)


def _ray_values(rng, d):
    """Seeded values on rays: a real value times zeta_d^j and factors 1 +- zeta_d^j."""
    out = []
    for _ in range(3):
        x = _random_elt(rng, d)
        x = x + x.conjugate()
        for _ in range(rng.randint(1, 2)):
            j = rng.randrange(d)
            x = x * rng.choice((cyclo(d, j), 1 + cyclo(d, j), 1 - cyclo(d, j)))
        out.append(x)
    return out


def _scaled(x, size):
    """x.den x times the integer that brings the sum of its |numerators| nearest to size from below."""
    return CycloNum.from_numerators(x.d, [a * max(1, size // sum(map(abs, x.num))) for a in x.num])


def _stage_values():
    """(x, window_start) pairs for both stages of phase_of, seeded.

    Charges of classes on the twelve lattices in their windows, and for
    d = 1..24 random elements, values on rays, values 1e-16 to 1e-12 of
    their height off a ray, and these scaled to just below and just above
    the float stage's cutoff sum |num| = 2^50.
    """
    out = []
    for index, (t, _) in enumerate(enumerate_types((2, 3, 4), 6)):
        lat = lattice_for(t)
        rng = random.Random(50_000 + index)
        for bound in (3, 1000):
            for _ in range(20):
                z = zg_class_absolute(lat, tuple(rng.randint(-bound, bound) for _ in range(lat.rank)))
                out.append((z, lat.theta))
    windows = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(-7, 6))
    for d in range(1, 25):
        rng = random.Random(60_000 + d)
        rays = _ray_values(rng, d)
        near = [x + x.height() * Fraction(1, 10 ** rng.randint(12, 16)) * cyclo(d, rng.randrange(d)) for x in rays]
        values = [_random_elt(rng, d) for _ in range(4)] + rays + near
        values += [_scaled(x, size) for x in values if x for size in (2**50 - 1, 2**50 + 2**47)]
        out += [(x, rng.choice(windows)) for x in values]
    return [(x, w) for x, w in out if x]


def _phases_from_boxes(pairs):
    """phase_of on each pair with its float stage switched off: the integer boxes alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactmath, "_float_centre", lambda x: None)
        return [phase_of(x, w) for x, w in pairs]


def test_float_stage_agrees_with_the_integer_boxes():
    pairs = _stage_values()
    seen = set()
    for (x, w), want in zip(pairs, _phases_from_boxes(pairs)):
        got = phase_of(x, w)
        seen.add((_float_centre(x) is not None, type(want)))
        assert type(got) is type(want), (x, w, got, want)
        if isinstance(want, Fraction):
            assert got == want, (x, w)
        else:
            assert abs(got - want) < 1e-12, (x, w, got, want)
            assert w < got <= w + 2
    # each stage decides rays and values off them
    assert seen == {(True, Fraction), (True, float), (False, Fraction), (False, float)}


def test_float_stage_cutoff():
    # sum |num| = 2^50 - 1 takes the float stage; 2^50 and above go to the integer boxes
    for nums, floats in [
        ((2**49 + 1, 2**48, 2**48 - 2, 0), True),
        ((2**49 + 1, 2**48, 2**48 - 1, 0), False),
        ((2**49 + 1, 2**48, 2**48, 0), False),
    ]:
        x = CycloNum.from_numerators(12, nums)
        assert sum(map(abs, x.num)) - 2**50 in (-1, 0, 1)
        assert (_float_centre(x) is not None) == floats
        assert abs(phase_of(x) - _phases_from_boxes([(x, Fraction(-1))])[0]) < 1e-12
    # n (1 - i) lies on the ray -1/4 on both sides of the cutoff
    for n, floats in [(2**49 - 1, True), (2**49, False)]:
        x = CycloNum.from_numerators(4, (n, -n))
        assert (_float_centre(x) is not None) == floats
        assert phase_of(x) == Fraction(-1, 4)


def test_values_too_small_for_floats_go_to_the_integer_boxes():
    # u^30, u = 2 cos(2 pi/5), has numerators near 2^21 and value near 5e-7:
    # below the cutoff, but its float box certifies no angle.  The u^n of
    # test_phase_of_exact_rays_beyond_the_first_box lie above the cutoff.
    u = cyclo(5, 1) + cyclo(5, 4)
    for n in (30, 120, 160, 200):
        un = u**n
        assert (sum(map(abs, un.num)) < 2**50) == (n == 30)
        for k in range(20):
            x = un * cyclo(20, k)
            assert _float_centre(x) is None
            assert phase_of(x) == (Fraction(k, 10) if k <= 10 else Fraction(k, 10) - 2)


@pytest.mark.parametrize("d", range(1, 25))
def test_real_on_ray_matches_the_definition_in_q_zeta_4d(d):
    rng = random.Random(30_000 + d)
    rays = [x for x in _ray_values(rng, d) if not x.is_zero()]
    for x in rays + [_random_elt(rng, d) for _ in range(2)]:
        passing = []
        for k in range(4 * d):
            got = _real_on_ray(x, k)
            assert got == (x * cyclo(4 * d, -k)).is_real(), (x, k)
            assert _real_on_ray(x, k - 4 * d) == got  # phase_of passes k = round(t) < 0 too
            if got:
                passing.append(k)
        if x in rays:
            # x zeta_4d^-k is real on x's ray and on the opposite one
            assert len(passing) == 2 and passing[1] - passing[0] == 2 * d, (x, passing)


def test_power_table_rows_are_integers():
    for d in (1, 2, 5, 12, 30):
        assert all(type(c) is int for row in _power_table(d) for c in row)
    assert all(type(c) is Fraction for c in cyclo(12, 5).coeffs)
    half = Fraction(1, 2)
    x = CycloNum(3, [half, 1])
    assert x.num == (1, 2) and x.den == 2 and all(type(a) is int for a in x.num)
    assert x.coeffs == (half, 1) and all(type(c) is Fraction for c in x.coeffs)


# An oracle that shares no arithmetic with CycloNum: Fraction polynomials
# reduced by long division modulo Phi_d.


def _ref_reduce(d, poly):
    """Fraction coefficients of poly mod Phi_d, phi(d) of them."""
    phi_poly = cyclotomic_polynomial(d)
    phi = len(phi_poly) - 1
    rem = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, phi - len(poly))
    for top in range(len(rem) - 1, phi - 1, -1):
        c = rem[top]
        if c:
            for i, p in enumerate(phi_poly):
                rem[top - phi + i] -= c * p
    return tuple(rem[:phi])


def _ref_in(x, n):
    """x's Fraction coefficients in Q(zeta_n), d | n: zeta_d^m = zeta_n^(m n/d)."""
    step = n // x.d
    raw = [Fraction(0)] * (step * (len(x.coeffs) - 1) + 1)
    for m, c in enumerate(x.coeffs):
        raw[m * step] = c
    return _ref_reduce(n, raw)


def _ref_mul(n, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(n, conv)


def _general(op, a, b):
    """(n, coefficients) of a op b from the oracle, n = lcm(a.d, b.d)."""
    n = math.lcm(a.d, b.d)
    a, b = _ref_in(a, n), _ref_in(b, n)
    if op is operator.mul:
        return n, _ref_mul(n, a, b)
    return n, tuple(op(x, y) for x, y in zip(a, b))


def _assert_canonical(x, want=None):
    """x is in canonical form and, if given, is the value (d, Fraction coefficients) want."""
    assert type(x.den) is int and x.den > 0, x
    assert all(type(a) is int for a in x.num), x
    assert math.gcd(x.den, *x.num) == 1, x
    assert len(x.num) == euler_phi(x.d)
    if not any(x.num):
        assert x.den == 1
    if want is not None:
        d, coeffs = want
        den = math.lcm(*(c.denominator for c in coeffs))
        # equal values have equal (num, den)
        assert (x.d, x.num, x.den) == (d, tuple(int(c * den) for c in coeffs), den), (x, want)
        assert x.coeffs == coeffs


def test_from_numerators_normalises():
    x = CycloNum.from_numerators(3, (2, -4), -6)
    assert (x.num, x.den) == ((-1, 2), 3)
    _assert_canonical(x, (3, (Fraction(-1, 3), Fraction(2, 3))))
    z = CycloNum.from_numerators(5, (0, 0, 0, 0), -7)
    assert (z.num, z.den) == ((0, 0, 0, 0), 1) and z == 0
    assert CycloNum.from_numerators(4, (6, 9), 3) == CycloNum(4, [2, 3])
    with pytest.raises(ValueError):
        CycloNum.from_numerators(4, (1, 2, 3), 1)


@pytest.mark.parametrize("same_field", [True, False])
def test_arithmetic_matches_the_independent_oracle(same_field):
    rng = random.Random(1212 + same_field)
    for _ in range(150):
        d = rng.randint(1, 30)
        e = d if same_field else rng.choice([f for f in range(1, 31) if math.lcm(d, f) <= 60])
        x = CycloNum.zero(d) if rng.random() < 0.05 else _random_elt(rng, d)
        y = _random_elt(rng, e) if rng.random() < 0.8 else cyclo(e, rng.randrange(e))
        for op in (operator.add, operator.sub, operator.mul):
            got = op(x, y)
            _assert_canonical(got, _general(op, x, y))
            assert (op(x, y) == op(y, x)) == (op is not operator.sub or x == y)
        n = d * rng.randint(1, 3)
        _assert_canonical(x.promote(n), (n, _ref_in(x, n)))
        k = next(k for k in range(rng.randint(1, 2 * d), 4 * d + 2) if math.gcd(k, d) == 1)
        image = [Fraction(0)] * d
        for m, c in enumerate(x.coeffs):
            image[m * k % d] += c
        _assert_canonical(x.galois(k), (d, _ref_reduce(d, image)))
        _assert_canonical(x.conjugate())
        if not y.is_zero():
            inv = y.inverse()
            _assert_canonical(inv)
            assert _ref_mul(e, _ref_in(y, e), _ref_in(inv, e)) == (1,) + (0,) * (euler_phi(e) - 1)


RATIONALS = (0, 3, -7, True, False, Fraction(-5, 3), Fraction(0), CycloNum(1, [Fraction(2, 7)]), CycloNum(1, [0]))


def test_rational_operands_match_the_general_path():
    rng = random.Random(515)
    for _ in range(120):
        d = rng.randint(1, 24)
        x = CycloNum.zero(d) if rng.random() < 0.05 else _random_elt(rng, d)
        for c in RATIONALS:
            cx = c if isinstance(c, CycloNum) else CycloNum.from_rational(c)
            for op in (operator.add, operator.sub, operator.mul):
                for got, want in ((op(x, c), _general(op, x, cx)), (op(c, x), _general(op, cx, x))):
                    assert got.d == want[0] == d, (x, c, op)
                    _assert_canonical(got, want)
                    assert all(type(v) is Fraction for v in got.coeffs)


@pytest.mark.parametrize("other", [1.5, "1", None])
def test_non_rational_operands_raise_type_error(other):
    for x in (cyclo(5, 2) + Fraction(1, 3), CycloNum.from_rational(Fraction(3, 4))):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


def test_norm():
    assert (1 - cyclo(4, 1)).norm() == 2  # N(1-i) = 2
    assert (1 - cyclo(3, 1)).norm() == 3


def test_linear_algebra():
    one = CycloNum.one(4)
    z = cyclo(4, 1)
    m = [[one, z], [z, -one]]  # det = -1 - i^2... = -1 - (-1) = 0? no: -1 - i*i = 0
    # actually det = 1*(-1) - z*z = -1 + 1 = 0, so rank 1
    assert rank(QZETA, m) == 1
    ker = kernel(QZETA, m, 2)
    assert len(ker) == 1
    # m . k = 0
    for row in m:
        acc = sum((row[i] * ker[0][i] for i in range(2)), CycloNum.zero())
        assert acc.is_zero()
    coeffs = solve(QZETA, [[one, z]], [z * 2, 2 * z * z])
    assert coeffs is not None and coeffs[0] == 2 * z
    assert solve(QZETA, [[one, CycloNum.zero()]], [CycloNum.zero(), one]) is None


def test_truthiness_is_nonzero():
    for d in (1, 2, 3, 12, 97):
        assert not CycloNum.zero(d)
        assert CycloNum.one(d)
        assert cyclo(d, 1)
        assert not (cyclo(d, 1) - cyclo(d, 1))
        assert CycloNum.from_rational(Fraction(-1, 3), d)
    assert not (cyclo(3, 1) - cyclo(6, 2))  # zeta_6^2 = zeta_3, a difference in Q(zeta_6)
    assert not (cyclo(4, 1) * cyclo(3, 1) - cyclo(12, 7))
    assert cyclo(3, 1) - cyclo(6, 1)


class _Ops:
    """Entry arithmetic for checking the row reduction: table lookups in GF, CycloNum operators over Q(zeta)."""

    def __init__(self, field):
        self.field = field
        if isinstance(field, GF):
            self.add = lambda a, b: field.add[a][b]
            self.mul = lambda a, b: field.mul[a][b]
        else:
            self.add = operator.add
            self.mul = operator.mul

    def combine(self, coeffs, vectors, n):
        out = [self.field.zero] * n
        for c, v in zip(coeffs, vectors):
            out = [self.add(x, self.mul(c, y)) for x, y in zip(out, v)]
        return out

    def dot(self, u, v):
        return self.combine(u, [[y] for y in v], 1)[0]


def _random_matrix(rng, draw, ops):
    """A seeded matrix, some with a zero row, a zero column or a dependent last row."""
    zero = ops.field.zero
    m, n = rng.randint(0, 4), rng.randint(1, 5)
    mat = [[draw() if rng.random() < 0.7 else zero for _ in range(n)] for _ in range(m)]
    shape = rng.choice(("plain", "zero row", "zero column", "dependent"))
    if mat and shape == "zero row":
        mat[rng.randrange(m)] = [zero] * n
    elif shape == "zero column":
        c = rng.randrange(n)
        for row in mat:
            row[c] = zero
    elif m >= 2 and shape == "dependent":
        mat[-1] = ops.combine([draw() for _ in range(m - 1)], mat[:-1], n)
    return mat


@pytest.mark.parametrize("name", ["F_5", "F_25", "Q(zeta_12)"])
def test_shared_row_reduction(name):
    rng = random.Random(name)
    if name == "Q(zeta_12)":
        field = QZETA
        draw = lambda: _random_elt(rng, 12) if rng.random() < 0.6 else CycloNum.from_rational(rng.randint(-3, 3))
    else:
        field = GF(5, 1 if name == "F_5" else 2)
        draw = lambda: rng.randrange(field.q)
    ops, zero, one = _Ops(field), field.zero, field.one
    for _ in range(60):
        mat = _random_matrix(rng, draw, ops)
        n = len(mat[0]) if mat else rng.randint(1, 5)
        reduced, pivots = _rref(field, mat)
        r = len(pivots)
        # reduced row echelon form: leading 1s, strictly increasing pivots, pivot columns clear
        assert len(reduced) == r and r == rank(field, mat)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for i, (row, p) in enumerate(zip(reduced, pivots)):
            assert all(x == zero for x in row[:p]) and row[p] == one
            assert all(other[p] == zero for k, other in enumerate(reduced) if k != i)
        # the rows span the same space
        for row in mat:
            assert solve(field, reduced, row) is not None
        # every kernel vector annihilates every row; rank + nullity = n
        ker = kernel(field, mat, n)
        assert r + len(ker) == n
        for vec in ker:
            assert all(ops.dot(row, vec) == zero for row in mat)
        # solve reproduces the target, and refuses exactly when the target raises the rank
        for target in (ops.combine([draw() for _ in mat], mat, n), [draw() for _ in range(n)]):
            coeffs = solve(field, mat, target)
            raises = rank(field, mat + [target]) > r
            assert (coeffs is None) == raises
            if coeffs is not None:
                assert ops.combine(coeffs, mat, n) == target
        # over F_5, an oracle that shares no code with the reduction: q^rank combinations
        if name == "F_5":
            combos = {tuple(ops.combine(cs, mat, n)) for cs in product(range(5), repeat=len(mat))}
            assert len(combos) == 5**r
