import random
from fractions import Fraction

import pytest

from gepnerstab.exactmath import CycloNum, cyclo
from gepnerstab.mfcore import (
    GradedFreeModule,
    GradedMF,
    MissingMapsError,
    WeightedType,
    kclass,
    koszul_c,
    koszul_closed_form,
    q_object,
    shift,
    tau,
    validate,
    zg,
)
from gepnerstab.polynomials import Poly

TABLE1_TYPES = [
    WeightedType((1, 1, 1, 1), 4),
    WeightedType((3, 1, 1, 1), 6),
    WeightedType((1, 1, 1), 4),
    WeightedType((3, 1, 1), 6),
    WeightedType((1, 1), 4),
    WeightedType((3, 1), 6),
    WeightedType((1, 1, 1), 3),
    WeightedType((2, 1, 1), 4),
    WeightedType((3, 2, 1), 6),
    WeightedType((1, 1), 3),
    WeightedType((2, 1), 4),
    WeightedType((3, 2), 6),
]


def test_weighted_type_basics():
    t = WeightedType((1, 1, 1, 1), 4)
    assert t.epsilon == 0
    assert t.fermat_exponents == (4, 4, 4, 4)
    assert str(t) == "(1,1,1,1;4)"
    assert WeightedType.parse("1,1,1,1:4") == t
    t2 = WeightedType((3, 1), 6)
    assert t2.epsilon == -2
    assert t2.fermat_exponents == (2, 6)
    with pytest.raises(ValueError):
        WeightedType((1, 2), 4)  # must be non-increasing
    with pytest.raises(ValueError):
        WeightedType((0, 1), 3)


def test_graded_dims():
    t = WeightedType((3, 1), 6)
    # degrees 0..5 of C[x1,x2], deg x1=3, deg x2=1: 1, x2, x2^2, {x1,x2^3}, ...
    assert [t.graded_dim(k) for k in range(6)] == [1, 1, 1, 2, 2, 2]
    t2 = WeightedType((1, 1), 4)
    assert [t2.graded_dim(k) for k in range(4)] == [1, 2, 3, 4]


def test_zg_of_q_object():
    # Q_{j,l}: P0 = A(j-l), P1 = A(j) gives zeta^(j-l) - zeta^j
    t = WeightedType((1,), 4)
    q = q_object(t, j=2, ell=1)
    assert zg(q) == cyclo(4, 1) - cyclo(4, 2)
    assert zg(GradedMF(t, GradedFreeModule(()), GradedFreeModule(()))).is_zero()


def test_koszul_example_value():
    # type (1,1,1,1;4): closed form gives -(1+i)^4 = 4
    t = WeightedType((1, 1, 1, 1), 4)
    val = zg(koszul_c(t, 0))
    assert val == CycloNum.from_rational(4)
    assert val == koszul_closed_form(t, 0)


def test_koszul_reduces_to_q_for_one_variable():
    t = WeightedType((1,), 5)
    c = koszul_c(t, j=3)
    assert c.p0_module.shifts == (2,)
    assert c.p1_module.shifts == (3,)


@pytest.mark.parametrize("t", TABLE1_TYPES, ids=str)
def test_koszul_closed_form_all_types(t):
    assert zg(koszul_c(t, 0)) == koszul_closed_form(t, 0)
    assert koszul_c(t, 0).p0_module.rank == 2 ** (t.n - 1)


@pytest.mark.parametrize("t", TABLE1_TYPES, ids=str)
def test_koszul_twist_scaling(t):
    base = zg(koszul_c(t, 0))
    for j in range(1, t.degree + 1):
        assert zg(koszul_c(t, j)) == cyclo(t.degree, j) * base


def _random_mf(rng, t):
    p0 = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 4)))
    p1 = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 4)))
    return GradedMF(t, GradedFreeModule(p0), GradedFreeModule(p1))


@pytest.mark.parametrize("t", [WeightedType((1, 1), 4), WeightedType((3, 2, 1), 6)], ids=str)
def test_tau_and_shift_functors_random(t):
    rng = random.Random(5)
    z = cyclo(t.degree, 1)
    for _ in range(1000):
        mf = _random_mf(rng, t)
        assert zg(tau(mf, 1)) == z * zg(mf)
        assert zg(shift(mf, 1)) == -zg(mf)
    mf = _random_mf(rng, t)
    # [2] = tau^d on shift data
    assert shift(mf, 2).p0_module.shifts == tau(mf, t.degree).p0_module.shifts
    assert shift(mf, 2).p1_module.shifts == tau(mf, t.degree).p1_module.shifts
    assert shift(shift(mf, 1), -1) == mf
    assert shift(mf, 0) == mf
    assert zg(tau(mf, t.degree)) == zg(shift(mf, 2))


def test_tau_on_q_object():
    t = WeightedType((1,), 4)
    assert tau(q_object(t, 0, 2), 1).p0_module == q_object(t, 1, 2).p0_module
    assert kclass(tau(q_object(t, 0, 2), 1)) == kclass(q_object(t, 1, 2))


def test_validate_q_object():
    t = WeightedType((1,), 4)
    rep = validate(q_object(t, 1, 2))
    assert rep.ok, rep.violations


def test_validate_detects_composition_failure():
    t = WeightedType((1,), 4)
    # wrong complementary power: x^l, x^(d-l-1)
    p0 = ((Poly.var(1, 0, 2),),)
    p1 = ((Poly.var(1, 0, 1),),)
    bad = GradedMF(t, GradedFreeModule((-1,)), GradedFreeModule((1,)), (p0, p1))
    rep = validate(bad)
    assert not rep.ok
    assert any("composition failure" in v for v in rep.violations)
    assert any("x1^3" in v for v in rep.violations)


def test_validate_detects_inhomogeneous_entry():
    t = WeightedType((1,), 4)
    p0 = ((Poly.parse("x1^2 + x1", 1),),)
    p1 = ((Poly.var(1, 0, 2),),)
    bad = GradedMF(t, GradedFreeModule((0,)), GradedFreeModule((2,)), (p0, p1))
    rep = validate(bad)
    assert any("not homogeneous" in v for v in rep.violations)


def test_validate_requires_maps():
    t = WeightedType((1, 1), 4)
    with pytest.raises(MissingMapsError):
        validate(koszul_c(t, 0))


def test_poly_parse_and_print():
    p = Poly.parse("3/2*x1^2*x3 - x2", 3)
    assert p.terms == {(2, 0, 1): Fraction(3, 2), (0, 1, 0): Fraction(-1)}
    assert Poly.parse(str(p), 3) == p
