"""Property test of phase_of against an exhaustive search over the rays."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gepnerstab.exactmath import CycloNum, cyclo, embed, euler_phi, phase_of, sign_real  # noqa: E402

WINDOWS = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(-7, 6), Fraction(5, 2))


def _ray_by_search(x):
    """k / (2d) for the one k < 4d with x zeta_4d^-k real and positive, else None."""
    d = x.d
    for k in range(4 * d):
        y = x * cyclo(4 * d, -k)
        if y.is_real() and sign_real(y) > 0:
            return Fraction(k, 2 * d)
    return None


@st.composite
def _values(draw):
    d = draw(st.integers(1, 12))
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=20)
    x = CycloNum(d, [draw(coeff) for _ in range(euler_phi(d))])
    kind = draw(st.sampled_from(("generic", "ray", "near ray", "large")))
    if kind in ("ray", "near ray") or (kind == "large" and draw(st.booleans())):
        # a real value times zeta_d^j and factors 1 +- zeta_d^j lies on a ray
        x = x + x.conjugate()
        for _ in range(draw(st.integers(0, 2))):
            j = draw(st.integers(0, d - 1))
            x = x * draw(st.sampled_from((cyclo(d, j), 1 + cyclo(d, j), 1 - cyclo(d, j))))
    if kind == "near ray":
        # off the ray by 1e-16 to 1e-12 of the height: the smaller offsets lie
        # inside the float tolerance, so the exact test runs and must fail
        j = draw(st.integers(0, d - 1))
        x = x + x.height() * Fraction(1, 10 ** draw(st.integers(12, 16))) * cyclo(d, j)
    hypothesis.assume(not x.is_zero())
    if kind == "large":
        # a positive multiple with sum |num| just below, at or just above 2^50,
        # where phase_of's float stage hands over to the integer boxes
        size = sum(map(abs, x.num))
        scale = max(1, 2**50 // size + draw(st.integers(-1, 1)))
        x = CycloNum.from_numerators(d, [a * scale for a in x.num])
    return x


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(_values(), st.sampled_from(WINDOWS))
def test_phase_of_is_exact_iff_on_a_ray(x, window_start):
    got = phase_of(x, window_start)
    assert window_start < got <= window_start + 2
    ray = _ray_by_search(x)
    if ray is not None:
        assert isinstance(got, Fraction)
        assert (got - ray) % 2 == 0
    else:
        assert isinstance(got, float)
        mid = embed(x, 256).midpoint()
        gap = (got - math.atan2(mid.imag, mid.real) / math.pi) % 2
        assert min(gap, 2 - gap) < 1e-9
