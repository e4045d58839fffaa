"""Exact arithmetic in cyclotomic fields Q(zeta_d) and phase computation.

Conventions used throughout the package:

* ``zeta_d`` denotes ``exp(2*pi*i/d)``.  An element of Q(zeta_d) is stored
  in the power basis ``1, zeta, ..., zeta^(phi(d)-1)`` of
  ``Q[x]/(Phi_d(x))`` with Fraction coefficients, fully reduced modulo the
  d-th cyclotomic polynomial ``Phi_d``.  Two values with the same ``d`` are
  equal iff their coefficient tuples are equal; values with different ``d``
  are compared after promotion to the lcm field.
* A *phase* ``q`` stands for the ray ``R_{>0} * exp(i*pi*q)``.  Rational
  phases are plain ``Fraction`` objects (exact arithmetic and comparison);
  irrational phases are returned as floats with certified error < 1e-9.
* Numeric enclosures are axis-aligned complex boxes with Fraction
  endpoints.  Transcendental enclosures (pi, cos, sin) come from
  mpmath's interval context; everything else is exact rational interval
  arithmetic, so containment is certified end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import iv

RationalPhase = Fraction


class ZeroValueError(ValueError):
    """Raised when an operation needs a nonzero value (e.g. phase of 0)."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction data
# ---------------------------------------------------------------------------


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials (low-to-high coefficients),
    # den monic; remainder must vanish
    num = num[:]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("nonzero remainder in cyclotomic division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, low to high, monic."""
    if d < 1:
        raise ValueError("d must be >= 1")
    poly = [0] * d + [1]
    poly[0] = -1  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_divmod_int(poly, list(cyclotomic_polynomial(e)))
    return tuple(poly)


def euler_phi(d: int) -> int:
    return len(cyclotomic_polynomial(d)) - 1


@lru_cache(maxsize=None)
def _power_table(d: int) -> tuple[tuple[Fraction, ...], ...]:
    # table[m] = coefficients of x^m mod Phi_d for 0 <= m <= max(2*phi-2, d-1)
    phi = euler_phi(d)
    top = max(2 * phi - 2, d - 1, phi)
    phi_poly = cyclotomic_polynomial(d)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    rows: list[tuple[Fraction, ...]] = []
    for m in range(phi):
        rows.append(tuple(Fraction(1) if i == m else Fraction(0) for i in range(phi)))
    for m in range(phi, top + 1):
        prev = rows[m - 1]
        shifted = [Fraction(0)] + list(prev[: phi - 1])
        lead = prev[phi - 1]
        if lead:
            for i in range(phi):
                shifted[i] -= lead * phi_poly[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce(d: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(d)
    table = _power_table(d)
    out = [Fraction(0)] * phi
    for m, c in enumerate(coeffs):
        if not c:
            continue
        row = table[m]
        for i in range(phi):
            if row[i]:
                out[i] += c * row[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class CycloNum:
    """An element of Q(zeta_d) in canonical power-basis form.

    Immutable; all arithmetic returns new values.  Mixed-d arithmetic
    promotes both operands to Q(zeta_lcm).
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs):
        phi = euler_phi(d)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != phi:
            raise ValueError(f"need {phi} coefficients for d={d}, got {len(cs)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("CycloNum is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (CycloNum, (self.d, self.coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, d: int = 1) -> "CycloNum":
        phi = euler_phi(d)
        return CycloNum(d, [Fraction(q)] + [Fraction(0)] * (phi - 1))

    @staticmethod
    def zero(d: int = 1) -> "CycloNum":
        return CycloNum.from_rational(0, d)

    @staticmethod
    def one(d: int = 1) -> "CycloNum":
        return CycloNum.from_rational(1, d)

    # -- representation conversions ----------------------------------------

    def promote(self, n: int) -> "CycloNum":
        """Rewrite in Q(zeta_n); requires d | n."""
        if n == self.d:
            return self
        if n % self.d != 0:
            raise ValueError(f"cannot promote d={self.d} into d={n}")
        step = n // self.d
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for m, c in enumerate(self.coeffs):
            raw[m * step] = c
        return CycloNum(n, _reduce(n, raw))

    def _pair(self, other) -> tuple["CycloNum", "CycloNum"]:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other, 1)
        if not isinstance(other, CycloNum):
            return NotImplemented, NotImplemented
        if self.d == other.d:
            return self, other
        n = math.lcm(self.d, other.d)
        return self.promote(n), other.promote(n)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycloNum(a.d, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.d, [-x for x in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycloNum(a.d, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        n = len(a.coeffs)
        conv = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        return CycloNum(a.d, _reduce(a.d, conv))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via extended Euclid against Phi_d."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.d)]
        a = list(self.coeffs)
        u = _poly_xgcd_mod(a, phi_poly)
        return CycloNum(self.d, _reduce(self.d, u))

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNum.one(self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a.coeffs == b.coeffs

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None  # mixed-d equality makes a consistent hash impractical

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coeffs[0]

    def galois(self, k: int) -> "CycloNum":
        """Apply zeta -> zeta^k (requires gcd(k, d) = 1)."""
        if math.gcd(k % self.d if self.d > 1 else 1, self.d) != 1:
            raise ValueError("galois exponent must be coprime to d")
        table = _power_table(self.d)
        phi = euler_phi(self.d)
        out = [Fraction(0)] * phi
        for m, c in enumerate(self.coeffs):
            if not c:
                continue
            row = table[(m * k) % self.d]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
        return CycloNum(self.d, out)

    def conjugate(self) -> "CycloNum":
        """Complex conjugation, zeta -> zeta^{-1}."""
        if self.d == 1:
            return self
        return self.galois(self.d - 1)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def real_part(self) -> "CycloNum":
        return (self + self.conjugate()) * Fraction(1, 2)

    def imag_part(self) -> "CycloNum":
        """Im(x) as a real element of Q(zeta_lcm(d,4))."""
        n = math.lcm(self.d, 4)
        i_unit = cyclo(4, 1).promote(n)
        return (self.promote(n) - self.conjugate().promote(n)) / (2 * i_unit)

    def norm(self) -> Fraction:
        """Field norm down to Q (product of all Galois conjugates)."""
        acc = CycloNum.one(self.d)
        for k in range(1, self.d + 1):
            if math.gcd(k, self.d) == 1:
                acc = acc * self.galois(k)
        return acc.as_fraction()

    def height(self) -> Fraction:
        return max((abs(c) for c in self.coeffs), default=Fraction(0))

    # -- numerics ------------------------------------------------------------

    def __complex__(self) -> complex:
        return embed(self, 64).midpoint()

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.coeffs[0]})"
        terms = []
        for m, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if m == 0:
                terms.append(str(c))
            else:
                z = f"z{self.d}" if m == 1 else f"z{self.d}^{m}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return "CycloNum(" + " + ".join(terms) + ")"

    def to_json(self) -> dict:
        return {"d": self.d, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "CycloNum":
        return CycloNum(obj["d"], [Fraction(s) for s in obj["coeffs"]])


def _poly_xgcd_mod(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    # return u with u*a = 1 mod modulus (gcd(a, modulus) = 1 is guaranteed
    # because the modulus is irreducible and a != 0)
    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def trim(p):
        d = deg(p)
        return p[: d + 1] if d >= 0 else []

    r0, r1 = trim(modulus), trim(a)
    s0, s1 = [], [Fraction(1)]
    while deg(r1) > 0:
        q, r = _poly_divmod_frac(r0, r1)
        s = _poly_sub(s0, _poly_mul(q, s1))
        r0, r1, s0, s1 = r1, trim(r), s1, trim(s)
    if deg(r1) != 0:
        raise ZeroDivisionError("element not invertible")
    c = r1[0]
    return [x / c for x in s1]


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    dn = len(den) - 1
    lead = den[dn]
    q = [Fraction(0)] * max(len(num) - dn, 1)
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn] / lead
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q, num


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def cyclo(d: int, k: int) -> CycloNum:
    """zeta_d^k in canonical form."""
    if d < 1:
        raise ValueError("d must be >= 1")
    table = _power_table(d)
    return CycloNum(d, table[k % d])


# ---------------------------------------------------------------------------
# certified complex enclosures
# ---------------------------------------------------------------------------


def _raw_to_fraction(t) -> Fraction:
    sign, man, exp, bc = t
    v = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return -v if sign else v


@lru_cache(maxsize=None)
def _trig_enclosure(num: int, den: int, prec: int):
    # cos/sin of 2*pi*num/den as Fraction intervals
    old = iv.prec
    try:
        iv.prec = prec
        ang = 2 * iv.pi * num / iv.mpf(den)
        c, s = iv.cos(ang), iv.sin(ang)
        clo, chi = (_raw_to_fraction(t) for t in c._mpi_)
        slo, shi = (_raw_to_fraction(t) for t in s._mpi_)
    finally:
        iv.prec = old
    return (clo, chi), (slo, shi)


@dataclass(frozen=True)
class ComplexBox:
    """Axis-aligned rectangle certified to contain a complex number."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def midpoint(self) -> complex:
        return complex((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)

    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def contains_zero(self) -> bool:
        return self.re_lo <= 0 <= self.re_hi and self.im_lo <= 0 <= self.im_hi

    def abs_lower(self) -> Fraction:
        def iv_abs(lo, hi):
            if lo <= 0 <= hi:
                return Fraction(0)
            return min(abs(lo), abs(hi))

        # rational lower bound via max of coordinate distances
        return max(iv_abs(self.re_lo, self.re_hi), iv_abs(self.im_lo, self.im_hi))


def _scale_interval(lo: Fraction, hi: Fraction, c: Fraction):
    return (c * lo, c * hi) if c >= 0 else (c * hi, c * lo)


def embed(x: CycloNum, precision: int = 53) -> ComplexBox:
    """Certified enclosure of x under zeta_d -> exp(2*pi*i/d).

    The box width is at most 2^(-precision+2) * max(1, height(x)).
    """
    scale = int(sum(abs(c) for c in x.coeffs)) + 1
    work = precision + scale.bit_length() + 4
    re_lo = re_hi = Fraction(0)
    im_lo = im_hi = Fraction(0)
    for m, c in enumerate(x.coeffs):
        if not c:
            continue
        (clo, chi), (slo, shi) = _trig_enclosure(m % x.d, x.d, work)
        a, b = _scale_interval(clo, chi, c)
        re_lo, re_hi = re_lo + a, re_hi + b
        a, b = _scale_interval(slo, shi, c)
        im_lo, im_hi = im_lo + a, im_hi + b
    return ComplexBox(re_lo, re_hi, im_lo, im_hi)


_SIGN_PREC_CAP = 4096


def sign_real(x: CycloNum) -> int:
    """Exact sign of a real cyclotomic number."""
    if not x.is_real():
        raise ValueError("sign_real needs a real value")
    if x.is_zero():
        return 0
    if x.is_rational():
        q = x.as_fraction()
        return (q > 0) - (q < 0)
    prec = 64
    while prec <= _SIGN_PREC_CAP:
        box = embed(x, prec)
        if box.re_lo > 0:
            return 1
        if box.re_hi < 0:
            return -1
        prec *= 2
    raise ArithmeticError("could not separate value from zero")


def compare_real(x: CycloNum, y: CycloNum) -> int:
    return sign_real(x - y)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def _shift_into_window(q, window_start):
    # smallest representative in (window_start, window_start + 2]
    t = math.ceil((window_start - q) / 2)
    q = q + 2 * t
    if q <= window_start:
        q += 2
    if q > window_start + 2:
        q -= 2
    return q


def phase_of(x: CycloNum, window_start: RationalPhase = Fraction(-1)):
    """Phase of x in (window_start, window_start + 2].

    Returns an exact Fraction when x lies on a ray exp(i*pi*q) with
    2*d*q integral; otherwise a float with certified error < 1e-9.
    """
    if x.is_zero():
        raise ZeroValueError("phase of zero is undefined")
    window_start = Fraction(window_start)
    d = x.d
    box = embed(x, 64)
    mid = box.midpoint()
    approx = math.atan2(mid.imag, mid.real) / math.pi
    approx_win = float(approx) + 2 * math.ceil((float(window_start) - approx) / 2)
    # rational-ray detection: candidates with denominator dividing 2d
    base = round(approx_win * 2 * d)
    for k in (base, base - 1, base + 1):
        q = _shift_into_window(Fraction(k, 2 * d), window_start)
        y = x * cyclo(4 * d, -k)
        if y.is_real() and sign_real(y) > 0:
            return q
    # certified float fallback
    prec = 64
    while prec <= _SIGN_PREC_CAP:
        box = embed(x, prec)
        r = box.abs_lower()
        if r > 0 and box.width() / r < Fraction(1, 10**10):
            mid = box.midpoint()
            phase = math.atan2(mid.imag, mid.real) / math.pi
            out = phase + 2 * math.ceil((float(window_start) - phase) / 2)
            if out <= float(window_start):
                out += 2.0
            if out > float(window_start) + 2:
                out -= 2.0
            return out
        prec *= 2
    raise ArithmeticError("phase refinement did not converge")


# ---------------------------------------------------------------------------
# small exact linear algebra over Q(zeta)
# ---------------------------------------------------------------------------


def _rref(mat):
    """Row reduce in place (list of lists of CycloNum); returns pivot cols."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not mat[i][c].is_zero()), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def mat_rank(mat) -> int:
    if not mat or not mat[0]:
        return 0
    work = [row[:] for row in mat]
    return len(_rref(work))


def mat_kernel(mat):
    """Basis of the right kernel of a CycloNum matrix."""
    if not mat:
        return []
    cols = len(mat[0])
    work = [row[:] for row in mat]
    pivots = _rref(work)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [CycloNum.zero() for _ in range(cols)]
        vec[fc] = CycloNum.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def solve_in_span(vectors, target):
    """Coefficients expressing target in the span of vectors, or None.

    vectors: list of coordinate lists; all entries CycloNum.
    """
    if not vectors:
        return [] if all(t.is_zero() for t in target) else None
    n = len(target)
    aug = [[vectors[j][i] for j in range(len(vectors))] + [target[i]] for i in range(n)]
    pivots = _rref(aug)
    k = len(vectors)
    if k in pivots:
        return None
    coeffs = [CycloNum.zero() for _ in range(k)]
    for r, pc in enumerate(pivots):
        coeffs[pc] = aug[r][k]
    return coeffs
