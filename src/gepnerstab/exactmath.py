"""Exact arithmetic in cyclotomic fields Q(zeta_d) and phase computation.

Conventions used throughout the package:

* ``zeta_d`` denotes ``exp(2*pi*i/d)``.  An element of Q(zeta_d) is stored
  in the power basis ``1, zeta, ..., zeta^(phi(d)-1)`` of
  ``Q[x]/(Phi_d(x))``, fully reduced modulo the d-th cyclotomic polynomial
  ``Phi_d``, as integer numerators over one denominator in canonical form
  (den > 0, gcd(den, *num) = 1; see ``CycloNum``), so all ring arithmetic
  is on ints.  Two values with the same ``d`` are equal iff their
  (numerators, denominator) are equal; values with different ``d`` are
  compared after promotion to the lcm field.
* A *phase* ``q`` stands for the ray ``R_{>0} * exp(i*pi*q)``.  Rational
  phases are plain ``Fraction`` objects (exact arithmetic and comparison);
  irrational phases are returned as floats with certified error < 1e-9.
* Numeric enclosures are axis-aligned complex boxes with Fraction
  endpoints.  cos and sin of 2*pi*k/d are enclosed by integer fixed-point
  code (pi from Machin's formula, exact reduction to an octant, Taylor
  series with argument halving; Brent and Zimmermann, Modern Computer
  Arithmetic, ch. 4) whose error bound is proved in ``_octant_cos_sin``.
  At one precision all of them share one fixed-point scale 2^w, so
  ``embed`` sums x's stored integer numerators ``x.num`` times the cos and
  sin values and divides once by ``x.den`` 2^w: the same box as rational
  interval arithmetic on the Fraction intervals, so containment is
  certified end to end.
* ``phase_of`` certifies the angle of one box, and runs the exact ray
  test, on integers in Q(zeta_d), only for the one ray within the
  certified error of it.  The box comes first from floats: when x's
  numerators a_m have sum |a_m| < 2^50, one float dot product with the
  zeta_d^m as floats (each within 2^-52) has error at most
  2 sum |a_m| (2^-52 + gamma_n), gamma_n = n u / (1 - n u) (Higham,
  Accuracy and Stability of Numerical Algorithms, Thm. 3.1).  Values this
  box cannot certify go to the integer boxes of ``embed`` at 64, 128, ...
  bits.  The proof that either box finds exactly x's ray is in its
  docstring.
* The package's one row reduction, ``_rref``, is at the end of this
  module, with ``rank``, ``kernel`` and ``solve`` on top of it.  They run
  over any field object that supplies zero, one, reciprocal, negate and
  the row operations scale and eliminate: ``QZETA`` (Q(zeta_d), CycloNum
  entries) for the Ext tables, the eigen-row and the exact quiver
  representations, and ``gfield.GF`` for ``gfield.span``,
  ``gfield.kernel`` and the reduced ones.  Both fields also map
  cyclotomic coefficients in with ``reduce_cyclo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

RationalPhase = Fraction


class ZeroValueError(ValueError):
    """Raised when an operation needs a nonzero value (e.g. phase of 0)."""


class ResourceLimitError(RuntimeError):
    """Raised when an input would exceed a size bound (field size, dimension)."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, low to high, monic."""
    if d < 1:
        raise ValueError("d must be >= 1")
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(e))
            if any(rem):
                raise ArithmeticError("nonzero remainder in cyclotomic division")
    return tuple(poly)


def euler_phi(d: int) -> int:
    return len(cyclotomic_polynomial(d)) - 1


@lru_cache(maxsize=None)
def _power_table(d: int) -> tuple[tuple[int, ...], ...]:
    # table[m] = coefficients of x^m mod Phi_d for 0 <= m <= max(2*phi-2, d-1);
    # integers, as Phi_d is monic with integer coefficients
    phi = euler_phi(d)
    top = max(2 * phi - 2, d - 1, phi)
    phi_poly = cyclotomic_polynomial(d)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    rows: list[tuple[int, ...]] = []
    for m in range(phi):
        rows.append(tuple(int(i == m) for i in range(phi)))
    for m in range(phi, top + 1):
        prev = rows[m - 1]
        shifted = [0] + list(prev[: phi - 1])
        lead = prev[phi - 1]
        if lead:
            for i in range(phi):
                shifted[i] -= lead * phi_poly[i]
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=None)
def _sparse_power_table(d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # the nonzero (i, table[m][i]) of each row of _power_table(d)
    return tuple(tuple((i, r) for i, r in enumerate(row) if r) for row in _power_table(d))


def _reduce(d: int, coeffs) -> list[int]:
    """Integer coefficients of sum_m coeffs[m] x^m mod Phi_d (ints in, ints out)."""
    phi = euler_phi(d)
    out = list(coeffs[:phi])
    out += [0] * (phi - len(out))
    table = _sparse_power_table(d)
    for m in range(phi, len(coeffs)):
        c = coeffs[m]
        if c:
            for i, r in table[m]:
                out[i] += c * r
    return out


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class CycloNum:
    """An element of Q(zeta_d) in canonical power-basis form.

    Stored as (d, num, den): num is a tuple of phi(d) ints and den an int,
    and the value is sum_m (num[m] / den) zeta_d^m.  The form is canonical:
    den > 0, gcd(den, *num) = 1, so zero is (0, ..., 0) over 1 and two
    values of one field are equal iff their (num, den) are.  Every ring
    operation works on these integers and normalises its result with one
    gcd; ``coeffs`` gives the Fraction coefficients for printing.

    Immutable; all arithmetic returns new values.  Mixed-d arithmetic
    promotes both operands to Q(zeta_lcm).
    """

    __slots__ = ("d", "num", "den")

    def __init__(self, d: int, coeffs):
        """The element with power-basis coefficients coeffs (ints, Fractions or what Fraction accepts)."""
        phi = euler_phi(d)
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        if len(cs) != phi:
            raise ValueError(f"need {phi} coefficients for d={d}, got {len(cs)}")
        den = math.lcm(*(c.denominator for c in cs))
        # over the lcm of the reduced denominators gcd(den, *num) is already 1
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CycloNum is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (CycloNum, (self.d, self.coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients num[m] / den as Fractions."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_numerators(d: int, num, den: int = 1) -> "CycloNum":
        """sum_m (num[m] / den) zeta_d^m, for ints num (phi(d) of them) and den != 0."""
        if len(num) != euler_phi(d):
            raise ValueError(f"need {euler_phi(d)} numerators for d={d}, got {len(num)}")
        return _canonical(d, num, den)

    @staticmethod
    def from_rational(q, d: int = 1) -> "CycloNum":
        if type(q) is not int:
            q = Fraction(q)
        return _new(d, (q.numerator,) + (0,) * (euler_phi(d) - 1), q.denominator)

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
        raw = [0] * ((len(self.num) - 1) * step + 1)
        raw[::step] = self.num
        return _canonical(n, _reduce(n, raw), self.den)

    def _pair(self, other) -> tuple["CycloNum", "CycloNum"]:
        if type(other) is not CycloNum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented, NotImplemented
            other = CycloNum.from_rational(other, 1)
        if self.d == other.d:
            return self, other
        n = math.lcm(self.d, other.d)
        return self.promote(n), other.promote(n)

    # -- ring operations ----------------------------------------------------
    #
    # A rational operand p/q (int, Fraction or d = 1) promotes to
    # (p, 0, ..., 0) over q, so +, - and * with it change numerator 0 or
    # scale every numerator: the same canonical form as promotion and the
    # general product, without the convolution and reduction.  A rational
    # self with a CycloNum other hands the operation to other's fast path.

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _new(self.d, tuple(-a for a in self.num), self.den)

    def _add(self, other, sign: int):
        """self + sign * other; a cross-multiply when the denominators differ."""
        q = _rational_operand(other)
        if q is not None:
            p, q = q
            num = [a * q for a in self.num]
            num[0] += sign * p * self.den
            return _canonical(self.d, num, self.den * q)
        if self.d == 1 and type(other) is CycloNum:
            return (other if sign == 1 else -other) + self
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        p, q = a.den, b.den
        if p == q:
            return _canonical(a.d, [x + sign * y for x, y in zip(a.num, b.num)], p)
        return _canonical(a.d, [x * q + sign * y * p for x, y in zip(a.num, b.num)], p * q)

    def __mul__(self, other):
        q = _rational_operand(other)
        if q is not None:
            p, q = q
            return _canonical(self.d, [a * p for a in self.num], self.den * q)
        if self.d == 1 and type(other) is CycloNum:
            return other * self
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        n = len(a.num)
        conv = [0] * (2 * n - 1)
        bs = [(j, y) for j, y in enumerate(b.num) if y]
        for i, x in enumerate(a.num):
            if x:
                for j, y in bs:
                    conv[i + j] += x * y
        return _canonical(a.d, _reduce(a.d, conv), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse from the Galois conjugates.

        The norm N = x * rho, rho = prod sigma_k(x) over 1 < k < d with
        gcd(k, d) = 1, is the product of all conjugates, so it is rational
        and nonzero for x != 0, and 1/x = rho / N: integer products only.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        rho = self._other_conjugates()
        return rho * (1 / (self * rho).as_fraction())

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
        return a.num == b.num and a.den == b.den

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None  # mixed-d equality makes a consistent hash impractical

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        """False iff the value is zero, in any field."""
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def galois(self, k: int) -> "CycloNum":
        """Apply zeta -> zeta^k (requires gcd(k, d) = 1)."""
        d = self.d
        if math.gcd(k % d if d > 1 else 1, d) != 1:
            raise ValueError("galois exponent must be coprime to d")
        table = _sparse_power_table(d)
        out = [0] * len(self.num)
        for m, c in enumerate(self.num):
            if c:
                for i, r in table[(m * k) % d]:
                    out[i] += c * r
        return _canonical(d, out, self.den)

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
        return (self - self.conjugate()) * (cyclo(4, -1) * Fraction(1, 2))

    def norm(self) -> Fraction:
        """Field norm down to Q (product of all Galois conjugates)."""
        return (self * self._other_conjugates()).as_fraction()

    def _other_conjugates(self) -> "CycloNum":
        """prod sigma_k(x) over 1 < k < d with gcd(k, d) = 1: every conjugate but x."""
        acc = CycloNum.one(self.d)
        for k in range(2, self.d):
            if math.gcd(k, self.d) == 1:
                acc = acc * self.galois(k)
        return acc

    def height(self) -> Fraction:
        return Fraction(max(map(abs, self.num)), self.den)

    # -- numerics ------------------------------------------------------------

    def __complex__(self) -> complex:
        return embed(self, 64).midpoint()

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.as_fraction()})"
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


_set_d, _set_num, _set_den = (CycloNum.__dict__[a].__set__ for a in CycloNum.__slots__)


def _new(d: int, num: tuple, den: int) -> CycloNum:
    """The CycloNum (d, num, den), for a num and den already in canonical form."""
    x = object.__new__(CycloNum)
    _set_d(x, d)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _canonical(d: int, num, den: int) -> CycloNum:
    """sum_m (num[m] / den) zeta_d^m for ints num and den != 0, divided down to canonical form."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        return _new(d, tuple(a // g for a in num), den // g)
    return _new(d, tuple(num), den)


def _rational_operand(other):
    """other as (numerator, denominator > 0) if it is rational (int, Fraction or d = 1), else None."""
    if type(other) is CycloNum:  # first: isinstance with Fraction's ABC is slow
        return (other.num[0], other.den) if other.d == 1 else None
    if isinstance(other, (int, Fraction)):
        return int(other.numerator), int(other.denominator)
    return None


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials (low-to-high coefficients) by a monic den."""
    num = list(num)
    dn = len(den) - 1
    q = [0] * max(len(num) - dn, 1)
    for i in range(len(num) - dn - 1, -1, -1):
        c = q[i] = num[i + dn]
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q, num


def cyclo(d: int, k: int) -> CycloNum:
    """zeta_d^k in canonical form."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _root_of_unity(d, k % d)


@lru_cache(maxsize=None)
def _root_of_unity(d: int, k: int) -> CycloNum:
    # one shared value per (d, k): CycloNum is immutable
    return _new(d, _power_table(d)[k], 1)


# ---------------------------------------------------------------------------
# certified complex enclosures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pi_fixed(w: int) -> int:
    """An integer P with |P - pi * 2^w| < 2, from Machin's formula.

    pi = 16 arctan(1/5) - 4 arctan(1/239), summed at u = w + g bits with
    g = bitlen(w) + 8.  For arctan(1/x), p_j = floor(p_{j-1} / x^2) starts
    at floor(2^u / x) and stays within x^2 / (x^2 - 1) <= 25/24 below
    2^u / x^(2j+1); the term floor(p_j / (2j + 1)) adds less than one more,
    and the series stops at the first p_n = 0, so the omitted tail of the
    alternating series is below 25/24.  Each arctan is then within
    2.05 n + 1.05 of its value with n <= u / (2 log2 x) + 1, and pi * 2^u
    within 7.6 u + 62 < 2^g.  Shifting down by g bits leaves an error below
    1 + 1.
    """
    g = w.bit_length() + 8
    one = 1 << (w + g)

    def arctan_inv(x: int) -> int:
        total, p, j, x2 = 0, one // x, 0, x * x
        while p:
            term = p // (2 * j + 1)
            total += -term if j & 1 else term
            p //= x2
            j += 1
        return total

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> g


@lru_cache(maxsize=None)
def _octant_cos_sin(num: int, den: int, prec: int) -> tuple[int, int, int, int]:
    """(C, S, E, w): cos t and sin t lie within E / 2^w of C / 2^w and S / 2^w.

    Here t = (pi/4) * num/den lies in [0, pi/4] (0 <= num <= den, reduced),
    and 2E / 2^w <= 2^-prec.  Angles whose cosine or sine is rational
    (Niven: only 0, 1/2 and 1 in this octant) are exact: t = 0 gives (1, 0)
    and t = pi/6 gives sin t = 1/2.  At t = pi/6 and t = pi/4 the
    irrational values sqrt(3)/2 and sqrt(2)/2 are integer square roots,
    within 1 of the true value; at t = pi/4, where cos t = sin t, both are
    the same integer.  So every value +-cos, +-sin at an angle 2 pi k/d
    comes from exactly one integer, and values that cancel exactly cancel
    in the midpoints too.

    Otherwise, with p = max(prec, 3), h = max(1, isqrt(p) // 2) argument
    halvings and w = p + G bits, G = 2h + bitlen(p + 2h) + 5:

    * theta = floor(P * num / (den * 2^(h+2))) is within 2 of
      (t / 2^h) 2^w, and theta < 2^(w-h), by the bound on P above.
    * The Taylor terms T_0 = 2^w, T_j = floor(floor(T_{j-1} theta / 2^w) / j)
      are within 3 of (t/2^h)^j / j! 2^w: T_1 = theta is within 2, and the
      error e_j < e_{j-1} / j + 2 / j + 1 stays below 3.  Since
      T_j < 2^(w - hj), the sum stops at the first T_n = 0 with n <= w/h + 1.
      Both series alternate with decreasing terms, so each truncated tail is
      below T_n + 3 = 3, and C and S are within E_0 = 3 (n + 1) of
      cos(t / 2^h) 2^w and sin(t / 2^h) 2^w.
    * Each double-angle step C' = floor((C^2 - S^2) / 2^w),
      S' = floor(2 C S / 2^w) at an angle in [0, pi/4] turns an error E into
      one below 2 (cos + sin) E + 2 E^2 / 2^w + 1 <= 3 E + 1, as long as
      E <= 2^(w-4); after h steps E_h <= 3^h (E_0 + 1/2).
    * With E_0 <= 3 w + 6, 3^h (3 w + 6.5) <= 2^(2h) 16 (p + 2h + 1)
      <= 2^(G-1), since w = p + 2h + bitlen(p + 2h) + 5 and p >= 3.  So
      E_h <= 2^(G-1) <= 2^(w-4), which also keeps every step's condition.
    """
    p = max(prec, 3)
    h = max(1, math.isqrt(p) // 2)
    w = p + 2 * h + (p + 2 * h).bit_length() + 5
    one = 1 << w
    if num == 0:
        return one, 0, 0, w
    if num == den:
        root = math.isqrt(one * one // 2)
        return root, root, 1, w
    if 3 * num == 2 * den:
        return math.isqrt(3 * one * one // 4), one >> 1, 1, w
    theta = _pi_fixed(w) * num // (den << (h + 2))
    c = s = 0
    term, j = one, 0
    while term:
        signed = -term if j & 2 else term
        if j & 1:
            s += signed
        else:
            c += signed
        j += 1
        term = (term * theta >> w) // j
    err = 3 * (j + 1)
    for _ in range(h):
        c, s = (c - s) * (c + s) >> w, c * s >> (w - 1)
        err = 3 * err + 1
    return c, s, err, w


@lru_cache(maxsize=None)
def _trig_fixed(num: int, den: int, prec: int) -> tuple[int, int, int, int]:
    """(C, S, E, w): cos and sin of 2*pi*num/den within E / 2^w of C / 2^w and S / 2^w.

    The angle is reduced exactly to the octant [0, pi/4]: with
    (q, r) = divmod(8 num, den), 2 pi num/den = q pi/4 + (pi/4) r/den.  An
    odd octant reflects to (q + 1) pi/4 - (pi/4)(den - r)/den, which swaps
    cos and sin; each of the q // 2 quarter turns maps (cos, sin) to
    (-sin, cos).  Both steps are exact, so the values of _octant_cos_sin
    carry over with their radius, and so does 2E / 2^w <= 2^-prec.  The
    number of bits w depends on prec alone.
    """
    q, r = divmod(8 * (num % den), den)
    a = den - r if q & 1 else r
    g = math.gcd(a, den)
    c, s, err, w = _octant_cos_sin(a // g, den // g, prec)
    if q & 1:
        c, s = s, c
    for _ in range(q // 2):
        c, s = -s, c
    return c, s, err, w


def _trig_enclosure(num: int, den: int, prec: int):
    """cos and sin of 2*pi*num/den as Fraction intervals of width <= 2^-prec."""
    c, s, err, w = _trig_fixed(num, den, prec)
    one = 1 << w
    return (Fraction(c - err, one), Fraction(c + err, one)), (Fraction(s - err, one), Fraction(s + err, one))


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


def _embed_fixed(x: CycloNum, precision: int) -> tuple[int, int, int, int]:
    """(re, im, err, den): embed(x, precision) is (re +- err) / den + i (im +- err) / den."""
    nums, den = x.num, x.den
    scale = sum(map(abs, nums)) // den + 1  # floor(sum |c_m|) + 1
    work = precision + scale.bit_length() + 4
    re = im = err = w = 0
    for m, a in enumerate(nums):
        if a:
            c, s, e, w = _trig_fixed(m, x.d, work)
            re += a * c
            im += a * s
            err += abs(a) * e
    return re, im, err, den << w


def embed(x: CycloNum, precision: int = 53) -> ComplexBox:
    """Certified enclosure of x under zeta_d -> exp(2*pi*i/d).

    The box is the interval sum of c_m [cos] + i c_m [sin] over the
    coefficients c_m of x, with the _trig_enclosure intervals of the angles
    2 pi m/d at one working precision.  At one precision every interval has
    the form (C_m -+ E_m) / 2^w with the same w, so with c_m = a_m / D read
    from x's stored numerators a_m = x.num[m] and denominator D = x.den the
    sum is, exactly,

        (sum a_m C_m -+ sum |a_m| E_m) / (D 2^w)

    and likewise for the sines: integer products and sums, and one Fraction
    per endpoint at the end.  The box width is at most
    2^(-precision+2) * max(1, height(x)): the working precision is
    work = precision + bitlen(scale) + 4 with scale = floor(sum |c_m|) + 1,
    each cos and sin interval has width <= 2^-work, and
    sum |c_m| < scale <= 2^bitlen(scale), so the width is below
    2^(-precision-4).
    """
    re, im, err, den = _embed_fixed(x, precision)
    return ComplexBox(Fraction(re - err, den), Fraction(re + err, den), Fraction(im - err, den), Fraction(im + err, den))


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
        re, _, err, _ = _embed_fixed(x, prec)
        if re > err:
            return 1
        if re < -err:
            return -1
        prec *= 2
    raise ArithmeticError("could not separate value from zero")


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def _real_on_ray(x: CycloNum, k: int) -> bool:
    """Whether x zeta_4d^-k is real, tested in Q(zeta_d) on integers.

    x zeta_4d^-k is real iff it equals its conjugate, i.e. iff
    x = conj(x) zeta_2d^k.  For even k, zeta_2d^k = zeta_d^(k/2); for odd d
    and odd k, zeta_2d^k = -zeta_d^(k(d+1)/2), as -zeta_d^((d+1)/2) =
    exp(i pi (1 + (d+1)/d)) = zeta_2d.  For even d and odd k, zeta_2d^k has
    order 2d / gcd(k, 2d), with more factors 2 than d; the roots of unity
    in Q(zeta_d) are the +-zeta_d^j, whose orders divide d when d is even,
    so zeta_2d^k is not in Q(zeta_d) and cannot be x / conj(x): no nonzero
    x passes.  With
    zeta_2d^k = s zeta_d^e, conj(x) zeta_2d^k = s sum_m c_m zeta_d^(e-m), and
    both sides are compared as integer numerators over x.den.
    """
    d = x.d
    if k % 2 == 0:
        e, sign = k // 2, 1
    elif d % 2:
        e, sign = k * (d + 1) // 2, -1
    else:
        return False
    nums = x.num
    table = _sparse_power_table(d)
    out = [0] * len(nums)
    for m, a in enumerate(nums):
        if a:
            a *= sign
            for i, r in table[(e - m) % d]:
                out[i] += a * r
    return tuple(out) == nums


_FLOAT_STAGE_LIMIT = 2**50  # phase_of tries floats first when sum |x.num[m]| is below this


@lru_cache(maxsize=None)
def _float_trig(d: int) -> tuple[tuple[complex, ...], float]:
    """(roots, unit): zeta_d^m for m < phi(d) as complex floats, and the float stage's error unit.

    C / 2^w from ``_trig_fixed`` at 64 bits is within 2^-65 of cos 2 pi m/d,
    and the correctly rounded quotient adds at most 2^-53 (1 + 2^-65), so
    each real part is within 2^-52 of its value; likewise the imaginary
    parts.  unit = 2 (2^-52 + gamma_n), with n = phi(d), u = 2^-53 and
    gamma_n = n u / (1 - n u), bounds the float stage's error per unit of
    sum |a_m| (see phase_of).
    """
    roots = []
    for m in range(euler_phi(d)):
        c, s, _, w = _trig_fixed(m, d, 64)
        roots.append(complex(c / (1 << w), s / (1 << w)))
    n = len(roots)
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
    return tuple(roots), 2 * (2.0**-52 + gamma)


def _float_centre(x: CycloNum):
    """(re, im, tol) for phase_of from one float dot product, or None when it certifies no angle."""
    nums = x.num
    size = sum(map(abs, nums))
    if size >= _FLOAT_STAGE_LIMIT:
        return None
    roots, unit = _float_trig(x.d)
    z = sum(map(mul, nums, roots))  # int a times complex c + is is fl(a c) + i fl(a s)
    re, im = z.real, z.imag
    err = unit * size
    r = max(abs(re), abs(im)) - err
    if r > 0 and err * 2e10 < r:  # w / r < 1e-10, as w = 2 err
        tol = 2 * x.d * (2 * err / r + 2.0**-46)
        if tol < 0.5:
            return re, im, tol
    return None


def _box_centre(x: CycloNum):
    """(re, im, tol) for phase_of from the integer boxes of ``embed`` at 64, 128, ... bits."""
    prec = 64
    while prec <= _SIGN_PREC_CAP:
        re, im, err, den = _embed_fixed(x, prec)
        r = max(abs(re), abs(im)) - err  # den * r when positive
        if r > 0 and 2 * err * 10**10 < r:  # w / r < 1e-10, as w = 2 err / den
            tol = 2 * x.d * (2 * err / r + 2.0**-46)
            if tol < 0.5:
                break
        prec *= 2
    else:
        raise ArithmeticError("phase refinement did not converge")
    shift = max(abs(re), abs(im)).bit_length() - den.bit_length()
    if not -1000 < shift < 1000:
        re, im, den = (re, im, den << shift) if shift > 0 else (re << -shift, im << -shift, den)
    return re / den, im / den, tol


def phase_of(x: CycloNum, window_start: RationalPhase = Fraction(-1)):
    """Phase of x in (window_start, window_start + 2].

    Returns an exact Fraction when x lies on a ray exp(i*pi*q) with
    2*d*q integral; otherwise a float with certified error < 1e-9.  A
    window_start that is not a Fraction is converted to one first; the
    float window of the second case is numerator / denominator, the
    correctly rounded quotient, which equals float(window_start).

    Two stages look for a box B, certified to contain a positive multiple
    of x, that certifies the angle: with w its width, m its exact centre
    and r = max(|Re m|, |Im m|) - w/2, a lower bound of |m| (the larger
    distance of its real and imaginary intervals from 0), r > 0,
    w / r < 1e-10 and tol = 2d (w/r + 2^-46) < 1/2 (in floats).  Each
    stage also gives a float point mid near m.

    1. Floats (``_float_centre``), when A = sum |a_m| < 2^50 for the
       numerators a_m = x.num[m].  x has the phase of x.den x =
       sum a_m zeta_d^m, whose real part is S = sum a_m cos(2 pi m/d).
       ``_float_trig`` gives zeta_d^m as complex floats c_m + i s_m with
       |c_m - cos(2 pi m/d)| <= 2^-52, and likewise s_m.  Each a_m
       converts to a float exactly, and an int times a complex float
       rounds each part once, so re = Re fl(sum a_m (c_m + i s_m)) is the
       float dot product fl(sum a_m c_m), and im likewise.  Then
       |re - S| <= 2^-52 A + gamma_n (1 + 2^-52) A with n = phi(d) terms:
       a float dot product has error at most gamma_n times the sum of its
       |terms| (Higham, "Accuracy and Stability of Numerical Algorithms",
       Thm. 3.1, for recursive summation; a compensated sum(), as newer
       Pythons use, has error at most 3u + O(n u^2) per unit, products
       included, which is within 2 gamma_n for n >= 2, and a sum of one
       term is exact).  So e = 2 A (2^-52 + gamma_n) bounds it, the
       factor 2 absorbing the second terms above and the few roundings
       made in computing e, r and tol, and likewise for im.  B is
       [re -+ e] x [im -+ e]: w = 2e, m = mid = (re, im), no rounding.
       If B does not certify the angle the stage returns None.
    2. Integer boxes (``_box_centre``).  One loop refines the box of
       ``embed`` (64, 128, ... bits; den times it in integers) until it
       certifies the angle; mid is m correctly rounded coordinate by
       coordinate.  When the larger coordinate of m lies outside about
       [2^-1000, 2^1000], both are first scaled by one power of two,
       which changes no angle.

    From mid, p = atan2(mid) / pi and t = 2d p.  Only k = round(t), and
    only when |t - k| <= tol, gets the exact ray test (x zeta_4d^-k real,
    tested by ``_real_on_ray`` in Q(zeta_d)); otherwise the result is p.

    No ray is missed, and a passing k is x's ray.  Let z be the value in B,
    u = 2^-53, and all angles in units of pi:

    * |z - m| <= w / sqrt(2) and |m| >= r, so z lies in the disc of radius
      (w / (sqrt(2) r)) |m| < |m| about m, and z and m are at most
      arcsin(w / (sqrt(2) r)) / pi <= w / (2 sqrt(2) r) apart.
    * Each coordinate of mid is m's, or correctly rounded, within u of
      itself or, if subnormal, within 2^-1075 <= u max(|Re m|, |Im m|), so
      |mid - m| <= u |m| and mid and m are at most u/2 apart.
    * atan2 is allowed an error of 2^-46 radians (64 ulps at pi, far more
      than C libraries make), i.e. 2^-46 / pi; dividing by math.pi adds at
      most 3u on |p| <= 1 + u, and t = 2d p one more rounding of u |t|.

    So t lies within 2d (w / (2 sqrt(2) r) + 4.5u + 2^-46 / pi)
    < 2d (w / (2r) + 2^-47) of 2d q for the representative q of the phase
    of x next to p, and tol as computed exceeds that bound.  If x lies on
    the ray k0 / (2d), k0 = 2d q is an integer with |t - k0| < tol < 1/2,
    so k0 = round(t), the test |t - k| <= tol passes (t - k is exact: a
    float within 1/2 of an integer far below 2^52), and zeta_4d^-k0 x = |x|
    passes the exact test.  So both stages return a Fraction for exactly
    the same x, the same Fraction, and floats that differ by a few units
    in the last place.

    The exact test checks only that x zeta_4d^-k is real, as x = conj(x)
    zeta_2d^k in Q(zeta_d) (``_real_on_ray``, whose docstring shows why no
    nonzero x passes for even d and odd k: zeta_2d^k is not in Q(zeta_d)).
    Its sign needs no test.  A k that passes puts x on the ray k / (2d) or
    on the opposite ray (k + 2d) / (2d).  In the second case
    |t - (k + 2d + 4dj)| < tol for some integer j as well as |t - k| <= tol,
    so 2d <= |2d + 4dj| < 2 tol < 1, which is impossible.  So the passing k
    is x's ray, k0 modulo 4d.
    """
    if x.is_zero():
        raise ZeroValueError("phase of zero is undefined")
    if type(window_start) is not Fraction:
        window_start = Fraction(window_start)
    re, im, tol = _float_centre(x) or _box_centre(x)
    a, b = window_start.numerator, window_start.denominator
    d = x.d
    phase = math.atan2(im, re) / math.pi
    t = 2 * d * phase
    k = round(t)
    if abs(t - k) <= tol and _real_on_ray(x, k):
        # k/(2d) + 2j for the j = floor((w + 2 - k/(2d)) / 2) that puts it in (w, w + 2], w = a/b
        return Fraction(k + 4 * d * ((2 * d * (a + 2 * b) - k * b) // (4 * d * b)), 2 * d)
    start = a / b  # correctly rounded, so equal to float(window_start)
    out = phase + 2 * math.ceil((start - phase) / 2)
    if out <= start:
        out += 2.0
    if out > start + 2:
        out -= 2.0
    return out


# ---------------------------------------------------------------------------
# row reduction over a field: Q(zeta_d) here, GF(q) in gfield
# ---------------------------------------------------------------------------
#
# The package's one row reduction.  A field supplies zero, one,
# reciprocal(a), negate(a), scale(row, c) (c times the row) and
# eliminate(row, f, pivot_row) (row - f * pivot_row), the last two as new
# lists; an entry is zero exactly when it is falsy.  No input row (list or
# tuple) is changed.


def _rref(field, rows):
    """(R, pivots): the nonzero rows of the reduced row echelon form of rows, and each one's pivot column."""
    mat = list(rows)
    n_rows = len(mat)
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, n_rows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        row = mat[r] = field.scale(mat[r], field.reciprocal(mat[r][c]))
        for i in range(n_rows):
            if i != r and mat[i][c]:
                mat[i] = field.eliminate(mat[i], mat[i][c], row)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return mat[:r], pivots


def rank(field, rows) -> int:
    """Rank of the matrix with these rows."""
    return len(_rref(field, rows)[1])


def kernel(field, rows, n: int) -> list:
    """Basis of the null space {x in field^n : row . x = 0 for every row}.

    Each free column c of the rows' RREF R gives the kernel vector e_c
    minus R's column c placed at the pivots; no rows give the identity.
    """
    reduced, pivots = _rref(field, rows)
    basis = []
    for c in range(n):
        if c not in pivots:
            vec = [field.zero] * n
            vec[c] = field.one
            for row, p in zip(reduced, pivots):
                vec[p] = field.negate(row[c])
            basis.append(vec)
    return basis


def solve(field, vectors, target):
    """Coefficients expressing target in the span of vectors (coordinate lists), or None."""
    k = len(vectors)
    aug = [[v[i] for v in vectors] + [t] for i, t in enumerate(target)]
    reduced, pivots = _rref(field, aug)
    if k in pivots:
        return None
    coeffs = [field.zero] * k
    for row, p in zip(reduced, pivots):
        coeffs[p] = row[k]
    return coeffs


class _CyclotomicField:
    """Q(zeta_d) for every d at once: entries are CycloNums, mixed fields promote."""

    zero = CycloNum.zero()
    one = CycloNum.one()

    reciprocal = staticmethod(CycloNum.inverse)
    negate = staticmethod(CycloNum.__neg__)

    @staticmethod
    def scale(row, c):
        return [x * c for x in row]

    @staticmethod
    def eliminate(row, f, pivot_row):
        return [x - f * y for x, y in zip(row, pivot_row)]

    @staticmethod
    def reduce_cyclo(x, conductor):
        """x itself, as ``GF.reduce_cyclo`` maps it into GF(p^k): Q(zeta_conductor) lies in this field."""
        return x


QZETA = _CyclotomicField()
