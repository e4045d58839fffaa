"""Multivariate polynomials with rational coefficients.

Stored as a map from exponent vectors to nonzero Fraction coefficients;
no division is needed anywhere except exact reduction modulo a single
polynomial (used for composition checks modulo the superpotential).
String syntax: ``"3/2*x1^2*x3 - x2"`` with variables x1..xn.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactmath import CycloNum

Mono = tuple[int, ...]


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Mono, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Mono, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(m) != nvars:
                        raise ValueError("exponent vector has wrong length")
                    self.terms[tuple(m)] = c

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {tuple([0] * nvars): Fraction(c)})

    @staticmethod
    def var(nvars: int, i: int, power: int = 1) -> "Poly":
        m = [0] * nvars
        m[i] = power
        return Poly(nvars, {tuple(m): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exps, c=1) -> "Poly":
        return Poly(nvars, {tuple(exps): Fraction(c)})

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading -------------------------------------------------------------

    def weighted_degree(self, weights) -> int | None:
        """Common weighted degree of all monomials, or None if mixed/zero."""
        degs = {sum(e * w for e, w in zip(m, weights)) for m in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def is_homogeneous(self, weights, degree=None) -> bool:
        if self.is_zero():
            return True
        d = self.weighted_degree(weights)
        if d is None:
            return False
        return degree is None or d == degree

    def divisible_by_var(self, i: int) -> bool:
        return bool(self.terms) and all(m[i] > 0 for m in self.terms)

    # -- reduction modulo one polynomial --------------------------------------

    def reduce_mod(self, w: "Poly") -> "Poly":
        """Remainder of division by w (single divisor, lex leading term).

        A single polynomial generates its ideal as a Groebner basis, so the
        remainder vanishes iff self is a multiple of w.
        """
        if w.is_zero():
            raise ZeroDivisionError("reduction modulo zero polynomial")
        lead = max(w.terms)  # lex order on exponent tuples
        lead_c = w.terms[lead]
        rem = Poly(self.nvars, dict(self.terms))
        while True:
            target = None
            for m in sorted(rem.terms, reverse=True):
                if all(a >= b for a, b in zip(m, lead)):
                    target = m
                    break
            if target is None:
                return rem
            factor = rem.terms[target] / lead_c
            shift = tuple(a - b for a, b in zip(target, lead))
            rem = rem - Poly.monomial(self.nvars, shift, factor) * w

    def is_multiple_of(self, w: "Poly") -> bool:
        return self.reduce_mod(w).is_zero()

    # -- evaluation ------------------------------------------------------------

    def eval_cyclo(self, point) -> CycloNum:
        """Evaluate at a tuple of CycloNum coordinates."""
        acc = CycloNum.zero()
        for m, c in self.terms.items():
            term = CycloNum.from_rational(c)
            for i, e in enumerate(m):
                if e:
                    term = term * point[i] ** e
            acc = acc + term
        return acc

    # -- parsing / printing ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self})"

    @staticmethod
    def parse(text: str, nvars: int) -> "Poly":
        text = text.replace(" ", "")
        if not text:
            raise ValueError("empty polynomial string")
        chunks = re.findall(r"[+-]?[^+-]+", text)
        result = Poly.zero(nvars)
        for chunk in chunks:
            sign = Fraction(1)
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign = Fraction(-1)
                chunk = chunk[1:]
            coeff = sign
            exps = [0] * nvars
            for factor in chunk.split("*"):
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if m:
                    idx = int(m.group(1)) - 1
                    if not 0 <= idx < nvars:
                        raise ValueError(f"variable x{idx + 1} out of range")
                    exps[idx] += int(m.group(2) or 1)
                else:
                    coeff *= Fraction(factor)
            result = result + Poly.monomial(nvars, exps, coeff)
        return result


def monomials_of_weighted_degree(nvars: int, weights, degree: int) -> list[Mono]:
    """All exponent vectors of the given weighted degree, lex-sorted descending."""
    out: list[Mono] = []

    def rec(i: int, remaining: int, acc: list[int]):
        if i == nvars - 1:
            if remaining % weights[i] == 0:
                out.append(tuple(acc + [remaining // weights[i]]))
            return
        for e in range(remaining // weights[i], -1, -1):
            rec(i + 1, remaining - e * weights[i], acc + [e])

    if degree < 0:
        return []
    rec(0, degree, [])
    return sorted(out, reverse=True)
