"""Enumeration and validation of weight systems with finite-heart targets.

The classifier enumerates gcd-normalized Fermat weight systems whose
associated hypersurface is a smooth (stacky-point-free) variety sitting in
a Calabi-Yau ambient of dimension <= 2, i.e. the five case families

    (n, eps) in {(3,0), (2,-1), (4,0), (3,-1), (2,-2)},

and attaches the geometry of X.  Types with n - eps <= 2 (one variable, or
n = 2 with eps >= 0) have orthogonal finite hearts and are handled by the
finite phase tables instead; they are deliberately not rows of this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactmath import cyclo
from .mfcore import WeightedType


class NotFermatError(ValueError):
    """Raised when an operation requires a_i | d for all weights."""


FIVE_CASES = {(3, 0), (2, -1), (4, 0), (3, -1), (2, -2)}

# genus of the (3,-1) curves; forced by the classification, recorded directly
CURVE_GENUS = {((1, 1, 1), 4): 3, ((3, 1, 1), 6): 2}

# ADE normal forms for n=3, eps>0 (reference data only; label -> W)
ADE_NORMAL_FORMS = {
    "A_l": "x1*x2 + x3^(l+1)",
    "D_l": "x1^2 + x2^2*x3 + x3^(l-1)",
    "E_6": "x1^2 + x2^3 + x3^4",
    "E_7": "x1^2 + x2^3 + x2*x3^3",
    "E_8": "x1^2 + x2^3 + x3^5",
}


@dataclass(frozen=True)
class GeometryDescriptor:
    """What the hypersurface X is: points, a curve, elliptic, or K3."""

    kind: str  # "points" | "curve" | "elliptic" | "K3"
    count: int | None = None  # points
    genus: int | None = None  # curve
    h_degree: Fraction | None = None  # elliptic: integral of H
    h_square: Fraction | None = None  # K3: H^2

    def describe(self) -> str:
        if self.kind == "points":
            return f"{self.count} point{'s' if self.count != 1 else ''}"
        if self.kind == "curve":
            return f"genus {self.genus} curve"
        if self.kind == "elliptic":
            return f"elliptic curve (H = {self.h_degree})"
        if self.kind == "K3":
            return f"K3 surface (H^2 = {self.h_square})"
        return self.kind


def normalize_gcd(wtype: WeightedType) -> tuple[WeightedType, int]:
    """Divide weights and degree by gcd(weights); returns (reduced, scale)."""
    a = gcd(*wtype.weights) if wtype.n > 1 else wtype.weights[0]
    if a == 1:
        return wtype, 1
    if wtype.degree % a != 0:
        raise ValueError("degree not divisible by weight gcd")
    return WeightedType(tuple(w // a for w in wtype.weights), wtype.degree // a), a


def is_stacky_free(wtype: WeightedType) -> bool:
    """True iff the Fermat hypersurface has no stacky points.

    A point of X supported on a coordinate subset S has stabilizer of
    order gcd(a_i : i in S).  Subsets of size >= 2 are always realized on
    a Fermat hypersurface while coordinate points never are, so the test
    is pairwise coprimality of the weights.
    """
    if not wtype.is_fermat:
        raise NotFermatError(f"{wtype} is not Fermat-admissible")
    ws = wtype.weights
    return all(gcd(ws[i], ws[j]) == 1 for i in range(len(ws)) for j in range(i + 1, len(ws)))


def _cy_eigen_constraint(h: Fraction, d: int) -> bool:
    """zeta_d is an eigenvalue of the grade-shift action on the ambient CY.

    For both the elliptic and the K3 ambient the non-trivial factor of the
    characteristic polynomial is lambda^2 + (m - 2)*lambda + 1 where
    2m = H^2 (K3) resp. m = integral of H (elliptic).
    """
    m = Fraction(h)
    z = cyclo(d, 1)
    val = z * z + (m - 2) * z + 1
    return val.is_zero()


def k3_constraint(m: int, d: int) -> bool:
    """Whether a degree-d K3 grade-shift action admits the zeta_d eigenvalue.

    Exact test: zeta_d is a root of lambda^2 + (m-2)*lambda + 1, with
    2m = H^2.  A weighted K3 hypersurface has d = sum of four positive
    weights, so d >= 4; only (m, d) = (2, 4) and (1, 6) qualify.
    """
    if m < 1 or d < 3:
        raise ValueError("need m >= 1 and d >= 3")
    if d < 4:
        return False
    return _cy_eigen_constraint(Fraction(m), d)


def uniqueness_regime(wtype: WeightedType) -> bool:
    """The inequality (n-3)*d <= 2*eps defining the rigid-phase regime."""
    return (wtype.n - 3) * wtype.degree <= 2 * wtype.epsilon


def ambient_cy_type(wtype: WeightedType) -> WeightedType:
    """The Calabi-Yau hypersurface type (a_1..a_n, 1^(-eps); d)."""
    eps = wtype.epsilon
    if eps > 0:
        raise ValueError("ambient construction needs eps <= 0")
    return WeightedType(wtype.weights + (1,) * (-eps), wtype.degree)


def geometry_of(wtype: WeightedType) -> GeometryDescriptor:
    """Attach the geometry of X for a five-case type."""
    n, eps, d = wtype.n, wtype.epsilon, wtype.degree
    ws = wtype.weights
    if n == 2:
        cnt = Fraction(d, ws[0] * ws[1])
        if cnt.denominator != 1:
            raise ValueError("non-integral point count")
        return GeometryDescriptor("points", count=int(cnt))
    if n == 3 and eps == 0:
        return GeometryDescriptor("elliptic", h_degree=Fraction(d, ws[0] * ws[1] * ws[2]))
    if n == 3 and eps == -1:
        return GeometryDescriptor("curve", genus=CURVE_GENUS[(ws, d)])
    if n == 4 and eps == 0:
        prod = ws[0] * ws[1] * ws[2] * ws[3]
        return GeometryDescriptor("K3", h_square=Fraction(d, prod))
    raise ValueError(f"{wtype} is not one of the five case families")


def admissible(wtype: WeightedType) -> bool:
    """Full admissibility test for one gcd-normalized candidate."""
    n, eps, d = wtype.n, wtype.epsilon, wtype.degree
    if (n, eps) not in FIVE_CASES:
        return False
    if not wtype.is_fermat or wtype.fermat_exponents is None:
        return False
    if not is_stacky_free(wtype):
        return False
    hat = ambient_cy_type(wtype)
    prod = 1
    for a in hat.weights:
        prod *= a
    h = Fraction(d, prod)
    dim = hat.n - 2
    if dim == 1:
        return _cy_eigen_constraint(h, d)
    if dim == 2:
        return _cy_eigen_constraint(h / 2, d)
    return False


def _weight_tuples(n: int, d: int):
    # non-increasing tuples of divisors of d with sum d + eps, eps <= 0
    divisors = [a for a in range(1, d + 1) if d % a == 0]

    def rec(i, prev, acc):
        if i == n:
            yield tuple(acc)
            return
        for a in divisors:
            if a <= prev:
                yield from rec(i + 1, a, acc + [a])

    yield from rec(0, d, [])


def enumerate_types(n_range, d_max: int) -> list[tuple[WeightedType, GeometryDescriptor]]:
    """All admissible gcd-normalized types with n in n_range, d <= d_max.

    Ordered as the reference table: by n - eps descending (4 before 3),
    then by n descending, then by degree.
    """
    # admissible needs zeta_d to be a root of lambda^2 + (m - 2) lambda + 1
    # with m rational, so 2 cos(2 pi / d) is rational: by Niven's theorem
    # d is 1, 2, 3, 4 or 6, and only the n of the five cases can occur
    found = []
    for n in sorted({n for n, _ in FIVE_CASES if n in n_range}):
        for d in range(2, min(d_max, 6) + 1):
            for ws in _weight_tuples(n, d):
                cand = WeightedType(ws, d)
                if gcd(*ws) == 1 and admissible(cand):
                    found.append((cand, geometry_of(cand)))
    found.sort(key=lambda tg: (-(tg[0].n - tg[0].epsilon), -tg[0].n, tg[0].degree))
    return found


def table_rows(n_range=(2, 3, 4), d_max: int = 6) -> list[dict]:
    """JSON-friendly rows of the classification table."""
    rows = []
    for wtype, geom in enumerate_types(n_range, d_max):
        rows.append(
            {
                "n": wtype.n,
                "epsilon": wtype.epsilon,
                "weights": list(wtype.weights),
                "d": wtype.degree,
                "W": wtype.fermat_string(),
                "X": geom.describe(),
            }
        )
    return rows
