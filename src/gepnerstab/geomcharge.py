"""Geometric form of the central charge on Calabi-Yau targets.

On an elliptic or K3 hypersurface the grade shift acts on the numerical
Chow/cohomology coordinates (1, H[, pt]) through an integer matrix M; the
normalized central charge is the unique row functional u with

    u . M = zeta_d . u,     u_top = -1,

applied to the Chern character coordinates of a class.  All values are kept
in "C_W units": the absolute central charge is C_W times the normalized one,
where C_W is the exact cyclotomic constant with ray phase theta_W.

For a curve target (eps = -1) the class is first pushed into the ambient
K3 along the divisor embedding (i_* O_X has ch = H - H^2/2 there); in
normalized units no extra scalar appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import GeometryDescriptor, ambient_cy_type, geometry_of
from .exactmath import (
    QZETA,
    CycloNum,
    RationalPhase,
    cyclo,
    embed,
    kernel,
    phase_of,
)
from .mfcore import WeightedType


class UnsupportedGeometryError(ValueError):
    pass


class NoEigenvalueError(ArithmeticError):
    pass


class EigenspaceDimensionError(ArithmeticError):
    pass


@dataclass(frozen=True)
class ChClass:
    """Chern character coordinates against the basis (1, H[, pt]).

    dim 1 (curve/elliptic): components (rank, degree).
    dim 2 (K3): components (rank, c with ch_1 = c*H, t with ch_2 = t*pt).
    """

    dim: int
    components: tuple[Fraction, ...]

    def __post_init__(self):
        comps = tuple(Fraction(c) for c in self.components)
        if self.dim not in (1, 2) or len(comps) != self.dim + 1:
            raise ValueError("need dim+1 components for a dim 1 or 2 class")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class AlphaSolution:
    """Row functional solving u.M = zeta.u with top normalization -1."""

    geometry: GeometryDescriptor
    d: int
    row: tuple[CycloNum, ...]

    @property
    def int_alpha0(self) -> CycloNum:
        return self.row[0]

    def alpha1_coefficient(self) -> CycloNum:
        """For a K3 target: the H-coefficient of the middle dual class."""
        if self.geometry.kind != "K3":
            raise UnsupportedGeometryError("alpha1 is a K3 quantity")
        return self.row[1] / int(self.geometry.h_square)

    def apply(self, comps) -> CycloNum:
        acc = CycloNum.zero(self.d)
        for u, c in zip(self.row, comps):
            acc = acc + u * Fraction(c)
        return acc


@dataclass(frozen=True)
class GepnerConstants:
    c_w: CycloNum
    theta_w: RationalPhase


@dataclass(frozen=True)
class MukaiVector:
    """B-twisted Mukai components (v0, v1.H, v2) with B = -H/2."""

    v0: Fraction
    v1h: Fraction
    v2: Fraction

    def square(self, h_square: Fraction) -> Fraction:
        """Mukai square under the rank-one sublattice convention v1^2 = (v1.H)^2/H^2."""
        return Fraction(self.v1h) ** 2 / h_square - 2 * Fraction(self.v0) * Fraction(self.v2)


def build_M(geom: GeometryDescriptor) -> list[list[Fraction]]:
    """Integer action of the grade shift on (1, H[, pt]) coordinates.

    The action on a class v is E.v - <E.v, td> e_1 where E is cup product
    with e^H; both factors are assembled here from the geometry data.
    """
    if geom.kind == "elliptic":
        h = Fraction(geom.h_degree)
        e = [[Fraction(1), Fraction(0)], [h, Fraction(1)]]
        td_row = [Fraction(0), Fraction(1)]  # <(x, y), td> = y for an elliptic curve
    elif geom.kind == "K3":
        m = Fraction(geom.h_square) / 2
        e = [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(1), Fraction(1), Fraction(0)],
            [m, 2 * m, Fraction(1)],
        ]
        td_row = [Fraction(2), Fraction(0), Fraction(1)]  # td = 1 + 2 pt
    else:
        raise UnsupportedGeometryError(f"no grade-shift matrix for {geom.kind}")
    n = len(e)
    s_e = [sum(td_row[i] * e[i][j] for i in range(n)) for j in range(n)]
    out = [[e[i][j] - (s_e[j] if i == 0 else 0) for j in range(n)] for i in range(n)]
    return out


def charpoly_3x3(mat) -> list[Fraction]:
    """Coefficients (low to high) of det(mat - lambda I) for a 3x3 matrix."""
    a, b, c = mat[0]
    d, e, f = mat[1]
    g, h, i = mat[2]
    tr = a + e + i
    minors = (e * i - f * h) + (a * i - c * g) + (a * e - b * d)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # det(M - xI) = -x^3 + tr x^2 - (sum principal 2x2 minors) x + det
    return [det, -minors, tr, Fraction(-1)]


def solve_alpha(mat, d: int, geometry: GeometryDescriptor) -> AlphaSolution:
    """Exact eigen-row of M for the eigenvalue zeta_d, normalized to -1 on top."""
    z = cyclo(d, 1)
    n = len(mat)
    # rows of (M^T - z I): kernel vectors are the eigen-rows
    mt = [
        [CycloNum.from_rational(mat[j][i], 1).promote(d) - (z if i == j else CycloNum.zero(d)) for j in range(n)]
        for i in range(n)
    ]
    ker = kernel(QZETA, mt, n)
    if not ker:
        raise NoEigenvalueError(f"zeta_{d} is not an eigenvalue of the action")
    if len(ker) != 1:
        raise EigenspaceDimensionError(f"eigenspace has dimension {len(ker)}")
    vec = ker[0]
    top = vec[-1]
    if top.is_zero():
        raise EigenspaceDimensionError("eigenvector cannot be normalized on the top class")
    scale = -top.inverse()
    row = tuple(v * scale for v in vec)
    return AlphaSolution(geometry, d, row)


def solve_for_type(wtype: WeightedType) -> AlphaSolution:
    """Alpha solution on the Calabi-Yau ambient attached to a type."""
    hat = ambient_cy_type(wtype)
    geom = geometry_of(hat)
    return solve_alpha(build_M(geom), hat.degree, geom)


def constants(wtype: WeightedType) -> GepnerConstants:
    """The exact ray constant C_W and its phase theta_W.

    C_W = -(1 - zeta)^{-1} prod_j (1 - zeta^{-a_j});
    theta_W = (n-1)/2 - (sum a_j + 1)/d.
    """
    d = wtype.degree
    z = cyclo(d, 1)
    prod = CycloNum.one(d)
    for a in wtype.weights:
        prod = prod * (1 - cyclo(d, -a))
    c_w = -prod / (1 - z)
    theta_w = Fraction(wtype.n - 1, 2) - Fraction(sum(wtype.weights) + 1, d)
    # the constant must lie exactly on the ray exp(i pi theta_W)
    ray = phase_of(c_w, theta_w - 1)
    if ray != theta_w:
        raise ArithmeticError(f"C_W ray check failed for {wtype}: {ray} != {theta_w}")
    return GepnerConstants(c_w, theta_w)


def push_to_ambient(e: ChClass, ambient: GeometryDescriptor) -> ChClass:
    """ch of the pushforward of a curve class along X in |H| inside the K3.

    i_* O_X has ch = H - H^2/2 and i_* of a point is a point, so the class
    (r, delta) goes to (0, r, delta - r*m) where H^2 = 2m upstairs.
    """
    if e.dim != 1:
        raise UnsupportedGeometryError("pushforward implemented for curve classes")
    if ambient.kind != "K3":
        raise UnsupportedGeometryError("curve push needs a K3 ambient")
    m = Fraction(ambient.h_square) / 2
    r, delta = e.components
    return ChClass(2, (Fraction(0), r, delta - r * m))


def zg_geom(e: ChClass, sol: AlphaSolution) -> CycloNum:
    """Normalized central charge of a geometric class.

    For a class on the CY target itself (dims matching the solution), apply
    the functional directly; for a curve class with a K3 ambient solution,
    push forward first.
    """
    if e.dim + 1 == len(sol.row):
        return sol.apply(e.components)
    if e.dim == 1 and len(sol.row) == 3:
        return sol.apply(push_to_ambient(e, sol.geometry).components)
    raise UnsupportedGeometryError("class dimension does not match the solution")


def mukai(e: ChClass, h_square) -> MukaiVector:
    """B-twisted Mukai vector of a K3 class, B = -H/2."""
    if e.dim != 2:
        raise UnsupportedGeometryError("Mukai vectors live on a K3")
    m = Fraction(h_square) / 2
    r, c, t = e.components
    return MukaiVector(
        v0=r,
        v1h=2 * m * c + m * r,
        v2=t + r + c * m + r * m / 4,
    )


def zg_k3(v: MukaiVector, d: int, h_square) -> CycloNum:
    """Normalized K3 central charge from a Mukai vector.

    -v2 + (d/8) v0 + (1/2) sqrt(d/H^2) (v1.H) i, with the imaginary unit
    combination represented exactly: sqrt(d/H^2)*i = (1+zeta)/(1-zeta)
    whenever zeta_d satisfies the K3 eigen constraint for H^2 = 2m.
    """
    z = cyclo(d, 1)
    imag_unit = (1 + z) / (1 - z)  # = sqrt(d/H^2) * i for admissible (d, H^2)
    return (
        CycloNum.from_rational(-Fraction(v.v2) + Fraction(d, 8) * Fraction(v.v0))
        + Fraction(v.v1h) / 2 * imag_unit
    )


def spherical_check(v: MukaiVector, d: int, h_square) -> str:
    """Sign test for spherical classes with v1.H = 0.

    Returns "positive" when -v2 + (d/8) v0 > 0 (always the case for
    v0 >= 2), "violated_rank1" for the rank-one violations that are
    excluded geometrically, "violated_other" otherwise.
    """
    h_square = Fraction(h_square)
    if v.square(h_square) != -2:
        raise ValueError("not a spherical class: Mukai square != -2")
    if Fraction(v.v1h) != 0:
        raise ValueError("spherical check requires v1.H = 0")
    if v.v0 <= 0:
        raise ValueError("spherical check requires positive rank")
    val = -Fraction(v.v2) + Fraction(d, 8) * Fraction(v.v0)
    if val > 0:
        return "positive"
    if v.v0 == 1:
        return "violated_rank1"
    return "violated_other"


def zg_absolute(e: ChClass, wtype: WeightedType) -> CycloNum:
    """Absolute central charge C_W * zg_geom for a class on X."""
    sol = solve_for_type(wtype)
    return constants(wtype).c_w * zg_geom(e, sol)
