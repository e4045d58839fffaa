"""Numerical K-theory lattices of the five finite-heart cases.

For each admissible type the heart of the relevant t-structure has a free
numerical K-theory lattice with a distinguished basis:

    (3, 0)   (rank, degree) on the elliptic target
    (2, -1)  [C(0)], [PsiO(p_1)], ..., [PsiO(p_#X)]
    (4, 0)   ch-coordinates (1, H, pt) on the K3 target
    (3, -1)  [C(0)], [PsiO_X], [PsiO(pt)]  (coherent systems (R, r, delta))
    (2, -2)  [C(1)], [C(0)], [PsiO(p_1)], ..., [PsiO(p_#X)]

Each lattice carries the normalized central charge row (values in C_W
units), the integer grade-shift action tau, a slope function, and the
window base theta of its tilted heart.  The defining consistency is the
eigen identity  zg o tau = zeta . zg,  asserted exactly at construction.

Phase conventions: zg values are exact cyclotomic numbers; phases are
rational numbers q meaning the ray R_{>0} exp(i pi q).  Comparisons of
(possibly irrational) phases inside a window are exact: a float filter
with a certified error bound decides when it can, and integer coordinates
and sign tests of real cyclotomic numbers decide otherwise (see PhaseKey).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .classify import FIVE_CASES, geometry_of, is_stacky_free, normalize_gcd
from .exactmath import (
    CycloNum,
    RationalPhase,
    ResourceLimitError,
    _canonical,
    cyclo,
    embed,
    euler_phi,
    phase_of,
    sign_real,
)
from .geomcharge import GeometryDescriptor, build_M, constants, solve_for_type
from .mfcore import WeightedType, koszul_c, zg


class UnsupportedCaseError(ValueError):
    pass


class GepnerIdentityError(ArithmeticError):
    """Construction bug trap: zg o tau != zeta . zg on some basis vector."""


class ZeroChargeError(ZeroDivisionError):
    """A nonzero class whose charge is zero has no phase, so phase order is undefined on it."""


KClass = tuple[int, ...]


# ---------------------------------------------------------------------------
# point configurations of the n = 2 targets
# ---------------------------------------------------------------------------


MAX_CURVE_DEGREE = 100  # d of a two-variable type whose points or finite phases are computed


def _refuse_large_degree(wtype: WeightedType) -> None:
    """ResourceLimitError if wtype's points or phases would live in too large a Q(zeta_d)."""
    if wtype.degree > MAX_CURVE_DEGREE:
        raise ResourceLimitError(
            f"{wtype} has degree {wtype.degree}; exact points and phases of two-variable types stop at d = {MAX_CURVE_DEGREE}"
        )


@lru_cache(maxsize=64)
def points_of(wtype: WeightedType) -> tuple[tuple[CycloNum, CycloNum], ...]:
    """Exact coordinates of the points of the binary Fermat hypersurface.

    One representative per orbit of the weighted scaling; coordinates are
    cyclotomic integers (rational whenever an orbit has a rational
    representative).  Cached per type: the tuple and its CycloNums are
    immutable, so callers share it safely.  A degree above
    MAX_CURVE_DEGREE raises ResourceLimitError before any point is built.
    """
    _refuse_large_degree(wtype)
    d = wtype.degree
    chart = (*wtype.weights, d)
    one = CycloNum.one()
    if wtype.weights == (1, 1):
        pts = tuple((cyclo(2 * d, 2 * j + 1), one) for j in range(d))
    elif chart in ((2, 1, 4), (3, 1, 6)):
        pts = ((cyclo(4, 1), one), (cyclo(4, 3), one))
    elif chart == (3, 2, 6):
        pts = ((one, -one),)
    else:
        raise UnsupportedCaseError(f"no point chart for {wtype}")
    w = wtype.fermat_polynomial()
    for p in pts:
        if not w.eval_cyclo(p).is_zero():
            raise ArithmeticError(f"point {p} is not on the hypersurface")
    return pts


# ---------------------------------------------------------------------------
# the lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLattice:
    case: tuple[int, int]
    wtype: WeightedType
    geometry: GeometryDescriptor
    basis: tuple[str, ...]
    zg_row: tuple[CycloNum, ...]  # normalized charge of each basis vector
    tau_mat: tuple[tuple[int, ...], ...]  # columns are images of basis vectors
    theta: RationalPhase  # absolute window base of the tilted heart
    theta_w: RationalPhase
    c_w: CycloNum
    points: tuple[tuple[CycloNum, CycloNum], ...] = ()

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def theta_dagger(self) -> Fraction:
        """Window base in C_W units (theta - theta_W)."""
        return self.theta - self.theta_w

    @cached_property
    def _phase_form(self) -> "_PhaseForm":
        """The form PhaseKey compares with, built on the first key."""
        return _PhaseForm(self)

    @cached_property
    def _charge_rows(self) -> "_IntegerCoords":
        """C_W zg(e_i) in integer coordinates, built on the first absolute charge."""
        return _IntegerCoords([[self.c_w * z for z in self.zg_row]])

    def tau_apply(self, v) -> KClass:
        n = self.rank
        return tuple(sum(self.tau_mat[i][j] * v[j] for j in range(n)) for i in range(n))

    def tau_power(self, k: int):
        k %= self.wtype.degree  # tau^d acts trivially on classes
        n = self.rank
        out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(k):
            out = [[sum(self.tau_mat[i][l] * out[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        return tuple(tuple(row) for row in out)

    def serre_mat(self):
        """Numerical Serre action (-1)^(n-2) tau^(-eps)."""
        sign = -1 if (self.wtype.n - 2) % 2 else 1
        mat = self.tau_power(-self.wtype.epsilon)
        return tuple(tuple(sign * x for x in row) for row in mat)

    def class_of_c(self, j: int) -> KClass:
        """K-class of the twisted residue object C(j).

        For eps < 0 the class of C(0) is a basis vector; for eps = 0 the
        functor onto the geometric target is an equivalence with
        C(0)[-1] the structure sheaf, so [C(0)] = -[O_X].
        """
        if "C(0)" in self.basis:
            e0 = self.basis.index("C(0)")
            v = tuple(1 if i == e0 else 0 for i in range(self.rank))
        else:
            v = tuple(-1 if i == 0 else 0 for i in range(self.rank))
        mat = self.tau_power(j)
        return tuple(sum(mat[i][l] * v[l] for l in range(self.rank)) for i in range(self.rank))

    def class_of_tau_psi_point(self, j: int = 0) -> KClass:
        """K-class of tau applied to the j-th skyscraper image."""
        if self.case == (3, 0):
            return self.tau_apply((0, 1))
        if self.case == (4, 0):
            return self.tau_apply((0, 0, 1))
        if self.case == (3, -1):
            return self.tau_apply((0, 0, 1))
        pt_index = self.basis.index(f"PsiO(p{j + 1})")
        v = tuple(1 if i == pt_index else 0 for i in range(self.rank))
        return self.tau_apply(v)


def _dim_r(wtype: WeightedType, k: int) -> int:
    return wtype.graded_dim(k)


def build_lattice(wtype: WeightedType) -> CaseLattice:
    """Construct the lattice of one of the five cases; asserts the eigen identity."""
    red, scale = normalize_gcd(wtype)
    if scale != 1:
        raise UnsupportedCaseError(f"{wtype} is not gcd-normalized; use {red}")
    n, eps, d = wtype.n, wtype.epsilon, wtype.degree
    if (n, eps) not in FIVE_CASES:
        raise UnsupportedCaseError(f"({n},{eps}) is not one of the five case families")
    if not wtype.is_fermat or not is_stacky_free(wtype):
        raise UnsupportedCaseError(f"{wtype} must be Fermat with pairwise coprime weights")
    geom = geometry_of(wtype)
    cst = constants(wtype)
    z = cyclo(d, 1)
    points: tuple = ()

    if (n, eps) == (3, 0):
        h = int(geom.h_degree)
        basis = ("rk", "deg")
        zg_row = (z - 1, CycloNum.from_rational(-1, d))
        tau_cols = [(1 - h, h), (-1, 1)]
        theta = cst.theta_w
    elif (n, eps) == (2, -1):
        points = points_of(wtype)
        nx = len(points)
        basis = ("C(0)",) + tuple(f"PsiO(p{j + 1})" for j in range(nx))
        zg_row = (1 - z,) + tuple(CycloNum.from_rational(-1, d) for _ in range(nx))
        r1 = _dim_r(wtype, 1)
        assert r1 == nx - 1
        cols = [(-r1,) + (-1,) * nx]
        for j in range(nx):
            cols.append((1,) + tuple(1 if i == j else 0 for i in range(nx)))
        tau_cols = cols
        theta = cst.theta_w + Fraction(5, 6)
    elif (n, eps) == (4, 0):
        basis = ("ch0", "chH", "chpt")
        sol = solve_for_type(wtype)
        zg_row = sol.row
        m = build_M(geom)
        tau_cols = [tuple(int(m[i][j]) for i in range(3)) for j in range(3)]
        theta = cst.theta_w - 1
    elif (n, eps) == (3, -1):
        basis = ("C(0)", "PsiO_X", "PsiO(pt)")
        zg_row = (1 - z, z - cyclo(d, -1), CycloNum.from_rational(-1, d))
        g = geom.genus
        r1 = _dim_r(wtype, 1)
        tau_cols = [
            (-r1, -1, -(2 * g - 2)),
            (g - 1, 1, 2 * g - 2),
            (1, 0, 1),
        ]
        theta = cst.theta_w
    else:  # (2, -2)
        points = points_of(wtype)
        nx = len(points)
        basis = ("C(1)", "C(0)") + tuple(f"PsiO(p{j + 1})" for j in range(nx))
        zg_row = (z - z * z, 1 - z) + tuple(CycloNum.from_rational(-1, d) for _ in range(nx))
        r1, r2 = _dim_r(wtype, 1), _dim_r(wtype, 2)
        cols = [(-r1, -r2) + (-1,) * nx, (1, 0) + (0,) * nx]
        for j in range(nx):
            cols.append((0, 1) + tuple(1 if i == j else 0 for i in range(nx)))
        tau_cols = cols
        theta = cst.theta_w + Fraction(1, 2)

    rank = len(basis)
    tau_mat = tuple(tuple(tau_cols[j][i] for j in range(rank)) for i in range(rank))
    lat = CaseLattice(
        case=(n, eps),
        wtype=wtype,
        geometry=geom,
        basis=basis,
        zg_row=tuple(x.promote(d) if x.d != d else x for x in zg_row),
        tau_mat=tau_mat,
        theta=theta,
        theta_w=cst.theta_w,
        c_w=cst.c_w,
        points=points,
    )
    if not verify_gepner(lat):
        raise GepnerIdentityError(f"eigen identity failed while building {wtype}")
    return lat


def zg_class(lat: CaseLattice, v) -> CycloNum:
    """Normalized central charge of a K-class (in C_W units)."""
    acc = CycloNum.zero(lat.wtype.degree)
    for c, u in zip(v, lat.zg_row):
        if c:
            acc = acc + c * u
    return acc


def zg_class_absolute(lat: CaseLattice, v) -> CycloNum:
    """C_W times zg_class(lat, v), as integer dot products with the charge rows.

    C_W zg(v) = sum_i v_i C_W zg(e_i) in Q(zeta_N), N = lcm(d(C_W), d), whose
    power basis gives each value one coordinate tuple, divided down to
    canonical form by ``_canonical`` (the rows already have phi(N) slots).
    """
    rows = lat._charge_rows
    coords = [0] * rows.phi
    for s, row in zip(rows.slots, rows.exact[0]):
        coords[s] = sum(map(mul, row, v))
    return _canonical(rows.conductor, coords, rows.den)


def verify_gepner(lat: CaseLattice) -> bool:
    """Exact check of zg(tau v) = zeta zg(v) on every basis vector."""
    z = cyclo(lat.wtype.degree, 1)
    for j in range(lat.rank):
        e = tuple(1 if i == j else 0 for i in range(lat.rank))
        if zg_class(lat, lat.tau_apply(e)) != z * zg_class(lat, e):
            return False
    return True


_CONSTANT_SLOPE = Fraction(-1)  # the slope of every class in the (3,0) and (2,-1) cases


def slope_mu(lat: CaseLattice, v):
    """Case slope of a class (caller guarantees v is a heart class).

    Each finite slope is one Fraction of integers computed from v:

        (3,0), (2,-1)  -1
        (4,0)          H^2 (r + 2c) / (2r) for v = (r, c, s), as
                       h.numerator (r + 2c) / (2r h.denominator), h = H^2
        (3,-1)         (R - 2r) / (2R) for v = (R, r, delta), the
                       order-preserving rational form of the usual slope
        (2,-2)         (v1 + (1 - cos) v0) / w - 1 for v = (v1, v0, points),
                       w the sum of the point weights; with cos(2 pi / d) =
                       a/b this is (v1 b + (b - a) v0 - w b) / (w b)

    Conventions: K3 torsion (r = 0) -> +inf; coherent systems with no
    section space (R = 0) -> -inf; point weight zero in the (2,-2) case
    -> +inf.
    """
    case = lat.case
    if case in ((3, 0), (2, -1)):
        return _CONSTANT_SLOPE
    if case == (4, 0):
        r = v[0]
        if r == 0:
            return math.inf
        h = lat.geometry.h_square
        return Fraction(h.numerator * (r + 2 * v[1]), 2 * r * h.denominator)
    if case == (3, -1):
        big_r = v[0]
        if big_r == 0:
            return -math.inf
        return Fraction(big_r - 2 * v[1], 2 * big_r)
    # (2, -2)
    w = sum(v[2:])
    if w == 0:
        return math.inf
    a, b = _cos_ratio(lat.wtype.degree)
    wb = w * b
    return Fraction(v[0] * b + (b - a) * v[1] - wb, wb)


def tilt_side(lat: CaseLattice, v, mu_value) -> str:
    """Which side of the torsion pair a mu-semistable class of this slope is on."""
    return "torsion" if mu_value > 0 else "free"


@lru_cache(maxsize=None)
def _cos_ratio(d: int) -> tuple[int, int]:
    """(a, b) with cos(2 pi / d) = a/b in lowest terms, b > 0."""
    cos = ((cyclo(d, 1) + cyclo(d, -1)) * Fraction(1, 2)).as_fraction()
    return cos.numerator, cos.denominator


def im_units(lat: CaseLattice, v) -> Fraction:
    """Rotated imaginary part of zg in units of its minimal positive value.

    Only the two tilted n <= 3 cases carry this: (3,-1) counts 2r - R
    (units of sqrt(H^2 d)/4) and (2,-2) counts the negated real part in
    units of its minimal step 1 - cos: (w - v1 - (1 - cos) v0) / (1 - cos),
    with cos(2 pi / d) = a/b the Fraction ((w - v1) b - (b - a) v0) / (b - a).
    """
    if lat.case == (3, -1):
        return Fraction(2 * v[1] - v[0])
    if lat.case == (2, -2):
        a, b = _cos_ratio(lat.wtype.degree)
        return Fraction((sum(v[2:]) - v[0]) * b - (b - a) * v[1], b - a)
    raise UnsupportedCaseError("im_units applies to the (3,-1) and (2,-2) cases")


# ---------------------------------------------------------------------------
# exact phase comparison inside the window (theta, theta + 2]
# ---------------------------------------------------------------------------


def _rotation(lat: CaseLattice) -> CycloNum:
    """exp(-i pi theta_dagger) as an exact root of unity."""
    td = Fraction(lat.theta_dagger)
    return cyclo(2 * td.denominator, -td.numerator)


_UNIT_ROUNDOFF = 2.0**-53


class _IntegerCoords:
    """Rows of cyclotomic numbers as integer coordinates over one denominator.

    Every entry is promoted to Q(zeta_conductor), conductor the lcm of the
    entries' d; ``exact[i][s][j]`` is the power-basis coordinate
    ``slots[s]`` of den * entries[i][j] for one common denominator den > 0,
    ``slots`` are the coordinates nonzero in some entry, and ``phi`` is
    phi(conductor), the length of a full coordinate tuple.
    """

    def __init__(self, entries):
        n = math.lcm(*(x.d for row in entries for x in row))
        self.entries = [[x.promote(n) for x in row] for row in entries]
        self.den = den = math.lcm(*(x.den for row in self.entries for x in row))
        self.conductor = n
        self.phi = euler_phi(n)
        self.slots = tuple(k for k in range(self.phi) if any(x.num[k] for row in self.entries for x in row))
        self.exact = tuple(
            tuple(tuple(x.num[k] * (den // x.den) for x in row) for k in self.slots) for row in self.entries
        )


class _PhaseForm(_IntegerCoords):
    """The real bilinear form that PhaseKey compares with, exact and in floats.

    With y_i = exp(-i pi theta_dagger) zg(e_i) the rotated charges of the
    basis, F has rank + 2 rows of length rank:

        F[i][j] = Im(conj(y_i) y_j)  (i < rank; antisymmetric),
        F[rank][j] = Im(y_j),  F[rank + 1][j] = -Re(y_j).

    For classes a, b with rotated charges w_a, w_b (the rotation has
    modulus 1) this gives a^T F b = Im(conj(w_a) w_b), F[rank] . b = Im(w_b)
    and F[rank + 1] . b = -Re(w_b).  Every entry lies in Q(zeta_conductor);
    ``exact`` holds the integer coordinates of den * F (see _IntegerCoords),
    ``approx[i][j]`` a float of F[i][j], and ``err`` the filter constant
    derived in PhaseKey.
    """

    def __init__(self, lat: CaseLattice):
        rank = lat.rank
        rot = _rotation(lat)
        ys = [z * rot for z in lat.zg_row]
        zero = CycloNum.zero()
        entries = [[zero] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                entries[i][j] = (ys[i].conjugate() * ys[j]).imag_part()
                entries[j][i] = -entries[i][j]
        entries.append([y.imag_part() for y in ys])
        entries.append([-y.real_part() for y in ys])
        super().__init__(entries)
        # a float of each distinct entry, and the largest distance to its exact value
        floats: dict = {}
        radius = Fraction(0)
        for row in self.entries:
            for x in row:
                if (x.d, x.num, x.den) not in floats:
                    box = embed(x, 64)
                    f = float((box.re_lo + box.re_hi) / 2)
                    floats[x.d, x.num, x.den] = f
                    radius = max(radius, box.re_hi - Fraction(f), Fraction(f) - box.re_lo)
        self.approx = tuple(tuple(floats[x.d, x.num, x.den] for x in row) for row in self.entries)
        gamma = (rank + 1) * _UNIT_ROUNDOFF / (1 - (rank + 1) * _UNIT_ROUNDOFF)
        self.err = 2 * (float(radius) + 3 * gamma * max(map(abs, floats.values())))
        self.im_row = _CrossRow(self, self.approx[rank], self.exact[rank], self.err)
        self.neg_re_row = _CrossRow(self, self.approx[rank + 1], self.exact[rank + 1], self.err)

    def row(self, a: KClass) -> "_CrossRow":
        """b -> sign(Im(conj(w_a) w_b)) for the class a."""
        terms = [(c, i) for i, c in enumerate(a) if c]
        cols = range(len(a))
        approx = tuple(sum(c * self.approx[i][j] for c, i in terms) for j in cols)
        exact = tuple(
            tuple(sum(c * self.exact[i][s][j] for c, i in terms) for j in cols) for s in range(len(self.slots))
        )
        return _CrossRow(self, approx, exact, self.err * sum(abs(c) for c in a))


class _CrossRow:
    """b -> sign(a^T F b) for one left argument a of a _PhaseForm."""

    __slots__ = ("form", "approx", "exact", "err")

    def __init__(self, form: _PhaseForm, approx, exact, err: float):
        self.form = form
        self.approx = approx  # float row a^T F~
        self.exact = exact  # integer rows a^T F_s, one per slot
        self.err = err  # filter constant times |a|_1

    def sign(self, b: KClass, b_norm: int) -> int:
        """The sign of a^T F b; b_norm is |b|_1."""
        x = sum(map(mul, self.approx, b))
        bound = self.err * b_norm
        if x > bound:
            return 1
        if x < -bound:
            return -1
        return self.exact_sign(b)

    def exact_sign(self, b: KClass) -> int:
        """The sign of a^T F b without the float filter."""
        coords = [sum(map(mul, row, b)) for row in self.exact]
        if not any(coords):
            return 0
        form = self.form
        full = [0] * form.phi
        for s, c in zip(form.slots, coords):
            full[s] = c
        return sign_real(_canonical(form.conductor, full, 1))


class PhaseKey:
    """Totally ordered phase of a nonzero class inside (theta, theta+2].

    The charge is rotated by exp(-i pi theta_dagger), so the window becomes
    (0, 2].  The signs of Im(w) and Re(w) place the rotated charge w in a
    region: (0, 1), {1}, (1, 2) or {2}.  Inside (0, 1) and (1, 2) key a
    precedes key b iff Im(conj(w_a) w_b) > 0.  Each of these signs is a
    sign of a^T F b for the lattice's _PhaseForm F (with a a unit vector
    for the region), and each is exact:

    1. Float filter.  x = fl(sum_j fl(sum_i a_i F~[i][j]) b_j), where the
       row in brackets is computed once per key.  Let rho bound every
       |F~[i][j] - F[i][j]| (certified through ``embed``), M = max |F~[i][j]|,
       u = 2^-53 and gamma = (r+1)u / (1 - (r+1)u) with r the rank.  A float
       dot product of length at most r has error at most gamma times the
       sum of its |terms| (Higham, "Accuracy and Stability of Numerical
       Algorithms", Thm. 3.1, for recursive summation; the compensated
       summation of sum() from Python 3.12 on also meets it; the +1 covers
       rounding an integer to a float).  So the row has error at most
       gamma M |a|_1 per entry and entries at most (1 + gamma) M |a|_1, and

           |x - a^T F b| <=   rho |a|_1 |b|_1             (the entries)
                            + gamma M |a|_1 |b|_1           (the row)
                            + gamma (1 + gamma) M |a|_1 |b|_1  (the dot)
                          <= (rho + 3 gamma M) |a|_1 |b|_1.

       The filter takes err = 2 (rho + 3 gamma M), the factor 2 absorbing
       the few roundings made in computing the bound, and returns sign(x)
       when |x| > err |a|_1 |b|_1.
    2. Exact zero test.  D F = sum_s F_s zeta^s with integer matrices F_s
       over the power basis of Q(zeta_N), which is a Q-basis, so
       a^T F b = 0 iff every integer a^T F_s b is 0.  Ties decide
       semistability, so they never rest on floats.
    3. Otherwise ``sign_real`` of the exact value sum_s (a^T F_s b) zeta^s.

    Keys compare only with keys of the same lattice.  A class whose charge
    is zero has no key: it raises ZeroChargeError, a ZeroDivisionError.
    """

    __slots__ = ("_lat", "cls", "_norm", "region", "_row", "_approx")

    def __init__(self, lat: CaseLattice, v):
        form = lat._phase_form
        self._lat = lat
        self.cls = tuple(v)
        self._norm = sum(abs(c) for c in self.cls)
        s_im = form.im_row.sign(self.cls, self._norm)
        if s_im > 0:
            self.region = 0  # phases in (0, 1)
        elif s_im < 0:
            self.region = 2  # phases in (1, 2)
        else:
            s_re = -form.neg_re_row.sign(self.cls, self._norm)
            if s_re == 0:
                raise ZeroChargeError(f"class {self.cls} has zero charge, so it has no phase")
            self.region = 1 if s_re < 0 else 3  # phase 1 resp. phase 2
        self._row = form.row(self.cls)
        self._approx = None

    def _cmp(self, other: "PhaseKey") -> int:
        """Negative, zero or positive as self precedes, ties with or follows other."""
        if self.region != other.region:
            return self.region - other.region
        if self.region in (1, 3):
            return 0
        # the sign of Im(conj(w1) w2) is positive when self precedes other
        return -self._row.sign(other.cls, other._norm)

    def __eq__(self, other):
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    __hash__ = None

    def approx(self) -> float:
        if self._approx is None:
            v = complex(zg_class(self._lat, self.cls) * _rotation(self._lat))
            p = math.atan2(v.imag, v.real) / math.pi
            if p <= 0:
                p += 2
            self._approx = p
        return self._approx

    def __repr__(self):
        return f"PhaseKey(~{self.approx():.4f} in (0,2])"


def phase_key(lat: CaseLattice, v) -> PhaseKey:
    """PhaseKey of a nonzero class (rotated so the window starts at 0)."""
    return PhaseKey(lat, v)


# ---------------------------------------------------------------------------
# phase tables and window data
# ---------------------------------------------------------------------------


def phase_table(lat: CaseLattice) -> dict[str, Fraction]:
    """Exact phases of tau PsiO(x) and C(j), 1 <= j <= -eps, for eps < 0.

    Closed forms: phi_x = theta_W + 1 + 2/d and
    phi_j = theta_W + 1/d + 2j/d + 3/2.  Entries whose representative lies
    in the window (theta, theta+2] are asserted equal to the windowed exact
    phase; the remaining boundary entry (j = -eps when it overflows the
    window) is asserted ray-consistent modulo 2.
    """
    eps = lat.wtype.epsilon
    if eps >= 0:
        raise UnsupportedCaseError("phase_table applies to eps < 0 cases")
    d = lat.wtype.degree
    th_w, th = lat.theta_w, lat.theta
    table: dict[str, Fraction] = {}

    def check(label: str, cls, closed: Fraction):
        value = zg_class_absolute(lat, cls)
        if th < closed <= th + 2:
            got = phase_of(value, th)
            if got != closed:
                raise ArithmeticError(f"{label}: windowed phase {got} != closed form {closed}")
        else:
            got = phase_of(value, closed - 1)
            if (got - closed) % 2 != 0:
                raise ArithmeticError(f"{label}: phase {got} not congruent to {closed}")
        table[label] = closed

    check("tauPsiOx", lat.class_of_tau_psi_point(0), th_w + 1 + Fraction(2, d))
    for j in range(1, -eps + 1):
        closed = th_w + Fraction(1, d) + Fraction(2 * j, d) + Fraction(3, 2)
        check(f"C({j})", lat.class_of_c(j), closed)
    return table


def window_inequalities_hold(lat: CaseLattice) -> bool:
    """The strict chain theta < phi_x-family < ... <= theta + 2 for n = 2."""
    eps, d = lat.wtype.epsilon, lat.wtype.degree
    th_w, th = lat.theta_w, lat.theta
    chain = [th, th_w + 1, th_w + 1 + Fraction(2, d)]
    for j in range(1, -eps):
        chain.append(th_w + Fraction(1, d) + Fraction(2 * j, d) + Fraction(3, 2))
    ok = all(a < b for a, b in zip(chain, chain[1:]))
    last = th_w + Fraction(1, d) + Fraction(2 * (-1 - eps), d) + Fraction(3, 2)
    return ok and last <= th + 2


def window_property_report(lat: CaseLattice) -> list[tuple[str, KClass, Fraction]]:
    """Named heart generators with their documented shifts and exact phases.

    Every listed class must have its normalized charge inside the width-one
    window (theta_dagger, theta_dagger + 1]; raises otherwise.
    """
    case = lat.case
    gens: list[tuple[str, KClass]] = []
    if case == (3, 0):
        gens = [("PsiO_x", (0, 1)), ("PsiO_X", (1, 0))]
    elif case == (2, -1):
        gens = [("C(0)", (1,) + (0,) * (lat.rank - 1))]
        for j in range(lat.rank - 1):
            gens.append((f"PsiO(p{j + 1})", tuple(1 if i == j + 1 else 0 for i in range(lat.rank))))
    elif case == (4, 0):
        m = int(Fraction(lat.geometry.h_square) / 2)
        gens = [
            ("PsiO_x[-1]", (0, 0, -1)),
            ("PsiO_X[-1]", (-1, 0, 0)),
            ("PsiO_X(-1)", (1, -1, m)),  # ch of the (-1)-twist is (1, -1, H^2/2)
        ]
    elif case == (3, -1):
        gens = [
            ("PsiO(pt)", (0, 0, 1)),
            ("PsiO_X", (0, 1, 0)),
            ("C(0)[-1]", (-1, 0, 0)),
            ("tauPsiOx[-1]", tuple(-x for x in lat.class_of_tau_psi_point())),
        ]
    else:  # (2, -2)
        nx = lat.rank - 2
        gens = [
            ("C(0)[-1]", (0, -1) + (0,) * nx),
            ("C(1)[-1]", (-1, 0) + (0,) * nx),
        ]
        for j in range(nx):
            gens.append((f"PsiO(p{j + 1})", (0, 0) + tuple(1 if i == j else 0 for i in range(nx))))
            gens.append((f"tauPsiO(p{j + 1})", lat.class_of_tau_psi_point(j)))
    out = []
    td = lat.theta_dagger
    for label, cls in gens:
        q = phase_of(zg_class(lat, cls), td)
        if not (isinstance(q, Fraction) and td < q <= td + 1):
            raise ArithmeticError(f"window property fails for {label}: phase {q}")
        out.append((label, cls, q))
    return out


def hom_vanishing_window(phi1, phi2, k: int, wtype: WeightedType) -> bool:
    """Whether the Serre-duality window forces Hom^k(F_2, F_1) = 0.

    True iff phi1 > phi2 + n - k - 2 - 2 eps/d (exact rational test).
    """
    gap = Fraction(wtype.n - k - 2) - Fraction(2 * wtype.epsilon, wtype.degree)
    return Fraction(phi1) > Fraction(phi2) + gap


# ---------------------------------------------------------------------------
# finite phase assignments (n = 1 and n = 2 with eps >= 0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePhaseTable:
    wtype: WeightedType
    entries: dict[str, Fraction] = field(default_factory=dict)

    def phase(self, label: str, k: int = 0) -> Fraction:
        """Phase of the shifted object; [k] adds k."""
        return self.entries[label] + k

    def __len__(self):
        return len(self.entries)


MAX_FINITE_PHASES = 10_000  # entries of one finite phase table


def _refuse_large_table(wtype: WeightedType, entries: int) -> None:
    if entries > MAX_FINITE_PHASES:
        raise ResourceLimitError(f"{wtype} has {entries} indecomposables; finite phase tables stop at {MAX_FINITE_PHASES}")


def finite_phases(wtype: WeightedType) -> FinitePhaseTable:
    """Phase table of all indecomposables for n = 1 or n = 2 with eps >= 0.

    n = 1 (weight a, degree d = a d'): entry Q[m,l] is the factorization
    A(m - a l) -> A(m), phase -1/2 - a l/d + 2m/d, for m mod d and
    1 <= l <= d' - 1.  n = 2, eps = 0: entry C(j), phase phi0 + 2j/d with
    phi0 the exact phase of zg(C(0)) in (-1, 1].  Every entry is asserted
    ray-consistent with the exact central charge.  A table of more than
    MAX_FINITE_PHASES entries (d (d' - 1) for n = 1, d for n = 2), or an
    n = 2 degree above MAX_CURVE_DEGREE, raises ResourceLimitError before
    any entry is computed.
    """
    d = wtype.degree
    entries: dict[str, Fraction] = {}
    if wtype.n == 1:
        a = wtype.weights[0]
        if d % a != 0 or d // a < 2:
            raise UnsupportedCaseError(f"{wtype} has no nonzero objects")
        dp = d // a
        _refuse_large_table(wtype, d * (dp - 1))
        for m in range(d):
            for ell in range(1, dp):
                phi = Fraction(4 * m - 2 * a * ell - d, 2 * d)  # -1/2 - a l/d + 2m/d
                val = cyclo(d, m - a * ell) - cyclo(d, m)
                got = phase_of(val, phi - 1)
                if got != phi:
                    raise ArithmeticError(f"ray consistency failed for Q[{m},{ell}]")
                entries[f"Q[{m},{ell}]"] = phi
        return FinitePhaseTable(wtype, entries)
    if wtype.n == 2 and wtype.epsilon >= 0:
        if wtype.epsilon > 0:
            return FinitePhaseTable(wtype, {})  # the category is zero
        red, _ = normalize_gcd(wtype)
        if math.gcd(red.weights[0], red.weights[1]) != 1:
            raise UnsupportedCaseError("weights must be coprime after normalization")
        _refuse_large_table(wtype, d)
        _refuse_large_degree(wtype)
        phi0 = phase_of(zg(koszul_c(wtype, 0)), Fraction(-1))
        if not isinstance(phi0, Fraction):
            raise ArithmeticError("base phase must be rational")
        for j in range(d):
            phi = phi0 + Fraction(2 * j, d)
            val = zg(koszul_c(wtype, j))
            got = phase_of(val, phi - 1)
            if got != phi:
                raise ArithmeticError(f"ray consistency failed for C({j})")
            entries[f"C({j})"] = phi
        return FinitePhaseTable(wtype, entries)
    raise UnsupportedCaseError("finite phases exist for n=1 or n=2 with eps >= 0")


# ---------------------------------------------------------------------------
# coherent-system bounds ((3,-1) case)
# ---------------------------------------------------------------------------


def clifford_predicate(big_r: int, r: int, delta: int, genus: int) -> bool:
    """Section bound R <= delta/2 + r for semistable systems.

    Requires the degree window 0 <= delta < 2 * genus * r in which the
    bound is available.
    """
    if big_r < 0 or r < 0:
        raise ValueError("R and r must be non-negative")
    if not 0 <= delta < 2 * genus * r:
        raise ValueError("degree outside the Clifford window")
    return Fraction(big_r) <= Fraction(delta, 2) + r


def crucial_inequality(big_r: int, delta: int, d: int) -> bool:
    """The strict degree bound delta > R (1 - cos(2 pi / d)), decided exactly in Q(zeta_d)."""
    cos = (cyclo(d, 1) + cyclo(d, -1)) * Fraction(1, 2)
    return sign_real(delta - big_r * (1 - cos)) > 0


@lru_cache(maxsize=None)
def lattice_for(wtype: WeightedType) -> CaseLattice:
    return build_lattice(wtype)
