"""Graded free modules and graded matrix factorizations.

A matrix factorization is data ``P0 -> P1 -> P0(d)`` with both compositions
equal to multiplication by the superpotential W.  The supertrace central
charge only needs the shift data, with the convention fixed so that on a
summand A(n) of P0 the grade-shift generator acts with weight n:

    zg(P) = sum_{A(n) in P0} zeta^n  -  sum_{A(n) in P1} zeta^n,

and in the Koszul factorization of the residue object the odd wedge powers
form P0.  This single normalization pins every sign downstream; it makes
zg of the rank-2^(n-1) Koszul factorization equal the closed product form
``-prod_j (1 - zeta^(-a_j))`` (checked in the tests term by term).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .exactmath import CycloNum, cyclo
from .polynomials import Poly


class MissingMapsError(ValueError):
    """Raised when an operation needs explicit matrices but none are stored."""


@dataclass(frozen=True)
class WeightedType:
    """A weight system (a_1 >= ... >= a_n; d) with Gorenstein index eps."""

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self):
        ws = tuple(int(a) for a in self.weights)
        if not ws or any(a <= 0 for a in ws):
            raise ValueError("weights must be positive")
        if list(ws) != sorted(ws, reverse=True):
            raise ValueError("weights must be non-increasing")
        if self.degree <= 0:
            raise ValueError("degree must be positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "degree", int(self.degree))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def epsilon(self) -> int:
        return sum(self.weights) - self.degree

    @property
    def is_fermat(self) -> bool:
        return all(self.degree % a == 0 for a in self.weights)

    @property
    def fermat_exponents(self) -> tuple[int, ...] | None:
        if not self.is_fermat:
            return None
        exps = tuple(self.degree // a for a in self.weights)
        if any(e < 2 for e in exps):
            return None
        return exps

    def fermat_polynomial(self) -> Poly:
        exps = self.fermat_exponents
        if exps is None:
            raise ValueError(f"{self} is not of Fermat type")
        w = Poly.zero(self.n)
        for i, e in enumerate(exps):
            w = w + Poly.var(self.n, i, e)
        return w

    def fermat_string(self) -> str:
        exps = self.fermat_exponents
        if exps is None:
            raise ValueError(f"{self} is not of Fermat type")
        return " + ".join(f"x_{i + 1}^{e}" for i, e in enumerate(exps))

    def graded_dim(self, k: int) -> int:
        """Dimension of the degree-k part of C[x_1..x_n]/(W) below degree d.

        Valid for 0 <= k < d, where the quotient agrees with the free ring.
        """
        if k < 0:
            return 0
        if not 0 <= k < self.degree:
            raise ValueError("graded_dim only valid for 0 <= k < d")
        from .polynomials import monomials_of_weighted_degree

        return len(monomials_of_weighted_degree(self.n, self.weights, k))

    @staticmethod
    def parse(text: str) -> "WeightedType":
        """Parse 'a_1,...,a_n:d' (also accepts the printed form '(a,...;d)')."""
        try:
            body = text.strip().strip("()")
            sep = ":" if ":" in body else ";"
            ws, d = body.split(sep)
            weights = tuple(sorted((int(a) for a in ws.split(",")), reverse=True))
            return WeightedType(weights, int(d))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse weight system {text!r}") from exc

    def __str__(self):
        return f"({','.join(map(str, self.weights))};{self.degree})"


@dataclass(frozen=True)
class GradedFreeModule:
    """A graded free module, recorded as the multiset of twists of A(n)."""

    shifts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(sorted(int(s) for s in self.shifts)))

    @property
    def rank(self) -> int:
        return len(self.shifts)


@dataclass(frozen=True)
class GradedMF:
    """Shift data (and optional matrices) of a graded matrix factorization.

    maps, when present, is the pair (p0, p1) of polynomial matrices:
    p0 : P0 -> P1 and p1 : P1 -> P0(d).  Entry (r, c) of p0 is homogeneous
    of degree shifts_P1[r] - shifts_P0[c]; a generator of A(n) sits in
    internal degree -n.
    """

    wtype: WeightedType
    p0_module: GradedFreeModule
    p1_module: GradedFreeModule
    maps: tuple[tuple[tuple[Poly, ...], ...], tuple[tuple[Poly, ...], ...]] | None = None

    @property
    def has_maps(self) -> bool:
        return self.maps is not None


def zg(mf: GradedMF) -> CycloNum:
    """Supertrace central charge from shift data."""
    d = mf.wtype.degree
    acc = CycloNum.zero(d)
    for s in mf.p0_module.shifts:
        acc = acc + cyclo(d, s)
    for s in mf.p1_module.shifts:
        acc = acc - cyclo(d, s)
    return acc


def kclass(mf: GradedMF) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The signed shift multiset through which zg factors."""
    return mf.p0_module.shifts, mf.p1_module.shifts


def tau(mf: GradedMF, k: int = 1) -> GradedMF:
    """Grade shift: every A(n) becomes A(n+k); matrices unchanged."""
    return GradedMF(
        mf.wtype,
        GradedFreeModule(tuple(s + k for s in mf.p0_module.shifts)),
        GradedFreeModule(tuple(s + k for s in mf.p1_module.shifts)),
        mf.maps,
    )


def _shift_once(mf: GradedMF) -> GradedMF:
    # [1]: (P0 -p0-> P1 -p1-> P0(d))  becomes  (P1 -(-p1)-> P0(d) -(-p0(d))-> P1(d))
    d = mf.wtype.degree
    new_p0 = mf.p1_module
    new_p1 = GradedFreeModule(tuple(s + d for s in mf.p0_module.shifts))
    new_maps = None
    if mf.maps is not None:
        p0, p1 = mf.maps
        neg = lambda mat: tuple(tuple(-e for e in row) for row in mat)
        new_maps = (neg(p1), neg(p0))
    return GradedMF(mf.wtype, new_p0, new_p1, new_maps)


def _shift_back(mf: GradedMF) -> GradedMF:
    d = mf.wtype.degree
    new_p0 = GradedFreeModule(tuple(s - d for s in mf.p1_module.shifts))
    new_p1 = mf.p0_module
    new_maps = None
    if mf.maps is not None:
        p0, p1 = mf.maps
        neg = lambda mat: tuple(tuple(-e for e in row) for row in mat)
        new_maps = (neg(p1), neg(p0))
    return GradedMF(mf.wtype, new_p0, new_p1, new_maps)


def shift(mf: GradedMF, k: int) -> GradedMF:
    """Homological shift [k]."""
    out = mf
    if k >= 0:
        for _ in range(k):
            out = _shift_once(out)
    else:
        for _ in range(-k):
            out = _shift_back(out)
    return out


def koszul_c(wtype: WeightedType, j: int) -> GradedMF:
    """Koszul-type factorization of the twisted residue object C(j).

    Shift data only: a wedge basis element x_S (S a subset of the variables,
    |S| = 2k or 2k+1) in the twist A(dk+j) contributes a summand
    A(dk + j - sum_{i in S} a_i); odd |S| lands in P0, even |S| in P1.
    """
    d = wtype.degree
    p0_shifts = []
    p1_shifts = []
    idx = range(wtype.n)
    for size in range(wtype.n + 1):
        k = size // 2
        for subset in combinations(idx, size):
            s = d * k + j - sum(wtype.weights[i] for i in subset)
            (p0_shifts if size % 2 else p1_shifts).append(s)
    mf = GradedMF(wtype, GradedFreeModule(tuple(p0_shifts)), GradedFreeModule(tuple(p1_shifts)))
    assert mf.p0_module.rank == mf.p1_module.rank == 2 ** (wtype.n - 1)
    return mf


def koszul_closed_form(wtype: WeightedType, j: int = 0) -> CycloNum:
    """The closed product form -zeta^j * prod_i (1 - zeta^(-a_i))."""
    d = wtype.degree
    acc = CycloNum.one(d)
    for a in wtype.weights:
        acc = acc * (1 - cyclo(d, -a))
    return -cyclo(d, j) * acc


def q_object(wtype: WeightedType, j: int, ell: int) -> GradedMF:
    """Indecomposable A(j-l) --x^l--> A(j) --x^(d-l)--> A(j-l+d) for n=1, a=1."""
    if wtype.n != 1 or wtype.weights != (1,):
        raise ValueError("q_object is defined for the one-variable weight-1 case")
    d = wtype.degree
    if not 1 <= ell <= d - 1:
        raise ValueError("need 1 <= l <= d-1")
    p0 = ((Poly.var(1, 0, ell),),)
    p1 = ((Poly.var(1, 0, d - ell),),)
    return GradedMF(wtype, GradedFreeModule((j - ell,)), GradedFreeModule((j,)), (p0, p1))


@dataclass
class ValidationReport:
    ok: bool = True
    violations: list[str] = field(default_factory=list)

    def add(self, msg: str):
        self.ok = False
        self.violations.append(msg)


def validate(mf: GradedMF, w: Poly | None = None) -> ValidationReport:
    """Check degree homogeneity and both composition identities exactly."""
    if mf.maps is None:
        raise MissingMapsError("matrix factorization has no stored maps")
    if w is None:
        w = mf.wtype.fermat_polynomial()
    report = ValidationReport()
    weights = mf.wtype.weights
    d = mf.wtype.degree
    p0, p1 = mf.maps
    s0, s1 = mf.p0_module.shifts, mf.p1_module.shifts

    def check_shape(mat, nrows, ncols, name):
        if len(mat) != nrows or any(len(row) != ncols for row in mat):
            report.add(f"{name}: expected shape {nrows}x{ncols}")
            return False
        return True

    ok0 = check_shape(p0, len(s1), len(s0), "p0")
    ok1 = check_shape(p1, len(s0), len(s1), "p1")
    if not (ok0 and ok1):
        return report

    for r in range(len(s1)):
        for c in range(len(s0)):
            want = s1[r] - s0[c]
            if not p0[r][c].is_homogeneous(weights, want):
                report.add(f"p0[{r}][{c}] not homogeneous of degree {want}")
    for r in range(len(s0)):
        for c in range(len(s1)):
            want = (s0[r] + d) - s1[c]
            if not p1[r][c].is_homogeneous(weights, want):
                report.add(f"p1[{r}][{c}] not homogeneous of degree {want}")

    def matmul(a, b):
        return [
            [
                sum((a[i][k] * b[k][j] for k in range(len(b))), Poly.zero(mf.wtype.n))
                for j in range(len(b[0]))
            ]
            for i in range(len(a))
        ]

    for name, prod, size in (("p1*p0", matmul(p1, p0), len(s0)), ("p0(d)*p1", matmul(p0, p1), len(s1))):
        for i in range(size):
            for j in range(size):
                want = w if i == j else Poly.zero(mf.wtype.n)
                if prod[i][j] != want:
                    residual = prod[i][j] - want
                    report.add(f"{name}[{i}][{j}] composition failure, residual {residual}")
    return report


# -- serialization ------------------------------------------------------------


def mf_to_json(mf: GradedMF) -> dict:
    obj = {
        "type": {"weights": list(mf.wtype.weights), "degree": mf.wtype.degree},
        "p0_shifts": list(mf.p0_module.shifts),
        "p1_shifts": list(mf.p1_module.shifts),
    }
    if mf.maps is not None:
        p0, p1 = mf.maps
        obj["maps"] = [
            [[str(e) for e in row] for row in p0],
            [[str(e) for e in row] for row in p1],
        ]
    return obj


def mf_from_json(obj: dict) -> GradedMF:
    wtype = WeightedType(tuple(obj["type"]["weights"]), obj["type"]["degree"])
    maps = None
    if "maps" in obj and obj["maps"] is not None:
        p0_raw, p1_raw = obj["maps"]
        parse = lambda mat: tuple(tuple(Poly.parse(e, wtype.n) for e in row) for row in mat)
        maps = (parse(p0_raw), parse(p1_raw))
    return GradedMF(
        wtype,
        GradedFreeModule(tuple(obj["p0_shifts"])),
        GradedFreeModule(tuple(obj["p1_shifts"])),
        maps,
    )
