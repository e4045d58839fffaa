"""Quiver presentations of the n = 2 hearts and finite stability checks.

The hearts of the five n = 2 types are module categories of star or
two-step quivers whose vertices match the K-lattice basis.  Explicit
representations of the named objects are built over the exact cyclotomic
field; stability is tested by reducing to a finite field GF(p^k) large
enough to contain the point coordinates and exhaustively enumerating
subrepresentations.  A verdict therefore certifies "no destabilizing
subrepresentation over the listed finite fields" - the finite shadow of
the characteristic-zero statement, never a claimed proof of it.

Comparators: a StabilitySpec carries either the window phase order of the
ambient lattice (cases with constant slope, where the charge image spans
a sector of width < 1) or the slope order (tilted cases, where the charge
vanishes on some nonzero classes and only the slope is total).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

from .exactmath import CycloNum
from .extcalc import ext_cc, ext_cm, ext_cm_closed_form, yoneda_relations
from .gfield import (
    GF,
    BadReductionError,
    check_prime,
    coords_in_basis,
    extend_to_dim,
    field_degree,
    field_for,
    gaussian_binomial,
    image_vectors,
    mat_apply,
    project_to_quotient,
    quotient_data,
    span,
    superspaces,
)
from .hearts import CaseLattice, lattice_for, phase_key, points_of, slope_mu
from .mfcore import WeightedType
from .polynomials import monomials_of_weighted_degree

EXACT = "exact"


class ResourceLimitError(RuntimeError):
    pass


class HNTieError(ArithmeticError):
    """The (phase, dimension)-maximal destabilizer must be unique."""


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    src: str
    tgt: str
    label: str


@dataclass(frozen=True)
class QuiverWithRelations:
    """A heart quiver; vertex order matches the CaseLattice basis order.

    A relation is a list of (coefficient, (outer, inner)) with both paths
    sharing source and target; outer is applied after inner.
    """

    wtype: WeightedType
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[tuple[CycloNum, tuple[str, str]], ...], ...]
    conductor: int  # all matrix data of named objects lives in Q(zeta_conductor)

    def arrow(self, label: str) -> Arrow:
        for a in self.arrows:
            if a.label == label:
                return a
        raise KeyError(label)

    def arrows_from(self, v: str):
        return [a for a in self.arrows if a.src == v]

    def arrows_into(self, v: str):
        return [a for a in self.arrows if a.tgt == v]

    def lattice(self) -> CaseLattice:
        return lattice_for(self.wtype)


def heart_quiver(wtype: WeightedType) -> QuiverWithRelations:
    """The star ((2,-1)) or two-step ((2,-2)) presentation of the heart."""
    if wtype.n != 2 or wtype.epsilon not in (-1, -2):
        raise ValueError(f"no finite heart quiver for {wtype}")
    lat = lattice_for(wtype)
    pts = lat.points
    conductor = 1
    for p in pts:
        conductor = math.lcm(conductor, p[0].d, p[1].d)
    arrows = []
    relations = []
    if wtype.epsilon == -1:
        for j in range(len(pts)):
            arrows.append(Arrow("C(0)", f"PsiO(p{j + 1})", f"pi{j + 1}"))
    else:
        r1_monos = monomials_of_weighted_degree(2, wtype.weights, 1)
        # one arrow per element of the degree-one monomial basis
        for m in r1_monos:
            var = "X1" if m[0] else "X2"
            arrows.append(Arrow("C(1)", "C(0)", var))
        for j in range(len(pts)):
            arrows.append(Arrow("C(0)", f"PsiO(p{j + 1})", f"pi{j + 1}"))
        a1, a2 = wtype.weights
        if a1 <= 1 < a1 + a2 and 1 < wtype.degree - a1 - a2:
            # point relations p2 pi X1 = p1 pi X2 exist exactly when the
            # degree-2 point class sits in the computable window
            for j, (p1, p2) in enumerate(pts):
                relations.append(
                    (
                        (p2, (f"pi{j + 1}", "X1")),
                        (-p1, (f"pi{j + 1}", "X2")),
                    )
                )
    return QuiverWithRelations(
        wtype=wtype,
        vertices=lat.basis,
        arrows=tuple(arrows),
        relations=tuple(tuple(r) for r in relations),
        conductor=conductor,
    )


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuiverRep:
    """dims per vertex and a matrix (rows x cols = tgt x src) per arrow.

    field is either the EXACT marker (entries CycloNum) or a GF instance
    (entries integer codes).
    """

    quiver: QuiverWithRelations
    field: object
    dims: dict
    mats: dict

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims.get(v, 0) for v in self.quiver.vertices)

    def total_dim(self) -> int:
        return sum(self.dim_vector())

    def kclass(self) -> tuple[int, ...]:
        return self.dim_vector()

    def validate(self) -> bool:
        for a in self.quiver.arrows:
            mat = self.mats[a.label]
            if len(mat) != self.dims.get(a.tgt, 0):
                return False
            if any(len(row) != self.dims.get(a.src, 0) for row in mat):
                return False
        return self.relations_hold()

    def relations_hold(self) -> bool:
        for rel in self.quiver.relations:
            acc = None
            for coeff, (outer, inner) in rel:
                term = self._compose(outer, inner, coeff)
                acc = term if acc is None else self._madd(acc, term)
            if acc is not None and any(any(x for x in row) for row in self._nonzero(acc)):
                return False
        return True

    def _nonzero(self, mat):
        if self.field is EXACT:
            return [[0 if x.is_zero() else 1 for x in row] for row in mat]
        return mat

    def _compose(self, outer, inner, coeff):
        a_out = self.quiver.arrow(outer)
        a_in = self.quiver.arrow(inner)
        m_out, m_in = self.mats[outer], self.mats[inner]
        rows = self.dims.get(a_out.tgt, 0)
        cols = self.dims.get(a_in.src, 0)
        mid = self.dims.get(a_in.tgt, 0)
        if self.field is EXACT:
            out = [
                [
                    coeff * sum((m_out[i][k] * m_in[k][j] for k in range(mid)), CycloNum.zero())
                    for j in range(cols)
                ]
                for i in range(rows)
            ]
            return out
        f = self.field
        c = f.reduce_cyclo(coeff, self.quiver.conductor)
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = 0
                for k in range(mid):
                    acc = f.add[acc][f.mul[m_out[i][k]][m_in[k][j]]]
                row.append(f.mul[c][acc])
            out.append(row)
        return out

    def _madd(self, a, b):
        if self.field is EXACT:
            return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
        f = self.field
        return [[f.add[x][y] for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _zero_matrix(rows, cols, exact=True):
    if exact:
        return tuple(tuple(CycloNum.zero() for _ in range(cols)) for _ in range(rows))
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def named_object(wtype: WeightedType, name: str, point_index: int = 1) -> QuiverRep:
    """Explicit exact representation of a named heart object.

    Names: C0, C1 (eps=-2 only), PsiOx, tauPsiOx (with point_index),
    C1m1 (eps=-1; for eps=-2 the heart object is C(1) itself, living in
    the tilted heart as C(1)[-1], so C1m1 is accepted as an alias for C1
    there), C2m1 (eps=-2).
    """
    if name == "C1m1" and wtype.epsilon == -2:
        name = "C1"
    q = heart_quiver(wtype)
    pts = lattice_for(wtype).points
    nx = len(pts)
    if not 1 <= point_index <= nx:
        raise ValueError(f"point index out of range 1..{nx}")
    eps = wtype.epsilon
    dims = {v: 0 for v in q.vertices}
    mats = {}

    def finish():
        for a in q.arrows:
            if a.label not in mats:
                mats[a.label] = _zero_matrix(dims[a.tgt], dims[a.src])
        rep = QuiverRep(q, EXACT, dims, mats)
        if not rep.validate():
            raise ArithmeticError(f"named object {name} violates the relations")
        return rep

    if name == "C0":
        dims["C(0)"] = 1
        return finish()
    if name == "C1":
        if eps != -2:
            raise ValueError("C(1) is a heart generator only in the (2,-2) case")
        dims["C(1)"] = 1
        return finish()
    if name == "PsiOx":
        dims[f"PsiO(p{point_index})"] = 1
        return finish()
    if name == "tauPsiOx":
        dims["C(0)"] = 1
        dims[f"PsiO(p{point_index})"] = 1
        mats[f"pi{point_index}"] = ((CycloNum.one(),),)
        return finish()
    if name == "C1m1":
        if eps != -1:
            raise ValueError("C(1)[-1] is a heart object only in the (2,-1) case")
        monos = monomials_of_weighted_degree(2, wtype.weights, 1)
        dims["C(0)"] = len(monos)
        for j, p in enumerate(pts):
            dims[f"PsiO(p{j + 1})"] = 1
            row = tuple(p[0] ** m[0] * p[1] ** m[1] for m in monos)
            mats[f"pi{j + 1}"] = (row,)
        return finish()
    if name == "C2m1":
        if eps != -2:
            raise ValueError("C(2)[-1] is a heart object only in the (2,-2) case")
        r1 = monomials_of_weighted_degree(2, wtype.weights, 1)
        r2 = monomials_of_weighted_degree(2, wtype.weights, 2)
        dims["C(1)"] = len(r1)
        dims["C(0)"] = len(r2)
        for var, idx in (("X1", 0), ("X2", 1)):
            if var not in {a.label for a in q.arrows}:
                continue
            mat = []
            for m2 in r2:
                row = []
                for m1 in r1:
                    shifted = (m1[0] + (1 - idx), m1[1] + idx)
                    row.append(CycloNum.one() if shifted == m2 else CycloNum.zero())
                mat.append(tuple(row))
            mats[var] = tuple(mat)
        for j, p in enumerate(pts):
            dims[f"PsiO(p{j + 1})"] = 1
            row = tuple(p[0] ** m[0] * p[1] ** m[1] for m in r2)
            mats[f"pi{j + 1}"] = (row,)
        return finish()
    raise ValueError(f"unknown object name {name!r}")


# ---------------------------------------------------------------------------
# reduction to finite fields
# ---------------------------------------------------------------------------


def is_good_prime(wtype: WeightedType, p: int) -> bool:
    """Reduction guard: p must not divide 2d nor any point separation.

    Point separations are the cross products p1 q2 - q1 p2 of pairs of
    (projective) points; their field norms are integers whose prime
    divisors are excluded.
    """
    check_prime(p)
    if (2 * wtype.degree) % p == 0:
        return False
    pts = points_of(wtype)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cross = pts[i][0] * pts[j][1] - pts[j][0] * pts[i][1]
            if cross.norm().numerator % p == 0:
                return False
        for coord in pts[i]:
            if not coord.is_zero() and coord.norm().numerator % p == 0:
                return False
    return True


def rep_to_json(rep: QuiverRep) -> dict:
    """Serialize a finite-field representation.

    Matrix entries are the integer codes of GF(p^k) (base-p digits against
    the field modulus); plain residues when k = 1.
    """
    if rep.field is EXACT:
        raise ValueError("serialize a reduced representation, not an exact one")
    return {
        "field": "Fp",
        "p": rep.field.p,
        "type": str(rep.quiver.wtype),
        "dims": {v: rep.dims.get(v, 0) for v in rep.quiver.vertices},
        "mats": {label: [list(row) for row in mat] for label, mat in rep.mats.items()},
    }


def bounded_field(p: int, conductor: int, max_q: int | None = None) -> GF:
    """field_for, refused before its tables are built if it has more than max_q elements."""
    if max_q is not None:
        if p > max_q:  # GF(p^k) has at least p elements; spares the primality test
            raise ResourceLimitError(f"characteristic {p} exceeds the field size bound {max_q}")
        q = p ** field_degree(p, conductor)
        if q > max_q:
            raise ResourceLimitError(f"field size {q} exceeds {max_q}")
    return field_for(p, conductor)


def reduce_rep(rep: QuiverRep, p: int, max_q: int | None = None) -> QuiverRep:
    """Reduce an exact representation modulo a good prime.

    The field is GF(p^k) with k minimal so the quiver's cyclotomic
    conductor embeds; entries map through a fixed order-N root of unity.
    With max_q, a field with more than max_q elements is refused before
    it is built.
    """
    if rep.field is not EXACT:
        raise ValueError("can only reduce exact representations")
    if not is_good_prime(rep.quiver.wtype, p):
        raise BadReductionError(f"{p} is not a good prime for {rep.quiver.wtype}")
    gf = bounded_field(p, rep.quiver.conductor, max_q)
    mats = {
        label: tuple(
            tuple(gf.reduce_cyclo(x, rep.quiver.conductor) for x in row) for row in mat
        )
        for label, mat in rep.mats.items()
    }
    out = QuiverRep(rep.quiver, gf, dict(rep.dims), mats)
    if not out.validate():
        raise BadReductionError("relations fail after reduction")
    return out


# ---------------------------------------------------------------------------
# subrepresentation enumeration
# ---------------------------------------------------------------------------


MAX_TOTAL_DIM = 12
MAX_Q_ORACLE = 49


class SubrepClass:
    """One subrepresentation dimension vector: its number of subreps and a witness.

    The witness (vertex -> RREF basis rows) is one subrepresentation of
    these dimensions.  It is built on first access: the representative
    inner choice of the class's signature group, with each sink bound
    extended to the class's sink dimension.
    """

    __slots__ = ("dims", "count", "_field", "_inner", "_sinks", "_witness")

    def __init__(self, dims: tuple[int, ...], count: int, field: GF, inner: dict, sinks: list):
        self.dims = dims
        self.count = count
        self._field = field
        self._inner = inner  # inner vertex -> chosen RREF subspace
        self._sinks = sinks  # (sink, lower bound, target dim, ambient dim)
        self._witness = None

    @property
    def witness(self) -> dict:
        if self._witness is None:
            witness = dict(self._inner)
            for s, bound, m, n in self._sinks:
                witness[s] = extend_to_dim(self._field, bound, m, n)
            self._witness = witness
        return self._witness


def _check_guard(rep: QuiverRep, max_q: int):
    if rep.field is EXACT:
        raise ResourceLimitError("subrepresentation search runs over finite fields")
    if rep.total_dim() > MAX_TOTAL_DIM:
        raise ResourceLimitError(f"total dimension {rep.total_dim()} exceeds {MAX_TOTAL_DIM}")
    if rep.field.q > max_q:
        raise ResourceLimitError(f"field size {rep.field.q} exceeds {max_q}")


def subrep_classes(rep: QuiverRep, max_q: int = MAX_Q_ORACLE) -> dict:
    """All subrepresentation dimension vectors with counts and witnesses.

    Vertices with outgoing arrows are enumerated subspace by subspace
    (each choice bounded below by the images of earlier choices).  Once
    they are chosen the sinks are independent: a sink s of dimension n
    with lower bound of dimension lo admits gaussian_binomial(n - lo,
    m - lo, q) subspaces of each dimension m >= lo.  So each inner choice
    reduces to a signature (inner dimensions, sink bound dimensions);
    choices are counted per signature, and each signature's sink product
    is expanded once, after the search.  The result keeps the order in
    which a per-choice expansion would first meet each dimension vector.
    Witnesses are lazy (see SubrepClass).
    """
    _check_guard(rep, max_q)
    q = rep.quiver
    f = rep.field
    verts = list(q.vertices)
    sinks = [v for v in verts if not q.arrows_from(v)]
    inner = [v for v in verts if q.arrows_from(v)]
    for a in q.arrows:
        if a.src in sinks:
            raise ResourceLimitError("sink aggregation requires arrows out of inner vertices only")
    # inner vertices must come in dependency order (sources first)
    order: list[str] = []
    remaining = set(inner)
    while remaining:
        progressed = False
        for v in list(remaining):
            if all(a.src not in remaining for a in q.arrows_into(v)):
                order.append(v)
                remaining.discard(v)
                progressed = True
        if not progressed:
            raise ResourceLimitError("quiver has a cycle through inner vertices")

    def lower_bound(v, chosen):
        bound_vecs = []
        for a in q.arrows_into(v):
            bound_vecs.extend(image_vectors(f, rep.mats[a.label], chosen[a.src]))
        return span(f, bound_vecs)

    # signature -> [inner choices, representative choice, its sink bounds]
    groups: dict = {}

    def rec(idx, chosen):
        if idx == len(order):
            bounds = [lower_bound(s, chosen) for s in sinks]
            sig = (tuple(len(chosen[v]) for v in order), tuple(len(b) for b in bounds))
            group = groups.get(sig)
            if group is None:
                groups[sig] = [1, dict(chosen), bounds]
            else:
                group[0] += 1
            return
        v = order[idx]
        for u in superspaces(f, lower_bound(v, chosen), rep.dims.get(v, 0)):
            chosen[v] = u
            rec(idx + 1, chosen)
        del chosen[v]

    rec(0, {})

    slot = {v: i for i, v in enumerate(verts)}
    sink_dims = [rep.dims.get(s, 0) for s in sinks]
    out: dict[tuple[int, ...], SubrepClass] = {}
    for (inner_dims, los), (leaves, chosen, bounds) in groups.items():
        key = [0] * len(verts)
        for v, m in zip(order, inner_dims):
            key[slot[v]] = m
        for ms in product(*(range(lo, n + 1) for lo, n in zip(los, sink_dims))):
            count = leaves
            for m, lo, n, s in zip(ms, los, sink_dims, sinks):
                count *= gaussian_binomial(n - lo, m - lo, f.q)
                key[slot[s]] = m
            dims = tuple(key)
            cls = out.get(dims)
            if cls is None:
                out[dims] = SubrepClass(dims, count, f, chosen, list(zip(sinks, bounds, ms, sink_dims)))
            else:
                cls.count += count
    return out


def all_subreps(rep: QuiverRep, max_q: int = MAX_Q_ORACLE) -> list[tuple[tuple[int, ...], int]]:
    """Public oracle: multiset of subrepresentation dimension vectors."""
    classes = subrep_classes(rep, max_q)
    return sorted((dims, cls.count) for dims, cls in classes.items())


def subrep_restriction(rep: QuiverRep, witness: dict) -> QuiverRep:
    """The subrepresentation spanned by a witness, in its own bases."""
    f = rep.field
    dims = {v: len(witness.get(v, ())) for v in rep.quiver.vertices}
    mats = {}
    for a in rep.quiver.arrows:
        src_basis = witness.get(a.src, ())
        tgt_basis = witness.get(a.tgt, ())
        cols = []
        for v in src_basis:
            img = mat_apply(f, rep.mats[a.label], v)
            coords = coords_in_basis(f, list(tgt_basis), img)
            if coords is None:
                raise ArithmeticError("witness is not arrow-invariant")
            cols.append(coords)
        mats[a.label] = tuple(
            tuple(col[i] for col in cols) for i in range(len(tgt_basis))
        )
    return QuiverRep(rep.quiver, f, dims, mats)


def quotient_rep(rep: QuiverRep, witness: dict) -> QuiverRep:
    """The quotient representation by a witness subrepresentation."""
    f = rep.field
    dims = {}
    proj = {}
    for v in rep.quiver.vertices:
        n = rep.dims.get(v, 0)
        sub = witness.get(v, ())
        _, free = quotient_data(f, sub, n)
        dims[v] = len(free)
        proj[v] = (sub, free)
    mats = {}
    for a in rep.quiver.arrows:
        sub_t, free_t = proj[a.tgt]
        _, free_s = proj[a.src]
        n_s = rep.dims.get(a.src, 0)
        cols = []
        for c in free_s:
            e = tuple(1 if i == c else 0 for i in range(n_s))
            img = mat_apply(f, rep.mats[a.label], e)
            cols.append(project_to_quotient(f, sub_t, free_t, img))
        mats[a.label] = tuple(tuple(col[i] for col in cols) for i in range(len(free_t)))
    return QuiverRep(rep.quiver, f, dims, mats)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilitySpec:
    """Comparator on K-classes: window phases or the case slope."""

    lattice: CaseLattice
    mode: str  # "phase" | "slope"

    def __post_init__(self):
        if self.mode not in ("phase", "slope"):
            raise ValueError("mode must be 'phase' or 'slope'")

    def key(self, cls):
        cache = _KEY_CACHE.setdefault((self.lattice.wtype, self.mode), {})
        if cls not in cache:
            if self.mode == "phase":
                cache[cls] = phase_key(self.lattice, cls)
            else:
                cache[cls] = slope_mu(self.lattice, cls)
        return cache[cls]


_KEY_CACHE: dict = {}


def default_spec(wtype: WeightedType) -> StabilitySpec:
    """Phase order where the charge image is a strict sector, else slope."""
    lat = lattice_for(wtype)
    mode = "phase" if lat.case in ((3, 0), (2, -1)) else "slope"
    return StabilitySpec(lat, mode)


@dataclass
class Verdict:
    status: str  # "stable" | "semistable_only" | "unstable"
    witness: tuple[int, ...] | None
    field_label: str
    mode: str
    checked: int
    shortcut_agrees: bool | None = None
    ok: bool = False  # stable, or semistable when strict=False was asked


def is_stable(rep: QuiverRep, spec: StabilitySpec, strict: bool = True, max_q: int = MAX_Q_ORACLE) -> Verdict:
    """Compare every proper nonzero subrepresentation class with the total.

    In phase mode the minimal-imaginary-part shortcut is also evaluated
    when the case provides one, and must agree with the exhaustive
    verdict.
    """
    total = rep.kclass()
    key_e = spec.key(total)
    classes = subrep_classes(rep, max_q)
    status = "stable"
    witness = None
    zero = tuple(0 for _ in total)
    checked = 0
    semistable_hit = None
    for dims, cls in classes.items():
        if dims == zero or dims == total:
            continue
        checked += 1
        k = spec.key(dims)
        if k > key_e:
            status, witness = "unstable", dims
            break
        if k == key_e and semistable_hit is None:
            semistable_hit = dims
    if status != "unstable" and semistable_hit is not None:
        status, witness = "semistable_only", semistable_hit
    shortcut = _imaginary_shortcut(rep, spec, classes, key_e, status)
    label = rep.field.label() if rep.field is not EXACT else "exact"
    ok = status == "stable" or (not strict and status == "semistable_only")
    return Verdict(status, witness, label, spec.mode, checked, shortcut, ok)


def _imaginary_shortcut(rep, spec, classes, key_e, status):
    """The cheap criterion: an object at minimal positive rotated-Im is
    stable iff it receives nothing from Im-zero classes (evaluated as: no
    proper subrep class with Im-units 0 and phase >= the total's)."""
    from .hearts import im_units

    lat = spec.lattice
    if lat.case not in ((3, -1), (2, -2)):
        return None
    total = rep.kclass()
    try:
        units = im_units(lat, total)
    except Exception:
        return None
    if units != 1:
        return None
    zero = tuple(0 for _ in total)
    offender = False
    for dims in classes:
        if dims == zero or dims == total:
            continue
        if im_units(lat, dims) == 0 and spec.key(dims) >= key_e:
            offender = True
            break
    shortcut_status = "stable" if not offender else "not-stable"
    agrees = (shortcut_status == "stable") == (status == "stable")
    return agrees


@dataclass
class HNResult:
    factors: list  # list of (dimvec, key)
    field_label: str
    mode: str


def hn_filtration(rep: QuiverRep, spec: StabilitySpec, max_q: int = MAX_Q_ORACLE) -> HNResult:
    """Greedy maximal-destabilizer filtration with verified subquotients.

    Tie-break inside each step: maximal key, then maximal total dimension,
    then lexicographically minimal dimension vector; a genuine tie after
    that is reported as an error since the maximal destabilizer is unique.
    """
    factors = []
    current = rep
    zero_total = tuple(0 for _ in rep.quiver.vertices)
    while current.kclass() != zero_total:
        classes = subrep_classes(current, max_q)
        best_dims = None
        best_key = None
        for dims, cls in classes.items():
            if dims == zero_total:
                continue
            k = spec.key(dims)
            if best_dims is None:
                best_dims, best_key = dims, k
                continue
            if k > best_key:
                best_dims, best_key = dims, k
            elif not (k < best_key):
                # equal keys: larger total dimension wins, then lex-min
                if sum(dims) > sum(best_dims):
                    best_dims, best_key = dims, k
                elif sum(dims) == sum(best_dims) and dims < best_dims:
                    best_dims, best_key = dims, k
        chosen = classes[best_dims]
        rivals = [
            d
            for d, c in classes.items()
            if d != best_dims
            and sum(d) == sum(best_dims)
            and not (spec.key(d) < best_key)
            and not (best_key < spec.key(d))
        ]
        if chosen.count > 1 or rivals:
            raise HNTieError(f"non-unique maximal destabilizer at {best_dims}")
        if best_dims == current.kclass():
            factors.append((best_dims, best_key))
            break
        sub = subrep_restriction(current, chosen.witness)
        # the extracted factor must itself be semistable
        sub_verdict = is_stable(sub, spec, max_q=max_q)
        if sub_verdict.status == "unstable":
            raise HNTieError("extracted factor is not semistable")
        factors.append((best_dims, best_key))
        current = quotient_rep(current, chosen.witness)
    # strictly decreasing keys and telescoping classes
    for (d1, k1), (d2, k2) in zip(factors, factors[1:]):
        if not (k2 < k1):
            raise HNTieError("phases along the filtration are not strictly decreasing")
    total = tuple(sum(d[i] for d, _ in factors) for i in range(len(rep.quiver.vertices)))
    if total != rep.kclass():
        raise HNTieError("filtration does not telescope to the total class")
    label = rep.field.label() if rep.field is not EXACT else "exact"
    return HNResult(factors, label, spec.mode)


# ---------------------------------------------------------------------------
# consistency with the Ext engine, random representations
# ---------------------------------------------------------------------------


def ext_quiver_consistency(wtype: WeightedType) -> bool:
    """Arrow and relation data must equal the computed Ext dimensions."""
    q = heart_quiver(wtype)
    lat = lattice_for(wtype)
    pts = lat.points
    a1, a2 = wtype.weights
    # arrows between residue vertices
    if wtype.epsilon == -2:
        n_x = sum(1 for a in q.arrows if a.src == "C(1)" and a.tgt == "C(0)")
        if n_x != ext_cc(wtype, 1, 1):
            return False
    # arrows into each point vertex come from Hom^1(C(j), PsiO(x))
    for j, p in enumerate(pts):
        for cv, jj in (("C(0)", 0), ("C(1)", 1)):
            if cv not in q.vertices:
                continue
            expected = ext_cm(wtype, jj, p, 1)[0] if jj < wtype.degree - a1 - a2 else 0
            got = sum(1 for a in q.arrows if a.src == cv and a.tgt == f"PsiO(p{j + 1})")
            if got != expected:
                return False
    # relation count per point from Hom^2 in the computable window
    expected_rel = 0
    if wtype.epsilon == -2 and 1 < wtype.degree - a1 - a2 and ext_cm_closed_form(wtype, 1, 2):
        expected_rel = 1
    per_point = {}
    for rel in q.relations:
        label = rel[0][1][0]
        per_point[label] = per_point.get(label, 0) + 1
    for j, p in enumerate(pts):
        got = per_point.get(f"pi{j + 1}", 0)
        if got != expected_rel:
            return False
    # coefficient patterns must match the chain-level computation
    relbyname = {rel[0][1][0]: rel for rel in q.relations}
    data = yoneda_relations(wtype)
    for j, pat in enumerate(data.point_patterns):
        rel = relbyname[f"pi{j + 1}"]
        coeffs = {path[1]: c for c, path in rel}
        if coeffs["X1"] != pat["x1"] or coeffs["X2"] != pat["x2"]:
            return False
    if wtype.epsilon == -2 and ext_cc(wtype, 1, 1) == 2:
        if data.commuting[("x1", "x2")] != 1 or data.commuting[("x2", "x1")] != -1:
            return False
    # Euler-characteristic consistency on the quiver vertices
    for j, p in enumerate(pts):
        for cv, jj in (("C(0)", 0), ("C(1)", 1)):
            if cv not in q.vertices or jj >= wtype.degree - a1 - a2:
                continue
            chi = sum((-1) ** i * ext_cm(wtype, jj, p, i)[0] for i in range(4))
            arrows = sum(1 for a in q.arrows if a.src == cv and a.tgt == f"PsiO(p{j + 1})")
            rels = sum(
                1
                for rel in q.relations
                if rel[0][1][0] == f"pi{j + 1}" and cv == "C(1)"
            )
            if chi != -arrows + rels:
                return False
    return True


def random_rep(quiver: QuiverWithRelations, p: int, rng: random.Random, max_dim: int = 3, inner_budget: int = 5, total_budget: int = MAX_TOTAL_DIM) -> QuiverRep:
    """A random finite-field representation satisfying the relations.

    Point maps are sampled inside the solution space of the relations, so
    the output is always a valid representation.
    """
    gf = field_for(p, quiver.conductor)
    inner = [v for v in quiver.vertices if quiver.arrows_from(v)]
    while True:
        dims = {v: rng.randint(0, max_dim) for v in quiver.vertices}
        if sum(dims[v] for v in inner) <= inner_budget and sum(dims.values()) <= total_budget:
            break
    mats = {}
    for a in quiver.arrows:
        if a.label.startswith("pi"):
            continue
        mats[a.label] = tuple(
            tuple(rng.randrange(gf.q) for _ in range(dims[a.src])) for _ in range(dims[a.tgt])
        )
    # point maps: rows constrained to kill im(p2 X1 - p1 X2) when a relation exists
    constraints = {}
    for rel in quiver.relations:
        label = rel[0][1][0]
        acc = None
        for coeff, (outer, inner_lbl) in rel:
            a_in = quiver.arrow(inner_lbl)
            c = gf.reduce_cyclo(coeff, quiver.conductor)
            m = mats[inner_lbl]
            term = [
                [gf.mul[c][m[i][j]] for j in range(dims[a_in.src])]
                for i in range(dims[a_in.tgt])
            ]
            if acc is None:
                acc = term
            else:
                acc = [[gf.add[x][y] for x, y in zip(r1, r2)] for r1, r2 in zip(acc, term)]
        constraints[label] = acc
    for a in quiver.arrows:
        if not a.label.startswith("pi"):
            continue
        n_src, n_tgt = dims[a.src], dims[a.tgt]
        if a.label in constraints and constraints[a.label] is not None and n_src:
            k = constraints[a.label]
            img = span(gf, [tuple(k[i][j] for i in range(len(k))) for j in range(len(k[0]))] if k and k[0] else [])
            # rows must annihilate the image: rows live in the dual of V/img
            _, free = quotient_data(gf, img, n_src)
            rows = []
            for _ in range(n_tgt):
                coeffs = [rng.randrange(gf.q) for _ in free]
                row = [0] * n_src
                # lift a random functional on the quotient through the projection
                for cval, cpos in zip(coeffs, free):
                    row[cpos] = cval
                # subtract to kill the subspace: solve row . img_basis = 0
                rows.append(tuple(_kill_subspace(gf, row, img)))
            mats[a.label] = tuple(rows)
        else:
            mats[a.label] = tuple(
                tuple(rng.randrange(gf.q) for _ in range(n_src)) for _ in range(n_tgt)
            )
    rep = QuiverRep(quiver, gf, dims, mats)
    if not rep.validate():
        raise ArithmeticError("random representation violates relations")
    return rep


def _kill_subspace(field: GF, row, sub_basis):
    """Adjust a functional so it vanishes on the given RREF subspace."""
    row = list(row)
    for b in sub_basis:
        val = 0
        for x, y in zip(row, b):
            if x and y:
                val = field.add[val][field.mul[x][y]]
        if val:
            pivot = next(i for i, x in enumerate(b) if x)
            # subtract val * (dual of pivot direction adjusted by b)
            f = field.mul[val][field.inv[b[pivot]]]
            row[pivot] = field.add[row[pivot]][field.neg[f]]
    # verify
    for b in sub_basis:
        val = 0
        for x, y in zip(row, b):
            if x and y:
                val = field.add[val][field.mul[x][y]]
        if val:
            raise ArithmeticError("could not annihilate subspace")
    return row
