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
import operator
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from typing import NamedTuple

from .exactmath import QZETA, CycloNum, ResourceLimitError
from .gfield import (
    GF,
    BadReductionError,
    check_prime,
    extend_to_dim,
    extension_rank,
    field_degree,
    field_for,
    gaussian_binomial,
    in_span,
    kernel,
    mat_apply,
    pivot_columns,
    project_to_quotient,
    quotient_data,
    span,
    subspace_index,
    subspaces_of,
)
from .hearts import CaseLattice, im_units, lattice_for, phase_key, points_of, slope_mu
from .mfcore import WeightedType
from .polynomials import monomials_of_weighted_degree


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

    A relation is (outer, ((coeff, inner), ...)): the outer arrow composed
    after the linear combination sum(coeff * inner) of inner arrows that
    share one source and one target.  It holds when M_outer times that sum
    is zero.  Each outer arrow carries at most one relation.
    """

    wtype: WeightedType
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[str, tuple[tuple[CycloNum, str], ...]], ...]
    conductor: int  # all matrix data of named objects lives in Q(zeta_conductor)

    def arrows_from(self, v: str):
        return [a for a in self.arrows if a.src == v]

    def arrows_into(self, v: str):
        return [a for a in self.arrows if a.tgt == v]

    @cached_property
    def subrep_plan(self) -> SubrepPlan:
        """The plan of subrep_classes, built on first use.

        Raises ResourceLimitError for a shape the search cannot walk.
        """
        return _subrep_plan(self)

    @cached_property
    def _intern(self) -> dict:
        """One copy of each dimension tuple and count kept by the results cached on this quiver's reps.

        Equal values are then shared by the reps instead of repeated per rep.
        """
        return {}

    @cached_property
    def _expansions(self) -> dict:
        """(q, sink dims, inner dims, sink bound dims) -> _expansion of that signature, built on first use."""
        return {}


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
                relations.append((f"pi{j + 1}", ((p2, "X1"), (-p1, "X2"))))
    return QuiverWithRelations(
        wtype=wtype,
        vertices=lat.basis,
        arrows=tuple(arrows),
        relations=tuple(relations),
        conductor=conductor,
    )


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuiverRep:
    """dims per vertex and a matrix (rows x cols = tgt x src) per arrow.

    field is exactmath.QZETA (entries CycloNum) or a GF instance (entries
    integer codes); the entries are computed on through the field's row
    operations, so one code path serves both.  A rep must not be mutated
    once built: its subrepresentation search runs once and is cached on it
    (see subrep_classes).  dataclasses.replace makes a new rep, searched
    afresh.
    """

    quiver: QuiverWithRelations
    field: object
    dims: dict
    mats: dict

    def dim_vector(self) -> tuple[int, ...]:
        return self._dim_vector

    @cached_property
    def _dim_vector(self) -> tuple[int, ...]:
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
        f = self.field
        for outer, terms in self.quiver.relations:
            total = relation_sum(self.quiver, f, self.mats, terms)
            zero = [f.zero] * (len(total[0]) if total else 0)
            for row in self.mats[outer]:
                composed = zero
                for c, total_row in zip(row, total):
                    composed = f.eliminate(composed, f.negate(c), total_row)  # += c * total_row
                if any(composed):
                    return False
        return True

    @cached_property
    def _subrep_classes(self) -> SubrepClasses:
        return _search_subreps(self)


def relation_sum(quiver: QuiverWithRelations, field, mats: dict, terms):
    """sum(coeff * M_inner) over field, for the (coeff, inner) terms of a relation.

    Each cyclotomic coeff enters the field through its reduce_cyclo.
    """
    total = None
    for coeff, inner in terms:
        c = field.reduce_cyclo(coeff, quiver.conductor)
        if total is None:
            total = [field.scale(row, c) for row in mats[inner]]
        else:
            total = [field.eliminate(t, field.negate(c), row) for t, row in zip(total, mats[inner])]
    return total


def _add_zero_maps(quiver: QuiverWithRelations, field, dims: dict, mats: dict) -> None:
    """Give each arrow that has no map in mats the zero matrix over field."""
    for a in quiver.arrows:
        if a.label not in mats:
            mats[a.label] = tuple(tuple(field.zero for _ in range(dims[a.src])) for _ in range(dims[a.tgt]))


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
        _add_zero_maps(q, QZETA, dims, mats)
        rep = QuiverRep(q, QZETA, dims, mats)
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
    if rep.field is QZETA:
        raise ValueError("serialize a reduced representation, not an exact one")
    return {
        "field": "Fp",
        "p": rep.field.p,
        "type": str(rep.quiver.wtype),
        "dims": {v: rep.dims.get(v, 0) for v in rep.quiver.vertices},
        "mats": {label: [list(row) for row in mat] for label, mat in rep.mats.items()},
    }


def rep_from_json(data: dict, quiver: QuiverWithRelations, max_q: int | None = None) -> QuiverRep:
    """The representation that rep_to_json wrote, on quiver; zero maps where data gives none.

    The field is bounded_field(p, quiver.conductor, max_q).  A p that
    divides the conductor, a dimension key that is no vertex, a label that
    is no arrow, or a map whose shape does not match the dimensions, is a
    ValueError, not a relation failure; the relations are not checked
    here (QuiverRep.validate).  Missing keys and entries of the wrong kind
    raise KeyError, TypeError or AttributeError.
    """
    p = int(data["p"])
    try:
        gf = bounded_field(p, quiver.conductor, max_q)
    except BadReductionError:
        raise ValueError(f"prime {p} divides the conductor {quiver.conductor} of the {quiver.wtype} quiver") from None
    dims = {v: int(data["dims"].get(v, 0)) for v in quiver.vertices}
    for v in data["dims"]:
        if v not in dims:
            raise ValueError(f"{v!r} is not a vertex of the {quiver.wtype} quiver")
    if min(dims.values()) < 0:
        raise ValueError(f"negative dimension in {dims}")
    if sum(dims.values()) > MAX_TOTAL_DIM:  # refused before the zero maps are built
        raise ResourceLimitError(f"total dimension {sum(dims.values())} exceeds {MAX_TOTAL_DIM}")
    arrows = {a.label: a for a in quiver.arrows}
    mats = {}
    for label, m in data.get("mats", {}).items():
        if label not in arrows:
            raise ValueError(f"{label!r} is not an arrow of the {quiver.wtype} quiver")
        a = arrows[label]
        mat = tuple(tuple(int(x) % gf.q for x in row) for row in m)
        if len(mat) != dims[a.tgt] or any(len(row) != dims[a.src] for row in mat):
            raise ValueError(f"map {label} ({a.src} -> {a.tgt}) must be a {dims[a.tgt]}x{dims[a.src]} matrix")
        mats[label] = mat
    _add_zero_maps(quiver, gf, dims, mats)
    return QuiverRep(quiver, gf, dims, mats)


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
    it is built.  A prime that is not good is a ValueError, as the caller
    chose it; relations that fail after reduction are a BadReductionError.
    """
    if rep.field is not QZETA:
        raise ValueError("can only reduce exact representations")
    if not is_good_prime(rep.quiver.wtype, p):
        raise ValueError(f"{p} is not a good prime for {rep.quiver.wtype}")
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
MAX_SUBSPACES = 10**5  # subspaces of one enumerated vertex


class SubrepPlan(NamedTuple):
    """How subrep_classes walks a quiver; it depends on the quiver alone.

    order: the inner vertices (those with arrows out), sources first.  Its
    last vertex is the only one that feeds sinks.  sinks: the vertices
    without arrows out.  into: (source, labels of the arrows in) per vertex
    with arrows in; every such vertex has one source.
    """

    order: tuple[str, ...]
    sinks: tuple[str, ...]
    into: dict


def _subrep_plan(quiver: QuiverWithRelations) -> SubrepPlan:
    into = {}
    for v in quiver.vertices:
        arrows = quiver.arrows_into(v)
        sources = {a.src for a in arrows}
        if len(sources) > 1:
            raise ResourceLimitError(f"{v} is fed from {len(sources)} vertices; prefix bounds need one")
        if arrows:
            into[v] = (arrows[0].src, tuple(a.label for a in arrows))
    inner = [v for v in quiver.vertices if quiver.arrows_from(v)]
    order: list[str] = []
    while len(order) < len(inner):
        ready = [v for v in inner if v not in order and (v not in into or into[v][0] in order)]
        if not ready:
            raise ResourceLimitError("quiver has a cycle through inner vertices")
        order += ready
    sinks = tuple(v for v in quiver.vertices if v not in inner)
    for s in sinks:
        if s in into:
            src, labels = into[s]
            if src != order[-1]:
                raise ResourceLimitError(f"sink {s} is fed from {src}, not from the last inner vertex {order[-1]}")
            if len(labels) > 1:
                raise ResourceLimitError(f"sink {s} is fed by {len(labels)} arrows; its ranks are read from one kernel")
    return SubrepPlan(tuple(order), sinks, into)


class SubrepClass:
    """One subrepresentation dimension vector: its number of subreps and a witness.

    The witness (vertex -> RREF basis rows) is one subrepresentation of
    these dimensions.  It is built on first access: the representative
    inner choice of the class's signature group, with each sink bound
    extended to the class's sink dimension.
    """

    __slots__ = ("dims", "count", "_build", "_witness")

    def __init__(self, dims: tuple[int, ...], count: int, build):
        self.dims = dims
        self.count = count
        self._build = build  # () -> the witness
        self._witness = None

    @property
    def witness(self) -> dict:
        if self._witness is None:
            self._witness = self._build()
        return self._witness


class SubrepClasses(Mapping):
    """The read-only result of subrep_classes: dimension vector -> SubrepClass.

    It holds each vector's count and the signature groups, per inner
    dimensions in the order of the search, and shares the rest with the
    rep.  A vector's SubrepClass is built when it is read, from the first
    group of its inner dimensions whose sink bounds it contains: the group
    that first met it.
    """

    __slots__ = ("_counts", "_groups", "_quiver", "_field", "_dims", "_mats")

    def __init__(self, counts: dict, groups: dict, rep: QuiverRep):
        self._counts = counts  # dims -> number of subreps
        self._groups = groups  # inner dims -> [(sink bound dims, prefix, L, Ubar)], see _witness
        # the rep's parts, not the rep: a reference back to the rep would make a cycle that
        # keeps both alive until the next garbage collection
        self._quiver, self._field, self._dims, self._mats = rep.quiver, rep.field, rep.dims, rep.mats

    def __len__(self):
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts)

    def __contains__(self, dims):
        return dims in self._counts

    def __getitem__(self, dims) -> SubrepClass:
        count = self._counts[dims]
        vertices = self._quiver.vertices
        order, sinks, _ = self._quiver.subrep_plan
        slots = [vertices.index(s) for s in sinks]
        groups = self._groups[tuple(dims[vertices.index(v)] for v in order)]
        choice = next(rest for los, *rest in groups if all(lo <= dims[i] for lo, i in zip(los, slots)))
        return SubrepClass(dims, count, partial(self._witness, dims, *choice))

    def _witness(self, dims, prefix, lower, ubar) -> dict:
        """The lifted inner choices of a group, each sink's image extended to its dimension in dims."""
        f, n_at, vertices = self._field, self._dims, self._quiver.vertices
        order, sinks, into = self._quiver.subrep_plan
        witness = {v: _lift(f, lo, ub, n_at.get(v, 0)) for v, lo, ub in prefix}
        if order:
            last = order[-1]
            witness[last] = _lift(f, lower, ubar, n_at.get(last, 0))
        for s in sinks:
            n = n_at.get(s, 0)
            bound = ()
            if n and s in into:
                mat = self._mats[into[s][1][0]]
                bound = span(f, [mat_apply(f, mat, row) for row in witness[last]])
            witness[s] = extend_to_dim(f, bound, dims[vertices.index(s)], n)
        return witness


def _check_guard(rep: QuiverRep):
    """Refuse, before it starts, a search that the bounds do not cover.

    MAX_TOTAL_DIM bounds the dimension vectors, and MAX_SUBSPACES, counted
    from q, the subspaces at each inner vertex.  q itself is not bounded
    here: whoever built the field sized it (bounded_field).
    """
    if rep.field is QZETA:
        raise ResourceLimitError("subrepresentation search runs over finite fields")
    total = rep.total_dim()
    if total > MAX_TOTAL_DIM:
        raise ResourceLimitError(f"total dimension {total} exceeds {MAX_TOTAL_DIM}")
    q = rep.field.q
    for v in rep.quiver.subrep_plan.order:
        count = _subspace_count(rep.dims.get(v, 0), q)
        if count > MAX_SUBSPACES:
            raise ResourceLimitError(
                f"{v} has {count} subspaces over {rep.field.label()}; the search enumerates at most {MAX_SUBSPACES}"
            )


@lru_cache(maxsize=None)
def _subspace_count(n: int, q: int) -> int:
    """The number of subspaces of F_q^n."""
    return sum(gaussian_binomial(n, d, q) for d in range(n + 1))


def _expansion(quiver: QuiverWithRelations, q: int, sink_dims, inner_dims, los) -> tuple:
    """The dimension vectors of a signature, the last sink varying fastest, and their sink choices.

    A sink of dimension n with a bound of dimension lo has
    gaussian_binomial(n - lo, m - lo, q) subspaces of each dimension m >= lo
    containing the bound.  The vectors are interned in quiver._intern.  Two
    parallel tuples keep the table smaller than one of pairs.
    """
    order, sinks, _ = quiver.subrep_plan
    inner_at = dict(zip(order, inner_dims))
    sink_at = dict(zip(sinks, zip(sink_dims, los)))
    rows = [((), 1)]
    for v in quiver.vertices:
        if v in inner_at:
            m = (inner_at[v],)
            rows = [(key + m, count) for key, count in rows]
        else:
            n, lo = sink_at[v]
            rows = [(key + (m,), count * gaussian_binomial(n - lo, m - lo, q)) for key, count in rows for m in range(lo, n + 1)]
    pool = quiver._intern
    return tuple(pool.setdefault(key, key) for key, _ in rows), tuple(count for _, count in rows)


def _place(row, cols, n: int) -> list[int]:
    """The vector of F^n with row's entries at cols and 0 elsewhere."""
    v = [0] * n
    for x, c in zip(row, cols):
        v[c] = x
    return v


def _lift(field: GF, lower, ubar, n: int):
    """The RREF of lower + lift(Ubar) in F^n: Ubar's rows are placed at lower's free columns."""
    free = quotient_data(lower, n)
    return span(field, list(lower) + [_place(row, free, n) for row in ubar])


def _induced(field: GF, mat, free, bound):
    """The map V/L -> W/B that mat induces, as rows on L's free columns.

    B is an RREF subspace of W containing mat L; the columns are reduced
    against it.
    """
    induced = [[row[c] for c in free] for row in mat]
    if bound:
        free_b = quotient_data(bound, len(mat))
        induced = list(zip(*(project_to_quotient(field, bound, free_b, col) for col in zip(*induced))))
    return induced


def _lines(field: GF, basis):
    """Each line in the span of an RREF basis, as its one-row RREF.

    A line's first nonzero entry sits at some pivot, scaled to 1: its
    vector is that pivot's row plus any combination of the later rows,
    which vanish at and before that pivot.
    """
    add, mul = field.add, field.mul
    for i, row in enumerate(basis):
        later = basis[i + 1 :]
        for coeffs in product(range(field.q), repeat=len(later)):
            v = row
            for c, other in zip(coeffs, later):
                if c:
                    v = tuple(add[x][mul[c][y]] for x, y in zip(v, other))
            yield v


def _subspaces_within(field: GF, basis):
    """Each subspace of the span of an RREF basis, as its RREF.

    It is s . basis for a subspace s of F^k, k = len(basis), in its RREF:
    row i of the product has a 1 at the basis pivot where row i of s has
    its pivot, nothing before it, and zeros at every other basis pivot,
    because s has zeros at its other pivots.
    """
    cols = list(zip(*basis))
    for s in subspaces_of(field, len(basis)):
        yield tuple(mat_apply(field, cols, row) for row in s)


def _hyperplanes_over(field: GF, sub, n: int):
    """Each hyperplane of F^n containing the RREF subspace sub, as its RREF basis.

    It is the kernel of a functional phi vanishing on sub.  Scaled so that
    its last nonzero entry, at t, is 1, phi gives the RREF rows
    e_c - phi_c e_t for c < t and e_c for c > t.
    """
    neg, mul, inv = field.neg, field.mul, field.inv
    for phi in _lines(field, kernel(field, sub, n)):
        t = max(c for c in range(n) if phi[c])
        scale = mul[inv[phi[t]]]
        rows = []
        for c in range(n):
            if c != t:
                row = [0] * n
                row[c] = 1
                if c < t:
                    row[t] = neg[scale[phi[c]]]
                rows.append(tuple(row))
        yield tuple(rows)


def _tally(field: GF, n: int, exceptions: dict, generic, walk) -> dict:
    """key -> [count, first subspace] over the subspaces of F^n.

    The keys come in the order of their first subspaces in subspaces_of, so
    as a walk through it would meet them.  exceptions maps some subspaces to
    their keys.  Every other subspace of dimension d has the key generic[d]:
    they number gaussian_binomial(n, d, q) minus the exceptions of that
    dimension, and the first of them is the first non-exception of the
    d-block of subspaces_of.  A dimension d with generic[d] None has no
    closed form and no exception: walk(u) keys each of its subspaces.
    """
    subs = subspaces_of(field, n)
    count: dict = {}
    first: dict = {}  # key -> position of its first subspace
    excluded = [0] * (n + 1)
    if exceptions:
        at = subspace_index(field, n)
        for u, key in exceptions.items():
            pos = at[u]
            count[key] = count.get(key, 0) + 1
            if first.get(key, pos) >= pos:
                first[key] = pos
            excluded[len(u)] += 1
    start = 0
    for d, key in enumerate(generic):
        end = start + gaussian_binomial(n, d, field.q)
        if key is None:
            for pos in range(start, end):
                walked = walk(subs[pos])
                count[walked] = count.get(walked, 0) + 1
                if first.get(walked, pos) >= pos:
                    first[walked] = pos
        elif end - start > excluded[d]:
            pos = start
            while subs[pos] in exceptions:
                pos += 1
            count[key] = count.get(key, 0) + end - start - excluded[d]
            if first.get(key, pos) >= pos:
                first[key] = pos
        start = end
    # only the exceptions enter out of order
    return {key: [count[key], subs[first[key]]] for key in (sorted(first, key=first.get) if exceptions else first)}


def subrep_classes(rep: QuiverRep) -> SubrepClasses:
    """All subrepresentation dimension vectors with counts and witnesses.

    The result is a read-only mapping, searched on the first call and
    cached on rep, so rep must not be mutated after it is built; every
    later call for rep returns the same object.  subrep_classes,
    all_subreps, is_stable and hn_filtration thus search a rep once.

    A subrepresentation is a subspace at each inner vertex (those with
    arrows out), each containing the images of the earlier ones, and at
    each sink a subspace containing the images into it.  The plan
    (SubrepPlan, cached per quiver) makes every vertex fed from one source
    and every sink fed by one arrow M_j from the last inner vertex.  Once
    the inner vertices are chosen the sinks are independent: a sink of
    dimension n with lower bound of dimension lo admits gaussian_binomial(n
    - lo, m - lo, q) subspaces of each dimension m >= lo.  So each inner
    choice reduces to a signature (inner dimensions, sink bound
    dimensions); choices are counted per signature, and each signature's
    sink product is expanded once, after the search, from a table that the
    quiver keeps per field and sink dimensions (_expansion), so later
    searches reuse it.  hn_filtration does not search the last quotient of
    a filtration when the classes already searched decide it.  The result
    keeps the order in which a walk choice by choice, the last sink varying
    fastest, would first meet each dimension vector.  Witnesses are lazy
    (see SubrepClass).  _check_guard bounds the work over any field: the total
    dimension and the subspaces at each inner vertex.

    The search counts subspace choices per dimension instead of walking
    them.  At an inner vertex of dimension n with lower bound L the choices
    are the u = L + lift(Ubar) for the subspaces Ubar of V/L, of dimension
    n' = n - dim L, in the order of subspaces_of.  All that the later
    vertices see of u is a key: its dimension and the bounds it puts on
    them.  _tally counts the Ubar per key, each key with its first Ubar,
    and the search goes on once per key, from that first Ubar and with the
    count as a multiplicity.  That is exact, and it keeps both the order in
    which keys are first met and the first witness.  Where n' <= 1 each
    dimension has one subspace, and the search takes it directly.

    At an earlier inner vertex the bounds of u are Phi(u), its images at
    the inner vertices that it feeds, and Phi(u) lies between Phi(L) and
    Phi(V).  When Phi(V) is at most one dimension larger than Phi(L),
    Phi(u) = Phi(L) exactly when Ubar lies in K, the kernel of the maps
    V/L -> W/Phi(L) that the arrows induce, and Phi(u) = Phi(V) otherwise.
    The subspaces of K are then the exceptions, and every other Ubar of a
    dimension shares one key.  Otherwise each Ubar is walked, its images
    built along RREF prefixes (the first rows of a canonical RREF basis are
    again one), each prefix image kept and reused by its children.

    At the last inner vertex the key of U is (dim Ubar, its sink bound
    ranks).  The sink bound of U at j is M_j U, and

        rank M_j U = dim B_j + dim Ubar - dim(Ubar meet K_j),

    where B_j = M_j L and K_j, of dimension k, is the kernel of the map
    V/L -> W_j/B_j that M_j induces: M_j U = B_j + M_j lift(Ubar), and
    M_j lift(Ubar) adds to B_j exactly Ubar's image under the induced map.
    For d = dim Ubar in {0, 1, n'-1, n'} the meet has dimension
    max(0, d + k - n'), except on the lines inside K_j (meet 1, not 0) and
    the hyperplanes containing K_j (meet k, not k - 1), when 0 < k < n':
    for d = 0 the meet is 0 and for d = n' it is K_j, a line meets K_j in
    0 or 1 dimensions, and a hyperplane H meets it in k - 1 or, when K_j
    lies in H, k, since dim(H + K_j) <= n'.  With k = 0 or n' there is no
    exception.  So per distinct L the sink ranks are those exceptions over
    one tuple per dimension; only the dimensions 2 <= d <= n' - 2, which
    need n' >= 4, are walked, the meet read off extension_rank against
    K_j.  The earlier choices are counted per (their dimensions, L), and
    each such pair replays L's tally, in the order of its first choice.  U
    is built only for a signature's first leaf, whose choice becomes the
    witness.
    """
    return rep._subrep_classes


def _search_subreps(rep: QuiverRep) -> SubrepClasses:
    """The search behind subrep_classes, run once per rep."""
    _check_guard(rep)
    order, sinks, into = rep.quiver.subrep_plan
    f = rep.field
    dims = rep.dims
    # the maps into each vertex of positive dimension; the others keep bound ()
    maps = {v: [rep.mats[label] for label in labels] for v, (_, labels) in into.items() if dims.get(v, 0)}
    fed = [(i, maps[s][0]) for i, s in enumerate(sinks) if s in maps]
    # per earlier inner vertex: the inner vertices of positive dimension it feeds
    feeds = {v: [w for w in order if w in maps and into[w][0] == v] for v in order[:-1]}
    last = order[-1] if order else None
    n_last = dims.get(last, 0)

    def choices(v, lower):
        """(dim u, bounds of u at feeds[v]) -> [choices, first Ubar] over the u above lower."""
        n = dims.get(v, 0)
        free = quotient_data(lower, n)
        n1, low = len(free), len(lower)
        targets = [maps[w] for w in feeds[v]]
        at_lower = ((),) * len(targets)
        if lower:
            at_lower = tuple(span(f, [mat_apply(f, m, row) for m in ms for row in lower]) for ms in targets)
        images = {(): at_lower}  # Ubar -> its bounds, built along RREF prefixes

        def image(ubar):
            img = images.get(ubar)
            if img is None:
                vec = _place(ubar[-1], free, n)
                img = tuple(
                    b if len(b) == len(ms[0]) else span(f, b + tuple(mat_apply(f, m, vec) for m in ms))
                    for b, ms in zip(image(ubar[:-1]), targets)
                )
                images[ubar] = img
            return img

        if n1 < 2:  # one subspace per dimension
            return {(low + len(u), image(u)): [1, u] for u in subspaces_of(f, n1)}
        at_all = tuple(span(f, [col for m in ms for col in zip(*m)]) for ms in targets)
        growth = sum(map(len, at_all)) - sum(map(len, at_lower))
        if growth > 1:
            return _tally(f, n1, {}, [None] * (n1 + 1), lambda ubar: (low + len(ubar), image(ubar)))
        exceptions = {}
        if growth:
            rows = [row for ms, b in zip(targets, at_lower) for m in ms for row in _induced(f, m, free, b)]
            exceptions = {u: (low + len(u), at_lower) for u in _subspaces_within(f, kernel(f, rows, n1))}
        return _tally(f, n1, exceptions, [(low + d, at_all) for d in range(n1 + 1)], None)

    def histogram(lower):
        """(dim Ubar, sink ranks) -> [leaves, first Ubar] over the subspaces Ubar of V/lower."""
        free = quotient_data(lower, n_last)
        n1 = len(free)
        generic = [[0] * len(sinks) for _ in range(n1 + 1)]
        exceptions: dict = {}  # Ubar -> {sink index: rank}
        middle = []
        for i, mat in fed:
            b = span(f, [mat_apply(f, mat, row) for row in lower]) if lower else ()
            induced = _induced(f, mat, free, b)
            if n1 < 2:  # rank 0 or 1, no exception
                k, kern = n1 - any(map(any, induced)), None
            else:
                kern = kernel(f, induced, n1)
                k = len(kern)
            r = len(b)
            for d in range(n1 + 1):
                generic[d][i] = r + d - max(0, d + k - n1)
            if 0 < k < n1:
                for line in _lines(f, kern):
                    exceptions.setdefault((line,), {})[i] = r
                if n1 > 2:
                    for plane in _hyperplanes_over(f, kern, n1):
                        exceptions.setdefault(plane, {})[i] = r + n1 - 1 - k
                if n1 > 3:
                    middle.append((i, r, kern, k))
        generic = [tuple(g) for g in generic]
        if n1 < 2:  # one subspace per dimension
            return {(len(u), generic[len(u)]): [1, u] for u in subspaces_of(f, n1)}
        keys = {}
        for u, over in exceptions.items():
            t = list(generic[len(u)])
            for i, rank in over.items():
                t[i] = rank
            keys[u] = len(u), tuple(t)

        def walk(u):
            t = list(generic[len(u)])
            for i, r, kern, k in middle:
                t[i] = r + extension_rank(f, kern, u) - k
            return len(u), tuple(t)

        closed = [None if middle and 1 < d < n1 - 1 else (d, generic[d]) for d in range(n1 + 1)]
        return _tally(f, n1, keys, closed, walk)

    # (earlier inner dimensions, lower bound at the last) -> [choices, first choice]
    lowers: dict = {}

    def rec(idx, prefix, inner_dims, bounds, mult):
        """Walk the keys at order[idx] and on; prefix holds (v, L, Ubar) per earlier vertex."""
        v = order[idx]
        lower = bounds.get(v, ())
        if idx == len(order) - 1:
            key = (inner_dims, lower)
            entry = lowers.get(key)
            if entry is None:
                lowers[key] = [mult, prefix]
            else:
                entry[0] += mult
            return
        for (d, images), (count, ubar) in choices(v, lower).items():
            below = bounds | dict(zip(feeds[v], images))
            rec(idx + 1, prefix + ((v, lower, ubar),), inner_dims + (d,), below, mult * count)

    # signature -> [inner choices, the representative's (prefix, L, Ubar)]
    groups: dict = {}
    if order:
        rec(0, (), (), {}, 1)
    else:
        groups[(), (0,) * len(sinks)] = [1, ((), (), ())]
    hists: dict = {}  # lower bound -> histogram
    for (inner_dims, lower), (times, prefix) in lowers.items():
        hist = hists.get(lower)
        if hist is None:
            hist = hists[lower] = histogram(lower)
        for (d, ranks), (leaves, ubar) in hist.items():
            sig = (inner_dims + (len(lower) + d,), ranks)
            group = groups.get(sig)
            if group is None:
                groups[sig] = [times * leaves, (prefix, lower, ubar)]
            else:
                group[0] += times * leaves

    pool, tables = rep.quiver._intern, rep.quiver._expansions
    sink_dims = tuple(dims.get(s, 0) for s in sinks)
    counts: dict[tuple[int, ...], int] = {}
    by_inner: dict = {}
    for (inner_dims, los), (leaves, (prefix, lower, ubar)) in groups.items():
        inner_dims, los = pool.setdefault(inner_dims, inner_dims), pool.setdefault(los, los)
        by_inner.setdefault(inner_dims, []).append((los, prefix, lower, ubar))
        table_key = (f.q, sink_dims, inner_dims, los)
        table = tables.get(table_key)
        if table is None:
            table = tables[table_key] = _expansion(rep.quiver, f.q, sink_dims, inner_dims, los)
        for key, count in zip(*table):
            counts[key] = counts.get(key, 0) + leaves * count
    counts = {key: pool.setdefault(count, count) for key, count in counts.items()}
    return SubrepClasses(counts, by_inner, rep)


def all_subreps(rep: QuiverRep) -> list[tuple[tuple[int, ...], int]]:
    """Public oracle: multiset of subrepresentation dimension vectors."""
    return sorted((dims, cls.count) for dims, cls in subrep_classes(rep).items())


def subrep_restriction(rep: QuiverRep, witness: dict) -> QuiverRep:
    """The subrepresentation spanned by a witness, in its own bases.

    The witness maps each vertex to a canonical RREF basis (as
    SubrepClass.witness builds it), so the coordinates of a vector of the
    subspace are its entries at the basis pivots.
    """
    f = rep.field
    dims = {v: len(witness.get(v, ())) for v in rep.quiver.vertices}
    mats = {}
    for a in rep.quiver.arrows:
        src_basis = witness.get(a.src, ())
        tgt_basis = witness.get(a.tgt, ())
        pivots = pivot_columns(tgt_basis)
        cols = []
        for v in src_basis:
            img = mat_apply(f, rep.mats[a.label], v)
            if not in_span(f, tgt_basis, img):
                raise ArithmeticError("witness is not arrow-invariant")
            cols.append(tuple(img[c] for c in pivots))
        mats[a.label] = tuple(
            tuple(col[i] for col in cols) for i in range(len(tgt_basis))
        )
    return QuiverRep(rep.quiver, f, dims, mats)


def quotient_rep(rep: QuiverRep, witness: dict) -> QuiverRep:
    """The quotient representation by a witness subrepresentation.

    The witness maps each vertex to a canonical RREF basis (as
    SubrepClass.witness builds it); quotient coordinates are the free
    columns of a vector reduced against it.
    """
    f = rep.field
    dims = {}
    proj = {}
    for v in rep.quiver.vertices:
        n = rep.dims.get(v, 0)
        sub = witness.get(v, ())
        free = quotient_data(sub, n)
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


_INFINITIES = (math.inf, -math.inf)


class SlopeKey(Fraction):
    """A finite slope as a stability key: a Fraction, compared faster.

    Against another SlopeKey the comparisons cross-multiply the integer
    numerators and denominators (denominators are positive); against the
    float +-inf of an infinite slope the orderings answer from its sign;
    against anything else they are Fraction's.  The value, hash and str
    are the Fraction's.
    """

    __slots__ = ()

    def __eq__(a, b):
        if type(b) is SlopeKey:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__

    def __lt__(a, b):
        if type(b) is SlopeKey:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if type(b) is float and b in _INFINITIES:
            return b > 0
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        if type(b) is SlopeKey:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if type(b) is float and b in _INFINITIES:
            return b > 0
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        if type(b) is SlopeKey:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if type(b) is float and b in _INFINITIES:
            return b < 0
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        if type(b) is SlopeKey:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if type(b) is float and b in _INFINITIES:
            return b < 0
        return Fraction.__ge__(a, b)


@dataclass(frozen=True)
class StabilitySpec:
    """Comparator on K-classes: window phases or the case slope.

    key gives a PhaseKey in phase mode, and in slope mode a SlopeKey, or
    the float +-inf for an infinite slope.
    """

    lattice: CaseLattice
    mode: str  # "phase" | "slope"
    _key_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("phase", "slope"):
            raise ValueError("mode must be 'phase' or 'slope'")

    def key(self, cls):
        k = self._key_cache.get(cls)
        if k is None:
            if self.mode == "phase":
                k = phase_key(self.lattice, cls)
            else:
                mu = slope_mu(self.lattice, cls)
                k = SlopeKey(mu.numerator, mu.denominator) if type(mu) is Fraction else mu
            self._key_cache[cls] = k
        return k


def default_spec(wtype: WeightedType) -> StabilitySpec:
    """Phase order where the charge image is a strict sector, else slope.

    On the (2,-2) quivers Z vanishes on nonzero effective classes, such as
    (1,0,1,0) = C(1) + PsiO(p1) on (3,1;6), so Z is not a stability
    function on rep(Q) there and phase order is undefined on those
    classes (ZeroChargeError).  Their verdicts use the weak slope order of
    slope_mu, with its +-inf conventions: a class of point weight zero has
    slope +inf.  The two orders can differ: over F_5 on (3,1;6), the rep
    C(1) -> C(0) with map 1, of class (1,1,0,0), is semistable_only in
    slope order (C(0) and the total both have slope +inf) and stable in
    phase order (phases 5/3 < 11/6).
    """
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
    ok: bool = False


def is_stable(rep: QuiverRep, spec: StabilitySpec) -> Verdict:
    """Compare every proper nonzero subrepresentation class with the total.

    ok is True exactly when the status is "stable".  In the (3,-1) and
    (2,-2) cases, whose default is the slope order, the
    minimal-imaginary-part shortcut is also evaluated, in either mode,
    when the total has one Im-unit (hearts.im_units); shortcut_agrees says
    whether it matches the exhaustive verdict, and is None where it does
    not apply.
    """
    total = rep.kclass()
    key_e = spec.key(total)
    classes = subrep_classes(rep)
    status = "stable"
    witness = None
    zero = tuple(0 for _ in total)
    checked = 0
    semistable_hit = None
    for dims in classes:
        if dims == zero or dims == total:
            continue
        checked += 1
        k = spec.key(dims)
        if k < key_e:
            continue
        if k == key_e:
            if semistable_hit is None:
                semistable_hit = dims
        else:
            status, witness = "unstable", dims
            break
    if status != "unstable" and semistable_hit is not None:
        status, witness = "semistable_only", semistable_hit
    shortcut = _imaginary_shortcut(rep, spec, classes, key_e, status)
    return Verdict(status, witness, rep.field.label(), spec.mode, checked, shortcut, status == "stable")


def _imaginary_shortcut(rep, spec, classes, key_e, status):
    """The cheap criterion: an object at minimal positive rotated-Im is
    stable iff it receives nothing from Im-zero classes (evaluated as: no
    proper subrep class with Im-units 0 and phase >= the total's)."""
    lat = spec.lattice
    if lat.case not in ((3, -1), (2, -2)):
        return None
    total = rep.kclass()
    if im_units(lat, total) != 1:
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


def _last_factor(classes, kclass, dims, key):
    """(class, key) of the quotient by a subrep of class dims when it is the last HN factor, else None.

    See hn_filtration.
    """
    rest = tuple(map(operator.sub, kclass, dims))
    try:
        rest_key = key(rest)
        for t in classes:
            if t == dims or t == kclass or not all(map(operator.ge, t, dims)):
                continue
            if key(tuple(map(operator.sub, t, dims))) > rest_key:
                return None
    except ArithmeticError:
        return None
    return rest, rest_key


@dataclass
class HNResult:
    factors: list  # list of (dimvec, key)
    field_label: str
    mode: str


def hn_filtration(rep: QuiverRep, spec: StabilitySpec) -> HNResult:
    """Greedy maximal-destabilizer filtration with verified subquotients.

    Each step takes the subrepresentation of maximal key and, among those,
    of maximal total dimension.  That destabilizer is unique, so more than
    one class left, or one class of more than one subrepresentation, raises
    HNTieError naming the least tied dimension vector.  The key reported
    for a factor compares equal to the key of its class.

    The quotient left by a step is the last factor, and is not searched,
    when the classes already searched say so.  Let sub, of class D, be
    extracted from current, of class E.  If no class T of current with
    T >= D componentwise and T not in {D, E} has key(T - D) > key(E - D),
    the last factor is (E - D, key(E - D)).  Proof: every proper nonzero
    subrep of current/sub is T/sub for a subrep T of current strictly
    between sub and current, so its class T - D comes from such a T.  None
    of them has a larger key, so the quotient's own step would pick the
    quotient itself: it has the maximal key, it is the only class of
    maximal total dimension, and it counts one subrep.  That step ends the
    filtration with the same factor and raises no HNTieError.  The proof
    uses no property of the keys, so the rule holds for any spec.  A key
    that raises ArithmeticError leaves the step undecided: T - D need not
    be a class of the quotient, so the quotient is built and searched.
    """
    factors = []
    current = rep
    zero_total = tuple(0 for _ in rep.quiver.vertices)
    key = spec.key
    while (kclass := current.kclass()) != zero_total:
        classes = subrep_classes(current)
        # one pass: the first maximal key and every class that ties with it
        best_key, tied = None, []
        for dims in classes:
            if dims == zero_total:
                continue
            k = key(dims)
            if best_key is not None:
                if k < best_key:
                    continue
                if k == best_key:
                    tied.append(dims)
                    continue
            best_key, tied = k, [dims]
        top = max(map(sum, tied))
        tied = [dims for dims in tied if sum(dims) == top]
        best_dims = min(tied)
        chosen = classes[best_dims]
        if len(tied) > 1 or chosen.count > 1:
            raise HNTieError(f"non-unique maximal destabilizer at {best_dims}")
        if best_dims == kclass:
            factors.append((best_dims, best_key))
            break
        sub = subrep_restriction(current, chosen.witness)
        # the extracted factor must itself be semistable
        sub_verdict = is_stable(sub, spec)
        if sub_verdict.status == "unstable":
            raise HNTieError("extracted factor is not semistable")
        factors.append((best_dims, best_key))
        rest = _last_factor(classes, kclass, best_dims, key)
        if rest is not None:
            factors.append(rest)
            break
        current = quotient_rep(current, chosen.witness)
    # strictly decreasing keys and telescoping classes
    for (d1, k1), (d2, k2) in zip(factors, factors[1:]):
        if not (k2 < k1):
            raise HNTieError("phases along the filtration are not strictly decreasing")
    total = tuple(sum(d[i] for d, _ in factors) for i in range(len(rep.quiver.vertices)))
    if total != rep.kclass():
        raise HNTieError("filtration does not telescope to the total class")
    return HNResult(factors, rep.field.label(), spec.mode)


# ---------------------------------------------------------------------------
# consistency with the Ext engine, random representations
# ---------------------------------------------------------------------------


def ext_quiver_consistency(wtype: WeightedType) -> bool:
    """Arrow and relation data must equal the computed Ext dimensions."""
    from .extcalc import ext_cc, ext_cm, ext_cm_closed_form, yoneda_relations

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
    for outer, _ in q.relations:
        per_point[outer] = per_point.get(outer, 0) + 1
    for j, p in enumerate(pts):
        got = per_point.get(f"pi{j + 1}", 0)
        if got != expected_rel:
            return False
    # coefficient patterns must match the chain-level computation
    terms_of = dict(q.relations)
    data = yoneda_relations(wtype)
    for j, pat in enumerate(data.point_patterns):
        coeffs = {inner: c for c, inner in terms_of[f"pi{j + 1}"]}
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
            rels = sum(1 for outer, _ in q.relations if outer == f"pi{j + 1}" and cv == "C(1)")
            if chi != -arrows + rels:
                return False
    return True


def random_rep(quiver: QuiverWithRelations, p: int, rng: random.Random, max_dim: int = 3, inner_budget: int = 5, total_budget: int = MAX_TOTAL_DIM) -> QuiverRep:
    """A random finite-field representation satisfying the relations.

    The outer arrow of each relation is drawn after the inner ones, row by
    row among the functionals that vanish on the image of the relation
    sum, so the output is always a valid representation.
    """
    gf = field_for(p, quiver.conductor)
    inner = [v for v in quiver.vertices if quiver.arrows_from(v)]
    while True:
        dims = {v: rng.randint(0, max_dim) for v in quiver.vertices}
        if sum(dims[v] for v in inner) <= inner_budget and sum(dims.values()) <= total_budget:
            break
    terms_of = dict(quiver.relations)
    mats = {}
    # stable sort: arrows that are the outer arrow of a relation come last
    for a in sorted(quiver.arrows, key=lambda a: a.label in terms_of):
        img = span(gf, zip(*relation_sum(quiver, gf, mats, terms_of[a.label]))) if a.label in terms_of else ()
        free = quotient_data(img, dims[a.src])
        rows = []
        for _ in range(dims[a.tgt]):
            row = [0] * dims[a.src]
            for c in free:
                row[c] = rng.randrange(gf.q)
            rows.append(_kill_subspace(gf, row, img))
        mats[a.label] = tuple(rows)
    rep = QuiverRep(quiver, gf, dims, mats)
    if not rep.validate():
        raise ArithmeticError("random representation violates relations")
    return rep


def _kill_subspace(field: GF, row, basis):
    """Adjust a functional that is zero at the pivots of an RREF basis so it vanishes on it.

    Setting each pivot entry to minus the row's pairing with that basis row
    suffices, because RREF rows are zero at each other's pivots.
    """
    row = list(row)
    for c, val in zip(pivot_columns(basis), mat_apply(field, basis, row)):
        row[c] = field.neg[val]
    if any(mat_apply(field, basis, row)):
        raise ArithmeticError("could not annihilate subspace")
    return tuple(row)
