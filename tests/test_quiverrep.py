import dataclasses
import json
import math
import operator
import random
import re
import zlib
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest

from gepnerstab.gfield import (
    GF,
    extend_to_dim,
    extension_rank,
    field_for,
    gaussian_binomial,
    in_span,
    mat_apply,
    span,
    subspaces_of,
    superspaces,
)
from gepnerstab import quiverrep
from gepnerstab.hearts import lattice_for, slope_mu
from gepnerstab.mfcore import WeightedType
from gepnerstab.quiverrep import (
    Arrow,
    HNTieError,
    QuiverRep,
    QuiverWithRelations,
    ResourceLimitError,
    SlopeKey,
    StabilitySpec,
    all_subreps,
    default_spec,
    ext_quiver_consistency,
    heart_quiver,
    hn_filtration,
    is_good_prime,
    is_stable,
    named_object,
    quotient_rep,
    random_rep,
    reduce_rep,
    subrep_classes,
    subrep_restriction,
)
from gepnerstab.quiverrep import _tally

T113 = WeightedType((1, 1), 3)
T214 = WeightedType((2, 1), 4)
T326 = WeightedType((3, 2), 6)
T114 = WeightedType((1, 1), 4)
T316 = WeightedType((3, 1), 6)
N2_TYPES = [T113, T214, T326, T114, T316]


# -- finite fields -------------------------------------------------------------


def test_gf_basic():
    f = GF(5, 2)
    assert f.q == 25
    for a in range(1, f.q):
        assert f.mul[a][f.inv[a]] == 1
    # distributivity spot check
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rng.randrange(25) for _ in range(3))
        assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]


def test_gf_rejects_non_prime_characteristic():
    for p in (49, 4, 9, 1, 0, -5):
        with pytest.raises(ValueError):
            GF(p)
        with pytest.raises(ValueError):
            field_for(p, 8)
        with pytest.raises(ValueError):
            is_good_prime(T113, p)


def test_field_for_one_instance_per_field():
    # conductors 8 and 6 both need F_25 at p = 5; conductor 4 needs only F_5
    assert field_for(5, 8) is field_for(5, 6)
    assert field_for(5, 8).label() == "F_25 (= F_5^2)"
    assert field_for(5, 4) is field_for(5, 1)
    assert field_for(5, 4) is not field_for(5, 8)
    assert field_for(7, 6) is not field_for(5, 6)


def test_gf_refuses_degree_above_three():
    # the no-root test proves irreducibility only up to degree 3
    assert GF(2, 3).q == 8
    for k in (4, 5):
        with pytest.raises(ValueError, match=f"k <= 3, not k = {k}"):
            GF(2, k)


def test_reduce_rep_refuses_large_field_before_building_it():
    obj = named_object(T114, "C2m1")  # conductor 8: F_127 needs k = 2
    with pytest.raises(ResourceLimitError, match="field size 16129 exceeds 130"):
        reduce_rep(obj, 127, max_q=130)
    with pytest.raises(ResourceLimitError, match="characteristic 131"):
        reduce_rep(obj, 131, max_q=130)
    assert reduce_rep(obj, 11, max_q=130).field.q == 121


def test_gf_roots_of_unity():
    f = field_for(5, 8)
    assert f.q == 25
    w = f.root_of_unity(8)
    x = w
    for k in range(1, 8):
        assert x != 1
        x = f.mul[x][w]
    assert x == 1


def test_subspace_counts():
    f = GF(5, 1)
    subs = subspaces_of(f, 2)
    assert len(subs) == 2 + gaussian_binomial(2, 1, 5)  # 0, lines, plane
    assert len(subspaces_of(f, 3)) == 2 + 2 * gaussian_binomial(3, 1, 5)


@pytest.mark.parametrize("k", [1, 2])
def test_extension_rank_matches_span(k):
    """The leaf rank equals the dimension of the full span, for 0 to 3 extra vectors."""
    f = GF(5, k)
    rng = random.Random(k)
    for basis in subspaces_of(f, 3)[:: 7 * k]:
        for count in range(4):
            # entries drawn from {0, 1} too, so extra vectors often fall in the span
            vecs = [tuple(rng.choice((0, 1, rng.randrange(f.q))) for _ in range(3)) for _ in range(count)]
            assert extension_rank(f, basis, vecs) == len(span(f, list(basis) + vecs))


# -- quiver shapes -------------------------------------------------------------


def test_heart_quiver_shapes():
    q = heart_quiver(T113)
    assert q.vertices[0] == "C(0)" and len(q.vertices) == 4
    assert len(q.arrows) == 3 and not q.relations
    q4 = heart_quiver(T114)
    labels = [a.label for a in q4.arrows]
    assert labels[:2] == ["X1", "X2"]
    assert len(q4.relations) == 4
    q6 = heart_quiver(T316)
    labels6 = [a.label for a in q6.arrows]
    assert labels6[0] == "X2" and "X1" not in labels6
    assert not q6.relations  # no relation in the d = 6 case
    with pytest.raises(ValueError):
        heart_quiver(WeightedType((1, 1, 1), 3))


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_ext_quiver_consistency(t):
    assert ext_quiver_consistency(t)


# -- named objects -------------------------------------------------------------


def test_named_objects_validate_and_match_kclasses():
    for t in N2_TYPES:
        lat = lattice_for(t)
        names = ["C0", "PsiOx", "tauPsiOx"]
        names += ["C1m1"] if t.epsilon == -1 else ["C1", "C2m1"]
        for name in names:
            rep = named_object(t, name)
            assert rep.validate()
    # K-class consistency with the lattice
    rep = named_object(T114, "C2m1")
    assert rep.kclass() == (2, 3, 1, 1, 1, 1)
    assert rep.kclass() == tuple(-x for x in lattice_for(T114).class_of_c(2))
    rep6 = named_object(T316, "C2m1")
    assert rep6.kclass() == (1, 1, 1, 1)
    rep_tau = named_object(T113, "tauPsiOx", point_index=2)
    assert rep_tau.kclass() == (1, 0, 1, 0)


def test_c1m1_shapes():
    # source dimension is #X - 1 in each star case
    for t, expected in ((T113, 2), (T214, 1), (T326, 0)):
        rep = named_object(t, "C1m1")
        assert rep.dims["C(0)"] == expected
        assert all(rep.dims[f"PsiO(p{j + 1})"] == 1 for j in range(len(lattice_for(t).points)))


def test_named_object_errors():
    with pytest.raises(ValueError):
        named_object(T113, "C2m1")
    with pytest.raises(ValueError):
        named_object(T113, "C1")  # C(1) is a generator only for eps = -2
    with pytest.raises(ValueError):
        named_object(T113, "tauPsiOx", point_index=9)
    with pytest.raises(ValueError):
        named_object(T113, "bogus")


def test_c1m1_alias_on_two_step_quivers():
    # on eps = -2 types the object called C(1)[-1] is the C(1) simple
    for t in (T114, T316):
        alias = named_object(t, "C1m1")
        direct = named_object(t, "C1")
        assert alias.dims == direct.dims and alias.kclass() == direct.kclass()


# -- reduction ------------------------------------------------------------------


def test_good_primes():
    for t in N2_TYPES:
        for p in (5, 7, 11):
            assert is_good_prime(t, p)
        assert not is_good_prime(t, 2)


def test_reduce_rep_fields():
    assert reduce_rep(named_object(T114, "C2m1"), 5).field.q == 25
    assert reduce_rep(named_object(T114, "C2m1"), 7).field.q == 49
    assert reduce_rep(named_object(T316, "C2m1"), 5).field.q == 5
    assert reduce_rep(named_object(T326, "C1m1"), 5).field.q == 5
    assert reduce_rep(named_object(T113, "C1m1"), 7).field.q == 7


# -- subrepresentation oracle ----------------------------------------------------


def test_subreps_of_tau_psi():
    # three-element lattice: 0, the point, the whole
    red = reduce_rep(named_object(T113, "tauPsiOx"), 5)
    assert all_subreps(red) == [
        ((0, 0, 0, 0), 1),
        ((0, 1, 0, 0), 1),
        ((1, 1, 0, 0), 1),
    ]


def test_subreps_of_direct_sum_of_simples():
    # two isomorphic one-dimensional simples at one vertex: p + 3 subspaces
    q = heart_quiver(T113)
    f = field_for(5, q.conductor)
    dims = {v: 0 for v in q.vertices}
    dims["PsiO(p1)"] = 2
    mats = {a.label: tuple(tuple() for _ in range(dims[a.tgt])) for a in q.arrows}
    mats = {
        a.label: tuple(tuple(0 for _ in range(dims[a.src])) for _ in range(dims[a.tgt]))
        for a in q.arrows
    }
    rep = QuiverRep(q, f, dims, mats)
    subs = all_subreps(rep)
    total = sum(c for _, c in subs)
    assert total == f.q + 3


def test_subreps_of_zero_rep():
    q = heart_quiver(T113)
    f = field_for(5, q.conductor)
    rep = QuiverRep(q, f, {v: 0 for v in q.vertices}, {a.label: () for a in q.arrows})
    assert all_subreps(rep) == [((0, 0, 0, 0), 1)]


def _bruteforce_subreps(rep) -> dict:
    """Dimension vector -> count, over every tuple of subspaces closed under the arrows.

    The vertices with arrows out run over every tuple of their subspaces.
    Given those, the sinks are independent: each runs over every subspace
    containing the images of the arrows into it (listed by ``superspaces``
    once per image), so the sinks' product is counted, not walked.
    """
    q, f = rep.quiver, rep.field
    inner = [v for v in q.vertices if q.arrows_from(v)]
    sinks = [v for v in q.vertices if not q.arrows_from(v)]
    above: dict = {}  # (sink, image) -> {dimension: number of subspaces containing the image}
    out: dict = {}
    for combo in product(*(subspaces_of(f, rep.dims.get(v, 0)) for v in inner)):
        chosen = dict(zip(inner, combo))
        if not all(
            in_span(f, chosen[a.tgt], mat_apply(f, rep.mats[a.label], vec))
            for a in q.arrows
            if a.tgt in chosen
            for vec in chosen[a.src]
        ):
            continue
        per_sink = []
        for s in sinks:
            image = span(f, [mat_apply(f, rep.mats[a.label], vec) for a in q.arrows_into(s) for vec in chosen[a.src]])
            if (s, image) not in above:
                counts: dict = {}
                for w in superspaces(f, image, rep.dims.get(s, 0)):
                    assert all(in_span(f, w, x) for x in image)
                    counts[len(w)] = counts.get(len(w), 0) + 1
                above[s, image] = counts
            per_sink.append(above[s, image].items())
        for picks in product(*per_sink):
            chosen_dims = {v: len(u) for v, u in chosen.items()} | {s: m for s, (m, _) in zip(sinks, picks)}
            key = tuple(chosen_dims[v] for v in q.vertices)
            count = 1
            for _, c in picks:
                count *= c
            out[key] = out.get(key, 0) + count
    return out


def test_subrep_oracle_against_bruteforce():
    """Cross-check the aggregated enumeration against a naive one."""
    rng = random.Random(3)
    q = heart_quiver(T113)
    for _ in range(5):
        rep = random_rep(q, 5, rng, max_dim=2, inner_budget=2, total_budget=6)
        assert dict(all_subreps(rep)) == _bruteforce_subreps(rep)


def test_subrep_oracle_against_bruteforce_with_relations():
    """Same cross-check on the two-step quiver, where bounds chain."""
    rng = random.Random(23)
    q = heart_quiver(T114)
    for _ in range(3):
        rep = random_rep(q, 5, rng, max_dim=2, inner_budget=3, total_budget=7)
        if rep.total_dim() == 0:
            continue
        assert dict(all_subreps(rep)) == _bruteforce_subreps(rep)


def test_subrep_oracle_against_bruteforce_over_f121():
    """The search takes any field it is given; its work is bounded per vertex, not by q."""
    rep = _seeded(T113, 11, (2, 1, 2, 1))
    assert rep.field.q == 121 and rep.dims["C(0)"] == 2
    assert dict(all_subreps(rep)) == _bruteforce_subreps(rep)


@pytest.mark.parametrize(
    "pi1, pi2",
    [
        # pi1 zero: every image of the last row is already in the prefix's
        (((0, 0, 0), (0, 0, 0)), ((1, 2, 0), (0, 3, 4))),
        # pi1 of rank 1: images are nonzero but repeat the prefix's
        (((1, 2, 3), (2, 4, 1)), ((0, 1, 1), (1, 0, 4))),
        # pi1 kills the pivot row (1, 0, 0), pi2 the row (0, 1, 2)
        (((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 2, 4))),
    ],
    ids=["zero", "rank1", "pivot-row-kernel"],
)
def test_subrep_prefix_ranks_on_degenerate_maps(pi1, pi2):
    """Sink bound dimensions along RREF prefixes of length up to 3.

    With C(0) of dimension 3 a leaf's basis has up to three rows, so its
    bound extends a prefix image of two rows; the degenerate maps make the
    last row's image fall inside that prefix image.
    """
    q = heart_quiver(T214)
    f = field_for(5, q.conductor)
    assert f.q == 5
    rep = QuiverRep(q, f, {"C(0)": 3, "PsiO(p1)": 2, "PsiO(p2)": 2}, {"pi1": pi1, "pi2": pi2})
    assert rep.validate()
    assert dict(all_subreps(rep)) == _bruteforce_subreps(rep)
    for dims, cls in subrep_classes(rep).items():
        assert subrep_restriction(rep, cls.witness).dim_vector() == dims


def test_subrep_classes_refuses_two_source_target():
    q = QuiverWithRelations(
        wtype=T113,
        vertices=("A", "B", "C"),
        arrows=(Arrow("A", "C", "a"), Arrow("B", "C", "b")),
        relations=(),
        conductor=1,
    )
    f = field_for(5, 1)
    rep = QuiverRep(q, f, {"A": 1, "B": 1, "C": 1}, {"a": ((1,),), "b": ((1,),)})
    with pytest.raises(ResourceLimitError, match="fed from 2 vertices"):
        subrep_classes(rep)


# Three representations whose sink maps have every kind of kernel at the
# last inner vertex C(0).  Their classes must match the exhaustive count,
# every witness must be a subrepresentation of its class, and the class
# order and witnesses must stay those pinned in KERNEL_GOLDEN (recorded
# with the per-leaf rank enumeration that the kernel lookup replaced).
KERNEL_GOLDEN = Path(__file__).parent / "golden" / "subrep_kernel_cases.json"


def _rank(f, rows):
    return len(span(f, rows))


def _kernel_case_star_f25():
    """C(0) = F_25^3 feeding five sinks with kernels 0, a line, a plane, all of C(0), and the line again."""
    sinks = ("S1", "S2", "S3", "S4", "S5")
    q = QuiverWithRelations(
        wtype=T113,
        vertices=("C(0)",) + sinks,
        arrows=tuple(Arrow("C(0)", s, s.lower()) for s in sinks),
        relations=(),
        conductor=3,
    )
    f = field_for(5, 3)
    assert f.q == 25
    s2 = ((1, 0, 6), (0, 1, 19))
    # S5's rows span S2's: the two sinks share one kernel line
    s5 = (tuple(f.add[x][y] for x, y in zip(*s2)), tuple(f.mul[2][y] for y in s2[1]))
    mats = {"s1": ((1, 7, 0), (0, 1, 13), (2, 0, 1)), "s2": s2, "s3": ((3, 0, 17),), "s4": ((0, 0, 0),), "s5": s5}
    assert [_rank(f, m) for m in mats.values()] == [3, 2, 1, 0, 2]
    assert span(f, s5) == span(f, s2)
    dims = {"C(0)": 3, "S1": 3, "S2": 2, "S3": 1, "S4": 1, "S5": 2}
    return QuiverRep(q, f, dims, mats)


def _kernel_case_114_shared_bounds():
    """(1,1;4) over F_9 with X1 of rank 2 and X2 = lam X1.

    The bound at C(0) of a subspace U of C(1) is X1 U.  Each of the ten
    lines inside im X1 = span(e0, e1) is the bound of ten choices of U (its
    nine preimage lines and one plane), and pi1 tells those lines apart.
    """
    q = heart_quiver(T114)
    f = field_for(3, q.conductor)
    assert f.q == 9
    coeff = {inner: f.reduce_cyclo(c, q.conductor) for c, inner in dict(q.relations)["pi1"]}
    # X2 = lam X1 makes pi1's relation vanish, so pi1 may be nonzero on the bounds
    lam = f.mul[f.neg[coeff["X1"]]][f.inv[coeff["X2"]]]
    x1 = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    mats = {
        "X1": x1,
        "X2": tuple(tuple(f.mul[lam][x] for x in row) for row in x1),
        "pi1": ((1, 2, 0), (0, 0, 1)),  # kernel span((1, 1, 0)), inside im X1
        # the other point maps kill im X1, the image of every other relation sum
        "pi2": ((0, 0, 1),),
        "pi3": ((0, 0, 0),),
        "pi4": ((0, 0, 5),),
    }
    dims = {"C(1)": 3, "C(0)": 3, "PsiO(p1)": 2, "PsiO(p2)": 1, "PsiO(p3)": 1, "PsiO(p4)": 1}
    rep = QuiverRep(q, f, dims, mats)
    assert rep.validate()
    return rep


def _kernel_case_214_middle():
    """(2,1;4) over F_5 with C(0) = F_5^4, kernels a plane and a line: reaches the leaves of dimension 2."""
    q = heart_quiver(T214)
    f = field_for(5, q.conductor)
    mats = {"pi1": ((1, 2, 0, 3), (0, 1, 4, 1)), "pi2": ((1, 0, 0, 2), (0, 1, 0, 3), (0, 0, 1, 4))}
    assert [_rank(f, m) for m in mats.values()] == [2, 3]
    rep = QuiverRep(q, f, {"C(0)": 4, "PsiO(p1)": 2, "PsiO(p2)": 3}, mats)
    assert rep.validate()
    return rep


KERNEL_CASES = {
    "star-F25-five-kernels": _kernel_case_star_f25,
    "114-shared-bounds": _kernel_case_114_shared_bounds,
    "214-middle-dimension": _kernel_case_214_middle,
}


def _record_classes(rep) -> list:
    return [
        [list(dims), cls.count, {v: [list(row) for row in rows] for v, rows in cls.witness.items()}]
        for dims, cls in subrep_classes(rep).items()
    ]


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_subrep_kernel_cases(name):
    rep = KERNEL_CASES[name]()
    classes = subrep_classes(rep)
    assert {dims: cls.count for dims, cls in classes.items()} == _bruteforce_subreps(rep)
    for dims, cls in classes.items():
        sub = subrep_restriction(rep, cls.witness)
        assert sub.dim_vector() == dims and sub.validate()
    assert _record_classes(rep) == json.loads(KERNEL_GOLDEN.read_text())[name]


@pytest.mark.parametrize("p, k, n", [(3, 1, 3), (2, 2, 3), (5, 1, 2)])
def test_tally_matches_a_walk(p, k, n):
    """_tally equals a walk through subspaces_of that keys every subspace, first-met order included.

    Exceptions share keys with each other and with generic subspaces, and one
    exception is the first subspace of each block, so the first generic
    subspace lies past it.
    """
    f = GF(p, k)
    subs = subspaces_of(f, n)
    rng = random.Random(p * 100 + k * 10 + n)
    walked = 2 if n > 2 else None  # the dimension without a closed form

    def walk(u):
        return "w", sum(map(sum, u)) % 3

    generic = [None if d == walked else ("g", d % 2) for d in range(n + 1)]
    blocks = [[u for u in subs if len(u) == d] for d in range(n + 1)]
    exceptions = {}
    for d, block in enumerate(blocks):
        if d != walked and len(block) > 1:
            for u in [block[0]] + rng.sample(block, len(block) // 3):
                exceptions[u] = rng.choice([("e", 0), ("e", 1), ("g", d % 2)])
    expected: dict = {}
    for u in subs:
        key = exceptions.get(u) or (walk(u) if len(u) == walked else generic[len(u)])
        expected.setdefault(key, [0, u])[0] += 1
    assert _tally(f, n, exceptions, generic, walk) == expected
    assert list(_tally(f, n, exceptions, generic, walk)) == list(expected)


def _walk_subreps(rep) -> dict:
    """Dimension vector -> [count, witness], walking the inner choices one at a time.

    Each inner vertex, in subrep_plan order, runs through ``superspaces`` of
    the image of the choices before it.  Each full choice then expands the
    sinks, the last sink varying fastest, with the number of subspaces of
    each dimension above a sink's image.  The first choice to reach a
    dimension vector is its witness, each sink's image extended to its
    dimension.
    """
    q, f, dims = rep.quiver, rep.field, rep.dims
    order, sinks, _ = q.subrep_plan
    out: dict = {}

    def image(v, chosen):
        return span(f, [mat_apply(f, rep.mats[a.label], x) for a in q.arrows_into(v) for x in chosen.get(a.src, ())])

    def walk(chosen):
        if len(chosen) < len(order):
            v = order[len(chosen)]
            for u in superspaces(f, image(v, chosen), dims.get(v, 0)):
                walk(chosen | {v: u})
            return
        bounds = {s: image(s, chosen) for s in sinks}
        per_sink = [
            [(m, gaussian_binomial(dims.get(s, 0) - len(b), m - len(b), f.q)) for m in range(len(b), dims.get(s, 0) + 1)]
            for s, b in bounds.items()
        ]
        for picks in product(*per_sink):
            at = dict(zip(sinks, (m for m, _ in picks)))
            key = tuple(at[v] if v in at else len(chosen[v]) for v in q.vertices)
            entry = out.setdefault(key, [0, None])
            entry[0] += prod(c for _, c in picks)
            if entry[1] is None:
                entry[1] = chosen | {s: extend_to_dim(f, b, at[s], dims.get(s, 0)) for s, b in bounds.items()}

    walk({})
    return out


class _Dims(random.Random):
    """A Random whose first randint calls return the given dimensions, so random_rep draws only the maps."""

    def __init__(self, seed, dims):
        super().__init__(seed)
        self._dims = list(dims)

    def randint(self, a, b):
        return self._dims.pop(0) if self._dims else super().randint(a, b)


def _seeded(t, p, dims, seed=0):
    return random_rep(heart_quiver(t), p, _Dims(seed, dims), max_dim=5, inner_budget=12, total_budget=12)


def _growth_case(rank):
    """(3,1;6) over F_5 with C(1) = F_5^3 and X2 of the given rank: the image of C(1) grows by that much.

    At rank 1 the kernel of X2 is span(e0, e1), which holds the first line
    and the first plane of subspaces_of: the first choice of each dimension
    outside the kernel comes later in its block.
    """
    q = heart_quiver(T316)
    f = field_for(5, q.conductor)
    x2 = {
        0: ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        1: ((0, 0, 3), (0, 0, 1), (0, 0, 0)),
        2: ((1, 2, 3), (0, 1, 4), (1, 3, 2)),
        3: ((1, 2, 3), (0, 1, 4), (0, 0, 2)),
    }[rank]
    assert _rank(f, x2) == rank
    rng = random.Random(rank)
    pi = {label: tuple(tuple(rng.randrange(5) for _ in range(3)) for _ in range(2)) for label in ("pi1", "pi2")}
    return QuiverRep(q, f, {"C(1)": 3, "C(0)": 3, "PsiO(p1)": 2, "PsiO(p2)": 2}, {"X2": x2} | pi)


def _chain_case(p, k, dims, seed, **fixed):
    """A -> B -> C -> S, A feeding B by two arrows: B's lower bound is the image of A's choice.

    The maps are drawn from the seed, except those given in fixed.
    """
    arrows = (Arrow("A", "B", "a1"), Arrow("A", "B", "a2"), Arrow("B", "C", "b"), Arrow("C", "S", "s"))
    q = QuiverWithRelations(wtype=T113, vertices=("A", "B", "C", "S"), arrows=arrows, relations=(), conductor=1)
    f = GF(p, k)
    rng = random.Random(seed)
    dims = dict(zip(q.vertices, dims))
    mats = {a.label: tuple(tuple(rng.randrange(f.q) for _ in range(dims[a.src])) for _ in range(dims[a.tgt])) for a in arrows}
    return QuiverRep(q, f, dims, mats | fixed)


ORDER_CASES = {
    "C1-growth-0": lambda: _growth_case(0),
    "C1-growth-1": lambda: _growth_case(1),
    "C1-growth-2": lambda: _growth_case(2),
    "C1-growth-3": lambda: _growth_case(3),
    # C(0) = F_25 fed by X1 and X2: growth at most 1, with a kernel of codimension up to 2
    "114-F25-(3,1,0,1,1,3)": lambda: _seeded(T114, 5, (3, 1, 0, 1, 1, 3)),
    "114-F25-(2,3,1,1,1,2)": lambda: _seeded(T114, 5, (2, 3, 1, 1, 1, 2), seed=1),
    "214-F5^4": lambda: _seeded(T214, 5, (4, 2, 3)),
    # pi1 kills e0: the first line and the first plane of F_5^3 are exceptions
    "214-F5^3-kernel-e0": lambda: QuiverRep(
        heart_quiver(T214), GF(5), {"C(0)": 3, "PsiO(p1)": 2, "PsiO(p2)": 1}, {"pi1": ((0, 1, 0), (0, 0, 1)), "pi2": ((1, 2, 3),)}
    ),
    "326-F5^5": lambda: _seeded(T326, 5, (5, 2)),
    "chain-F5": lambda: _chain_case(5, 1, (2, 3, 3, 2), 1),
    "chain-F4": lambda: _chain_case(2, 2, (2, 3, 2, 1), 2),
    # B's bound span(e0) maps to a line of C = F_5^2, B itself onto C: growth 1 above a nonzero bound
    "chain-F5-growth-1": lambda: _chain_case(5, 1, (1, 3, 2, 1), 3, a1=((1,), (0,), (0,)), a2=((0,), (0,), (0,)), b=((1, 0, 3), (0, 1, 0))),
    # one quiver: the second rep has the first's signatures and reads their cached expansion tables
    "114-F25-same-shape": lambda: _on_one_quiver(T114, (5, 5), (2, 3, 1, 1, 1, 2), seeds=(2, 3)),
    # one quiver, the same signatures over F_5 and F_7: the tables must not be shared across fields
    "326-F5-then-F7": lambda: _on_one_quiver(T326, (5, 7), (3, 2), seeds=(4, 4)),
}


def _on_one_quiver(t, primes, dims, seeds):
    q = heart_quiver(t)
    return tuple(random_rep(q, p, _Dims(seed, dims), max_dim=5, inner_budget=12, total_budget=12) for p, seed in zip(primes, seeds))


@pytest.mark.parametrize("name", ORDER_CASES)
def test_subrep_classes_match_the_choice_by_choice_walk(name):
    """Class order, counts and witnesses equal those of a walk one choice at a time.

    A case of several reps searches them in turn.
    """
    case = ORDER_CASES[name]()
    for rep in case if isinstance(case, tuple) else (case,):
        assert rep.validate()
        walked = _walk_subreps(rep)
        classes = subrep_classes(rep)
        assert [(dims, cls.count, cls.witness) for dims, cls in classes.items()] == [(d, n, w) for d, (n, w) in walked.items()]


@pytest.mark.parametrize(
    "arrows, message",
    [
        ((Arrow("A", "B", "a"), Arrow("B", "C", "b"), Arrow("A", "S", "s")), "sink S is fed from A, not from the last inner vertex B"),
        ((Arrow("A", "S", "s"), Arrow("A", "S", "t")), "sink S is fed by 2 arrows"),
    ],
    ids=["fed-from-earlier-vertex", "fed-by-two-arrows"],
)
def test_subrep_plan_refuses_sinks_it_cannot_read(arrows, message):
    vertices = tuple(dict.fromkeys(v for a in arrows for v in (a.src, a.tgt)))
    q = QuiverWithRelations(wtype=T113, vertices=vertices, arrows=arrows, relations=(), conductor=1)
    rep = QuiverRep(q, field_for(5, 1), {v: 1 for v in vertices}, {a.label: ((1,),) for a in arrows})
    with pytest.raises(ResourceLimitError, match=message):
        subrep_classes(rep)


def test_subrep_plan_is_built_once_per_quiver():
    q = heart_quiver(T114)
    plan = q.subrep_plan
    assert plan is q.subrep_plan
    assert plan.order == ("C(1)", "C(0)")
    assert plan.sinks == ("PsiO(p1)", "PsiO(p2)", "PsiO(p3)", "PsiO(p4)")
    assert plan.into["C(0)"] == ("C(1)", ("X1", "X2"))


def _cached_case():
    return random_rep(heart_quiver(T114), 5, random.Random(3), max_dim=2, inner_budget=3, total_budget=8)


def test_subrep_classes_are_cached_on_the_rep():
    rep = _cached_case()
    assert subrep_classes(rep) is subrep_classes(rep)


def _count_searches(monkeypatch) -> list:
    searched = []
    search = quiverrep._search_subreps
    monkeypatch.setattr(quiverrep, "_search_subreps", lambda rep: searched.append(rep) or search(rep))
    return searched


def test_one_search_per_rep(monkeypatch):
    searched = _count_searches(monkeypatch)
    rep = _cached_case()
    spec = default_spec(T114)
    assert len(hn_filtration(rep, spec).factors) > 1  # so its steps search other reps too
    is_stable(rep, spec)
    subrep_classes(rep)
    all_subreps(rep)
    assert sum(r is rep for r in searched) == 1


def test_subrep_classes_are_read_only():
    classes = subrep_classes(_cached_case())
    dims = next(iter(classes))
    with pytest.raises(TypeError):
        classes[dims] = classes[dims]


def test_a_replaced_rep_is_searched_afresh(monkeypatch):
    searched = _count_searches(monkeypatch)
    rep = _cached_case()
    classes = subrep_classes(rep)
    copy = dataclasses.replace(rep)
    assert subrep_classes(copy) is not classes
    assert all_subreps(copy) == all_subreps(rep)
    zero = dataclasses.replace(rep, mats=_zero_rep(T114, 5, rep.dims).mats)
    assert all_subreps(zero) != all_subreps(rep)
    assert searched == [rep, copy, zero]


def _zero_rep(t, p, dims):
    q = heart_quiver(t)
    f = field_for(p, q.conductor)
    dims = {v: 0 for v in q.vertices} | dims
    mats = {a.label: tuple(tuple(0 for _ in range(dims[a.src])) for _ in range(dims[a.tgt])) for a in q.arrows}
    return QuiverRep(q, f, dims, mats)


@pytest.mark.parametrize(
    "t, p, n, subspaces",
    [(T113, 5, 4, 440_080), (T326, 5, 6, 3_583_232)],
    ids=["F25^4", "F5^6"],
)
def test_subspace_guard_refuses_before_enumerating(t, p, n, subspaces):
    rep = _zero_rep(t, p, {"C(0)": n})
    assert rep.total_dim() <= 12
    with pytest.raises(ResourceLimitError, match=f"C\\(0\\) has {subspaces} subspaces"):
        subrep_classes(rep)


def test_subspace_guard_accepts_up_to_its_bound():
    # F_49^3 (4,904 subspaces) and F_121^3 (29,528) on (1,1;4), whose points need F_{p^2}
    for p, subspaces in ((7, 4_904), (11, 29_528)):
        rep = _zero_rep(T114, p, {"C(0)": 3})
        assert rep.field.q == p * p
        assert sum(cls.count for cls in subrep_classes(rep).values()) == subspaces
    # F_5^5 (42,176): a star with one sink of dimension 1 and a nonzero map phi.
    # U inside ker phi (1,120 subspaces of F_5^4) leaves the sink free, any other U fills it.
    q = heart_quiver(T326)
    rep = QuiverRep(q, field_for(5, 1), {"C(0)": 5, "PsiO(p1)": 1}, {"pi1": ((1, 2, 3, 4, 0),)})
    assert sum(cls.count for cls in subrep_classes(rep).values()) == 42_176 + 1_120


def test_phase_key_order_matches_float_angles():
    import math

    from gepnerstab.exactmath import embed
    from gepnerstab.hearts import phase_key, zg_class
    from gepnerstab.hearts import _rotation  # window rotation

    rng = random.Random(77)
    for t in (T113, T214, T326):
        lat = lattice_for(t)
        rot = _rotation(lat)
        classes = []
        for _ in range(30):
            v = tuple(rng.randint(0, 3) for _ in range(lat.rank))
            if any(v):
                classes.append(v)
        for a in classes:
            for b in classes:
                ka, kb = phase_key(lat, a), phase_key(lat, b)

                def angle(v):
                    mid = embed(zg_class(lat, v) * rot, 80).midpoint()
                    p = math.atan2(mid.imag, mid.real) / math.pi
                    return p if p > 0 else p + 2

                fa, fb = angle(a), angle(b)
                if abs(fa - fb) > 1e-6:
                    assert (ka < kb) == (fa < fb), (t, a, b, fa, fb)
                else:
                    assert ka == kb or abs(fa - fb) > 1e-12


def test_resource_guard():
    q = heart_quiver(T114)
    f = field_for(5, q.conductor)
    dims = {v: 3 for v in q.vertices}  # total 18 > 12
    mats = {
        a.label: tuple(tuple(0 for _ in range(3)) for _ in range(3)) for a in q.arrows
    }
    rep = QuiverRep(q, f, dims, mats)
    with pytest.raises(ResourceLimitError):
        all_subreps(rep)


# -- stability ------------------------------------------------------------------


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_named_objects_stable_over_5_and_7(t):
    spec = default_spec(t)
    lat = lattice_for(t)
    names = ["tauPsiOx"]
    names += ["C1m1"] if t.epsilon == -1 else ["C1", "C2m1"]
    for name in names:
        for idx in range(1, len(lat.points) + 1) if name == "tauPsiOx" else [1]:
            obj = named_object(t, name, point_index=idx)
            for p in (5, 7):
                red = reduce_rep(obj, p)
                verdict = is_stable(red, spec)
                assert verdict.ok, (t, name, p, verdict)


def test_named_objects_stable_in_both_orders_2_2():
    # the (2,-2) named objects are stable for the slope and for the window phase
    for t in (T114, T316):
        lat = lattice_for(t)
        for mode in ("slope", "phase"):
            spec = StabilitySpec(lat, mode)
            for name in ("tauPsiOx", "C1", "C2m1"):
                red = reduce_rep(named_object(t, name), 5)
                assert is_stable(red, spec).ok, (t, name, mode)


def test_stability_verdicts_invariant_across_good_primes():
    # every named object, over all three good primes (F_121 needed for
    # the conductor-8 point data at p = 11)
    for t in N2_TYPES:
        spec = default_spec(t)
        names = ["tauPsiOx", "C1m1"] + (["C2m1"] if t.epsilon == -2 else [])
        for name in names:
            obj = named_object(t, name)
            statuses = set()
            for p in (5, 7, 11):
                red = reduce_rep(obj, p)
                statuses.add(is_stable(red, spec).status)
            assert statuses == {"stable"}, (t, name)


def test_unstable_witness():
    # direct sum of two simples with different phases is unstable
    t = T113
    q = heart_quiver(t)
    f = field_for(5, q.conductor)
    dims = {v: 0 for v in q.vertices}
    dims["C(0)"] = 1
    dims["PsiO(p1)"] = 1
    mats = {
        a.label: tuple(tuple(0 for _ in range(dims[a.src])) for _ in range(dims[a.tgt]))
        for a in q.arrows
    }
    rep = QuiverRep(q, f, dims, mats)  # C(0) + PsiO(p1) with zero map
    verdict = is_stable(rep, default_spec(t))
    assert verdict.status == "unstable"
    # the C(0) summand sits at the larger window phase
    assert verdict.witness == (1, 0, 0, 0)


def test_semistable_only():
    t = T113
    q = heart_quiver(t)
    f = field_for(5, q.conductor)
    dims = {v: 0 for v in q.vertices}
    dims["PsiO(p1)"] = 2
    mats = {
        a.label: tuple(tuple(0 for _ in range(dims[a.src])) for _ in range(dims[a.tgt]))
        for a in q.arrows
    }
    rep = QuiverRep(q, f, dims, mats)
    assert is_stable(rep, default_spec(t)).status == "semistable_only"


def test_shortcut_agreement_on_named_objects():
    for t in (T114, T316):
        spec = default_spec(t)
        red = reduce_rep(named_object(t, "tauPsiOx"), 5)
        v = is_stable(red, spec)
        if v.shortcut_agrees is not None:
            assert v.shortcut_agrees


@pytest.mark.parametrize("t", [T114, T316, WeightedType((1, 1, 1), 4)], ids=str)
def test_slope_keys_agree_with_fractions(t):
    # the classes with entries 0..3 (0..6 on the rank-3 coherent-system
    # lattice, whose infinite slope is -inf); a slope key's comparisons depend
    # on its value alone, so they are checked on every pair of distinct values
    lat = lattice_for(t)
    spec = StabilitySpec(lat, "slope")
    inf = -math.inf if lat.case == (3, -1) else math.inf
    keys = {}
    for v in product(range(7 if lat.case == (3, -1) else 4), repeat=lat.rank):
        key, plain = spec.key(v), slope_mu(lat, v)
        assert type(key) is (SlopeKey if isinstance(plain, Fraction) else float)
        assert (key == plain, hash(key), str(key)) == (True, hash(plain), str(plain))
        keys.setdefault(plain, key)
    assert {inf} < set(keys) and len(keys) > 20
    ops = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
    for a, key_a in keys.items():
        for b, key_b in keys.items():
            want = [op(a, b) for op in ops]
            assert [op(key_a, key_b) for op in ops] == want, (a, b)
            assert [op(key_a, b) for op in ops] == want, (a, b)


# -- Harder-Narasimhan -----------------------------------------------------------


def test_hn_semistable_single_factor():
    t = T113
    red = reduce_rep(named_object(t, "tauPsiOx"), 5)
    res = hn_filtration(red, default_spec(t))
    assert len(res.factors) == 1
    assert res.factors[0][0] == (1, 1, 0, 0)


def test_hn_two_factors_ordered():
    # tau PsiO(x) + PsiO(y): phases phi_x > phi_y, two factors
    t = T113
    q = heart_quiver(t)
    f = field_for(5, q.conductor)
    tau = reduce_rep(named_object(t, "tauPsiOx", 1), 5)
    dims = dict(tau.dims)
    dims["PsiO(p2)"] = 1
    rep = QuiverRep(q, f, dims, dict(tau.mats) | {"pi2": ((0,),)})
    res = hn_filtration(rep, default_spec(t))
    assert [d for d, _ in res.factors] == [(1, 1, 0, 0), (0, 0, 1, 0)]


@pytest.mark.parametrize(
    "dims, tied",
    [({"PsiO(p1)": 1, "PsiO(p2)": 1}, (0, 0, 1, 0)), ({"PsiO(p1)": 2}, (0, 1, 0, 0))],
    ids=["two-classes", "one-class-of-six"],
)
def test_hn_refuses_a_tied_destabilizer(dims, tied):
    # a key that prefers the smallest subrep: every simple summand is maximal
    spec = SimpleNamespace(key=lambda d: -sum(d), mode="slope")
    with pytest.raises(HNTieError, match=re.escape(f"non-unique maximal destabilizer at {tied}") + "$"):
        hn_filtration(_zero_rep(T113, 5, dims), spec)


def _searched_hn(rep, spec) -> list:
    """The HN factors of rep, its last quotient built and searched like every other one."""
    factors = []
    current = rep
    zero = (0,) * len(rep.quiver.vertices)
    while (kclass := current.kclass()) != zero:
        classes = subrep_classes(current)
        keys = {dims: spec.key(dims) for dims in classes if dims != zero}
        best = max(keys.values())
        tied = [dims for dims, k in keys.items() if k == best]
        top = max(map(sum, tied))
        tied = [dims for dims in tied if sum(dims) == top]
        best_dims = min(tied)
        chosen = classes[best_dims]
        if len(tied) > 1 or chosen.count > 1:
            raise HNTieError(f"non-unique maximal destabilizer at {best_dims}")
        factors.append((best_dims, best))
        if best_dims == kclass:
            break
        if is_stable(subrep_restriction(current, chosen.witness), spec).status == "unstable":
            raise HNTieError("extracted factor is not semistable")
        current = quotient_rep(current, chosen.witness)
    if any(not k2 < k1 for (_, k1), (_, k2) in zip(factors, factors[1:])):
        raise HNTieError("phases along the filtration are not strictly decreasing")
    return factors


def _outcome(hn, rep, spec):
    try:
        return hn(rep, spec)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_hn_matches_searching_every_quotient(t):
    """Factors, keys and errors equal those of a filtration that searches its last quotient too.

    Phase order on the (2,-2) quivers meets zero charges, slope order on
    the others infinite slopes, and the key preferring small subreps ties.
    At p = 5, (1,1;3) and (1,1;4) run over F_25.
    """
    q = heart_quiver(t)
    lat = lattice_for(t)
    specs = [StabilitySpec(lat, "phase"), StabilitySpec(lat, "slope"), SimpleNamespace(key=lambda d: -sum(d), mode="slope", lattice=lat)]
    for p in (5, 7):
        rng = random.Random(f"{t}:{p}")
        for _ in range(20):
            rep = random_rep(q, p, rng)
            for spec in specs:
                got = _outcome(lambda r, s: hn_filtration(r, s).factors, rep, spec)
                assert got == _outcome(_searched_hn, rep, spec)


def test_hn_searches_the_last_quotient_when_a_key_is_undefined():
    """A key that raises on some T - D leaves the last step to the quotient's own search.

    Here T - D is a class of neither the rep, its first factor nor the
    quotient: C(1) cannot be a subrep without C(0), which X1 and X2 reach.
    """
    rep = random_rep(heart_quiver(T114), 5, random.Random(1028), max_dim=2)
    first, bad = (0, 1, 0, 1, 1, 0), (1, 0, 1, 0, 0, 0)
    assert (1, 1, 1, 1, 1, 0) in subrep_classes(rep)

    def key(dims):
        if dims == bad:
            raise ZeroDivisionError("no key")
        return 2 if dims == first else 1

    spec = SimpleNamespace(key=key, mode="slope", lattice=SimpleNamespace(case=None))
    factors = hn_filtration(rep, spec).factors
    assert factors == [(first, 2), ((1, 1, 1, 1, 0, 0), 1)]
    assert factors == _searched_hn(rep, spec)


@pytest.mark.parametrize("seed, factors, searches", [(1, 2, 2), (13, 3, 4)], ids=["two-factors", "three-factors"])
def test_hn_does_not_search_its_last_quotient(monkeypatch, seed, factors, searches):
    """The rep and each extracted factor are searched, and every quotient but the last."""
    searched = _count_searches(monkeypatch)
    rep = random_rep(heart_quiver(T113), 5, random.Random(seed))
    res = hn_filtration(rep, default_spec(T113))
    assert len(res.factors) == factors
    total, first = rep.kclass(), res.factors[0][0]
    expected = [total, first, tuple(a - b for a, b in zip(total, first)), res.factors[1][0]][:searches]
    assert [r.kclass() for r in searched] == expected
    assert searched[0] is rep


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_hn_random_property(t):
    rng = random.Random(zlib.crc32(str(t).encode()) % 10_000)
    q = heart_quiver(t)
    spec = default_spec(t)
    lat = lattice_for(t)
    for _ in range(25):
        rep = random_rep(q, 5, rng)
        res = hn_filtration(rep, spec)
        # telescoping is asserted internally; check seesaw on all subreps
        classes = subrep_classes(rep) if rep.total_dim() else {}
        total = rep.kclass()
        if not any(total):
            continue
        key_e = spec.key(total)
        for dims in classes:
            if dims == total or not any(dims):
                continue
            quot = tuple(a - b for a, b in zip(total, dims))
            if spec.mode == "slope":
                ks, kq = spec.key(dims), spec.key(quot)
                assert (ks <= key_e <= kq) or (ks >= key_e >= kq)
            else:
                if any(quot):
                    ks, kq = spec.key(dims), spec.key(quot)
                    assert (ks <= key_e <= kq) or (ks >= key_e >= kq)


def test_rep_json_roundtrip():
    from gepnerstab.quiverrep import rep_to_json

    rng = random.Random(17)
    q = heart_quiver(T114)
    rep = random_rep(q, 5, rng, max_dim=2, inner_budget=3, total_budget=8)
    data = rep_to_json(rep)
    assert data["p"] == 5 and data["type"] == "(1,1;4)"
    gf = field_for(5, q.conductor)
    back = QuiverRep(q, gf, dict(data["dims"]), {
        k: tuple(tuple(row) for row in m) for k, m in data["mats"].items()
    })
    assert back.validate()
    assert back.kclass() == rep.kclass()
    with pytest.raises(ValueError):
        rep_to_json(named_object(T114, "C2m1"))


def test_subrep_restriction_and_quotient():
    # every proper class of seeded reps on a star and on a two-step quiver:
    # each lazily built witness must be a subrepresentation of its class
    rng = random.Random(9)
    for t in (T113, T114):
        q = heart_quiver(t)
        for _ in range(3):
            rep = random_rep(q, 5, rng, max_dim=2, inner_budget=3, total_budget=8)
            for dims, cls in subrep_classes(rep).items():
                if not any(dims) or dims == rep.kclass():
                    continue
                assert cls.witness is cls.witness  # built once
                sub = subrep_restriction(rep, cls.witness)
                assert sub.kclass() == dims
                assert sub.validate()
                quot = quotient_rep(rep, cls.witness)
                assert quot.validate()
                assert tuple(a + b for a, b in zip(sub.kclass(), quot.kclass())) == rep.kclass()


def test_validate_rejects_failing_relations():
    from gepnerstab.quiverrep import relation_sum

    # over GF: move row 0 of a point map off the annihilator of its relation's image
    q = heart_quiver(T114)
    rng = random.Random(5)
    found = []
    while not found:
        rep = random_rep(q, 5, rng, max_dim=2, inner_budget=3, total_budget=8)
        found = [
            (outer, col)
            for outer, terms in q.relations
            if rep.mats[outer]
            for col in zip(*relation_sum(q, rep.field, rep.mats, terms))
            if any(col)
        ]
    assert rep.validate()
    outer, col = found[0]
    c = next(i for i, x in enumerate(col) if x)
    row = list(rep.mats[outer][0])
    row[c] = rep.field.add[row[c]][1]  # changes row . col by col[c] != 0
    mats = dict(rep.mats) | {outer: (tuple(row),) + rep.mats[outer][1:]}
    assert not QuiverRep(q, rep.field, rep.dims, mats).validate()
    # exact: C(2)[-1] with one point-map entry shifted by 1
    obj = named_object(T114, "C2m1")
    ((first, *rest),) = obj.mats["pi1"]
    mats = dict(obj.mats) | {"pi1": ((first + 1, *rest),)}
    assert not QuiverRep(obj.quiver, obj.field, obj.dims, mats).validate()


if __name__ == "__main__":
    # regenerate KERNEL_GOLDEN: PYTHONPATH=src python tests/test_quiverrep.py
    # (only when a change to the enumeration is meant to change its output)
    KERNEL_GOLDEN.write_text(json.dumps({name: _record_classes(case()) for name, case in KERNEL_CASES.items()}, separators=(",", ":")) + "\n")
