import random

import pytest

from gepnerstab.gfield import GF, field_for, gaussian_binomial, subspaces_of
from gepnerstab.hearts import lattice_for
from gepnerstab.mfcore import WeightedType
from gepnerstab.quiverrep import (
    QuiverRep,
    ResourceLimitError,
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


def test_subrep_oracle_against_bruteforce():
    """Cross-check the aggregated enumeration against a naive one."""
    from itertools import product

    from gepnerstab.gfield import in_span, mat_apply, span, subspaces_of

    rng = random.Random(3)
    q = heart_quiver(T113)
    f = field_for(5, q.conductor)
    for _ in range(5):
        rep = random_rep(q, 5, rng, max_dim=2, inner_budget=2, total_budget=6)
        fast = dict(all_subreps(rep))
        slow: dict = {}
        spaces = [subspaces_of(f, rep.dims.get(v, 0)) for v in q.vertices]
        for combo in product(*spaces):
            chosen = dict(zip(q.vertices, combo))
            ok = True
            for a in q.arrows:
                for vec in chosen[a.src]:
                    if not in_span(f, chosen[a.tgt], mat_apply(f, rep.mats[a.label], vec)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                key = tuple(len(chosen[v]) for v in q.vertices)
                slow[key] = slow.get(key, 0) + 1
        assert fast == slow


def test_subrep_oracle_against_bruteforce_with_relations():
    """Same cross-check on the two-step quiver, where bounds chain."""
    from itertools import product

    from gepnerstab.gfield import in_span, mat_apply, subspaces_of

    rng = random.Random(23)
    q = heart_quiver(T114)
    f = field_for(5, q.conductor)
    for _ in range(3):
        rep = random_rep(q, 5, rng, max_dim=2, inner_budget=3, total_budget=7)
        if rep.total_dim() == 0:
            continue
        fast = dict(all_subreps(rep))
        slow: dict = {}
        spaces = [subspaces_of(f, rep.dims.get(v, 0)) for v in q.vertices]
        for combo in product(*spaces):
            chosen = dict(zip(q.vertices, combo))
            ok = True
            for a in q.arrows:
                for vec in chosen[a.src]:
                    if not in_span(f, chosen[a.tgt], mat_apply(f, rep.mats[a.label], vec)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                key = tuple(len(chosen[v]) for v in q.vertices)
                slow[key] = slow.get(key, 0) + 1
        assert fast == slow


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
                statuses.add(is_stable(red, spec, max_q=130).status)
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


@pytest.mark.parametrize("t", N2_TYPES, ids=str)
def test_hn_random_property(t):
    rng = random.Random(hash(str(t)) % 10_000)
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
