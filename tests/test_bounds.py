import gc
import json
import random
from collections import Counter
from math import prod

import pytest

from smallcover import bounds, charfun, cli, cohomology, polytope
from smallcover.bounds import (
    BoundReport,
    bott_manifold,
    cat_bounds,
    dold_bounds,
    eq_cat_bounds,
    free_circle_blocks,
    manifold_ring,
    manifold_zcl,
    simplex_facet_hypotheses,
    small_cover_manifold,
    sphere_manifold,
    symm_tc_bounds,
    tc_bounds,
)
from smallcover.charfun import BottMatrix, from_bott, parse_bits
from smallcover.cohomology import PointRing
from smallcover.errors import CharacteristicError, InputError
from smallcover.invariants import DEFAULT_BUDGET, IntervalValue, cup_length, zcl_exact, zcl_interval
from smallcover.polytope import explicit_polytope, polygon, product_of_simplices
from smallcover.sampling import random_bott_matrix

from conftest import all_bott_matrices, new_polytope, random_characteristic, random_product_dims
from dold_reference import DoldRing, cup_length_algebra
import tuple_reference as ref
from test_charfun import _scramble
from test_cohomology import _step_rings


def klein_manifold(**kw):
    P = polygon(4)
    vectors = [parse_bits(s) for s in ["10", "01", "10", "11"]]
    return small_cover_manifold(P, vectors, **kw)


def rp_manifold(n, **kw):
    return bott_manifold((n,), BottMatrix.make((n,)), **kw)


def test_constructors_validate():
    with pytest.raises(CharacteristicError):
        small_cover_manifold(polygon(4), [parse_bits(s) for s in ["10", "01", "10", "10"]])
    with pytest.raises(InputError):
        sphere_manifold(0)


def test_bott_manifold_is_the_one_dims_check():
    """A tower's block sizes live in its matrix; `bott_manifold` checks the
    dims it is given against them, after building the polytope, so dims
    that are no polytope's are refused first, with the polytope's message."""
    B = BottMatrix.make((1, 2))
    assert bott_manifold([1, 2], B).bmat.dims == (1, 2)
    for dims in [(2, 1), (1, 2, 1), (1,)]:
        with pytest.raises(InputError, match="^matrix dims disagree with the polytope dims$"):
            bott_manifold(dims, B)
    for dims in [(0,), (), (1, -2)]:
        with pytest.raises(InputError, match="^dims must be a nonempty list of positive"):
            bott_manifold(dims, B)


def test_small_cover_validated_once(monkeypatch):
    calls = []

    def counting(validate):
        def wrapped(P, vectors):
            calls.append(P.family)
            return validate(P, vectors)
        return wrapped

    for module in (charfun, cohomology):
        monkeypatch.setattr(module, "validate", counting(module.validate))
    vectors = [parse_bits(s) for s in ["10", "01", "10", "01", "11"]]
    tc_bounds(small_cover_manifold(polygon(5), vectors))
    assert len(calls) == 1
    with pytest.raises(CharacteristicError, match=r"invalid assignment at vertices \(\("):
        small_cover_manifold(polygon(4), [parse_bits(s) for s in ["10", "01", "10", "10"]])


def test_covers_op_walks_each_assignment_once(monkeypatch, rng):
    # as a random_covers op: 12 rejected draws, the valid one, its ring and
    # pairing, then the manifold and its bounds on the same polytope.  On
    # the product the block peel accepts the valid draw, so only the 12
    # rejected draws are walked.  Each slice is built at most once, and the
    # tower's ring, whose relations lead with pure powers, builds none
    prism = [(i, (i + 1) % 6, cap) for i in range(6) for cap in (6, 7)]
    tower = charfun.from_bott(random_bott_matrix((2, 2, 2), rng))
    for make, valid, walked_draws, slices in (
            (lambda: explicit_polytope(3, 8, prism), None, 13, range(4)),
            (lambda: product_of_simplices((2, 2, 2)), tower, 12, ())):
        P = new_polytope(make)
        valid = valid or random_characteristic(P, rng)
        nonzero = [tuple((v >> i) & 1 for i in range(P.n)) for v in range(1, 1 << P.n)]
        rejected = []
        while len(rejected) < 12:
            vectors = [rng.choice(nonzero) for _ in range(P.facet_count)]
            if not charfun.validate(P, vectors).valid:
                rejected.append(vectors)
        walks, builds = [], Counter()
        walk, build = charfun._dependent_vertices, cohomology.QuotientRing._slice

        def walked(Q, masks):
            walks.append(Q)
            return walk(Q, masks)

        def built(ring, d):
            builds[d] += d not in ring._slices
            return build(ring, d)

        monkeypatch.setattr(charfun, "_dependent_vertices", walked)
        monkeypatch.setattr(cohomology.QuotientRing, "_slice", built)
        assert not any(charfun.validate(P, vectors).valid for vectors in rejected)
        assert charfun.validate(P, valid).valid
        ring = cohomology.SmallCoverRing(P, valid)
        assert cohomology.poincare_pairing(ring).nondegenerate
        M = small_cover_manifold(P, valid)
        tc_bounds(M)
        assert len(walks) == walked_draws, P.family
        assert builds == Counter(slices), P.family
        assert (ring._tails is None) == bool(slices), P.family
        assert manifold_ring(M) is ring
        monkeypatch.undo()


def _covers_op(P, draws):
    """What a random_covers op reads off P: the report of each draw, the
    last one valid, then its ring, pairing, h-vector and bounds."""
    reports = [charfun.validate(P, vectors) for vectors in draws]
    ring = cohomology.SmallCoverRing(P, draws[-1])
    M = small_cover_manifold(P, draws[-1])
    return (reports, ring.betti, ring.algebra().betti, ring.relations_text,
            cohomology.poincare_pairing(ring), polytope.h_vector(P), M.vectors,
            cat_bounds(M).to_json(), tc_bounds(M).to_json())


def test_shared_polytope_state_does_not_leak(rng):
    # the same op on a new polytope, then on one equal to a live polytope
    # that keeps valid masks and a ring: of another assignment, or of this one
    prism = [(i, (i + 1) % 6, cap) for i in range(6) for cap in (6, 7)]
    for make in (lambda: explicit_polytope(3, 8, prism), lambda: polygon(6),
                 lambda: product_of_simplices((2, 2, 2))):
        P = new_polytope(make)
        nonzero = [tuple((v >> i) & 1 for i in range(P.n)) for v in range(1, 1 << P.n)]
        draws = []
        while len(draws) < 12:
            vectors = [rng.choice(nonzero) for _ in range(P.facet_count)]
            if not charfun.validate(P, vectors).valid:
                draws.append(vectors)
        for _ in range(2):  # the op's valid draw, then another valid one
            if P.family[0] == "product_of_simplices":  # few draws are valid
                dims = P.family[1]
                draws.append(charfun.from_bott(random_bott_matrix(dims, rng)))
            else:
                draws.append(random_characteristic(P, rng))
        other = draws.pop()
        del P
        gc.collect()
        alone = _covers_op(new_polytope(make), draws)
        assert not any(report.valid for report in alone[0][:12])
        for held in (other, draws[-1]):
            live = new_polytope(make)
            ring = cohomology.SmallCoverRing(live, held)
            assert vars(live)["_valid_masks"] and vars(live)["_ring"]() is ring
            assert _covers_op(make(), draws) == alone, (live.family, held)
            del live, ring


def test_cat_small_cover():
    rep = cat_bounds(klein_manifold())
    assert (rep.interval.lo, rep.interval.hi) == (3, 3)
    rep = cat_bounds(rp_manifold(4))
    assert (rep.interval.lo, rep.interval.hi) == (5, 5)
    rep = cat_bounds(sphere_manifold(6))
    assert (rep.interval.lo, rep.interval.hi) == (2, 2)


def test_tc_projective_small():
    # TC(RP^2) = 4 via the exact kernel search
    rep = tc_bounds(rp_manifold(2))
    assert rep.interval.lo == 4 and rep.interval.hi == 5
    assert any(rule == "exact kernel search" for _, rule, _ in rep.certificates)
    # RP^4: zcl = 7 so TC >= 8; dimension cap gives 9
    rep = tc_bounds(rp_manifold(4))
    assert rep.interval.lo == 8 and rep.interval.hi == 9


def test_tc_large_tower_table():
    expected = {
        (16, 8): (47, 49),
        (16, 9): (47, 50),
        (17, 8): (47, 50),
        (17, 9): (47, 51),
    }
    for dims, (lo, hi) in expected.items():
        rep = tc_bounds(bott_manifold(dims, BottMatrix.make(dims)))
        assert (rep.interval.lo, rep.interval.hi) == (lo, hi), dims


def test_tc_sphere():
    rep = tc_bounds(sphere_manifold(3))
    assert rep.interval.lo == 2 and rep.interval.hi == 3
    rep = tc_bounds(sphere_manifold(4))
    assert rep.interval.lo == 3


def test_tc_interval_contains_cat_floor():
    for dims, B in list(all_bott_matrices(2, 2))[:10]:
        M = bott_manifold(dims, B)
        rep = tc_bounds(M)
        cat = cat_bounds(M)
        assert rep.interval.lo >= cat.interval.lo
        assert rep.interval.hi <= 2 * cat.interval.hi - 1


def test_simplex_facet_hypotheses():
    M = rp_manifold(4)
    has_simplex, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
    assert has_simplex and det_ok
    M = bott_manifold((16, 8), BottMatrix.make((16, 8)))
    has_simplex, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
    assert not has_simplex and not det_ok


def test_facet_hypotheses_on_masks_match_the_tuple_rank_reference(rng):
    """On the masks, as the tuple rank of the neighbour vectors gives them:
    every tower with m <= 3 and n_j <= 3, large towers, polygons, prisms
    and seeded scrambled towers, as their descriptions keep them."""
    cases = [(product_of_simplices(dims), from_bott(B))
             for m in (1, 2, 3) for dims, B in all_bott_matrices(m, 3)]
    for dims in [(46,), (3,) * 8, (16, 8), (17, 9)]:
        cases.append((product_of_simplices(dims), from_bott(random_bott_matrix(dims, rng))))
    shapes = [polygon(k) for k in range(3, 13)]
    shapes += [explicit_polytope(3, k + 2, [(i, (i + 1) % k, cap)
                                            for i in range(k) for cap in (k, k + 1)])
               for k in (3, 4, 5, 6, 8)]
    for P in shapes:
        for _ in range(3):
            cases.append((P, random_characteristic(P, rng)))
    for _ in range(40):  # seeded covers: towers under a basis change, blocks shuffled
        dims = random_product_dims(rng)
        dims, vectors = _scramble(dims, random_bott_matrix(dims, rng), rng)
        P = product_of_simplices(dims)
        cases.append((P, small_cover_manifold(P, vectors).vectors))
    outcomes = Counter()
    for P, masks in cases:
        assert masks is not None, P.family
        got = simplex_facet_hypotheses(P, masks)
        assert got == ref.simplex_facet_hypotheses(P, ref.tuples(masks, P.n)), P.family
        outcomes[got] += 1
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


def test_eq_cat_klein():
    rep = eq_cat_bounds(klein_manifold(involution=(1, 0)))
    assert (rep.interval.lo, rep.interval.hi) == (4, 4)
    assert rep.interval.lo_source == "fixed circle cover"


def test_eq_cat_2m_gons():
    for m in range(2, 6):
        k = 2 * m
        P = polygon(k)
        vectors = [
            parse_bits("10") if i % 2 == 0 else parse_bits("01") for i in range(k)
        ]
        M = small_cover_manifold(P, vectors, involution=(1, 0))
        rep = eq_cat_bounds(M)
        assert (rep.interval.lo, rep.interval.hi) == (2 * m, 2 * m)


def test_eq_cat_fixed_circles_must_meet_every_vertex():
    # the disjoint edges 0 and 3 of the hexagon miss vertices {1, 2} and {4, 5}
    vectors = [parse_bits(s) for s in ("10", "01", "11") * 2]
    rep = eq_cat_bounds(small_cover_manifold(polygon(6), vectors, involution=(1, 0)))
    assert (rep.interval.lo, rep.interval.hi) == (3, 6)
    assert rep.interval.lo_source == "non-equivariant floor"


def test_eq_cat_connected_fixed_set():
    rep = eq_cat_bounds(klein_manifold(involution=(1, 1), fixed_set_connected=True))
    assert (rep.interval.lo, rep.interval.hi) == (3, 3)
    assert rep.assumed_flags == ("fixed_set_connected",)


def test_eq_cat_requires_involution():
    with pytest.raises(InputError):
        eq_cat_bounds(klein_manifold())
    with pytest.raises(InputError):
        eq_cat_bounds(klein_manifold(involution=(0, 0)))


def test_symm_tc_exact_powers_of_two():
    for s in (1, 2, 3):
        n = 1 << s
        rep = symm_tc_bounds(rp_manifold(n))
        assert (rep.interval.lo, rep.interval.hi) == (2 * n + 1, 2 * n + 1)


def test_symm_tc_dominates_tc():
    for M in [klein_manifold(), rp_manifold(3), sphere_manifold(2)]:
        tc = tc_bounds(M)
        ts = symm_tc_bounds(M)
        assert ts.interval.lo >= tc.interval.lo
        assert ts.interval.lo >= 2


def test_dold_known_intervals():
    for n, p1, expected in [(2, 2, (7, 9)), (4, 2, (11, 13))]:
        cat, tc, tcs = dold_bounds(rp_manifold(n), [p1])
        assert (tc.interval.lo, tc.interval.hi) == expected
        assert cat.interval.lo == n + p1 + 1
        assert tcs.interval.lo >= tc.interval.lo - 1


def test_dold_norm_end_over_rp2():
    """TC_S "norm subring" is the product's zero-divisor sum plus 2 for any
    number of fibre factors, one above the TC "tensor zero-divisor sum"."""
    for p, expected in [((1, 2), 7), ((2, 2), 9), ((1, 1, 1), 8)]:
        _, tc, tcs = dold_bounds(rp_manifold(2), p)
        assert tcs.interval.lo == expected, p
        assert tcs.interval.lo_source == "norm subring"
        assert tc.interval.lo == expected - 1
        assert tc.interval.lo_source == "tensor zero-divisor sum"


def test_contradictory_rules_name_both_rules():
    """`_report`, the one merge: the first largest "lo" with its own witness,
    the first smallest "hi" and the trail in the given order; an error that
    names both rules when the ends cross, and one when a side has no rule.
    A rule is a tuple (side, value, name, detail[, witness])."""
    with pytest.raises(InputError) as exc:
        bounds._report("TC", [("lo", 14, "exact kernel search", ""),
                              ("lo", 8, "category floor", ""),
                              ("hi", 13, "free circle actions", ""),
                              ("hi", 20, "dimension cap", "")])
    assert str(exc.value) == ("TC: lower end 14 (exact kernel search) exceeds "
                              "upper end 13 (free circle actions)")
    rules = [("hi", 9, "dimension cap", "dim"),
             ("lo", 5, "tensor power certificate", "", ("a",)),
             ("lo", 5, "exact kernel search", "search", ("b", "c")),
             ("hi", 7, "free circle actions", ""),
             ("lo", 3, "category floor", ""),
             ("hi", 7, "grading cap", "")]
    rep = bounds._report("zcl", rules, ["fixed_set_connected"])
    assert rep.interval == IntervalValue(5, 7, "tensor power certificate",
                                         "free circle actions", ("a",))
    assert rep.certificates == tuple((side, name, detail)
                                     for side, _, name, detail, *_ in rules)
    assert rep.assumed_flags == ("fixed_set_connected",)
    # a lone largest "lo" keeps its own witness, even an empty one
    assert bounds._report("zcl", rules + [("lo", 6, "facet projective restriction", "")]
                          ).interval.witness == ()
    for side in ("lo", "hi"):
        with pytest.raises(InputError) as exc:
            bounds._report("TC", [r for r in rules if r[0] != side])
        assert str(exc.value) == "incomplete bound computation"


def test_dold_over_sphere():
    cat, tc, tcs = dold_bounds(sphere_manifold(3), [2])
    # cl(D) = 1 + 2 + 1 - 1 = 3, so cat >= 4; invariant cover cap applies
    assert cat.interval.lo == 4
    assert cat.interval.hi == 2 + 2 + 1 - 1
    assert tc.interval.hi == 2 * (2 + 2 + 1) - 1
    # the base's zcl is the sphere's mod-2 value, 1 in every dimension, read
    # through manifold_zcl; rp = zcl(RP^2) = 3
    for n in (3, 4):
        _, tc, tcs = dold_bounds(sphere_manifold(n), [2])
        assert ("lo", "tensor zero-divisor sum",
                "base bound 1 (mod-2 sphere value) plus fibre bound 3") in tc.certificates
        assert tcs.interval.lo == 1 + 3 + 2


def _dold_bases():
    """(name, base manifold or None for the point, base ring) of the sweep."""
    bases = [(f"RP{n}", rp_manifold(n)) for n in (1, 2, 3)]
    bases += [(f"S{n}", sphere_manifold(n)) for n in (1, 2, 3, 4)]
    bases += [(f"twisted {dims}", bott_manifold(dims, BottMatrix.make(dims, {(2, 1): bits})))
              for dims, bits in [((1, 1), (1,)), ((1, 2), (1, 1))]]
    out = [(name, M, manifold_ring(M)) for name, M in bases]
    return out + [("point", None, PointRing())]


DOLD_EXPONENTS = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 3)]


def test_rules_against_exact_search():
    """Every rule-based end against the exact zcl, with the exact search
    itself switched off in the rules (budget 0): a zero-divisor TC end is
    at most zcl + 1, a TC_S end at most zcl + 2, and the ring's own
    fallback interval contains the exact value.  On a twisted product the
    category end is the base's cup-length plus the fibre's, plus one: the
    reference ring's cup-length by search, plus one."""
    checked = pinned = 0
    for ring in _step_rings():
        exact = zcl_exact(ring, 64).lo
        assert zcl_interval(ring, 0).lo <= exact <= zcl_interval(ring, 0).hi
        if ring.kind == "dold":
            continue
        assert cup_length(ring) == cup_length_algebra(ring.algebra())
        if ring.kind == "bott":
            M = bott_manifold(ring.dims, ring.bmat)
        else:
            M = small_cover_manifold(ring.P, ring.vectors)
        assert tc_bounds(M, 0).interval.lo <= exact + 1, ring.relations_text
        assert symm_tc_bounds(M, 0).interval.lo <= exact + 2, ring.relations_text
        # TC and zcl read one rule list: TC lo is the category floor or zcl + 1
        cat_lo = cat_bounds(M).interval.lo
        for b in (0, 12, 64):
            assert tc_bounds(M, b).interval.lo == max(cat_lo, manifold_zcl(M, b).lo + 1), (
                ring.relations_text, b)
            pinned += 1
        checked += 1
    assert checked == 107 and pinned == 321
    dold = closed = 0
    for name, M, base in _dold_bases():
        for p in DOLD_EXPONENTS:
            ring = DoldRing(base, p)
            assert ring.dim <= 64
            exact = zcl_exact(ring, 64).lo
            assert zcl_interval(ring, 0).lo <= exact <= zcl_interval(ring, 0).hi, (name, p)
            if M is not None:
                cat, tc, tcs = dold_bounds(M, p, 0)
                assert cat.interval.lo == cup_length_algebra(ring.algebra()) + 1, (name, p)
                assert tc.interval.lo <= exact + 1, (name, p)
                assert tcs.interval.lo <= exact + 2, (name, p)
                closed += 1
            dold += 1
    assert dold == 80 and closed == 72


def test_dold_validation():
    with pytest.raises(InputError):
        dold_bounds(rp_manifold(2), [])
    with pytest.raises(InputError):
        dold_bounds(rp_manifold(2), [3, 1])


def test_free_circle_blocks():
    dims = (3, 5, 2, 1)
    assert free_circle_blocks(BottMatrix.make(dims)) == [1, 2]
    # block 2's fibre bundles pair up (0, 1, 1, 0), but y_1 twists block 2
    B = BottMatrix.make((3, 3), {(2, 1): (1, 1, 0)})
    assert free_circle_blocks(B) == [2]
    # unpaired fibre bundles (0, 1, 0, 0)
    B = BottMatrix.make((3, 3), {(2, 1): (1, 0, 0)})
    assert free_circle_blocks(B) == []


def _sparse_tower(rng, m):
    """A seeded tower of m blocks, mostly of odd size, with sparse twistings.
    Each odd block's fibre vectors pair up half the time (w_0 = 0 and the
    w_k in equal pairs), so free-circle blocks are common."""
    dims = tuple(rng.choice((1, 2, 3, 3, 5, 7)) for _ in range(m))
    beta = {}
    for k, n in enumerate(dims[1:], start=2):
        if n % 2 and rng.random() < 0.5:
            ws = [0] + [rng.getrandbits(k - 1) for _ in range(n // 2)] * 2
            rng.shuffle(ws)
        else:
            ws = [rng.getrandbits(k - 1) for _ in range(n)]
        for l in range(1, k):
            if rng.random() < 0.3:
                beta[(k, l)] = tuple((w >> (l - 1)) & 1 for w in ws)
    return BottMatrix.make(dims, beta)


def test_free_circle_blocks_match_the_block_by_block_reference():
    """The reading through the block roots against the reference's m^2
    block lookups: every tower with m <= 3 and n_j <= 3, then seeded sparse
    towers with up to 8 blocks of sizes up to 7."""
    towers = [B for m in (1, 2, 3) for _, B in all_bott_matrices(m, 3)]
    rng = random.Random(35)
    towers += [_sparse_tower(rng, rng.randint(2, 8)) for _ in range(2000)]
    found = 0
    for B in towers:
        blocks = free_circle_blocks(B)
        assert blocks == ref.free_circle_blocks(B.dims, B), (B.dims, dict(B.beta))
        found += bool(blocks)
    assert found > len(towers) // 10


def test_free_circle_guard_against_exact_search():
    """The TC upper end stays above exact zcl on rings of dimension 32."""
    example = ((1, 3, 3), BottMatrix.make((1, 3, 3), {(2, 1): (1, 0, 0),
                                                      (3, 1): (1, 0, 0)}))
    towers = [t for t in all_bott_matrices(3, 3) if prod(d + 1 for d in t[0]) == 32]
    assert len(towers) == 672
    for dims, B in [example] + random.Random(1729).sample(towers, 30):
        M = bott_manifold(dims, B)
        zcl = zcl_exact(manifold_ring(M), 32).lo
        assert tc_bounds(M, 32).interval.hi >= zcl + 1, (dims, dict(B.beta))
    tc = tc_bounds(bott_manifold(*example), 32).interval
    assert (tc.lo, tc.hi, tc.hi_source) == (14, 15, "dimension cap")


def test_bound_report_json_round_trip():
    for rep in [
        tc_bounds(rp_manifold(2)),
        cat_bounds(klein_manifold()),
        eq_cat_bounds(klein_manifold(involution=(1, 0))),
    ]:
        data = rep.to_json()
        again = BoundReport.from_json(json.loads(json.dumps(data)))
        # records compare as tuples: the types are checked on their own
        assert again == rep and type(again.interval) is type(rep.interval)
        assert type(again) is BoundReport and again.to_json() == data


def test_dold_tc_dimension_cap():
    _, tc, _ = dold_bounds(bott_manifold((16, 8), BottMatrix.make((16, 8))), [1])
    assert tc.interval.hi <= 2 * 25 + 1
    for m in (1, 2, 3):
        for dims, B in all_bott_matrices(m, 3):
            n, dim = sum(dims), 1
            for d in dims:
                dim *= d + 1
            if dim > 12:
                continue
            _, tc, _ = dold_bounds(bott_manifold(dims, B), [1])
            assert tc.interval.lo <= tc.interval.hi <= 2 * (n + 1) + 1, dims


def test_manifold_ring_built_once():
    M = rp_manifold(3)
    ring = manifold_ring(M)
    assert manifold_ring(M) is ring
    record = bounds._at(M, DEFAULT_BUDGET)
    assert "exact" not in vars(record)
    tc_bounds(M)
    kept = record.exact
    assert kept is not None and record.ring is ring
    symm_tc_bounds(M)
    dold_bounds(M, [1])
    assert record.exact is kept and bounds._at(M, DEFAULT_BUDGET) is record
    # the ring is not part of the description's value
    assert M == rp_manifold(3) and "_ring" not in repr(M)


def test_rules_above_the_budget_build_no_relations():
    # the certificate, the closed-form cup-length and the budget check read
    # no relation, so the ring packs none and eliminates no linear one
    twisted = {(k, j): (1, 0, 1) for k in range(2, 6) for j in range(1, k)}
    tower = bott_manifold((3,) * 5, BottMatrix.make((3,) * 5, twisted))
    cover = small_cover_manifold(polygon(16), [parse_bits(s) for s in ["10", "01"] * 8])
    for M in (tower, cover):
        tc_bounds(M)
        symm_tc_bounds(M)
        manifold_zcl(M, 12)
        dold_bounds(M, [1, 2])
        ring = manifold_ring(M)
        # nor the Betti numbers: a tower's dimension is read in closed form
        assert {"_packed", "relations_text", "_tails", "_reduced", "betti"}.isdisjoint(vars(ring))
        assert ring._slices == {} and ring._alg is None
    assert manifold_ring(cover).relations_text[:2] == ("z1*z3", "z1*z4")


def test_certificate_built_once_per_tower(monkeypatch):
    calls = []
    build = bounds.zcl_certificate_bott

    def counted(B):
        calls.append(B.dims)
        return build(B)

    monkeypatch.setattr(bounds, "zcl_certificate_bott", counted)
    M = bott_manifold((3, 2), BottMatrix.make((3, 2), {(2, 1): (1, 0)}))
    tc = tc_bounds(M)
    symm_tc_bounds(M)
    assert calls == [(3, 2)]
    assert M._records[12].zcl_rules[0][1] == 3 + 3  # 2^2 - 1 for each block
    assert tc_bounds(M) == tc and calls == [(3, 2)]


def test_each_part_is_built_once_per_manifold_and_budget(monkeypatch):
    """cat, TC, TC_S and a Dold report on one tower build the certificate,
    the facet hypotheses, the free-circle blocks and the exact search at
    most once each, within the budget (12) and above it (0); the cat, TC
    and TC_S reports are kept, so asking again builds no report."""
    counts = Counter()

    def counting(name, fn):
        return lambda *args: counts.update([name]) or fn(*args)

    parts = ("zcl_certificate_bott", "simplex_facet_hypotheses", "free_circle_blocks",
             "zcl_exact", "_report")
    for name in parts:
        monkeypatch.setattr(bounds, name, counting(name, getattr(bounds, name)))
    B = BottMatrix.make((3, 1), {(2, 1): (1,)})  # ring dimension 8
    for budget in (12, 0):
        M = bott_manifold((3, 1), B)
        counts.clear()
        cat = cat_bounds(M)
        engines = (tc_bounds(M, budget), symm_tc_bounds(M, budget), dold_bounds(M, (1,), budget))
        assert {name: counts[name] for name in parts[:4]} == dict.fromkeys(parts[:4], 1), budget
        # cat, TC, TC_S and the three Dold reports; above the budget also the
        # zcl merge and the cat of that budget's record, which TC reads
        reports = counts["_report"]
        assert reports == {12: 6, 0: 8}[budget]
        assert cat_bounds(M) is cat and cat_bounds(M) == cat_bounds(bott_manifold((3, 1), B))
        assert (tc_bounds(M, budget), symm_tc_bounds(M, budget)) == engines[:2]
        assert counts["_report"] == reports + 1  # the fresh description's cat only
        assert tc_bounds(M, budget) is engines[0] and symm_tc_bounds(M, budget) is engines[1]
    # the records hold M's fields, not M, so no reference cycle keeps M alive
    monkeypatch.undo()
    gc.collect()
    gc.disable()
    try:
        M = bott_manifold((3, 1), B)
        dold_bounds(M, (1,), 0), symm_tc_bounds(M, 0), symm_tc_bounds(M)
        del M
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bounds_all_tries_the_exact_search_once(monkeypatch, tmp_path):
    """Above the budget, one `bounds --invariant all` builds its TC report
    and its zcl rules once: `symm_tc_bounds` reads the one, `manifold_zcl`
    the other.  On the tower and on its facet vectors."""
    counts = Counter()

    def counting(name, fn):
        return lambda *args: counts.update([name]) or fn(*args)

    for name in ("zcl_exact", "free_circle_blocks"):
        monkeypatch.setattr(bounds, name, counting(name, getattr(bounds, name)))
    dims, beta = (3,) * 8, {(8, 3): (1, 1, 0)}
    masks = from_bott(BottMatrix.make(dims, beta))
    characteristics = [
        {"type": "bott_matrix", "dims": list(dims), "beta": {"8,3": "110"}},
        {"type": "facet_vectors",
         "vectors": ["".join(str(v >> i & 1) for i in range(24)) for v in masks]}]
    for i, char in enumerate(characteristics):
        path = tmp_path / f"tower{i}.json"
        path.write_text(json.dumps({
            "polytope": {"type": "product_of_simplices", "dims": list(dims)},
            "characteristic": char}))
        counts.clear()
        assert cli.main(["bounds", str(path), "--format", "json"]) == 0
        assert counts == {"zcl_exact": 1, "free_circle_blocks": 1}, char["type"]


def test_reports_are_kept_per_budget():
    """A description keeps its TC report and zcl rules for each budget: on
    one M, each budget gets the report a new description gets for it."""
    dims = (3, 3, 3)
    B = BottMatrix.make(dims, {(2, 1): (1, 0, 1), (3, 1): (0, 1, 1), (3, 2): (1, 1, 0)})
    M = bott_manifold(dims, B)
    for budget in (0, 64, 0, 12, 64):
        fresh = [bott_manifold(dims, B) for _ in range(3)]
        assert tc_bounds(M, budget) == tc_bounds(fresh[0], budget)
        assert manifold_zcl(M, budget) == manifold_zcl(fresh[1], budget)
        assert symm_tc_bounds(M, budget) == symm_tc_bounds(fresh[2], budget)
    # the exact search, within the budget of 64 only, moves both ends
    assert tc_bounds(M, 0).interval.lo == 10 and tc_bounds(M, 64).interval.lo == 15
    assert manifold_zcl(M, 12).lo == 9 and manifold_zcl(M, 64).lo == 14


def _intervals(M, budget):
    """The cat, TC, TC_S, Dold and zcl intervals, with the rule behind each end."""
    reports = (cat_bounds(M), tc_bounds(M, budget), symm_tc_bounds(M, budget),
               *dold_bounds(M, (1,), budget))
    intervals = [rep.interval for rep in reports] + [manifold_zcl(M, budget)]
    return [(iv.lo, iv.hi, iv.lo_source, iv.hi_source) for iv in intervals]


def test_both_forms_of_a_tower_get_the_same_bounds():
    """The survey towers (m <= 3, n_j <= 3, dimension <= 12) as a matrix and
    as its facet vectors: the facet form peels back to the same matrix, so
    the tower rules reach both, with the exact search on and off, and each
    end names the same rule (RP^1 ties at 1 with the search off)."""
    towers = [(dims, B) for m in (1, 2, 3) for dims, B in all_bott_matrices(m, 3)
              if prod(d + 1 for d in dims) <= 12]
    assert len(towers) == 101
    for dims, B in towers:
        facets = small_cover_manifold(product_of_simplices(dims), from_bott(B))
        assert facets.kind == "small_cover" and facets.bmat == B
        for budget in (0, 12):
            assert _intervals(facets, budget) == _intervals(bott_manifold(dims, B), budget)


def test_scrambled_tower_bounds_hold_against_the_exact_search(rng):
    """Facet vectors of a tower after a basis change and a block permutation
    carry the matrix that ref.reduce_to_bott finds, and every end the tower
    rules give holds against the exact zcl."""
    checked = 0
    while checked < 100:
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        if prod(d + 1 for d in dims) > 64:
            continue
        scrambled_dims, vectors = _scramble(dims, random_bott_matrix(dims, rng), rng)
        M = small_cover_manifold(product_of_simplices(scrambled_dims), vectors)
        assert M.bmat == ref.reduce_to_bott(scrambled_dims, vectors).matrix
        n, exact = M.n, zcl_exact(manifold_ring(M), 64).lo
        assert all(value <= exact for _, value, *_ in bounds._at(M, 0).zcl_rules)
        zcl, tc, tcs = (manifold_zcl(M, 0), tc_bounds(M, 0).interval,
                        symm_tc_bounds(M, 0).interval)
        assert zcl.lo <= exact <= zcl.hi, (dims, vectors)
        assert tc.lo <= max(n + 1, exact + 1) and exact + 1 <= tc.hi, (dims, vectors)
        assert exact + 2 <= tcs.hi, (dims, vectors)
        checked += 1


def test_description_reads_the_peel_of_its_own_vectors():
    """P is one object per value and keeps only the peel it last accepted,
    so a description reads the peel of the ring built on its own vectors."""
    dims = (2, 1, 2)
    P = new_polytope(lambda: product_of_simplices(dims))
    mine, other = (BottMatrix.make(dims, beta) for beta in ({(2, 1): (1,)}, {(3, 1): (1, 0)}))
    ring = cohomology.SmallCoverRing(P, from_bott(mine))
    assert charfun.validate(P, from_bott(other)).valid
    M = small_cover_manifold(P, from_bott(mine))
    assert manifold_ring(M) is ring and M.bmat == mine


def test_manifold_zcl_names_the_side_that_set_each_end():
    B = BottMatrix.make((2,))
    exact = manifold_zcl(bott_manifold((2,), B), 12)
    assert (exact.lo, exact.hi) == (3, 3)
    assert exact.hi_source == "exhaustive kernel power search"
    capped = manifold_zcl(bott_manifold((2,), B), 1)
    assert (capped.lo, capped.hi) == (3, 4)
    assert capped.hi_source == "grading cap"
    # over budget the first largest rule sets the lower end: on the 14-gon the
    # degree-one class ties with the facet rule, on the 15-gon the neighbour
    # matrix of the (1,1) edge is invertible
    alternating = [parse_bits(s) for s in ["10", "01"] * 7]
    tie = manifold_zcl(small_cover_manifold(polygon(14), alternating), 12)
    assert (tie.lo, tie.hi, tie.lo_source) == (1, 4, "degree-one diagonal class")
    odd = small_cover_manifold(polygon(15), alternating + [parse_bits("11")])
    iv = manifold_zcl(odd, 12)
    assert (iv.lo, iv.hi, iv.lo_source) == (3, 4, "connected-sum projective subring")
