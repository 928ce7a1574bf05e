import gc
import random
import weakref
from itertools import accumulate, product
from math import prod

import pytest

from smallcover import cohomology, gf2, invariants
from smallcover.charfun import BottMatrix, from_bott, parse_bits
from smallcover.cohomology import (
    BottRing,
    GradedSpan,
    PointRing,
    SmallCoverRing,
    SphereRing,
    apply_step,
    cup_kernel,
    ideal_powers,
    minimal_non_faces,
    poincare_pairing,
    projective_ring,
    tensor_square,
    verify_top_monomial,
)
from smallcover.errors import BudgetExceeded, CharacteristicError, InputError
from smallcover.polytope import explicit_polytope, h_vector, polygon, product_of_simplices
from smallcover.sampling import random_bott_matrix

from conftest import all_bott_matrices, random_characteristic, random_product_dims
import tuple_reference as ref
from dold_reference import DoldRing, TruncatedRing, longest_monomial_levels


def _mult_elem(alg, e1, e2):
    """Product of two homogeneous (degree, mask) elements of alg, bit by bit."""
    (d1, m1), (d2, m2) = e1, e2
    if d1 + d2 > alg.top:
        return (d1 + d2, 0)
    acc = 0
    for i in _bits(m1):
        for j in _bits(m2):
            acc ^= alg.mult_basis(d1, i, d2, j)
    return (d1 + d2, acc)


def _bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- triangular presentation -------------------------------------------------


def test_gamma_relations_text():
    # dims (1, 1), beta (1,): Gamma_1 = y1^2, Gamma_2 = y2(y2 + y1)
    ring = BottRing(BottMatrix.make((1, 1), {(2, 1): (1,)}))
    dold = DoldRing(ring, [1, 2])
    # rendered only when asked for: the search never reads the text
    invariants.zcl_exact(dold, budget=16)
    assert "relations_text" not in vars(ring) and "relations_text" not in vars(dold)
    assert ring.relations_text == ("y1^2", "y2^2 + y1*y2")
    assert dold.relations_text == ("a^2", "a2^2", "y1^2", "y2^2 + y1*y2")


def test_projective_ring_structure():
    ring = projective_ring(3)
    assert ring.betti == (1, 1, 1, 1)
    assert ring.relations_text == ("y1^4",)
    assert ring.normal_form({(3,)}) == frozenset({(3,)})
    assert ring.normal_form({(4,)}) == frozenset()


def _box(dims, d):
    """Monomials of degree d with y_j-degree at most n_j, in grlex order."""
    return sorted((mon for mon in product(*(range(n + 1) for n in dims)) if sum(mon) == d),
                  key=ref.grlex_key)


def _unpacked(ring, packed):
    """A slice monomial of the ring as its exponent tuple."""
    return cohomology._unpack(packed, ring.nvars, ring._width)


def test_standard_monomial_count():
    for dims, beta in [((2, 3), {(2, 1): (1, 0, 1)}), ((3, 1, 2), {(3, 1): (1, 1)}),
                       ((1, 1, 1, 1), {})]:
        ring = BottRing(BottMatrix.make(dims, beta))
        for d in range(ring.top + 1):
            assert [_unpacked(ring, m) for m in ring._slice(d)[2]] == _box(dims, d)
        count = 1
        for n in dims:
            count *= n + 1
        assert ring.dim == count


def _bott_sample():
    rng = random.Random(7)
    towers = [tower for m in (1, 2, 3) for tower in all_bott_matrices(m, 3)]
    sample = rng.sample(towers, 48)
    sample.append(((3, 3, 3), BottMatrix.make((3, 3, 3), {(2, 1): (1, 1, 1), (3, 1): (1, 1, 1),
                                                          (3, 2): (1, 1, 1)})))
    sample.append(((1,) * 5, BottMatrix.make((1,) * 5)))
    sample.append(((1,) * 5, BottMatrix.make(
        (1,) * 5, {(k, j): (1,) for k in range(2, 6) for j in range(1, k)})))
    return sample


def test_bott_table_products_match_normal_form():
    sample = _bott_sample()
    assert any(B.beta for _, B in sample) and any(not B.beta for _, B in sample)
    for dims, B in sample:
        ring = BottRing(B)
        alg = ring.algebra()
        assert alg.betti == ring.betti
        boxes = [_box(dims, d) for d in range(ring.top + 1)]
        for d1 in range(ring.top + 1):
            for d2 in range(ring.top + 1 - d1):
                pos = {mon: k for k, mon in enumerate(boxes[d1 + d2])}
                for i, u in enumerate(boxes[d1]):
                    for j, v in enumerate(boxes[d2]):
                        nf = ring.normal_form(frozenset({ref.mono_mul(u, v)}))
                        mask = sum(1 << pos[mon] for mon in nf)
                        assert alg.mult_basis(d1, i, d2, j) == mask, (dims, B.beta, u, v)


def test_normal_form_idempotent_and_multiplicative(rng):
    ring = BottRing(BottMatrix.make((2, 2), {(2, 1): (1, 1)}))

    def random_poly():
        return ref.poly(
            tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(rng.randint(0, 5))
        )

    for _ in range(300):
        p, q = random_poly(), random_poly()
        np_, nq = ring.normal_form(p), ring.normal_form(q)
        assert ring.normal_form(np_) == np_
        lhs = ring.normal_form(ref.poly_mul(p, q))
        rhs = ring.normal_form(ref.poly_mul(np_, nq))
        assert lhs == rhs


def test_normal_form_kills_relations():
    ring = BottRing(BottMatrix.make((1, 2), {(2, 1): (1, 0)}))
    for g in ref.unpacked_relations(ring):
        assert ring.normal_form(g) == frozenset()


def test_packed_normal_form_matches_tuple_rewriting():
    """On every tower with m <= 3, n_j <= 3, a random polynomial reduces as
    the tuple rewriting reduces it, its monomials above top included."""
    rng = random.Random(5)
    above = 0
    for m in (1, 2, 3):
        for dims, B in all_bott_matrices(m, 3):
            ring = BottRing(B)
            p = ref.poly(tuple(rng.randint(0, n + 2) for n in dims)
                         for _ in range(rng.randint(1, 4)))
            above += sum(sum(mon) > ring.top for mon in p)
            assert ring.normal_form(p) == ref.bott_normal_form(p, dims, B), (dims, B.beta, p)
    assert above > 1000


def test_verify_top_monomial_sweep_small():
    for dims, B in all_bott_matrices(2, 2):
        assert verify_top_monomial(B)


# --- linear-algebra presentation --------------------------------------------


def test_klein_bottle_ring():
    P = polygon(4)
    vectors = [parse_bits(s) for s in ["10", "01", "10", "11"]]
    ring = SmallCoverRing(P, vectors)
    assert ring.betti == (1, 2, 1)
    assert ring.algebra().betti == (1, 2, 1)
    assert poincare_pairing(ring).nondegenerate


def test_small_cover_rejects_invalid():
    # relations are built on first use, but the vectors are checked at once
    P = polygon(4)
    with pytest.raises(CharacteristicError, match="invalid assignment"):
        SmallCoverRing(P, [parse_bits(s) for s in ["10", "01", "10", "10"]])
    P, vectors = _prism(4)
    vectors[P.facet_count - 1] = vectors[0]
    with pytest.raises(CharacteristicError, match="invalid assignment"):
        SmallCoverRing(P, vectors)
    with pytest.raises(CharacteristicError, match="expected 4 vectors"):
        SmallCoverRing(product_of_simplices((1, 1)), [(1, 0), (0, 1), (1, 1)])


# --- packed relations against the tuple-built reference ----------------------


def _reference_non_face_relations(P, vectors):
    """The nonzero minimal-non-face products, each facet class substituted
    by tuple arithmetic as a linear polynomial in the free classes."""
    r = P.facet_count
    reduced, pivot_cols = ref.row_reduce([[vectors[f][i] for f in range(r)]
                                          for i in range(P.n)])
    free = [c for c in range(r) if c not in pivot_cols]
    k = len(free)
    subs = {c: frozenset({ref.mono_var(k, i + 1)}) for i, c in enumerate(free)}
    for row in reduced:
        lead = row.bit_length() - 1
        subs[lead] = frozenset(ref.mono_var(k, i + 1)
                               for i, c in enumerate(free) if (row >> c) & 1)
    out = []
    for S in minimal_non_faces(P):
        g = frozenset({ref.mono_one(k)})
        for f in S:
            g = ref.poly_mul(g, subs[f])
        if g:
            out.append(g)
    return tuple(out)


def _reference_relations(ring):
    if ring.kind == "bott":
        return ref.gammas(ring.dims, ring.bmat)
    return _reference_non_face_relations(ring.P, ref.tuples(ring.vectors, ring.P.n))


def _shuffled_prism(rng, k):
    """The prism over the k-gon with its facets relabelled and its vertices
    listed in a random order, and valid vectors for it."""
    P, vectors = _prism(k)
    perm = list(range(P.facet_count))
    rng.shuffle(perm)
    vertices = [sorted(perm[f] for f in v) for v in P.vertices]
    rng.shuffle(vertices)
    moved = [None] * P.facet_count
    for f, v in enumerate(vectors):
        moved[perm[f]] = v
    return explicit_polytope(3, P.facet_count, vertices), moved


def test_packed_relations_unpack_to_the_tuple_reference(rng):
    rings = list(_step_rings())
    # the one Dold ring: its fibre's relation and its base's
    dold = rings.pop()
    assert dold.relations_text == ("a^2", "y1^3")
    rings.append(dold.base)
    assert len(rings) == 108
    for k in range(3, 13):
        rings.append(SmallCoverRing(polygon(k), random_characteristic(polygon(k), rng)))
    for k in (3, 4, 5, 6, 8):
        rings.append(SmallCoverRing(*_shuffled_prism(rng, k)))
    for dims in [(1, 1), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1), (3, 3, 3), (1,) * 5]:
        rings.append(SmallCoverRing(product_of_simplices(dims),
                                    _scrambled_bott_vectors(rng, dims)))
    rings.append(SmallCoverRing(polygon(64), _polygon_vectors(64)))
    for n in range(1, 9):  # the RP^n facet documents: e_1, ..., e_n, 1...1
        rp = [tuple(int(c == i) for c in range(n)) for i in range(n)] + [(1,) * n]
        rings.append(SmallCoverRing(product_of_simplices((n,)), rp))
    for ring in rings:
        expected = _reference_relations(ring)
        assert ref.unpacked_relations(ring) == expected, ring.relations_text
        assert ring.relations_text == tuple(ref.poly_render(g, ring.names) for g in expected)
        assert [d for d, _ in ring._packed] == [ref.poly_deg(g) for g in expected]
        assert all(d <= ring.top + 1 for d, _ in ring._packed)
    # relations of degree top + 1 render: the triangle and RP^5 by facets
    triangle = SmallCoverRing(polygon(3), [(1, 0), (0, 1), (1, 1)])
    assert triangle.relations_text == ("z1^3",)
    assert [d for d, _ in triangle._packed] == [3]
    assert rings[-4].relations_text == ("z1^6",)


def test_reduced_rows_match_the_coordinate_matrix_reference(rng):
    """The ring's fully reduced rows, read off the facet masks, are the row
    reduction of the coordinate matrix: row i holds coordinate i of every
    facet vector."""
    covers = []
    for m in (1, 2, 3):
        for dims, B in all_bott_matrices(m, 2):
            P = product_of_simplices(dims)
            covers += [(P, from_bott(B)), (P, _scrambled_bott_vectors(rng, dims))]
    assert len(covers) == 2 * 254
    for k in range(3, 13):
        covers.append((polygon(k), random_characteristic(polygon(k), rng)))
    for k in (3, 4, 5, 6, 8):
        covers.append(_shuffled_prism(rng, k))
    for _ in range(20):
        dims = random_product_dims(rng)
        covers.append((product_of_simplices(dims), _scrambled_bott_vectors(rng, dims)))
    for P, vectors in covers:
        bits = ref.tuples(vectors, P.n)
        reduced, _ = ref.row_reduce([[v[i] for v in bits] for i in range(P.n)])
        assert SmallCoverRing(P, vectors)._reduced == reduced, (P.family, vectors)


def test_truncated_fibre_and_point_relations():
    fibre = TruncatedRing("a", 2)
    assert ref.unpacked_relations(fibre) == (frozenset({(3,)}),)
    assert fibre.relations_text == ("a^3",)
    alg = fibre.algebra()
    assert alg.betti == (1, 1, 1) and alg.mult_basis(1, 0, 1, 0) == 1
    assert [alg.label(d, 0) for d in range(3)] == ["1", "a", "a^2"]
    assert DoldRing(projective_ring(3), [2, 3]).relations_text == ("a^3", "a2^2", "y1^4")
    assert PointRing()._packed == () and PointRing().relations_text == ()


def test_relations_built_on_first_use():
    ring = BottRing(BottMatrix.make((2, 1), {(2, 1): (1,)}))
    assert {"_packed", "relations_text", "_tails"}.isdisjoint(vars(ring))
    assert ring.betti == (1, 2, 2, 1) and ring.dim == 6
    assert "_packed" not in vars(ring)
    assert ring.normal_form({(3, 0)}) == frozenset()  # rewriting reads the tails
    assert "_tails" in vars(ring) and "relations_text" not in vars(ring)
    ring = SmallCoverRing(polygon(5), _polygon_vectors(5))
    assert ring.betti == (1, 3, 1) and "_packed" not in vars(ring)
    ring.algebra()
    assert "_packed" in vars(ring) and "relations_text" not in vars(ring)


def test_minimal_non_faces_product():
    P = product_of_simplices((1, 2))
    assert minimal_non_faces(P) == [(0, 1), (2, 3, 4)]


def test_minimal_non_faces_polygon():
    assert minimal_non_faces(polygon(4)) == [(0, 2), (1, 3)]
    assert len(minimal_non_faces(polygon(6))) == 9


def test_minimal_non_faces_explicit_agrees():
    for P in ([product_of_simplices(dims) for dims in [(1, 1), (1, 2), (2, 2)]]
              + [polygon(k) for k in range(3, 9)]):
        Q = explicit_polytope(P.n, P.facet_count, [sorted(v) for v in P.vertices])
        assert sorted(minimal_non_faces(P)) == minimal_non_faces(Q), P.family


def test_betti_equals_h_vector_products(rng):
    for _ in range(15):
        dims = random_product_dims(rng, max_vertices=128, max_m=4)
        P = product_of_simplices(dims)
        lam = random_characteristic(P, rng)
        if lam is None:
            continue
        ring = SmallCoverRing(P, lam)
        assert ring.algebra().betti == h_vector(P).h


def test_tower_dimension_is_the_sum_of_its_betti_numbers():
    towers = [B for m in (1, 2, 3) for _, B in all_bott_matrices(m, 3)]
    assert len(towers) == 3573
    for B in towers:
        ring = BottRing(B)
        dim = ring.dim
        assert "betti" not in vars(ring)  # read without the Betti numbers
        assert dim == sum(ring.betti), B.dims


def test_betti_equals_h_vector_polygons(rng):
    for k in range(3, 13):
        P = polygon(k)
        lam = random_characteristic(P, rng)
        assert lam is not None
        ring = SmallCoverRing(P, lam)
        assert ring.algebra().betti == h_vector(P).h
        assert poincare_pairing(ring).nondegenerate


def test_two_presentations_agree(rng):
    cases = list(all_bott_matrices(2, 3))
    for dims, B in rng.sample(cases, 25):
        P = product_of_simplices(dims)
        r1 = BottRing(B)
        r2 = SmallCoverRing(P, from_bott(B))
        assert tuple(r1.betti) == r2.algebra().betti


# --- sphere, point, twisted products -----------------------------------------


def test_sphere_ring():
    ring = SphereRing(3)
    assert ring.betti == (1, 0, 0, 1)
    alg = ring.algebra()
    assert _mult_elem(alg, (3, 1), (3, 1)) == (6, 0)  # s^2 = 0
    with pytest.raises(InputError):
        SphereRing(0)


def test_point_ring():
    assert PointRing().betti == (1,)


def test_dold_ring_over_projective_plane():
    ring = DoldRing(projective_ring(2), [2])
    assert ring.top == 4
    assert ring.betti == (1, 2, 3, 2, 1)
    assert poincare_pairing(ring).nondegenerate


def test_dold_ring_over_sphere():
    # free generator in degree 1 truncated at p1, square-zero ones above
    ring = DoldRing(SphereRing(3), [1, 2])
    assert ring.top == 6
    assert sum(ring.betti) == 2 * 2 * 2
    assert poincare_pairing(ring).nondegenerate


def _dold_bases():
    """RP^1..RP^3, S^1..S^3, a twisted (1,1) tower, the Klein bottle, a point."""
    yield from (projective_ring(n) for n in (1, 2, 3))
    yield from (SphereRing(n) for n in (1, 2, 3))
    yield BottRing(BottMatrix.make((1, 1), {(2, 1): (1,)}))
    yield SmallCoverRing(polygon(4), [parse_bits(s) for s in ["10", "01", "10", "11"]])
    yield PointRing()


_DOLD_EXPONENTS = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 1),
                   (1, 2, 3), (1, 2, 2)]


def _split_dold_label(label, r):
    """(a-exponent, a2..ar exponents, base label) of a basis label such as
    a^2*a3*y1; the fibre factors are the ones named a, a^e or a<i>."""
    exps = [0] * r
    base = []
    for part in label.split("*"):
        if part == "a":
            exps[0] = 1
        elif part.startswith("a^"):
            exps[0] = int(part[2:])
        elif part.startswith("a") and part[1:].isdigit():
            exps[int(part[1:]) - 1] = 1
        elif part != "1":
            base.append(part)
    return tuple(exps), "*".join(base) or "1"


def test_dold_products_follow_exponent_arithmetic():
    """a^e * a^f = a^{e+f} up to a^{p_1}, a_i^2 = 0, and the base multiplies
    as itself: every basis product of 90 Dold rings."""
    checked = 0
    for p in _DOLD_EXPONENTS:
        for base in _dold_bases():
            ring = DoldRing(base, p)
            alg, balg = ring.algebra(), base.algebra()
            assert alg.betti == ring.betti
            base_pos = {balg.label(d, i): (d, i)
                        for d in range(balg.top + 1) for i in range(balg.betti[d])}
            pos, elems = {}, {}
            for d in range(alg.top + 1):
                for i in range(alg.betti[d]):
                    label = alg.label(d, i)
                    exps, blabel = _split_dold_label(label, len(p))
                    key = (exps, base_pos[blabel])
                    assert key not in pos, label
                    pos[key] = (d, i)
                    elems[(d, i)] = key
            assert len(pos) == ring.dim == (p[0] + 1) * 2 ** (len(p) - 1) * base.dim
            for (d1, i), (u, (bd1, bi)) in elems.items():
                for (d2, j), (v, (bd2, bj)) in elems.items():
                    w = tuple(e + f for e, f in zip(u, v))
                    expected = 0
                    if w[0] <= p[0] and all(e <= 1 for e in w[1:]):
                        bmask = balg.mult_basis(bd1, bi, bd2, bj)
                        for k in range(bmask.bit_length()):
                            if (bmask >> k) & 1:
                                d, idx = pos[(w, (bd1 + bd2, k))]
                                assert d == d1 + d2
                                expected |= 1 << idx
                    assert alg.mult_basis(d1, i, d2, j) == expected, (
                        p, alg.label(d1, i), alg.label(d2, j))
                    checked += 1
    assert checked == 24050


def test_dold_budget_check_builds_nothing():
    base = BottRing(BottMatrix.make((3,) * 5))
    ring = DoldRing(base, [1, 2])
    with pytest.raises(BudgetExceeded):
        invariants.zcl_exact(ring, 12)
    assert ring.dim == 4096
    assert ring._alg is None and base._alg is None


def test_dold_ring_validation():
    with pytest.raises(InputError):
        DoldRing(projective_ring(2), [])
    with pytest.raises(InputError):
        DoldRing(projective_ring(2), [2, 1])  # not ascending
    with pytest.raises(InputError):
        DoldRing(DoldRing(projective_ring(1), [1]), [1])  # unsupported base


def test_poincare_pairing_needs_top_class():
    # a ring with betti (1, 2) has no one-dimensional top class
    P = polygon(4)
    ring = SmallCoverRing(P, [parse_bits(s) for s in ["10", "01", "10", "11"]])
    assert poincare_pairing(ring).by_degree == (True, True, True)


# --- algebra generators and the ideal-power step ------------------------------


def test_algebra_generators_degrees():
    def degrees(ring):
        return [d for d, _ in ring.algebra().gens]

    assert degrees(PointRing()) == []
    assert degrees(SphereRing(3)) == [3]
    assert degrees(projective_ring(5)) == [1]
    assert degrees(BottRing(BottMatrix.make((2, 3), {(2, 1): (1, 0, 1)}))) == [1, 1]
    assert degrees(BottRing(BottMatrix.make((1, 1, 1)))) == [1, 1, 1]
    # Dold rings: the truncated class a, the square-zero classes, the base
    assert degrees(DoldRing(projective_ring(2), [2])) == [1, 1]
    assert degrees(DoldRing(SphereRing(3), [1, 2])) == [1, 2, 3]
    assert degrees(DoldRing(projective_ring(1), [2, 2])) == [1, 1, 2]


def _reference_generators(alg):
    """Generators by search: in each positive degree d, the basis elements
    that extend the span of the products A_i * A_{d-i} (0 < i < d), taken
    greedily in basis order, a complement of the decomposables."""
    gens = []
    for d in range(1, alg.top + 1):
        span = GradedSpan()
        for i in range(1, d // 2 + 1):
            for a in range(alg.betti[i]):
                for b in range(alg.betti[d - i]):
                    span.insert(d, alg.mult_basis(i, a, d - i, b))
        for k in range(alg.betti[d]):
            if span.insert(d, 1 << k):
                gens.append((d, 1 << k))
    return gens


def test_declared_generators_match_the_decomposables_search():
    from test_bounds import DOLD_EXPONENTS, _dold_bases

    rings = list(_step_rings())
    rings += [DoldRing(base, p) for _, _, base in _dold_bases() for p in DOLD_EXPONENTS]
    assert len(rings) == 188
    for ring in rings:
        alg = ring.algebra()
        assert list(alg.gens) == _reference_generators(alg), ring.kind


def _polygon_vectors(k):
    vectors = [(1, 0), (0, 1)] * (k // 2)
    return vectors + [(1, 1)] if k % 2 else vectors


def _prism(k):
    P = explicit_polytope(3, k + 2, [(i, (i + 1) % k, cap)
                                     for i in range(k) for cap in (k, k + 1)])
    return P, [v + (0,) for v in _polygon_vectors(k)] + [(0, 0, 1), (0, 0, 1)]


def _reference_powers(T, kernel):
    """Kernel powers by full span products: every basis vector of I^k times
    every kernel basis vector, multiplied bit by bit in the tensor square."""
    powers = []
    V = GradedSpan()
    for d, m in kernel:
        V.insert(d, m)
    while not V.is_zero:
        powers.append(V)
        W = GradedSpan()
        for v in V.basis():
            for g in kernel:
                d, m = _mult_elem(T, v, g)
                if m:
                    W.insert(d, m)
        V = W
    return powers


def _step_rings():
    """The 101 towers of dimension <= 12, polygons, prisms and a Dold ring."""
    count = 0
    for m in (1, 2, 3):
        for dims, B in all_bott_matrices(m, 3):
            ring = BottRing(B)
            if ring.dim <= 12:
                yield ring
                count += 1
    assert count == 101
    for k in (4, 5, 6, 7):
        yield SmallCoverRing(polygon(k), _polygon_vectors(k))
    for k in (3, 4):
        yield SmallCoverRing(*_prism(k))
    yield DoldRing(projective_ring(2), [1])


def _diagonal(T, g):
    """g (x) 1 + 1 (x) g for a homogeneous g of positive degree, in a
    tensor square with the unit as basis element (0, 0)."""
    d, m = g
    acc = 0
    while m:
        i = m.bit_length() - 1
        m &= ~(1 << i)
        acc ^= (1 << T.index[(d, i, 0, 0)]) ^ (1 << T.index[(0, 0, d, i)])
    return (d, acc)


def _diagonal_step(T, A, g):
    """Step table of g (x) 1 + 1 (x) g in the tensor square T = A (x) A, by
    the pair index: the pair a (x) b maps to (a.g) (x) b + a (x) (b.g)."""
    s = g[0]
    by_g = [[_mult_elem(A, (d, 1 << i), g)[1] for i in range(A.betti[d])]
            for d in range(A.top + 1)]
    rows = []
    for d in range(T.top + 1 - s):
        out = []
        for d1, i1, d2, i2 in T.pairs[d]:
            row = 0
            m = by_g[d1][i1]
            while m:
                low = m & -m
                row ^= 1 << T.index[(d1 + s, low.bit_length() - 1, d2, i2)]
                m ^= low
            m = by_g[d2][i2]
            while m:
                low = m & -m
                row ^= 1 << T.index[(d1, i1, d2 + s, low.bit_length() - 1)]
                m ^= low
            out.append(row)
        rows.append(out)
    return s, rows


def _render_elem(alg, e):
    d, m = e
    if not m:
        return "0"
    return " + ".join(alg.label(d, i) for i in range(alg.betti[d]) if (m >> i) & 1)


def _reference_steps(T, alg):
    return [_diagonal_step(T, alg, g) for g in alg.gens]


def _reference_search(alg):
    """(k, exponents, witness) of the longest nonzero monomial in the
    diagonal classes, searched in a built tensor square: whole step tables
    by the pair index, each witness factor rendered from its mask."""
    T = tensor_square(alg)
    diagonals = [_diagonal(T, g) for g in alg.gens]
    steps = _reference_steps(T, alg)
    m = len(diagonals)
    level = [(j, d, mask, tuple(int(i == j) for i in range(m)))
             for j, (d, mask) in enumerate(diagonals) if mask]
    k, best = 0, (0,) * m
    while level:
        k, best = k + 1, level[0][3]
        nxt = []
        for j, d, mask, a in level:
            for i in range(j, m):
                s, rows = steps[i]
                if d < len(rows):
                    image = apply_step(rows[d], mask)
                    if image:
                        nxt.append((i, d + s, image, a[:i] + (a[i] + 1,) + a[i + 1:]))
        level = nxt
    witness = tuple(_render_elem(T, z) for z, e in zip(diagonals, best) for _ in range(e))
    return k, best, witness


@pytest.fixture(scope="module")
def step_references():
    """(ring, T, kernel, reference powers) for each ring of `_step_rings`,
    built once for the tests that compare with the full-kernel reference.
    Dropped with the module, so no later test meets its polytopes."""
    out = []
    for ring in _step_rings():
        T, kernel = cup_kernel(ring.algebra())
        out.append((ring, T, kernel, _reference_powers(T, kernel)))
    return tuple(out)


def test_generator_step_matches_full_kernel_step(step_references):
    for ring, T, kernel, full in step_references:
        fast = ideal_powers(kernel, _reference_steps(T, ring.algebra()))
        assert len(fast) == len(full)
        for a, b in zip(fast, full):
            assert all(b.contains(*v) for v in a.basis())
            assert all(a.contains(*v) for v in b.basis())


def test_monomial_search_matches_full_kernel_reference(step_references):
    for ring, T, kernel, full in step_references:
        alg = ring.algebra()
        iv = invariants.zcl_exact(ring)
        assert iv.lo == len(full) == len(iv.witness)
        # the search's limit by a second route: the top degree is
        # one-dimensional, and the full kernel's powers vanish from 2 top on
        assert alg.betti[alg.top] == 1 and len(full) <= 2 * alg.top - 1
        # the witness factors are diagonal classes, rendered; each lies in
        # the kernel and their product is nonzero
        diagonals = {_render_elem(T, z): z
                     for z in (_diagonal(T, g) for g in alg.gens)}
        product = (0, 1)
        for factor in iv.witness:
            z = diagonals[factor]
            assert full[0].contains(*z)
            product = _mult_elem(T, product, z)
        assert product[1]
    iv = invariants.zcl_exact(PointRing())
    assert (iv.lo, iv.witness) == (0, ())


class _TwoDimensionalTop(cohomology.QuotientRing):
    """Z2[a, b]/(a^2, ab, b^2), Betti numbers 1 2: a top degree of dimension
    two, where a product of 2 top diagonal classes need not cancel."""

    def __init__(self):
        super().__init__(["a", "b"], 1)

    def _relations(self):
        w = self._width
        return ((2, (2,)), (2, (1 + (1 << w),)), (2, (2 << w,)))


def test_search_runs_to_twice_the_top_on_a_two_dimensional_top():
    """z_a z_b = a(x)b + b(x)a is not zero, so the zcl is 2 = 2 top: the
    search may end at 2 top - 1 only when the top degree is one-dimensional."""
    ring = _TwoDimensionalTop()
    alg = ring.algebra()
    assert alg.betti == (1, 2)
    iv = invariants.zcl_exact(ring)
    assert (iv.lo, iv.hi) == (2, 2) == (2 * ring.top,) * 2
    assert iv.witness == ("1(x)a + a(x)1", "1(x)b + b(x)1")
    assert invariants._longest_monomial(alg) == _reference_search(alg)[:2] == (2, (1, 1))


def test_search_stops_at_its_first_witness_of_length_2_top_minus_1(monkeypatch):
    """On the 64-gon, zcl = 3 = 2 top - 1, the largest possible, so the search
    ends at the first monomial of that length: three steps, where a search of
    the whole tree takes thousands."""
    calls = 0
    times = invariants._Diagonal.times

    def counted(self, M):
        nonlocal calls
        calls += 1
        return times(self, M)

    monkeypatch.setattr(invariants._Diagonal, "times", counted)
    ring = SmallCoverRing(polygon(64), _polygon_vectors(64))
    iv = invariants.zcl_exact(ring, 64)
    assert iv.lo == 3 == 2 * ring.top - 1
    assert calls == 3


def test_diagonal_step_is_multiplication_by_the_diagonal():
    for ring in (projective_ring(3), DoldRing(projective_ring(2), [1]),
                 SmallCoverRing(*_prism(3))):
        alg = ring.algebra()
        T, _ = cup_kernel(alg)
        for g in alg.gens:
            s, rows = _diagonal_step(T, alg, g)
            z = _diagonal(T, g)
            for d, table in enumerate(rows):
                for i, row in enumerate(table):
                    assert (d + s, row) == _mult_elem(T, (d, 1 << i), z)


def test_diagonal_classes_lie_in_the_kernel():
    alg = projective_ring(3).algebra()
    T, kernel = cup_kernel(alg)
    z = _diagonal(T, (1, 1))
    assert z[0] == 1 and bin(z[1]).count("1") == 2
    assert _render_elem(T, z) == "1(x)y1 + y1(x)1"
    assert _reference_powers(T, kernel)[0].contains(*z)


def _twisted(dims):
    """The tower on dims with every twisting block all ones."""
    return BottRing(BottMatrix.make(dims, {(k, j): (1,) * dims[k - 1]
                                                 for k in range(2, len(dims) + 1)
                                                 for j in range(1, k)}))


def _large_rings():
    """The three rings the search is checked on at budget 64."""
    return [_twisted((3, 3, 3)), _twisted((1,) * 6),
            SmallCoverRing(polygon(64), _polygon_vectors(64))]


def test_search_matches_tensor_square_reference():
    small = list(_step_rings()) + [DoldRing(projective_ring(2), [1, 2]),
                                   DoldRing(SphereRing(2), [1]), PointRing()]
    for budget, rings in ((12, small), (64, _large_rings())):
        for ring in rings:
            k, exponents = invariants._longest_monomial(ring.algebra())
            iv = invariants.zcl_exact(ring, budget)
            assert iv.lo == k
            assert (k, exponents, iv.witness) == _reference_search(ring.algebra()), \
                ring.relations_text


def test_search_matches_the_level_loop(rng):
    """The depth-first search finds the level loop's (k, exponents), and so
    the same witness text, on every tower with m <= 3, n_j <= 3 and ring
    dimension <= 32, on the 3- to 32-gons with `_polygon_vectors` and with
    sampled vectors, and on sampled prisms and products within budget 64."""
    rings = [BottRing(B) for m in (1, 2, 3) for dims, B in all_bott_matrices(m, 3)
             if prod(d + 1 for d in dims) <= 32]
    assert len(rings) == 1717
    nonzero = [(1, 0), (0, 1), (1, 1)]
    for k in range(3, 33):
        # sampled: neighbouring edges, the last and the first too, get distinct
        # nonzero vectors, which form a basis
        sampled = [rng.choice(nonzero)]
        for i in range(1, k):
            sampled.append(rng.choice([v for v in nonzero if v != sampled[-1]
                                       and (i < k - 1 or v != sampled[0])]))
        rings += [SmallCoverRing(polygon(k), vectors) for vectors in (_polygon_vectors(k), sampled)]
    for k in (3, 4, 5, 7, 9, 12, 16, 24, 32):  # 2k vertices
        P, vectors = _shuffled_prism(rng, k)
        sampled = random_characteristic(P, rng)
        rings += [SmallCoverRing(P, v) for v in (vectors, sampled) if v is not None]
    products = 0
    while products < 30:
        P = product_of_simplices(random_product_dims(rng, max_vertices=64))
        vectors = random_characteristic(P, rng)
        if vectors is not None:
            rings.append(SmallCoverRing(P, vectors))
            products += 1
    for ring in rings:
        alg = ring.algebra()
        assert invariants._longest_monomial(alg) == longest_monomial_levels(alg), \
            ring.relations_text


def _diagonals(alg):
    offset = list(accumulate(alg.betti, initial=0))
    return offset, [invariants._Diagonal(alg, offset, s, m.bit_length() - 1)
                    for s, m in alg.gens]


def _as_matrix(T, offset, d, mask):
    """A degree-d element of the tensor square T as the search keeps it:
    {row: mask} over A's whole basis, nonzero rows only."""
    M = {}
    for b in _bits(mask):
        d1, i, d2, j = T.pairs[d][b]
        M[offset[d1] + i] = M.get(offset[d1] + i, 0) ^ (1 << offset[d2] + j)
    return M


def test_diagonal_action_matches_the_pair_index_tables():
    # z_g and z_g . M against the reference tables indexed through a built
    # tensor square: every basis pair of every degree, then sums of pairs,
    # twice each so the second reads the kept r.G; the two Dold rings have
    # generators in degree 2 (a2 and s)
    rng = random.Random(32)
    for ring in (projective_ring(3), DoldRing(projective_ring(2), [1, 2]),
                 DoldRing(SphereRing(2), [1]), SmallCoverRing(*_prism(3))):
        alg = ring.algebra()
        T = tensor_square(alg)
        offset, diagonals = _diagonals(alg)
        for g, z in zip(alg.gens, diagonals):
            assert z.z == _as_matrix(T, offset, *_diagonal(T, g))
            s, table = _diagonal_step(T, alg, g)
            for d in range(T.top + 1):
                n = T.betti[d]
                masks = [1 << b for b in range(n)] + [rng.randrange(1, 1 << n) for _ in range(8)]
                for mask in masks * 2:
                    image = apply_step(table[d], mask) if d < len(table) else 0
                    assert (z.times(_as_matrix(T, offset, d, mask))
                            == _as_matrix(T, offset, d + s, image)), (ring.relations_text, g, d)


def test_exponent_caps_are_sound():
    # cap = 2^h - 1 with z_g^(2^h) = 0 and z_g^(2^(h-1)) != 0, by repeated
    # squaring in a built tensor square
    rings = list(_step_rings()) + _large_rings()
    for ring in rings:
        alg = ring.algebra()
        T = tensor_square(alg)
        for g, z in zip(alg.gens, _diagonals(alg)[1]):
            h = z.cap.bit_length()
            assert z.cap == (1 << h) - 1
            power = _diagonal(T, g)
            for _ in range(h - 1):
                power = _mult_elem(T, power, power)
            assert power[1], (ring.relations_text, g)
            assert not _mult_elem(T, power, power)[1], (ring.relations_text, g)
    # below the grading cap: y^4 = 0 in RP^3, so z^3 is the longest power,
    # where the tensor square's top degree is 6
    (z,) = _diagonals(projective_ring(3).algebra())[1]
    assert z.cap == 3


def test_ideal_powers_need_positive_degree_generators():
    with pytest.raises(InputError):
        ideal_powers([(1, 1)], [(0, [[1]])])


def test_rings_freed_by_reference_count():
    # a ring and its algebra form no reference cycle: del frees the ring
    # without the cycle collector; nor does the exact search leave one
    rings = [lambda: BottRing(BottMatrix.make((1, 2), {(2, 1): (1, 0)})),
             lambda: SmallCoverRing(polygon(5), _polygon_vectors(5))]
    gc.collect()
    gc.disable()
    try:
        for make in rings:
            ring = make()
            ring.algebra().mult_basis(1, 0, 1, 0)
            invariants.zcl_exact(ring)
            ref = weakref.ref(ring)
            del ring
            assert ref() is None
        assert gc.collect() == 0
        # P keeps the ring it was built on only weakly, and hands it back
        # while it lives
        P, vectors = polygon(5), _polygon_vectors(5)
        ring = SmallCoverRing(P, vectors)
        assert SmallCoverRing._on(P, vectors) is ring
        assert SmallCoverRing._on(P, vectors[::-1]) is not ring
        ring = SmallCoverRing(P, vectors)
        ring.algebra().mult_basis(1, 0, 1, 0)
        ref = weakref.ref(ring)
        del ring
        assert ref() is None and vars(P)["_ring"]() is None
        assert SmallCoverRing._on(P, vectors).vectors == tuple(map(gf2.mask_of, vectors))
    finally:
        gc.enable()


class _NoDuality(cohomology.QuotientRing):
    """Z2[x, y]/(x^2, xy) up to degree 3, Betti numbers 1 2 1 1: no
    duality between degrees 1 and 2."""

    def __init__(self):
        super().__init__(["x", "y"], 3)

    def _relations(self):
        return ((2, (2,)), (2, (1 + (1 << self._width),)))


def _full_pairing(ring):
    """poincare_pairing's flags by the loop over every degree."""
    alg = ring.algebra()
    flags = []
    for d in range(alg.top + 1):
        e = alg.top - d
        rows = [sum(1 << j for j in range(alg.betti[e]) if alg.mult_basis(d, i, e, j))
                for i in range(alg.betti[d])]
        flags.append(alg.betti[d] == alg.betti[e]
                     and len(gf2.row_reduce_masks(rows)) == alg.betti[d])
    return tuple(flags)


def test_symmetric_pairing_matches_the_full_loop(rng):
    rings = list(_step_rings())
    rings += [SmallCoverRing(polygon(k), random_characteristic(polygon(k), rng))
              for k in range(3, 13)]
    rings += [SmallCoverRing(*_shuffled_prism(rng, k)) for k in range(3, 9)]
    for ring in rings:
        assert poincare_pairing(ring).by_degree == _full_pairing(ring), ring.kind
    degenerate = _NoDuality()
    assert degenerate.betti == (1, 2, 1, 1)
    assert poincare_pairing(degenerate).by_degree == _full_pairing(degenerate)
    assert poincare_pairing(degenerate).by_degree == (True, False, False, True)


# --- table-driven products ---------------------------------------------------


def _scrambled_bott_vectors(rng, dims):
    """from_bott vectors of a random tower under a random basis change."""
    vectors = ref.from_bott(dims, random_bott_matrix(dims, rng))
    n = sum(dims)
    while True:
        C = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if gf2.rank_gf2(C) == n:
            break
    return [tuple(sum(r[i] * v[i] for i in range(n)) & 1 for r in C) for v in vectors]


def _reference_products(ring):
    """Every basis product by the bit-by-bit reduction of its monomial, the
    slice monomials unpacked and multiplied as exponent tuples."""
    out = {}
    for d1 in range(ring.top + 1):
        for d2 in range(ring.top + 1 - d1):
            mons, pivots, basis = ring._slice(d1 + d2)
            mons = [_unpacked(ring, mon) for mon in mons]
            basis = [_unpacked(ring, mon) for mon in basis]
            pos = {mon: k for k, mon in enumerate(mons)}
            bpos = {mon: k for k, mon in enumerate(basis)}
            for i, u in enumerate(_unpacked(ring, m) for m in ring._slice(d1)[2]):
                for j, v in enumerate(_unpacked(ring, m) for m in ring._slice(d2)[2]):
                    mask = 1 << pos[ref.mono_mul(u, v)]
                    reducible = True
                    while reducible:
                        reducible = False
                        rest = mask
                        while rest:
                            lead = rest.bit_length() - 1
                            if lead in pivots:
                                mask ^= pivots[lead]
                                reducible = True
                                break
                            rest &= ~(1 << lead)
                    basis_mask = 0
                    for k, mon in enumerate(mons):
                        if (mask >> k) & 1:
                            basis_mask |= 1 << bpos[mon]
                    out[(d1, i, d2, j)] = basis_mask
    return out


def test_table_products_match_reduction(rng):
    cases = []
    for dims in [(1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2), (1, 1, 1, 1), (3, 3),
                 (2, 2, 1), (3, 3, 3), (1, 1, 1, 1, 1, 2), (3, 3, 3, 3)]:
        cases.append((product_of_simplices(dims), _scrambled_bott_vectors(rng, dims)))
    for k in range(3, 13):
        cases.append((polygon(k), random_characteristic(polygon(k), rng)))
    for k in range(3, 9):
        P, _ = _prism(k)
        cases.append((P, random_characteristic(P, rng)))
    for P, vectors in cases:
        assert vectors is not None, P.family
        ring = SmallCoverRing(P, vectors)
        alg = ring.algebra()
        expected = _reference_products(ring)
        assert expected
        for (d1, i, d2, j), mask in expected.items():
            assert alg.mult_basis(d1, i, d2, j) == mask, (P.family, d1, i, d2, j)


# --- division on rings whose relations lead with pure powers -------------------


def _matches_elimination(ring):
    """The algebra's basis and table of each degree equal the slice's."""
    alg = ring.algebra()
    for d in range(ring.top + 1):
        mons, pivots, basis = ring._slice(d)
        assert alg.basis[d] == basis, (ring.relations_text, d)
        assert alg.table(d) == cohomology._normal_form_table(mons, pivots), (
            ring.relations_text, d)


def test_pure_power_leads_give_the_box_and_the_slices_tables(rng):
    """On every tower with m <= 3, n_j <= 3 and n <= 7, and on seeded
    product covers, the division's box basis and tables equal elimination's;
    a cover whose leads are not all pure powers of distinct variables takes
    elimination, so its comparison guards the detection."""
    towers = [BottRing(B) for m in (1, 2, 3) for dims, B in all_bott_matrices(m, 3)
              if sum(dims) <= 7]
    assert len(towers) == 2165
    covers = []
    while len(covers) < 120:
        P = product_of_simplices(random_product_dims(rng, max_vertices=64))
        vectors = random_characteristic(P, rng)
        if vectors is not None:
            covers.append(SmallCoverRing(P, vectors))
    divided = sum(ring._tails is not None for ring in covers)
    assert 30 <= divided <= 90, divided
    for ring in towers + covers:
        assert ring._tails is not None or ring.kind == "small_cover"
        _matches_elimination(ring)
    # leads that are not pure powers, or share a variable: polygon (z1*z3
    # twice), prism (z1*z3, z1*z4) and the square's z1*z2 beside z2^2
    prism, vectors = _prism(6)
    for ring in (SmallCoverRing(polygon(5), _polygon_vectors(5)), SmallCoverRing(prism, vectors),
                 SmallCoverRing(product_of_simplices((1, 1)), [(1, 0), (1, 0), (0, 1), (1, 1)])):
        assert ring._tails is None, ring.relations_text
        _matches_elimination(ring)
