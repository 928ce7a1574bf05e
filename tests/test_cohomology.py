import random

import pytest

from smallcover import gf2
from smallcover.charfun import BottMatrix, from_bott, parse_bits
from smallcover.cohomology import (
    BottRing,
    GradedAlgebra,
    SmallCoverRing,
    algebra_generators,
    bott_ring,
    cup_kernel,
    dold_ring,
    ideal_powers,
    minimal_non_faces,
    point_ring,
    poincare_pairing,
    projective_ring,
    small_cover_ring,
    sphere_ring,
    substitute_x,
    verify_top_monomial,
)
from smallcover.errors import CharacteristicError, InputError
from smallcover.polytope import explicit_polytope, h_vector, polygon, product_of_simplices

from conftest import all_bott_matrices, random_characteristic, random_product_dims


# --- triangular presentation -------------------------------------------------


def test_gamma_relations_text():
    # dims (1, 1), beta (1,): Gamma_1 = y1^2, Gamma_2 = y2(y2 + y1)
    ring = BottRing((1, 1), BottMatrix.make((1, 1), {(2, 1): (1,)}))
    assert ring.relations_text == ("y1^2", "y2^2 + y1*y2")


def test_projective_ring_structure():
    ring = projective_ring(3)
    assert ring.betti == (1, 1, 1, 1)
    assert ring.relations_text == ("y1^4",)
    assert ring.power(1, 3) == frozenset({(3,)})
    assert ring.power(1, 4) == frozenset()


def test_standard_monomial_count():
    ring = BottRing((2, 3), BottMatrix.make((2, 3), {(2, 1): (1, 0, 1)}))
    std = ring.standard_monomials()
    assert sum(len(s) for s in std) == 3 * 4
    assert ring.dim == 12
    for d, mons in enumerate(std):
        for mon in mons:
            assert sum(mon) == d and ring.is_standard(mon)


def test_normal_form_idempotent_and_multiplicative(rng):
    ring = BottRing((2, 2), BottMatrix.make((2, 2), {(2, 1): (1, 1)}))

    def random_poly():
        return gf2.poly(
            tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(rng.randint(0, 5))
        )

    for _ in range(300):
        p, q = random_poly(), random_poly()
        np_, nq = ring.normal_form(p), ring.normal_form(q)
        assert ring.normal_form(np_) == np_
        lhs = ring.normal_form(gf2.poly_mul(p, q))
        rhs = ring.normal_form(gf2.poly_mul(np_, nq))
        assert lhs == rhs


def test_normal_form_kills_relations():
    ring = BottRing((1, 2), BottMatrix.make((1, 2), {(2, 1): (1, 0)}))
    for g in ring.gammas:
        assert ring.normal_form(g) == frozenset()


def test_verify_top_monomial_sweep_small():
    for dims, B in all_bott_matrices(2, 2):
        assert verify_top_monomial(dims, B)


def test_substitute_x():
    # dims (1, 1), beta (1,): x1 -> y1 + ... depends on the beta column
    dims = (1, 1)
    B = BottMatrix.make(dims, {(2, 1): (1,)})
    # non-distinguished facet of block 2 carries the beta twist from block 1
    assert substitute_x(dims, B, 2) == frozenset({(1, 0), (0, 1)})
    assert substitute_x(dims, B, 1) == frozenset({(1, 0)})
    # distinguished facets map to the plain generators
    assert substitute_x(dims, B, 3) == frozenset({(1, 0)})
    assert substitute_x(dims, B, 4) == frozenset({(0, 1)})
    with pytest.raises(InputError):
        substitute_x(dims, B, 5)


# --- linear-algebra presentation --------------------------------------------


def test_klein_bottle_ring():
    P = polygon(4)
    vectors = [parse_bits(s) for s in ["10", "01", "10", "11"]]
    ring, basis = small_cover_ring(P, vectors)
    assert ring.betti == (1, 2, 1)
    assert basis.betti == (1, 2, 1)
    assert poincare_pairing(ring).nondegenerate


def test_small_cover_rejects_invalid():
    P = polygon(4)
    with pytest.raises(CharacteristicError):
        SmallCoverRing(P, [parse_bits(s) for s in ["10", "01", "10", "10"]])


def test_minimal_non_faces_product():
    P = product_of_simplices((1, 2))
    assert minimal_non_faces(P) == [(0, 1), (2, 3, 4)]


def test_minimal_non_faces_polygon():
    assert minimal_non_faces(polygon(4)) == [(0, 2), (1, 3)]
    assert len(minimal_non_faces(polygon(6))) == 9


def test_minimal_non_faces_explicit_agrees():
    from smallcover.polytope import explicit_polytope

    for dims in [(1, 1), (1, 2), (2, 2)]:
        P = product_of_simplices(dims)
        Q = explicit_polytope(P.n, P.facet_count, [sorted(v) for v in P.vertices])
        assert sorted(minimal_non_faces(P)) == minimal_non_faces(Q)


def test_betti_equals_h_vector_products(rng):
    for _ in range(15):
        dims = random_product_dims(rng, max_vertices=128, max_m=4)
        P = product_of_simplices(dims)
        lam = random_characteristic(P, rng)
        if lam is None:
            continue
        ring = SmallCoverRing(P, lam)
        assert tuple(ring.betti) == h_vector(P).h


def test_betti_equals_h_vector_polygons(rng):
    for k in range(3, 13):
        P = polygon(k)
        lam = random_characteristic(P, rng)
        assert lam is not None
        ring = SmallCoverRing(P, lam)
        assert tuple(ring.betti) == h_vector(P).h
        assert poincare_pairing(ring).nondegenerate


def test_two_presentations_agree(rng):
    cases = list(all_bott_matrices(2, 3))
    for dims, B in rng.sample(cases, 25):
        P = product_of_simplices(dims)
        r1 = bott_ring(dims, B)
        r2 = SmallCoverRing(P, from_bott(dims, B))
        assert tuple(r1.betti) == tuple(r2.betti)


# --- sphere, point, twisted products -----------------------------------------


def test_sphere_ring():
    ring = sphere_ring(3)
    assert ring.betti == (1, 0, 0, 1)
    alg = ring.algebra()
    assert alg.mult_elem((3, 1), (3, 1)) == (6, 0)  # s^2 = 0
    with pytest.raises(InputError):
        sphere_ring(0)


def test_point_ring():
    assert point_ring().betti == (1,)


def test_dold_ring_over_projective_plane():
    ring = dold_ring(projective_ring(2), [2])
    assert ring.top == 4
    assert ring.betti == (1, 2, 3, 2, 1)
    assert poincare_pairing(ring).nondegenerate


def test_dold_ring_over_sphere():
    # free generator in degree 1 truncated at p1, square-zero ones above
    ring = dold_ring(sphere_ring(3), [1, 2])
    assert ring.top == 6
    assert sum(ring.betti) == 2 * 2 * 2
    assert poincare_pairing(ring).nondegenerate


def test_dold_ring_validation():
    with pytest.raises(InputError):
        dold_ring(projective_ring(2), [])
    with pytest.raises(InputError):
        dold_ring(projective_ring(2), [2, 1])  # not ascending
    with pytest.raises(InputError):
        dold_ring(dold_ring(projective_ring(1), [1]), [1])  # unsupported base


def test_poincare_pairing_needs_top_class():
    # a ring with betti (1, 2) has no one-dimensional top class
    P = polygon(4)
    ring = SmallCoverRing(P, [parse_bits(s) for s in ["10", "01", "10", "11"]])
    assert poincare_pairing(ring).by_degree == (True, True, True)


# --- algebra generators and the ideal-power step ------------------------------


def test_algebra_generators_degrees():
    def degrees(ring):
        return [d for d, _ in algebra_generators(ring.algebra())]

    assert degrees(point_ring()) == []
    assert degrees(sphere_ring(3)) == [3]
    assert degrees(projective_ring(5)) == [1]
    assert degrees(BottRing((2, 3), BottMatrix.make((2, 3), {(2, 1): (1, 0, 1)}))) == [1, 1]
    assert degrees(BottRing((1, 1, 1), BottMatrix.make((1, 1, 1)))) == [1, 1, 1]
    # Dold rings: the truncated class a, the square-zero classes, the base
    assert degrees(dold_ring(projective_ring(2), [2])) == [1, 1]
    assert degrees(dold_ring(sphere_ring(3), [1, 2])) == [1, 2, 3]
    assert degrees(dold_ring(projective_ring(1), [2, 2])) == [1, 1, 2]
    with pytest.raises(InputError):
        algebra_generators(GradedAlgebra([2, 1], lambda d1, i, d2, j: 0))


def _polygon_vectors(k):
    vectors = [(1, 0), (0, 1)] * (k // 2)
    return vectors + [(1, 1)] if k % 2 else vectors


def _prism(k):
    P = explicit_polytope(3, k + 2, [(i, (i + 1) % k, cap)
                                     for i in range(k) for cap in (k, k + 1)])
    return P, [v + (0,) for v in _polygon_vectors(k)] + [(0, 0, 1), (0, 0, 1)]


def _assert_same_powers(ring):
    alg = ring.algebra()
    T, kernel = cup_kernel(alg)
    diagonals = [T.diagonal(g) for g in algebra_generators(alg)]
    fast = ideal_powers(T, kernel, diagonals)
    full = ideal_powers(T, kernel, kernel)
    assert len(fast) == len(full)
    for a, b in zip(fast, full):
        assert all(b.contains(*v) for v in a.basis())
        assert all(a.contains(*v) for v in b.basis())


def test_generator_step_matches_full_kernel_step():
    count = 0
    for m in (1, 2, 3):
        for dims, B in all_bott_matrices(m, 3):
            ring = BottRing(dims, B)
            if ring.dim <= 12:
                _assert_same_powers(ring)
                count += 1
    assert count == 101
    for k in (4, 5, 6, 7):
        _assert_same_powers(SmallCoverRing(polygon(k), _polygon_vectors(k)))
    for k in (3, 4):
        _assert_same_powers(SmallCoverRing(*_prism(k)))
    _assert_same_powers(dold_ring(projective_ring(2), [1]))


def test_diagonal_classes_lie_in_the_kernel():
    alg = projective_ring(3).algebra()
    T, kernel = cup_kernel(alg)
    z = T.diagonal((1, 1))
    assert z[0] == 1 and bin(z[1]).count("1") == 2
    assert T.render_elem(z) == "1(x)y1 + y1(x)1"
    assert ideal_powers(T, kernel, kernel)[0].contains(*z)


def test_ideal_powers_need_positive_degree_generators():
    alg = projective_ring(2).algebra()
    with pytest.raises(InputError):
        ideal_powers(alg, [(1, 1)], [(0, 1)])


# --- table-driven products ---------------------------------------------------


def _scrambled_bott_vectors(rng, dims):
    """from_bott vectors of a random tower under a random basis change."""
    m = len(dims)
    beta = {(k, j): tuple(rng.randint(0, 1) for _ in range(dims[k - 1]))
            for k in range(2, m + 1) for j in range(1, k)}
    vectors = from_bott(dims, BottMatrix.make(dims, beta))
    n = sum(dims)
    while True:
        C = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if gf2.rank_gf2(C) == n:
            break
    return [tuple(sum(r[i] * v[i] for i in range(n)) & 1 for r in C) for v in vectors]


def _reference_products(ring):
    """Every basis product by the bit-by-bit reduction of its monomial."""
    out = {}
    for d1 in range(ring.top + 1):
        for d2 in range(ring.top + 1 - d1):
            mons, pivots, basis = ring._slice(d1 + d2)
            pos = {mon: k for k, mon in enumerate(mons)}
            bpos = {mon: k for k, mon in enumerate(basis)}
            for i, u in enumerate(ring._slice(d1)[2]):
                for j, v in enumerate(ring._slice(d2)[2]):
                    mask = 1 << pos[gf2.mono_mul(u, v)]
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
