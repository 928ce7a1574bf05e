"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete; under plain `pytest` the verdicts appear in the captured
output of each test.
"""

import math
import random
import time
from contextlib import contextmanager

from smallcover import gf2
from smallcover.bounds import (
    bott_manifold,
    cat_bounds,
    dold_bounds,
    eq_cat_bounds,
    small_cover_manifold,
    symm_tc_bounds,
    tc_bounds,
)
from smallcover.charfun import BottMatrix, from_bott, parse_bits, validate
from smallcover.cohomology import (
    BottRing,
    SmallCoverRing,
    poincare_pairing,
    projective_ring,
    verify_top_monomial,
)
from smallcover.invariants import (
    certificate_length,
    verify_certificate,
    zcl_certificate_bott,
    zcl_exact,
)
from smallcover.polytope import h_vector, polygon, product_of_simplices

from conftest import all_bott_matrices, random_characteristic, random_product_dims
import tuple_reference as ref


@contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({label})")
        raise
    print(f"criterion {num}: PASS ({label})")


def test_criterion_1_tc_table():
    expected = {
        (16, 8): (47, 49),
        (16, 9): (47, 50),
        (17, 8): (47, 50),
        (17, 9): (47, 51),
    }
    with verdict(1, "TC table for the four large towers"):
        for dims, (lo, hi) in expected.items():
            t0 = time.monotonic()
            rep = tc_bounds(bott_manifold(dims, BottMatrix.make(dims)))
            assert (rep.interval.lo, rep.interval.hi) == (lo, hi), dims
            assert time.monotonic() - t0 < 10.0, dims


def test_criterion_2_top_monomial_sweep():
    with verdict(2, "nonzero top powers over all towers m <= 3, n_j <= 3"):
        t0 = time.monotonic()
        count = 0
        for m in (1, 2, 3):
            for dims, B in all_bott_matrices(m, 3):
                assert verify_top_monomial(B), (dims, dict(B.beta))
                count += 1
        assert count == 3573
        assert time.monotonic() - t0 < 60.0


def test_criterion_3_betti_h_vector_oracle():
    with verdict(3, "betti = h-vector and duality on random pairs"):
        rng = random.Random(31415)
        done = 0
        while done < 50:
            dims = random_product_dims(rng, max_vertices=256, max_m=6)
            P = product_of_simplices(dims)
            lam = random_characteristic(P, rng)
            if lam is None:
                continue
            ring = SmallCoverRing(P, lam)
            assert ring.algebra().betti == h_vector(P).h, dims
            assert poincare_pairing(ring).nondegenerate, dims
            done += 1
        for k in range(3, 13):
            P = polygon(k)
            lam = random_characteristic(P, rng)
            assert lam is not None, k
            ring = SmallCoverRing(P, lam)
            assert ring.algebra().betti == h_vector(P).h, k
            assert poincare_pairing(ring).nondegenerate, k


def test_criterion_4_two_presentations_agree():
    with verdict(4, "triangular and linear-algebra presentations agree"):
        for m in (1, 2, 3):
            for dims, B in all_bott_matrices(m, 3):
                P = product_of_simplices(dims)
                r1 = BottRing(B)
                r2 = SmallCoverRing(P, from_bott(B))
                assert tuple(r1.betti) == r2.algebra().betti, (dims, dict(B.beta))


def test_criterion_5_klein_bottle_and_2m_gons():
    with verdict(5, "Klein bottle and 2m-gon equivariant category"):
        P = polygon(4)
        vectors = [parse_bits(s) for s in ["10", "01", "10", "11"]]
        assert validate(P, vectors).valid
        ring = SmallCoverRing(P, vectors)
        assert tuple(ring.betti) == (1, 2, 1)
        M = small_cover_manifold(P, vectors, involution=(1, 0))
        assert cat_bounds(M).interval.lo == 3
        assert cat_bounds(M).interval.hi == 3
        rep = eq_cat_bounds(M)
        assert (rep.interval.lo, rep.interval.hi) == (4, 4)
        for m in range(2, 6):
            k = 2 * m
            Q = polygon(k)
            lam = [parse_bits("10") if i % 2 == 0 else parse_bits("01") for i in range(k)]
            rep = eq_cat_bounds(small_cover_manifold(Q, lam, involution=(1, 0)))
            assert (rep.interval.lo, rep.interval.hi) == (2 * m, 2 * m), m


def test_criterion_6_exact_zcl_oracle():
    with verdict(6, "exact zero-divisor search against frozen oracles"):
        t0 = time.monotonic()
        assert zcl_exact(projective_ring(1)).lo == 1
        iv = zcl_exact(projective_ring(2))
        assert iv.lo == 3
        assert iv.witness == ("1(x)y1 + y1(x)1",) * 3
        for m in (1, 2, 3):
            for dims, B in all_bott_matrices(m, 3):
                ring = BottRing(B)
                if ring.dim > 12:
                    continue
                cert = zcl_certificate_bott(B)
                assert zcl_exact(ring).lo >= cert.k, (dims, dict(B.beta))
        assert time.monotonic() - t0 < 120.0


def test_criterion_7_symmetric_tc_exact():
    with verdict(7, "symmetric complexity exact at power-of-two dimensions"):
        for s in (1, 2, 3):
            n = 1 << s
            rep = symm_tc_bounds(bott_manifold((n,), BottMatrix.make((n,))))
            assert (rep.interval.lo, rep.interval.hi) == (2 * n + 1, 2 * n + 1), n


def test_criterion_8_dold_intervals():
    with verdict(8, "twisted product complexity intervals"):
        for n, p1, expected in [(2, 2, (7, 9)), (4, 2, (11, 13))]:
            M = bott_manifold((n,), BottMatrix.make((n,)))
            _, tc, _ = dold_bounds(M, [p1])
            assert (tc.interval.lo, tc.interval.hi) == expected, (n, p1)


def test_criterion_9_property_suites():
    with verdict(9, "consistency property suites"):
        rng = random.Random(27182)

        # CLOT sandwich: TC interval meets [cat.lo, 2 cat.hi - 1]
        manifolds = [bott_manifold(dims, B) for dims, B in rng.sample(
            list(all_bott_matrices(2, 3)), 12)]
        P = polygon(4)
        manifolds.append(small_cover_manifold(
            P, [parse_bits(s) for s in ["10", "01", "10", "11"]]))
        for M in manifolds:
            cat = cat_bounds(M).interval
            tc = tc_bounds(M).interval
            assert tc.lo <= 2 * cat.hi - 1 and tc.hi >= cat.lo

        # certificate re-verification
        for dims, beta in [((2,), {}), ((1, 1), {(2, 1): (1,)}),
                           ((2, 3), {(2, 1): (1, 0, 1)}), ((16, 8), {})]:
            B = BottMatrix.make(dims, beta)
            cert = zcl_certificate_bott(B)
            assert cert.k == certificate_length(dims)
            assert cert.product
            assert verify_certificate(BottRing(B), cert)

        # binomial parity against Pascal's triangle mod 2
        for k in range(65):
            for i in range(k + 1):
                assert gf2.binom_odd(k, i) == (math.comb(k, i) % 2 == 1)

        # normal form: idempotent and multiplicative, 10^3 random polynomials per ring
        rings = [
            projective_ring(4),
            BottRing(BottMatrix.make((2, 2), {(2, 1): (1, 1)})),
            BottRing(BottMatrix.make(
                (1, 2, 1), {(2, 1): (1, 0), (3, 2): (1,)})),
        ]
        for ring in rings:
            arity = ring.m
            for _ in range(1000):
                p = ref.poly(
                    tuple(rng.randint(0, 3) for _ in range(arity))
                    for _ in range(rng.randint(0, 4))
                )
                q = ref.poly(
                    tuple(rng.randint(0, 3) for _ in range(arity))
                    for _ in range(rng.randint(0, 4))
                )
                np_ = ring.normal_form(p)
                assert ring.normal_form(np_) == np_
                assert ring.normal_form(ref.poly_mul(p, q)) == ring.normal_form(
                    ref.poly_mul(np_, ring.normal_form(q))
                )
