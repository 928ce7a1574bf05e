import random

import pytest

from smallcover.charfun import BottMatrix, parse_bits
from smallcover.cohomology import (
    BottRing,
    PointRing,
    SmallCoverRing,
    SphereRing,
    projective_ring,
)
from smallcover.errors import BudgetExceeded, InputError
from smallcover.invariants import (
    LEADING_TERM_ARGUMENT,
    MAX_EXACT_BUDGET,
    RP_CLOSED_FORM,
    IntervalValue,
    ZclCertificate,
    certificate_length,
    cup_length,
    power_exponent,
    sphere_zcl_declared,
    verify_certificate,
    zcl_certificate_bott,
    zcl_exact,
    zcl_interval,
    zcl_rp,
)
from smallcover.polytope import polygon
from smallcover.sampling import random_bott_matrix

from conftest import all_bott_matrices
from dold_reference import TruncatedRing, cup_length_algebra
import tuple_reference as ref


def test_interval_value_validation():
    iv = IntervalValue(2, 5, "a", "b")
    assert not iv.exact
    assert IntervalValue(3, 3, "a", "b").exact
    with pytest.raises(InputError):
        IntervalValue(5, 2, "a", "b")
    with pytest.raises(InputError):
        IntervalValue(1, 2, "", "b")


def test_cup_length_closed_forms():
    assert cup_length(projective_ring(4)) == 4
    assert cup_length(SphereRing(5)) == 1
    assert cup_length(PointRing()) == 0
    P = polygon(4)
    ring = SmallCoverRing(P, [parse_bits(s) for s in ["10", "01", "10", "11"]])
    assert cup_length(ring) == 2
    # no search behind the closed forms: a kind the package builds none of
    with pytest.raises(InputError, match="kind 'truncated'"):
        cup_length(TruncatedRing("x", 3))


def test_power_exponent_and_certificate_length():
    assert [power_exponent(n) for n in (1, 2, 3, 4, 7, 8, 16, 17)] == [
        1, 2, 2, 3, 3, 4, 5, 5,
    ]
    assert certificate_length((16, 8)) == 31 + 15
    assert certificate_length((17, 9)) == 31 + 15
    assert certificate_length((2,)) == 3
    # exact past a float's 53 bits, where log2(n + 1) rounds down to log2(n)
    assert power_exponent(2 ** 53) == 54 and power_exponent(2 ** 60) == 61
    assert certificate_length((2 ** 60,)) == 2 ** 61 - 1


# frozen oracle values: known zero-divisor-cup-lengths of small projective rings
RP_ZCL = {1: 1, 2: 3, 3: 3, 4: 7}


def test_zcl_exact_projective_oracles():
    for n, expected in RP_ZCL.items():
        iv = zcl_exact(projective_ring(n))
        assert iv.exact and iv.lo == expected
        assert len(iv.witness) == expected
    # the deepest search the CLI's largest budget allows: one frame per factor
    iv = zcl_exact(projective_ring(127), MAX_EXACT_BUDGET)
    assert iv.lo == 127 == len(iv.witness) == zcl_rp(127).lo


def test_zcl_exact_witness_rp2():
    iv = zcl_exact(projective_ring(2))
    # the cube of the diagonal class survives
    assert iv.witness == ("1(x)y1 + y1(x)1",) * 3


def test_zcl_exact_budget():
    with pytest.raises(BudgetExceeded):
        zcl_exact(projective_ring(20), budget=12)


def test_zcl_exact_at_least_certificate():
    for dims, B in all_bott_matrices(2, 2):
        ring = BottRing(B)
        if ring.dim > 12:
            continue
        cert = zcl_certificate_bott(B)
        assert zcl_exact(ring).lo >= cert.k


def _seeded_twisted_towers(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(4, 5)
        dims = tuple(rng.randint(1, 3) for _ in range(m))
        yield dims, random_bott_matrix(dims, rng)


def test_certificate_verifies():
    """The leading-term certificate passes the full-expansion oracle."""
    towers = [(dims, BottMatrix.make(dims, beta)) for dims, beta in [
        ((2,), {}),
        ((1, 1), {(2, 1): (1,)}),
        ((2, 3), {(2, 1): (1, 0, 1)}),
        ((16, 8), {}),
    ]]
    towers += [t for m in (1, 2, 3) for t in all_bott_matrices(m, 3)]
    towers += list(_seeded_twisted_towers(12, 6180))
    for dims, B in towers:
        cert = zcl_certificate_bott(B)
        assert cert.k == certificate_length(dims) == len(cert.factors)
        assert verify_certificate(BottRing(B), cert), (dims, dict(B.beta))
        # each split term y_j^(d_j-n_j) (x) y_j^n_j, rendered as tuples render
        m, names = len(dims), [f"y{j}" for j in range(1, len(dims) + 1)]
        splits = [frozenset({(ref.mono_var(m, j, (1 << power_exponent(n)) - 1 - n),
                              ref.mono_var(m, j, n))}) for j, n in enumerate(dims, start=1)]
        assert cert.surviving_terms == tuple(ref.tensor_render(t, names) for t in splits)


def test_certificate_equals_the_reference_construction():
    towers = [B for m in (1, 2, 3) for _, B in all_bott_matrices(m, 3)]
    rng = random.Random(3608)
    for _ in range(40):
        dims = tuple(rng.randint(1, 9) for _ in range(8))
        towers.append(random_bott_matrix(dims, rng))
    assert len(towers) == 3573 + 40
    for B in towers:
        assert zcl_certificate_bott(B) == ref.zcl_certificate_bott(B.dims), B.dims


def test_certificate_rejects_tampering():
    B = BottMatrix.make((2,))
    cert = zcl_certificate_bott(B)
    ring = BottRing(B)
    bad = ZclCertificate(cert.k + 1, cert.factors, cert.product, cert.surviving_terms)
    assert not verify_certificate(ring, bad)
    # a factor outside the cup kernel fails the membership check
    leaky = ZclCertificate(
        1, (frozenset({((0,), (1,))}),), frozenset({((0,), (1,))})
    )
    assert not verify_certificate(ring, leaky)
    # a witness term the expansion does not contain fails the oracle
    y = ((1,), (1,))
    forged = ZclCertificate(cert.k, cert.factors, frozenset({y}), cert.surviving_terms)
    assert not verify_certificate(ring, forged)


def test_certificate_legs_above_top_do_not_carry():
    # in a (1, 1) tower, top = 2 and a field is 2 bits wide, so y1^4 would
    # carry into y2's field; it has degree 4 > top and is zero instead
    dims = (1, 1)
    B = BottMatrix.make(dims, {(2, 1): (1,)})
    ring = BottRing(B)
    one, y2, y1_4 = (0, 0), (0, 1), (4, 0)
    witness = frozenset({(one, y2)})
    honest = ZclCertificate(1, (frozenset({(one, y2), (y2, one)}),), witness)
    forged = ZclCertificate(1, (frozenset({(one, y1_4), (y1_4, one)}),), witness)
    assert verify_certificate(ring, honest) and ref.verify_certificate(dims, B, honest)
    assert not verify_certificate(ring, forged)
    assert not ref.verify_certificate(dims, B, forged)
    assert ring.normal_form({y1_4}) == frozenset()
    # in RP^2 the cup product y^2 y^2 = y^4 has degree 4 > top and is zero,
    # though its exponent overflows its 2-bit field
    B = BottMatrix.make((2,))
    square = frozenset({((2,), (2,))})
    top_class = ZclCertificate(1, (square,), square)
    assert verify_certificate(BottRing(B), top_class)
    assert ref.verify_certificate((2,), B, top_class)


def _forged_factor(rng, dims):
    """Random terms u (x) v, mostly in symmetric pairs (which the cup
    product kills); a quarter of the legs have exponents up to top + 2."""
    top = sum(dims)

    def leg():
        if rng.random() < 0.25:
            return tuple(rng.randint(0, top + 2) for _ in dims)
        return tuple(rng.randint(0, n) for n in dims)

    terms: set = set()
    for _ in range(rng.randint(1, 3)):
        u, v = leg(), leg()
        terms ^= {(u, v), (v, u)} if rng.random() < 0.8 else {(u, v)}
    return frozenset(terms)


def test_oracle_matches_the_tuple_reference_on_forged_certificates():
    rng = random.Random(1618)
    verdicts = []
    for dims, B in [t for m in (1, 2) for t in all_bott_matrices(m, 2)]:
        ring = BottRing(B)
        for _ in range(8):
            factors = tuple(_forged_factor(rng, dims) for _ in range(rng.randint(1, 3)))
            terms = sorted(ref.certificate_product(dims, B, factors))
            terms.append((tuple(rng.randint(0, n) for n in dims), dims))
            witness = frozenset(rng.sample(terms, rng.randint(1, min(2, len(terms)))))
            cert = ZclCertificate(len(factors), factors, witness)
            verdicts.append(ref.verify_certificate(dims, B, cert))
            assert verify_certificate(ring, cert) == verdicts[-1], (dims, dict(B.beta), cert)
    assert len(verdicts) // 8 <= sum(verdicts) <= len(verdicts) // 2, sum(verdicts)


def test_leading_term_certificate_holds_the_split_term_only():
    dims = (1, 2, 3, 4)
    B = BottMatrix.make(dims, {(2, 1): (1, 1), (4, 2): (1, 0, 1, 1)})
    cert = zcl_certificate_bott(B)
    # d = (1, 3, 3, 7): T* = y^(d-n) (x) y^n
    assert cert.product == frozenset({((0, 1, 0, 3), dims)})
    assert cert.surviving_terms == ("1(x)y1", "y2(x)y2^2", "1(x)y3^3", "y4^3(x)y4^4")
    assert cert.argument == LEADING_TERM_ARGUMENT


def test_zcl_rp_exact_and_structured():
    # closed form, one source, equal to the exact search inside the budget
    for n in range(1, 12):
        iv = zcl_rp(n)
        assert iv.exact and iv.lo_source == iv.hi_source == RP_CLOSED_FORM
        assert iv.lo == zcl_exact(projective_ring(n)).lo, n
    assert [zcl_rp(n).lo for n in (15, 16, 20, 31, 32)] == [15, 31, 31, 31, 63]
    with pytest.raises(InputError):
        zcl_rp(0)


def test_zcl_interval_routes():
    iv = zcl_interval(projective_ring(2))
    assert iv.exact and iv.lo == 3
    # big triangular ring: certificate route
    iv = zcl_interval(BottRing(BottMatrix.make((16, 8))))
    assert iv.lo == 46 and iv.hi == 48
    # spheres: declared values
    assert zcl_interval(SphereRing(3)).lo == 1
    assert zcl_interval(SphereRing(7)).lo == 1
    assert sphere_zcl_declared(4) == 2
    assert sphere_zcl_declared(5) == 1


def test_cup_length_algebra_matches_closed_forms():
    rings = [
        projective_ring(4),
        SphereRing(3),
        PointRing(),
        BottRing(BottMatrix.make((2, 3), {(2, 1): (1, 0, 1)})),
        SmallCoverRing(polygon(5), [parse_bits(s) for s in ["10", "01", "10", "01", "11"]]),
    ]
    for ring in rings:
        assert cup_length_algebra(ring.algebra()) == cup_length(ring)


def test_zcl_exact_checks_the_budget_on_every_call():
    ring = projective_ring(3)
    iv = zcl_exact(ring)
    assert (iv.lo, iv.hi) == (3, 3) and zcl_exact(ring) == iv
    # the budget is checked on every call, a searched ring too
    with pytest.raises(BudgetExceeded):
        zcl_exact(ring, budget=3)


def test_zcl_exact_twisted_tower_at_budget_64():
    # the (3,3,3) tower with every twisting block 111: dimension 64, zcl 17,
    # well above the certificate's 9
    dims = (3, 3, 3)
    B = BottMatrix.make(dims, {(2, 1): (1, 1, 1), (3, 1): (1, 1, 1), (3, 2): (1, 1, 1)})
    ring = BottRing(B)
    assert ring.dim == 64 and certificate_length(dims) == 9
    iv = zcl_exact(ring, budget=64)
    assert (iv.lo, iv.hi) == (17, 17) and len(iv.witness) == 17
