import pytest

from smallcover.charfun import BottMatrix, parse_bits
from smallcover.cohomology import (
    BottRing,
    SmallCoverRing,
    dold_ring,
    point_ring,
    projective_ring,
    sphere_ring,
)
from smallcover.errors import BudgetExceeded, InputError
from smallcover.invariants import (
    IntervalValue,
    certificate_length,
    cup_length,
    cup_length_algebra,
    norm_cup_length,
    power_exponent,
    sphere_zcl_declared,
    verify_certificate,
    zcl_certificate_bott,
    zcl_exact,
    zcl_interval,
    zcl_rp,
)
from smallcover.polytope import polygon

from conftest import all_bott_matrices


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
    assert cup_length(sphere_ring(5)) == 1
    assert cup_length(point_ring()) == 0
    assert cup_length(dold_ring(projective_ring(2), [2])) == 4
    P = polygon(4)
    ring = SmallCoverRing(P, [parse_bits(s) for s in ["10", "01", "10", "11"]])
    assert cup_length(ring) == 2


def test_power_exponent_and_certificate_length():
    assert [power_exponent(n) for n in (1, 2, 3, 4, 7, 8, 16, 17)] == [
        1, 2, 2, 3, 3, 4, 5, 5,
    ]
    assert certificate_length((16, 8)) == 31 + 15
    assert certificate_length((17, 9)) == 31 + 15
    assert certificate_length((2,)) == 3


# frozen oracle values: known zero-divisor-cup-lengths of small projective rings
RP_ZCL = {1: 1, 2: 3, 3: 3, 4: 7}


def test_zcl_exact_projective_oracles():
    for n, expected in RP_ZCL.items():
        iv = zcl_exact(projective_ring(n))
        assert iv.exact and iv.lo == expected
        assert len(iv.witness) == expected


def test_zcl_exact_witness_rp2():
    iv = zcl_exact(projective_ring(2))
    # the cube of the diagonal class survives
    assert iv.witness == ("1(x)y1 + y1(x)1",) * 3


def test_zcl_exact_budget():
    with pytest.raises(BudgetExceeded):
        zcl_exact(projective_ring(20), budget=12)


def test_zcl_exact_at_least_certificate():
    for dims, B in all_bott_matrices(2, 2):
        ring = BottRing(dims, B)
        if ring.dim > 12:
            continue
        cert = zcl_certificate_bott(dims, B)
        assert zcl_exact(ring).lo >= cert.k


def test_certificate_verifies():
    for dims, beta in [
        ((2,), {}),
        ((1, 1), {(2, 1): (1,)}),
        ((2, 3), {(2, 1): (1, 0, 1)}),
        ((16, 8), {}),
    ]:
        B = BottMatrix.make(dims, beta)
        cert = zcl_certificate_bott(dims, B)
        assert cert.k == certificate_length(dims)
        assert verify_certificate(BottRing(dims, B), cert)


def test_certificate_rejects_tampering():
    B = BottMatrix.make((2,))
    cert = zcl_certificate_bott((2,), B)
    ring = BottRing((2,), B)
    from smallcover.invariants import ZclCertificate

    bad = ZclCertificate(cert.k + 1, cert.factors, cert.product, cert.surviving_terms)
    assert not verify_certificate(ring, bad)
    # a factor outside the cup kernel fails the membership check
    leaky = ZclCertificate(
        1, (frozenset({((0,), (1,))}),), frozenset({((0,), (1,))})
    )
    assert not verify_certificate(ring, leaky)


def test_zcl_rp_exact_and_structured():
    assert zcl_rp(1).lo == 1
    assert zcl_rp(2) == zcl_exact(projective_ring(2))
    # beyond the budget: power-of-two dimension gives 2^{s+1} - 1
    iv = zcl_rp(16, budget=4)
    assert iv.lo == 31 and iv.hi == 32
    # generic large n: odd-binomial window bound
    iv = zcl_rp(20, budget=4)
    assert iv.lo >= 20 and iv.hi == 40
    with pytest.raises(InputError):
        zcl_rp(0)


def test_zcl_interval_routes():
    iv = zcl_interval(projective_ring(2))
    assert iv.exact and iv.lo == 3
    # big triangular ring: certificate route
    iv = zcl_interval(BottRing((16, 8), BottMatrix.make((16, 8))))
    assert iv.lo == 46 and iv.hi == 48
    # spheres: declared values
    assert zcl_interval(sphere_ring(3)).lo == 1
    assert zcl_interval(sphere_ring(7)).lo == 1
    assert sphere_zcl_declared(4) == 2
    assert sphere_zcl_declared(5) == 1


def test_norm_cup_length_labels():
    iv = norm_cup_length(projective_ring(2))
    assert iv.lo == 3 and iv.lo_source.startswith("norm subring")
    assert norm_cup_length(point_ring()).lo == 0


def test_cup_length_algebra_matches_closed_forms():
    rings = [
        projective_ring(4),
        sphere_ring(3),
        point_ring(),
        dold_ring(projective_ring(2), [2]),
        dold_ring(sphere_ring(3), [1, 2]),
        BottRing((2, 3), BottMatrix.make((2, 3), {(2, 1): (1, 0, 1)})),
        SmallCoverRing(polygon(5), [parse_bits(s) for s in ["10", "01", "10", "01", "11"]]),
    ]
    for ring in rings:
        assert cup_length_algebra(ring.algebra()) == cup_length(ring)


def test_zcl_exact_kept_on_the_ring():
    ring = projective_ring(3)
    iv = zcl_exact(ring)
    assert zcl_exact(ring) is iv
    # the budget is still checked before the kept result is reused
    with pytest.raises(BudgetExceeded):
        zcl_exact(ring, budget=3)
