"""Hand-computed values for the benchmark's oracle helpers.

Run with `python3 -m pytest perfbench/test_oracles.py`.
"""

import pytest

from oracles import (
    BottArithmetic,
    certificate_length,
    h_polygon,
    h_prism,
    h_product_of_simplices,
    parse_monomial,
    parse_tensor,
    rank_gf2,
    witness_problem,
    zcl_rp,
    zcl_untwisted,
)


def test_zcl_rp_first_values():
    assert [zcl_rp(n) for n in range(1, 9)] == [1, 3, 3, 7, 7, 7, 7, 15]
    assert zcl_rp(16) == 31 and zcl_rp(17) == 31 and zcl_rp(31) == 31


def test_zcl_untwisted_sums_blocks():
    assert zcl_untwisted((16, 8)) == 46
    assert zcl_untwisted((17, 9)) == 46
    assert zcl_untwisted((1, 2, 3)) == 1 + 3 + 3


def test_certificate_length():
    assert certificate_length((1,)) == 1
    assert certificate_length((2,)) == 3
    assert certificate_length((3,)) == 3
    assert certificate_length((4,)) == 7
    assert certificate_length((1, 3)) == 4
    assert certificate_length((3,) * 8) == 24


def test_h_vectors():
    assert h_product_of_simplices((1, 1)) == (1, 2, 1)
    assert h_product_of_simplices((2,)) == (1, 1, 1)
    assert h_product_of_simplices((2, 1)) == (1, 2, 2, 1)
    assert h_product_of_simplices((1, 1, 1)) == (1, 3, 3, 1)
    assert h_polygon(5) == (1, 3, 1)
    assert h_prism(3) == (1, 2, 2, 1)  # triangular prism: 5 facets, 6 vertices
    assert sum(h_prism(8)) == 16


def test_rank_gf2():
    assert rank_gf2([]) == 0
    assert rank_gf2([(1, 0), (0, 1)]) == 2
    assert rank_gf2([(1, 1), (1, 1)]) == 1
    assert rank_gf2([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 2  # rows sum to zero
    assert rank_gf2([(0, 0, 0)]) == 0


def test_parse_monomial_and_tensor():
    assert parse_monomial("1", 2) == (0, 0)
    assert parse_monomial("y1^2*y2", 2) == (2, 1)
    assert parse_tensor("1(x)y1 + y1(x)1", 1) == {((0,), (1,)), ((1,), (0,))}
    with pytest.raises(ValueError):
        parse_monomial("z1", 2)


def test_projective_plane_reduction():
    rp2 = BottArithmetic((2,), {})
    assert rp2.reduce({(3,)}) == set()
    assert rp2.reduce({(2,), (1,)}) == {(2,), (1,)}


def test_twisted_reduction():
    # (1,1) with beta_{2,1} = (1): y2^2 = y1 y2, and y1^2 = 0
    arith = BottArithmetic((1, 1), {(2, 1): (1,)})
    assert arith.reduce({(0, 2)}) == {(1, 1)}
    assert arith.reduce({(0, 3)}) == set()


def test_witness_recheck():
    rp2 = BottArithmetic((2,), {})
    a = "1(x)y1 + y1(x)1"
    assert witness_problem(rp2, [a] * 3) == ""
    assert witness_problem(rp2, [a] * 5) == "witness product vanishes"
    assert "not a zero divisor" in witness_problem(rp2, ["1(x)y1"])
