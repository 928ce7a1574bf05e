import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcover import gf2
from smallcover.errors import InputError

import tuple_reference as ref

bit_rows = st.lists(
    st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=1, max_size=6
)


def brute_rank(rows):
    n = len(rows[0])
    vecs = set()
    for combo in range(1, 1 << len(rows)):
        v = [0] * n
        for i in range(len(rows)):
            if (combo >> i) & 1:
                v = [(a + b) % 2 for a, b in zip(v, rows[i])]
        if any(v):
            vecs.add(tuple(v))
    count = len(vecs) + 1  # include zero
    return count.bit_length() - 1


@given(bit_rows)
def test_rank_matches_brute_force(rows):
    assert gf2.rank_gf2(rows) == brute_rank(rows)


@given(bit_rows)
def test_row_reduce_is_rref(rows):
    reduced, pivots = ref.row_reduce(rows)
    assert len(reduced) == gf2.rank_gf2(rows)
    assert pivots == sorted(pivots)
    for i, r in enumerate(reduced):
        assert r.bit_length() - 1 == pivots[i]
        # pivot column is zero in every other row
        for j, other in enumerate(reduced):
            if i != j:
                assert not (other >> pivots[i]) & 1


@given(bit_rows)
def test_column_rref_reduces_the_transposed_rows(rows):
    # each row is a column: its rank may fall short of the row count
    transposed = [[r[i] for r in rows] for i in range(len(rows[0]))]
    assert gf2.column_rref([gf2.mask_of(r) for r in rows]) == ref.row_reduce(transposed)[0]


def test_kernel_combos_span_the_kernel():
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(1, 8)
        images = [rng.getrandbits(4) for _ in range(k)]
        kernel = gf2.kernel_combos(images)
        for combo in kernel:
            acc = 0
            for j in range(k):
                if (combo >> j) & 1:
                    acc ^= images[j]
            assert acc == 0
        # dimension check: |kernel| = k - rank(images)
        rank = len(gf2.row_reduce_masks(images))
        assert len(kernel) == k - rank


def test_binom_odd_matches_comb():
    for k in range(40):
        for i in range(k + 1):
            assert gf2.binom_odd(k, i) == (math.comb(k, i) % 2 == 1)
    with pytest.raises(InputError):
        gf2.binom_odd(3, 4)
    with pytest.raises(InputError):
        gf2.binom_odd(3, -1)


def test_mask_round_trip():
    assert gf2.mask_of((1, 0, 1)) == 0b101
    assert gf2.bits_of(0b101, 3) == (1, 0, 1)


# the exponent-tuple arithmetic the tests keep as their reference


def test_poly_arithmetic():
    x = frozenset({ref.mono_var(2, 1)})
    y = frozenset({ref.mono_var(2, 2)})
    s = x ^ y
    # (x + y)^2 = x^2 + y^2 in characteristic 2
    sq = ref.poly_mul(s, s)
    assert sq == frozenset({(2, 0), (0, 2)})
    assert x ^ x == ref.ZERO_POLY
    assert ref.poly_deg(sq) == 2
    assert ref.poly_deg(ref.ZERO_POLY) == -1


@settings(max_examples=50)
@given(st.data())
def test_poly_mul_commutes_and_associates(data):
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    polys = st.frozensets(mono, max_size=4)
    a, b, c = data.draw(polys), data.draw(polys), data.draw(polys)
    assert ref.poly_mul(a, b) == ref.poly_mul(b, a)
    assert ref.poly_mul(ref.poly_mul(a, b), c) == ref.poly_mul(a, ref.poly_mul(b, c))
    # distributivity
    assert ref.poly_mul(a, b ^ c) == ref.poly_mul(a, b) ^ ref.poly_mul(a, c)


def test_render_parse_round_trip():
    names = ["y1", "y2", "y3"]
    p = frozenset({(2, 0, 1), (0, 1, 0), (0, 0, 0)})
    # graded lex, highest term first, "1" for the unit monomial
    assert ref.poly_render(p, names) == "y1^2*y3 + y2 + 1"
    assert ref.poly_render(ref.ZERO_POLY, names) == "0"
    assert gf2.mono_render((2, 0, 1), names) == "y1^2*y3"


def test_grlex_order():
    # graded first, then lex with the last variable dominating
    assert ref.grlex_key((0, 2)) > ref.grlex_key((1, 1))
    assert ref.grlex_key((1, 1)) > ref.grlex_key((2, 0))
    assert ref.grlex_key((0, 3)) > ref.grlex_key((0, 2))


def test_tensor_ops():
    one = ref.mono_one(1)
    x = ref.mono_var(1, 1)
    a = frozenset({(one, x), (x, one)})
    assert ref.tensor_cup(a) == ref.ZERO_POLY  # x + x cancels
    sq = ref.tensor_mul(a, a)
    assert sq == frozenset({(one, (2,)), ((2,), one)})  # cross terms cancel
    assert ref.tensor_render(a, ["x"]) == "x(x)1 + 1(x)x"
