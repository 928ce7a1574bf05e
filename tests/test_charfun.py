import pytest

from smallcover import charfun, gf2
from smallcover.charfun import (
    BottMatrix,
    from_bott,
    parse_bits,
    reduce_to_bott,
    render_bits,
    validate,
)
from smallcover.errors import CharacteristicError, InputError, ReductionFailed
from smallcover.polytope import explicit_polytope, polygon, product_of_simplices

from conftest import all_bott_matrices, random_characteristic


def test_parse_render_bits():
    assert parse_bits("101") == (1, 0, 1)
    assert render_bits((1, 0, 1)) == "101"
    with pytest.raises(InputError):
        parse_bits("12")
    with pytest.raises(InputError):
        parse_bits("")


def test_validate_klein_bottle():
    P = polygon(4)
    ok = validate(P, [parse_bits(s) for s in ["10", "01", "10", "11"]])
    assert ok.valid and not ok.bad_vertices


def test_validate_reports_bad_vertices():
    P = polygon(4)
    rep = validate(P, [parse_bits(s) for s in ["10", "01", "10", "10"]])
    assert not rep.valid
    assert rep.bad_vertices == ((0, 3), (2, 3))


def test_validate_shape_errors():
    P = polygon(4)
    with pytest.raises(CharacteristicError):
        validate(P, [parse_bits("10")] * 3)  # wrong count
    with pytest.raises(CharacteristicError):
        validate(P, [parse_bits("100")] * 4)  # wrong length


def test_bott_matrix_make():
    B = BottMatrix.make((1, 1), {(2, 1): (1,)})
    assert B.block(2, 1) == (1,)
    assert B.column(1) == (1, 1)
    assert B.column(2) == (0, 1)
    with pytest.raises(InputError):
        BottMatrix.make((1, 1), {(1, 2): (1,)})  # upper block
    with pytest.raises(InputError):
        BottMatrix.make((1, 1), {(2, 1): (1, 0)})  # wrong width
    with pytest.raises(InputError):
        BottMatrix.make(())


def test_bott_matrix_zero_blocks_dropped():
    assert BottMatrix.make((1, 1), {(2, 1): (0,)}) == BottMatrix.make((1, 1))


def test_from_bott_layout():
    # Klein-bottle tower: dims (1, 1), beta = (1,)
    B = BottMatrix.make((1, 1), {(2, 1): (1,)})
    vectors = from_bott((1, 1), B)
    assert vectors == [(1, 0), (1, 1), (0, 1), (0, 1)]
    # and it validates on the square
    assert validate(product_of_simplices((1, 1)), vectors).valid


def test_from_bott_always_valid(rng):
    for _ in range(20):
        m = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 3) for _ in range(m))
        beta = {}
        for k in range(2, m + 1):
            for j in range(1, k):
                chunk = tuple(rng.randint(0, 1) for _ in range(dims[k - 1]))
                if any(chunk):
                    beta[(k, j)] = chunk
        B = BottMatrix.make(dims, beta)
        P = product_of_simplices(dims)
        assert validate(P, from_bott(dims, B)).valid


def test_reduce_round_trip_sweep():
    for m in (1, 2):
        for dims, B in all_bott_matrices(m, 2):
            red = reduce_to_bott(dims, from_bott(dims, B))
            assert red.matrix == B
            assert red.block_order == tuple(range(1, m + 1))


def test_reduce_recovers_after_basis_change():
    dims = (1, 2)
    B = BottMatrix.make(dims, {(2, 1): (1, 0)})
    g = [(1, 1, 0), (0, 1, 0), (0, 1, 1)]  # invertible over GF(2)

    def mv(M, v):
        return tuple(sum(M[i][j] * v[j] for j in range(len(v))) % 2 for i in range(len(M)))

    scrambled = [mv(g, v) for v in from_bott(dims, B)]
    red = reduce_to_bott(dims, scrambled)
    assert red.matrix == B
    # the reported basis change reproduces the triangular layout
    rebuilt = [mv(red.basis_change, scrambled[f]) for f in range(len(scrambled))]
    assert sorted(rebuilt) == sorted(from_bott(dims, B))


def test_reduce_handles_block_permutation():
    # vectors laid out with the blocks swapped still reduce
    dims = (2, 1)
    B = BottMatrix.make(dims)
    vectors = from_bott(dims, B)
    red = reduce_to_bott(dims, vectors)
    assert red.matrix.dims == dims


def test_reduce_rejects_invalid():
    dims = (1, 1)
    bad = [(1, 0), (1, 0), (1, 0), (0, 1)]
    with pytest.raises(CharacteristicError):
        reduce_to_bott(dims, bad)


def _reference_validate(P, vectors):
    bad = tuple(sorted(tuple(sorted(v)) for v in P.vertices
                       if gf2.rank_gf2([vectors[f] for f in sorted(v)]) != P.n))
    return charfun.ValidationReport(not bad, bad)


def test_packed_validate_matches_rank_reference(rng):
    prisms = [explicit_polytope(3, k + 2, [(i, (i + 1) % k, cap)
                                           for i in range(k) for cap in (k, k + 1)])
              for k in (3, 4, 6)]
    shapes = ([product_of_simplices(d) for d in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1, 1)]]
              + [polygon(k) for k in (3, 4, 5, 8)] + prisms)
    accepted = rejected = 0
    for P in shapes:
        n = P.n
        nonzero = [tuple((v >> i) & 1 for i in range(n)) for v in range(1, 1 << n)]
        draws = [[rng.choice(nonzero) for _ in range(P.facet_count)] for _ in range(20)]
        for vectors in draws[:10]:  # one vertex a basis: rejected and accepted draws
            for i, f in enumerate(sorted(P.vertices[0])):
                vectors[f] = tuple(int(c == i) for c in range(n))
        valid = random_characteristic(P, rng)
        if valid is not None:
            draws.append(list(valid))
        for vectors in draws:
            report = validate(P, vectors)
            assert report == _reference_validate(P, vectors), (P.family, vectors)
            accepted += report.valid
            rejected += not report.valid
    assert accepted >= len(shapes) and rejected > 100
