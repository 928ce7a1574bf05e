import time
from collections import Counter
from itertools import permutations, product

import pytest

from smallcover import charfun, gf2
from smallcover.charfun import BottMatrix, FacetMasks, from_bott, parse_bits, validate
from smallcover.errors import CharacteristicError, InputError
from smallcover.polytope import block_offsets, explicit_polytope, polygon, product_of_simplices
from smallcover.sampling import random_bott_matrix

from conftest import all_bott_matrices, new_polytope, random_characteristic
import tuple_reference as ref
from tuple_reference import ReductionFailed, reduce_to_bott


def test_parse_render_bits():
    assert parse_bits("101") == (1, 0, 1)
    assert parse_bits("0" * 40 + "1") == (0,) * 40 + (1,)
    with pytest.raises(InputError):
        parse_bits("12")
    # whitespace, a newline, a fullwidth zero and a list are no bitstrings
    for s in ["", "012", " 01", "01\n", "\uff101", ["0", "1"]]:
        with pytest.raises(InputError) as refused:
            parse_bits(s)
        assert str(refused.value) == f"bad bitstring {s!r}"


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
    assert ref.bott_column(B, 1) == (1, 1)
    assert ref.bott_column(B, 2) == (0, 1)
    with pytest.raises(InputError):
        BottMatrix.make((1, 1), {(1, 2): (1,)})  # upper block
    with pytest.raises(InputError):
        BottMatrix.make((1, 1), {(2, 1): (1, 0)})  # wrong width
    with pytest.raises(InputError):
        BottMatrix.make(())


def test_bott_matrix_zero_blocks_dropped():
    assert BottMatrix.make((1, 1), {(2, 1): (0,)}) == BottMatrix.make((1, 1))


def test_block_lookup_leaves_value_and_speed(rng):
    dims = (1,) * 512
    B = BottMatrix.make(dims, {(k, 1): (1,) for k in range(2, 513)})
    start = time.perf_counter()
    vectors = from_bott(B)
    assert time.perf_counter() - start < 1.0
    assert vectors[1] == (1 << 512) - 1 and vectors[3] == vectors[2] == 1 << 1
    # all m^2 block lookups, as free_circle_blocks and BottRing make them
    start = time.perf_counter()
    blocks = [B.block(k, j) for k in range(1, 513) for j in range(1, 513)]
    assert time.perf_counter() - start < 1.0  # over 10 s scanning beta per block
    assert blocks.count((1,)) == 511 and blocks[511 * 512] == (1,) and blocks[2 * 512 + 1] == (0,)
    # the lookup table is kept off the fields: equality and hash read dims and beta
    twin = BottMatrix(B.dims, B.beta)
    assert "_blocks" in vars(B) and "_blocks" not in vars(twin)
    assert B == twin and hash(B) == hash(twin) and repr(B) == repr(twin)
    for dims in [(2, 1, 3), (3, 3, 2, 1)]:
        B = random_bott_matrix(dims, rng)
        assert all(B.block(k, j) == dict(B.beta).get((k, j), (0,) * dims[k - 1])
                   for k in range(1, len(dims) + 1) for j in range(1, len(dims) + 1))


def test_from_bott_layout():
    # Klein-bottle tower: dims (1, 1), beta = (1,)
    B = BottMatrix.make((1, 1), {(2, 1): (1,)})
    vectors = from_bott(B)
    assert vectors == (0b01, 0b11, 0b10, 0b10) and vectors.n == 2
    assert ref.from_bott((1, 1), B) == [(1, 0), (1, 1), (0, 1), (0, 1)]
    # and it validates on the square
    assert validate(product_of_simplices((1, 1)), vectors).valid


def test_from_bott_masks_pack_the_tuple_layout(rng):
    """The masks are the tuple layout packed, on every tower with m <= 3 and
    n_j <= 3, and on large towers, untwisted and twisted."""
    towers = [(dims, B) for m in (1, 2, 3) for dims, B in all_bott_matrices(m, 3)]
    assert len(towers) == 3573
    for dims in [(46,), (3,) * 8, (16, 8), (17, 9)]:
        towers += [(dims, BottMatrix.make(dims)), (dims, random_bott_matrix(dims, rng))]
    for dims, B in towers:
        masks = from_bott(B)
        assert masks == tuple(map(gf2.mask_of, ref.from_bott(dims, B))), (dims, B)
        assert masks.n == sum(dims)


def test_from_bott_always_valid(rng):
    for _ in range(20):
        m = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 3) for _ in range(m))
        B = random_bott_matrix(dims, rng)
        P = product_of_simplices(dims)
        assert validate(P, from_bott(B)).valid


def test_reduce_round_trip_sweep():
    for m in (1, 2):
        for dims, B in all_bott_matrices(m, 2):
            red = reduce_to_bott(dims, from_bott(B))
            assert red.matrix == B
            assert red.block_order == tuple(range(1, m + 1))


def test_reduce_recovers_after_basis_change():
    dims = (1, 2)
    B = BottMatrix.make(dims, {(2, 1): (1, 0)})
    g = [(1, 1, 0), (0, 1, 0), (0, 1, 1)]  # invertible over GF(2)

    def mv(M, v):
        return tuple(sum(M[i][j] * v[j] for j in range(len(v))) % 2 for i in range(len(M)))

    scrambled = [mv(g, v) for v in ref.from_bott(dims, B)]
    red = reduce_to_bott(dims, scrambled)
    assert red.matrix == B
    # the reported basis change reproduces the triangular layout
    rebuilt = [mv(red.basis_change, scrambled[f]) for f in range(len(scrambled))]
    assert sorted(rebuilt) == sorted(ref.from_bott(dims, B))


def test_reduce_handles_block_permutation():
    # vectors laid out with the blocks swapped still reduce
    dims = (2, 1)
    B = BottMatrix.make(dims)
    vectors = from_bott(B)
    red = reduce_to_bott(dims, vectors)
    assert red.matrix.dims == dims


def test_reduce_rejects_invalid():
    dims = (1, 1)
    bad = [(1, 0), (1, 0), (1, 0), (0, 1)]
    with pytest.raises(CharacteristicError):
        reduce_to_bott(dims, bad)


def _mat_vec(rows, v):
    return tuple(sum(r[i] * v[i] for i in range(len(v))) & 1 for r in rows)


def _invert(rows):
    n = len(rows)
    # matrix in the high bits (where the reduction pivots), identity low
    aug = [(gf2.mask_of(rows[i]) << n) | (1 << i) for i in range(n)]
    red, pivots = ref.row_reduce([gf2.bits_of(a, 2 * n) for a in aug])
    assert pivots == list(range(n, 2 * n)), "matrix is singular"
    inv = [None] * n
    for row in red:
        inv[row.bit_length() - 1 - n] = gf2.bits_of(row & ((1 << n) - 1), n)
    return inv


def _exhaustive_reduce(dims, vectors):
    """reduce_to_bott as a search: every block order and, per block, every
    facet as alpha (the last facet first), each with its own inverse."""
    dims = tuple(dims)
    report = validate(product_of_simplices(dims), vectors)
    if not report.valid:
        raise CharacteristicError(f"invalid assignment at vertices {report.bad_vertices}")
    m, n = len(dims), sum(dims)
    offsets = block_offsets(dims)
    blocks = [list(range(offsets[j], offsets[j] + dims[j] + 1)) for j in range(m)]
    for order in permutations(range(m)):
        perm_dims = tuple(dims[b] for b in order)
        starts = [sum(perm_dims[:k]) for k in range(m)]
        for alpha_choice in product(*[range(dims[b], -1, -1) for b in order]):
            alpha_facets = [None] * m
            basis = []
            for t, b in enumerate(order):
                alpha_facets[b] = blocks[b][alpha_choice[t]]
                basis += [vectors[f] for f in blocks[b] if f != alpha_facets[b]]
            # C maps basis[i] to e_{i+1}: C = (columns basis)^{-1}
            C = _invert([tuple(v[i] for v in basis) for i in range(n)])
            beta, ok = {}, True
            for t, b in enumerate(order):
                img = _mat_vec(C, vectors[alpha_facets[b]])
                for k in range(m):
                    seg = img[starts[k]:starts[k] + perm_dims[k]]
                    if (k < t and any(seg)) or (k == t and not all(seg)):
                        ok = False
                    elif k > t:
                        beta[(k + 1, t + 1)] = seg
            if ok:
                B = BottMatrix.make(perm_dims, beta)
                return ref.BottReduction(B, tuple(b + 1 for b in order),
                                        tuple(alpha_facets), tuple(C))
    raise ReductionFailed(f"no block order and alpha choice is triangular for dims {dims}")


def _check_reduction(dims, vectors, red):
    """C . vectors, block by block in the reported order with alpha last,
    is the from_bott layout of the reported matrix."""
    offsets = block_offsets(dims)
    assert sorted(red.block_order) == list(range(1, len(dims) + 1))
    assert red.matrix.dims == tuple(dims[b - 1] for b in red.block_order)
    laid = []
    for b in red.block_order:
        block = list(range(offsets[b - 1], offsets[b - 1] + dims[b - 1] + 1))
        alpha = red.alpha_facets[b - 1]
        assert alpha in block
        laid += [_mat_vec(red.basis_change, vectors[f])
                 for f in [g for g in block if g != alpha] + [alpha]]
    assert laid == ref.from_bott(red.matrix.dims, red.matrix)


def _scramble(dims, B, rng):
    """from_bott(dims, B) after a random basis change, with the blocks in
    a random order and the facets of each block shuffled."""
    n = sum(dims)
    while True:
        G = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)]
        if gf2.rank_gf2(G) == n:
            break
    vectors = [_mat_vec(G, v) for v in ref.from_bott(dims, B)]
    offsets = block_offsets(dims)
    blocks = [vectors[off:off + d + 1] for off, d in zip(offsets, dims)]
    order = list(range(len(dims)))
    rng.shuffle(order)
    out = []
    for j in order:
        rng.shuffle(blocks[j])
        out += blocks[j]
    return tuple(dims[j] for j in order), out


def test_peel_matches_exhaustive_search_on_scrambled_towers(rng):
    towers = 0
    for m in (1, 2, 3):
        for dims, B in all_bott_matrices(m, 2):
            scrambled_dims, vectors = _scramble(dims, B, rng)
            for reduce in (reduce_to_bott, _exhaustive_reduce):
                _check_reduction(scrambled_dims, vectors, reduce(scrambled_dims, vectors))
            towers += 1
    assert towers == 254
    # random assignments: both refuse the invalid ones and reduce the valid ones
    valid = 0
    for _ in range(200):
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        n = sum(dims)
        vectors = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n + len(dims))]
        drawn = random_characteristic(product_of_simplices(dims), rng)
        if drawn is not None and rng.random() < 0.5:
            vectors = ref.tuples(drawn, n)
        outcomes = []
        for reduce in (reduce_to_bott, _exhaustive_reduce):
            try:
                _check_reduction(dims, vectors, reduce(dims, vectors))
                outcomes.append(True)
            except CharacteristicError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1], (dims, vectors)
        valid += outcomes[0]
    assert 50 < valid < 200


def test_peel_reduces_seeded_towers(rng):
    for _ in range(300):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        B = random_bott_matrix(dims, rng)
        scrambled_dims, vectors = _scramble(dims, B, rng)
        _check_reduction(scrambled_dims, vectors, reduce_to_bott(scrambled_dims, vectors))
        # unscrambled, the tower comes back as it is
        red = reduce_to_bott(dims, from_bott(B))
        assert red.matrix == B and red.block_order == tuple(range(1, len(dims) + 1))


def test_peel_reduces_large_scrambled_products(rng):
    # the search would face up to 6! block orders times 4^6 alpha choices
    for m in (5, 6):
        dims = (3,) * m
        scrambled_dims, vectors = _scramble(dims, random_bott_matrix(dims, rng), rng)
        start = time.perf_counter()
        red = reduce_to_bott(scrambled_dims, vectors)
        seconds = time.perf_counter() - start
        _check_reduction(scrambled_dims, vectors, red)
        if m == 5:
            assert seconds < 0.5  # the search took 18-41 s


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
            draws.append(ref.tuples(valid, n))
        for vectors in draws:
            report = validate(P, vectors)
            assert report == _reference_validate(P, vectors), (P.family, vectors)
            accepted += report.valid
            rejected += not report.valid
    assert accepted >= len(shapes) and rejected > 100


def _per_vertex_validate(P, vectors):
    """validate as it was: each vertex row-reduced on its own."""
    masks = [gf2.mask_of(v) for v in vectors]
    bad = []
    for v in P.vertices:
        if len(gf2.row_reduce_masks([masks[f] for f in v])) != P.n:
            bad.append(tuple(sorted(v)))
    return charfun.ValidationReport(not bad, tuple(sorted(bad)))


def _unit(i, n):
    return tuple(int(c == i) for c in range(n))


def test_bad_vertices_match_per_vertex_reference(rng):
    cases = []

    def draws(P, valid):
        """Eight draws with one vertex a basis, then a valid assignment."""
        nonzero = [tuple((v >> i) & 1 for i in range(P.n)) for v in range(1, 1 << P.n)]
        for _ in range(8):
            vectors = [rng.choice(nonzero) for _ in range(P.facet_count)]
            for i, f in enumerate(sorted(P.vertices[0])):
                vectors[f] = _unit(i, P.n)
            cases.append((P, vectors))
        assert valid is not None, P.family
        cases.append((P, ref.tuples(valid, P.n)))

    def tower(dims):
        return ref.from_bott(dims, random_bott_matrix(dims, rng))

    for dims in [(1, 1), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1), (1,) * 6, (3, 3, 3)]:
        draws(product_of_simplices(dims), from_bott(random_bott_matrix(dims, rng)))
    for k in (3, 4, 5, 8, 12):
        draws(polygon(k), random_characteristic(polygon(k), rng))
    # prisms with their vertices, and the facets of each, in shuffled order
    for k in (3, 4, 6, 8):
        vertices = [[i, (i + 1) % k, cap] for i in range(k) for cap in (k, k + 1)]
        rng.shuffle(vertices)
        for v in vertices:
            rng.shuffle(v)
        P = explicit_polytope(3, k + 2, vertices)
        draws(P, random_characteristic(P, rng))
    # the simplex with the RP facet vectors, and with one of them repeated
    n = 46
    rp = [_unit(i, n) for i in range(n)] + [(1,) * n]
    cases.append((product_of_simplices((n,)), rp))
    cases.append((product_of_simplices((n,)), rp[:-1] + [rp[5]]))
    # n = 0: one vertex on no facet; a polytope with no vertex is refused
    cases.append((explicit_polytope(0, 0, [()]), []))
    with pytest.raises(InputError):
        explicit_polytope(0, 0, [])
    # two facets of one vertex equal: every vertex of (3, 3, 3, 3) on
    # facets 0 and 1 (half of them) is bad, and of (2, 2, 2) every vertex
    # on facets 0, 1 and 3
    P = product_of_simplices((3, 3, 3, 3))
    for _ in range(4):
        vectors = tower((3, 3, 3, 3))
        vectors[1] = vectors[0]
        cases.append((P, list(vectors)))
        vectors[rng.randrange(2, P.facet_count)] = vectors[2]
        cases.append((P, vectors))
    vectors = tower((2, 2, 2))
    vectors[3] = tuple(a ^ b for a, b in zip(vectors[0], vectors[1]))
    cases.append((product_of_simplices((2, 2, 2)), vectors))

    shared = 0
    for P, vectors in cases:
        report = validate(P, vectors)
        assert report == _per_vertex_validate(P, vectors), (P.family, vectors)
        shared += len(report.bad_vertices) >= 32
    assert shared >= 8
    # the sorted vertices, and rows of str with a facet of each vertex as a
    # character, each facet in one row: the n on the vertex, or on a product
    # with F - n < n, the smaller Gale side, the F - n off it
    for P, _ in cases:
        vertices, rows = vars(P)["_vertex_rows"]
        assert vertices == sorted(tuple(sorted(v)) for v in P.vertices)
        on = P.family[0] != "product_of_simplices" or P.facet_count - P.n >= P.n
        assert len(rows) == (P.n if on else P.facet_count - P.n), P.family
        for row in rows:
            assert len(row) == P.vertex_count
            assert all((ord(f) in v) == on for f, v in zip(row, vertices)), P.family
        for v, facets in zip(vertices, zip(*rows)):
            assert len(set(facets)) == len(rows), P.family
    assert validate(explicit_polytope(0, 0, [()]), []).valid
    assert not validate(product_of_simplices((n,)), rp[:-1] + [rp[5]]).valid


def _prism(k):
    return explicit_polytope(3, k + 2, [(i, (i + 1) % k, cap) for i in range(k) for cap in (k, k + 1)])


def test_elimination_matches_per_vertex_reference_on_every_small_assignment():
    """Every nonzero assignment, rank-deficient ones too, on both Gale
    sides: the 2-simplex, (1, 2) and (2, 1) (products with F - n < n) take
    the relations off each vertex; (1, 1), the square, the pentagon and the
    3-prism, whose F - n < n off a product, the facets on it."""
    shapes = [product_of_simplices(d) for d in [(1, 1), (2,), (1, 2), (2, 1)]]
    shapes += [polygon(4), polygon(5), _prism(3)]
    sides, bad = Counter(), 0
    for P in shapes:
        for masks in product(range(1, 1 << P.n), repeat=P.facet_count):
            vectors = [gf2.bits_of(m, P.n) for m in masks]
            expected = _per_vertex_validate(P, vectors).bad_vertices
            assert charfun._dependent_vertices(P, masks) == expected, (P.family, masks)
            bad += bool(expected)
        sides[len(vars(P)["_vertex_rows"][1]) < P.n] += 1  # on the relations side
    assert sides == {True: 3, False: 4}
    assert bad > 40000


def test_elimination_matches_per_vertex_reference_in_two_byte_lanes(rng):
    """r = 9 rows need lanes of two bytes: the facets on each vertex of
    (1,)x9 (F - n = n), the relations off each vertex of (2,)x9."""
    for dims, count in (((1,) * 9, 12), ((2,) * 9, 2)):
        P = product_of_simplices(dims)
        assert min(P.n, P.facet_count - P.n) == 9
        vertex = sorted(P.vertices[0])
        for t in range(count):
            vectors = ref.from_bott(dims, random_bott_matrix(dims, rng))
            if t % 2:  # one facet replaced: a few bad vertices, or many
                vectors[rng.randrange(P.facet_count)] = gf2.bits_of(
                    rng.randrange(1, 1 << P.n), P.n)
            else:  # random vectors, the facets of one vertex a basis
                vectors = [gf2.bits_of(rng.randrange(1, 1 << P.n), P.n)
                           for _ in range(P.facet_count)]
                for i, f in enumerate(vertex):
                    vectors[f] = _unit(i, P.n)
            masks = [gf2.mask_of(v) for v in vectors]
            expected = _per_vertex_validate(P, vectors).bad_vertices
            assert charfun._dependent_vertices(P, masks) == expected, (dims, t)
    # a rank-deficient assignment on the relations side: every vertex bad
    P = product_of_simplices((2,) * 9)
    vectors = [_unit(i % 17, 18) for i in range(P.facet_count)]
    assert len(charfun._dependent_vertices(P, [gf2.mask_of(v) for v in vectors])) == 3 ** 9


def test_kept_valid_masks_do_not_hide_a_changed_assignment(rng):
    prism = [(i, (i + 1) % 6, cap) for i in range(6) for cap in (6, 7)]
    shapes = [lambda: product_of_simplices((2, 2, 2)), lambda: polygon(6),
              lambda: explicit_polytope(3, 8, prism)]
    invalid = 0
    for make in shapes:
        P = new_polytope(make)
        masks = (from_bott(random_bott_matrix((2, 2, 2), rng))
                 if P.family[0] == "product_of_simplices" else random_characteristic(P, rng))
        valid = ref.tuples(masks, P.n)
        nonzero = [tuple((v >> i) & 1 for i in range(P.n)) for v in range(1, 1 << P.n)]
        for t in range(20):
            assert validate(P, (masks, valid)[t % 2]).valid
            # one facet vector changed after a valid validate on the same P
            vectors = list(valid)
            vectors[rng.randrange(P.facet_count)] = rng.choice(nonzero)
            report = validate(P, vectors)
            assert report == _per_vertex_validate(P, vectors), (P.family, vectors)
            invalid += not report.valid
        # the kept masks skip the walk, not the length checks
        with pytest.raises(CharacteristicError):
            validate(P, valid[:-1])
        with pytest.raises(CharacteristicError):
            validate(P, [v + (0,) for v in valid])
        for wrong in (FacetMasks(P.n + 1, masks), FacetMasks(P.n, masks[:-1] + (1 << P.n,))):
            with pytest.raises(CharacteristicError):
                validate(P, wrong)
    assert invalid >= 20


def _peel_and_walk(P, masks):
    """(the block peel accepts, the elimination finds no dependent vertex)."""
    return charfun._peel(P, masks) is not None, not charfun._dependent_vertices(P, masks)


def test_peel_decides_like_the_walk_on_every_small_assignment():
    decisions = Counter()
    for dims in [(1, 1), (2,), (1, 2), (2, 1), (1, 1, 1)]:
        P = product_of_simplices(dims)
        nonzero = range(1, 1 << P.n)
        for masks in product(nonzero, repeat=P.facet_count):
            decisions[_peel_and_walk(P, masks)] += 1
    # the peel never refuses an assignment the walk accepts, nor the converse
    assert decisions[(False, True)] == 0 and decisions[(True, False)] == 0
    assert sum(decisions.values()) == 3 ** 4 + 3 ** 3 + 2 * 7 ** 5 + 7 ** 6
    assert decisions[(True, True)] > 1000


def test_peel_decides_like_the_walk_on_scrambled_and_perturbed_towers(rng):
    decisions = Counter()
    for _ in range(1500):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        scrambled_dims, vectors = _scramble(dims, random_bott_matrix(dims, rng), rng)
        P = product_of_simplices(scrambled_dims)
        if rng.random() < 0.5:  # one facet vector replaced by a nonzero one
            vectors[rng.randrange(P.facet_count)] = gf2.bits_of(rng.randrange(1, 1 << P.n), P.n)
        decision = _peel_and_walk(P, [gf2.mask_of(v) for v in vectors])
        decisions[decision] += 1
        if not decision[1]:
            # a refused assignment is walked: its bad vertices as before
            assert validate(P, vectors) == _per_vertex_validate(P, vectors)
    assert decisions[(False, True)] == 0 and decisions[(True, False)] == 0
    assert decisions[(True, True)] > 750 and decisions[(False, False)] > 250


def test_refused_product_assignment_keeps_its_bad_vertices():
    # vertices {0, 2}, {0, 3}, {1, 2}, {1, 3} of the square; 0, 1, 2 repeat
    vectors = [(1, 0), (1, 0), (1, 0), (0, 1)]
    report = validate(product_of_simplices((1, 1)), vectors)
    assert report == charfun.ValidationReport(False, ((0, 2), (1, 2)))
    with pytest.raises(CharacteristicError) as refused:
        reduce_to_bott((1, 1), vectors)
    assert str(refused.value) == "invalid assignment at vertices ((0, 2), (1, 2))"


def test_peel_accepts_without_walking(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(charfun, "_dependent_vertices", refuse)
    for dims in [(1, 1), (3, 2), (2, 2, 1), (1,) * 6, (3,) * 9]:
        dims, vectors = _scramble(dims, random_bott_matrix(dims, rng), rng)
        P = product_of_simplices(dims)
        vars(P).pop("_valid_masks", None)  # no kept masks answer for the peel
        assert validate(P, vectors) == charfun.ValidationReport(True, ())
        _check_reduction(dims, vectors, reduce_to_bott(dims, vectors))
