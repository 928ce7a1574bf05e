import gc
import random
from itertools import combinations

import pytest

from smallcover import bounds, charfun, cohomology, gf2, polytope, sampling
from smallcover.errors import InputError
from smallcover.polytope import (
    MAX_PRODUCT_DIMENSION,
    HVector,
    explicit_polytope,
    f_vector,
    facet_neighbours,
    h_vector,
    polygon,
    product_of_simplices,
    product_vertex_count,
    product_vertices,
    simplex_facets,
)

from conftest import new_polytope
import tuple_reference as ref


def test_product_structure():
    P = product_of_simplices([1, 2])
    assert P.n == 3
    assert P.facet_count == 5
    assert P.vertex_count == 6
    for v in P.vertices:
        assert len(v) == 3
    assert product_vertex_count([1, 2]) == 6


def test_product_rejects_bad_dims():
    with pytest.raises(InputError):
        product_of_simplices([])
    with pytest.raises(InputError):
        product_of_simplices([0, 2])
    # nothing is converted, so anything but an exact int is refused: a float
    # or bool equal to an int must not be interned for later callers
    for dims in [(1.0, 2), (True, 2), ("1", 2), (1, None)]:
        for make in (product_of_simplices, charfun.BottMatrix.make, cohomology.dold_exponents):
            with pytest.raises(InputError):
                make(dims)
    assert repr(product_of_simplices((1, 2))) == "ProductOfSimplices(dims=(1, 2))"
    block = dict(charfun.BottMatrix.make((1, 2), {(2, 1): iter((1, 0))}).beta)[(2, 1)]
    assert block == (1, 0) and type(block) is tuple


def test_polygon_structure():
    P = polygon(5)
    assert (P.n, P.facet_count, P.vertex_count) == (2, 5, 5)
    # consecutive edges share a vertex, cyclically
    for i in range(5):
        assert not P.facets_disjoint(i, (i + 1) % 5)
    assert P.facets_disjoint(0, 2)
    with pytest.raises(InputError):
        polygon(2)


def test_explicit_validation():
    # square as an explicit polytope
    P = explicit_polytope(2, 4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    assert P.vertex_count == 4
    with pytest.raises(InputError):
        explicit_polytope(2, 4, [[0, 1, 2]])  # wrong vertex size
    with pytest.raises(InputError):
        explicit_polytope(2, 4, [[0, 5]])  # unknown facet
    with pytest.raises(InputError):
        explicit_polytope(2, 4, [[0, 1], [1, 2]])  # facet 3 on no vertex
    with pytest.raises(InputError, match="at least one vertex"):
        explicit_polytope(2, 0, [])
    with pytest.raises(InputError, match="at least one vertex"):
        explicit_polytope(0, 0, [])
    with pytest.raises(InputError, match="vertex 4 repeats vertex 1"):
        explicit_polytope(2, 4, [[0, 1], [1, 2], [2, 3], [3, 0], [2, 1]])
    # the square with a fifth vertex on two opposite edges
    with pytest.raises(InputError, match=r"facets \[0\] meet in 3"):
        explicit_polytope(2, 4, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]])
    # a path, not a polygon: its end edges lie on one vertex each
    with pytest.raises(InputError, match=r"facets \[0\] meet in 1"):
        explicit_polytope(2, 4, [[0, 1], [1, 2], [2, 3]])
    with pytest.raises(InputError, match=r"facets \[\] meet in 1"):
        explicit_polytope(1, 1, [[0]])
    # the point: one vertex on no facet
    assert explicit_polytope(0, 0, [[]]).vertex_count == 1
    assert explicit_polytope(1, 2, [[0], [1]]).vertex_count == 2


def test_product_dimension_cap():
    assert product_of_simplices([MAX_PRODUCT_DIMENSION]).n == MAX_PRODUCT_DIMENSION
    with pytest.raises(InputError, match=f"got n = {MAX_PRODUCT_DIMENSION + 1}"):
        product_of_simplices([MAX_PRODUCT_DIMENSION // 2, MAX_PRODUCT_DIMENSION // 2 + 1])


def test_f_vector_known_values():
    # triangular prism: 6 vertices, 9 edges, 5 facets
    assert f_vector(product_of_simplices([1, 2])).f == (6, 9, 5)
    # 3-cube: 8, 12, 6
    assert f_vector(product_of_simplices([1, 1, 1])).f == (8, 12, 6)
    # simplex: binomials
    assert f_vector(product_of_simplices([3])).f == (4, 6, 4)
    assert f_vector(polygon(7)).f == (7, 7)


def test_f_vector_explicit_matches_closed_form(rng):
    for dims in [(1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        P = product_of_simplices(dims)
        Q = explicit_polytope(P.n, P.facet_count, [sorted(v) for v in P.vertices])
        assert f_vector(Q).f == f_vector(P).f


def test_h_vector_known_values():
    assert h_vector(product_of_simplices([1, 2])).h == (1, 2, 2, 1)
    assert h_vector(product_of_simplices([1, 1, 1])).h == (1, 3, 3, 1)
    assert h_vector(product_of_simplices([4])).h == (1, 1, 1, 1, 1)
    assert h_vector(polygon(6)).h == (1, 4, 1)


def test_h_vector_sums_to_vertex_count(rng):
    for _ in range(10):
        m = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 3) for _ in range(m))
        P = product_of_simplices(dims)
        assert sum(h_vector(P).h) == P.vertex_count


def test_h_vector_validation():
    with pytest.raises(InputError):
        HVector((1, 2, 3))  # not palindromic / bad end
    with pytest.raises(InputError):
        HVector((1, -1, 1))


def _components(P, facet_set):
    """Reference for the face table: the connected components, as vertex
    sets, of the face a set of facets cuts out, walking every vertex pair.

    Vertices are adjacent when they share n-1 facets (an edge of P) all of
    whose facets contain the given set.
    """
    facet_set = frozenset(facet_set)
    members = [vi for vi, v in enumerate(P.vertices) if facet_set <= v]
    parent = {vi: vi for vi in members}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in combinations(members, 2):
        shared = P.vertices[a] & P.vertices[b]
        if len(shared) == P.n - 1 and facet_set <= shared:
            parent[find(a)] = find(b)
    comps = {}
    for vi in members:
        comps.setdefault(find(vi), set()).add(vi)
    return [frozenset(c) for c in comps.values()]


def _brute_minimal_non_faces(P):
    """Every facet set on no vertex whose maximal subsets each lie on one."""
    def face(T):
        return any(set(T) <= v for v in P.vertices)

    return sorted(T for c in range(1, P.n + 2) for T in combinations(range(P.facet_count), c)
                  if not face(T) and all(face(T[:i] + T[i + 1:]) for i in range(c)))


def _prism_union(rng):
    """Two prisms over polygons, sharing up to three facet labels; a shared
    label is a facet in two components.  None when the union is not simple:
    two shared labels on an edge of both prisms put it on four vertices."""
    k1, k2, shared = rng.randint(3, 8), rng.randint(3, 8), rng.randint(0, 3)
    labels1 = rng.sample(range(k1 + 2), k1 + 2)
    count = k1 + k2 + 4 - shared
    labels2 = rng.sample(range(k1 + 2), shared) + list(range(k1 + 2, count))
    rng.shuffle(labels2)
    vertices = {tuple(sorted((labels[i], labels[(i + 1) % k], labels[cap])))
                for labels, k in ((labels1, k1), (labels2, k2))
                for i in range(k) for cap in (k, k + 1)}
    try:
        return explicit_polytope(3, count, sorted(vertices))
    except InputError:
        return None


def _explicit_cases():
    for n in range(1, 11):
        yield explicit_polytope(n, n + 1, [[f for f in range(n + 1) if f != o]
                                           for o in range(n + 1)])
    for k in range(3, 13):
        yield explicit_polytope(3, k + 2, [sorted((i, (i + 1) % k, cap))
                                           for i in range(k) for cap in (k, k + 1)])
        yield explicit_polytope(2, k, [sorted((i, (i + 1) % k)) for i in range(k)])
    for dims in [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 3), (2, 3), (1, 1, 2), (1, 1, 1, 1)]:
        P = product_of_simplices(dims)
        yield explicit_polytope(P.n, P.facet_count, [sorted(v) for v in P.vertices])


def test_face_table_matches_component_walk():
    cases = list(_explicit_cases())
    rng, split = random.Random(25), 0
    while split < 20:
        P = _prism_union(rng)
        if P is not None:
            cases.append(P)
            split += any(len(_components(P, {f})) > 1 for f in range(P.facet_count))
    for P in cases:
        table = polytope._face_table(P)
        on_vertex = {S for v in P.vertices for c in range(P.n + 1)
                     for S in combinations(sorted(v), c)}
        assert {S for level in table for S in level} == on_vertex
        for S in on_vertex:
            assert table[len(S)][S] == len(_components(P, S)), (P, S)
        f = tuple(sum(len(_components(P, S)) for S in on_vertex if len(S) == P.n - i)
                  for i in range(P.n))
        assert f_vector(P).f == f
        assert polytope.minimal_non_faces(P) == _brute_minimal_non_faces(P)


def test_faces_meeting():
    prism = product_of_simplices([1, 2])
    P = explicit_polytope(prism.n, prism.facet_count, [sorted(v) for v in prism.vertices])
    table = polytope._face_table(P)
    # one facet: its vertices, one component
    assert table[1][(0,)] == 1
    assert _components(P, {0}) == [frozenset(P.facet_vertex_indices(0))]
    # the two simplex ends of the prism are facets 0 and 1 of the first block;
    # their intersection is empty, so the table has no entry for them
    assert (0, 1) not in table[2] and _components(P, {0, 1}) == []
    # an edge: two facets on a vertex meet in one connected face
    pair = tuple(sorted(P.vertices[0]))[:2]
    assert table[2][pair] == 1 and len(_components(P, set(pair))[0]) == 2
    # a facet the polytope does not have cuts out nothing
    assert all((99,) not in level for level in table)


def test_faces_meeting_disconnected():
    # in a hexagon, opposite edges never meet; a single edge is connected
    P = explicit_polytope(2, 6, [sorted((i, (i + 1) % 6)) for i in range(6)])
    table = polytope._face_table(P)
    assert table[1][(0,)] == 1 and len(_components(P, {0})[0]) == 2
    assert (0, 3) not in table[2]
    # two triangular prisms sharing the side facet 0: it has two components,
    # so the f-vector counts ten facets on nine labels
    first = [sorted((s, t, cap)) for s, t in ((0, 1), (1, 2), (2, 0)) for cap in (3, 4)]
    second = [sorted((s, t, cap)) for s, t in ((0, 5), (5, 6), (6, 0)) for cap in (7, 8)]
    P = explicit_polytope(3, 9, first + second)
    table = polytope._face_table(P)
    assert table[1][(0,)] == 2 and len(_components(P, {0})) == 2
    assert f_vector(P).f == (12, 18, 10)


def test_simplex_facets():
    # every facet of a simplex is a simplex
    P = product_of_simplices([3])
    assert simplex_facets(P) == [0, 1, 2, 3]
    # prism: the two triangle ends are simplices, the squares are not
    P = product_of_simplices([1, 2])
    assert simplex_facets(P) == [0, 1]
    # polygon facets are edges = 1-simplices
    assert simplex_facets(polygon(5)) == [0, 1, 2, 3, 4]


def test_facet_neighbours():
    P = polygon(5)
    assert facet_neighbours(P, 0) == [1, 4]
    P = product_of_simplices([2])
    assert facet_neighbours(P, 0) == [1, 2]


def _small_products():
    """Every product of simplices with entries 1-4, at most 6 blocks and at
    most 256 vertices (740 of them)."""
    from itertools import product

    return [dims for m in range(1, 7) for dims in product(range(1, 5), repeat=m)
            if product_vertex_count(dims) <= 256]


def _scanned_h_vector(P):
    """h-vector from the materialised vertices alone.

    Two vertices of a simple polytope span an edge when they share n - 1
    facets.  A vertex's index in the product layout is a linear functional
    (block j's omitted facet, weighted by its place value), and for such a
    functional h_i counts the vertices with exactly i lower neighbours.
    """
    edges = {}
    for vi, v in enumerate(P.vertices):
        for f in v:
            edges.setdefault(v - {f}, []).append(vi)
    lower = [0] * P.vertex_count
    for a, b in edges.values():
        lower[max(a, b)] += 1
    h = [0] * (P.n + 1)
    for count in lower:
        h[count] += 1
    return tuple(h), len(edges)


def _prefix_vertices(dims):
    """A product's vertices as frozensets, built prefix by prefix, each
    block leaving out its facets in turn: the order P.vertices keeps."""
    prefixes, off = [()], 0
    for d in dims:  # block j owns the n_j + 1 facets from off on
        block = range(off, off + d + 1)
        kept = [tuple(g for g in block if g != f) for f in block]
        prefixes = [p + k for p in prefixes for k in kept]
        off += d + 1
    return tuple(map(frozenset, prefixes))


def test_product_closed_forms_match_vertex_scan():
    products = _small_products()
    assert len(products) == 740 and (1,) * 6 in products
    for dims in products:
        P = product_of_simplices(dims)
        reference = _prefix_vertices(dims)
        assert product_vertices(P) == sorted(tuple(sorted(v)) for v in reference), dims
        assert P.vertices == reference, dims
        Q = explicit_polytope(P.n, P.facet_count, [sorted(v) for v in P.vertices])
        assert P.vertex_count == Q.vertex_count == len(P.vertices)
        assert simplex_facets(P) == simplex_facets(Q), dims
        for f in range(P.facet_count):
            assert facet_neighbours(P, f) == facet_neighbours(Q, f), (dims, f)
            for g in range(P.facet_count):
                assert P.facets_disjoint(f, g) == Q.facets_disjoint(f, g), (dims, f, g)
        h, edge_count = _scanned_h_vector(P)
        assert h_vector(P).h == h, dims
        if P.n > 1:
            assert f_vector(P).f[1] == edge_count, dims
        if P.vertex_count <= 24:  # the generic face enumeration is quadratic
            assert f_vector(P) == f_vector(Q), dims


def test_product_layout_is_one_range_per_block(rng):
    # the layout every product reader shares: consecutive facet ranges, the
    # first n_j facets of each laid out as unit vectors by from_bott and the
    # last one (the alpha facet) as its block's column of the Bott matrix
    for dims in _small_products():
        P = product_of_simplices(dims)
        assert [len(block) for block in P.blocks] == [d + 1 for d in dims], dims
        assert [f for block in P.blocks for f in block] == list(range(P.facet_count)), dims
        B = sampling.random_bott_matrix(dims, rng)
        masks = charfun.from_bott(B)
        units = [masks[f] for block in P.blocks for f in block[:-1]]
        assert units == [1 << c for c in range(P.n)], dims
        for j, block in enumerate(P.blocks, start=1):
            assert masks[block[-1]] == gf2.mask_of(ref.bott_column(B, j)), (dims, j)


def test_product_closed_forms_reject_unknown_facets():
    P = product_of_simplices([1, 2])
    with pytest.raises(InputError):
        facet_neighbours(P, 5)
    with pytest.raises(InputError):
        P.facets_disjoint(0, -1)


def test_product_equality_ignores_built_vertices():
    built = product_of_simplices([2, 1, 3])
    assert built.vertices and built._facet_vertices
    # a twin built by the class itself is not the shared polytope
    lazy = polytope.ProductOfSimplices((2, 1, 3))
    assert lazy is not built and "vertices" not in vars(lazy)
    assert built == lazy and hash(built) == hash(lazy)
    assert len({built, lazy}) == 1
    assert "vertices" not in vars(lazy)
    B = charfun.BottMatrix.make((2, 1, 3))
    assert bounds.bott_manifold((2, 1, 3), B) == bounds.ManifoldDescription(
        "bott", 6, lazy, charfun.from_bott(B), B)


def _unshared(P):
    """A polytope equal to P built by its class, past the constructors'
    registry: a second object of the same value."""
    if isinstance(P, polytope.ProductOfSimplices):
        return polytope.ProductOfSimplices(P.family[1])
    return polytope.SimplePolytope(P.n, P.facet_count, P.vertices, P.family)


def test_polytope_data_found_once_per_object(monkeypatch):
    from smallcover.cohomology import SmallCoverRing

    calls = []
    for name in ("_face_table", "_h_vector", "_minimal_non_faces"):
        def counted(P, name=name, build=getattr(polytope, name)):
            calls.append(name)
            return build(P)
        monkeypatch.setattr(polytope, name, counted)
    prism = [sorted((i, (i + 1) % 4, cap)) for i in range(4) for cap in (4, 5)]
    # only an explicit polytope builds the face table, once for both uses
    cases = [
        (lambda: explicit_polytope(3, 6, prism),
         [(1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)],
         ["_face_table"]),
        (lambda: polygon(6), [(1, 0), (0, 1)] * 3, []),
        (lambda: product_of_simplices((1, 2)),
         charfun.from_bott(charfun.BottMatrix.make((1, 2))), []),
    ]
    for make, vectors, table in cases:
        P = new_polytope(make)
        twin = _unshared(P)
        before = (repr(P), hash(P))
        calls.clear()
        for _ in range(2):
            ring = SmallCoverRing(P, vectors)
            assert ring.betti == ring.algebra().betti == h_vector(P).h
        assert f_vector(P) == f_vector(P)
        assert sorted(calls) == table + ["_h_vector", "_minimal_non_faces"], P.family
        # kept data is not part of the polytope's value
        assert (repr(P), hash(P)) == before and P == twin and hash(twin) == before[1]
        assert "_h_vector" not in vars(twin)
    # every call returns a list of its own
    P = polygon(5)
    assert polytope.minimal_non_faces(P) is not polytope.minimal_non_faces(P)


_PRISM = [(i, (i + 1) % 4, cap) for i in range(4) for cap in (4, 5)]


def test_equal_constructions_share_one_polytope():
    P = product_of_simplices([1, 2])
    assert product_of_simplices((1, 2)) is P
    Q = polygon(7)
    assert polygon(7) is Q
    R = explicit_polytope(3, 6, _PRISM)
    # vertices as lists of facets in any order within a vertex
    assert explicit_polytope(3, 6, [list(reversed(v)) for v in _PRISM]) is R
    # unequal values stay distinct objects
    assert product_of_simplices((2, 1)) != P
    assert explicit_polytope(2, 7, [sorted(v) for v in Q.vertices]) != Q
    same_vertices = explicit_polytope(P.n, P.facet_count, [sorted(v) for v in P.vertices])
    assert same_vertices != P and same_vertices is not P
    permuted = explicit_polytope(3, 6, _PRISM[1:] + _PRISM[:1])
    assert permuted != R and permuted is not R


def test_kept_data_built_once_per_value(monkeypatch):
    calls = []
    for module, name in ((charfun, "_vertex_rows"), (polytope, "_h_vector"),
                         (polytope, "_face_table")):
        def counted(*args, name=name, build=getattr(module, name)):
            calls.append(name)
            return build(*args)
        monkeypatch.setattr(module, name, counted)
    for make in (lambda: explicit_polytope(3, 6, _PRISM), lambda: polygon(5),
                 lambda: product_of_simplices((1, 2))):
        calls.clear()
        copies = [new_polytope(make), make()]
        assert copies[1] is copies[0]
        for P in copies:
            # one vector on every facet: dependent at each vertex, so listed
            assert not charfun.validate(P, [(1,) + (0,) * (P.n - 1)] * P.facet_count).valid
            assert sum(h_vector(P).h) == P.vertex_count
        table = ["_face_table"] if copies[0].family == ("explicit",) else []
        assert sorted(calls) == table + ["_h_vector", "_vertex_rows"], copies[0].family


def test_dead_polytopes_leave_the_registry():
    from smallcover.cohomology import SmallCoverRing

    P = polygon(6)
    ring = SmallCoverRing(P, [(1, 0), (0, 1)] * 3)
    M = bounds.small_cover_manifold(polygon(6), ring.vectors)
    assert M.P is P and h_vector(P).h == (1, 4, 1)
    del P, ring, M
    gc.collect()
    # no test leaves a polytope alive once it has returned
    assert not polytope._LIVE
    assert "_h_vector" not in vars(polygon(6))


def test_product_vertices_are_stored_once_built():
    P = new_polytope(lambda: product_of_simplices([3, 3]))
    # neither a refused assignment nor a draw of the sampler reads them
    assert not charfun.validate(P, [(1,) + (0,) * 5] * 8).valid
    assert "vertices" not in vars(P)
    assert sampling.random_characteristic(P, random.Random(1), 500) is not None
    assert "vertices" not in vars(P)
    first = P.vertices
    assert vars(P)["vertices"] is first and P.vertices is first


def test_polygon_and_explicit_size_checks():
    cap = polytope.MAX_PRODUCT_VERTICES
    assert polygon(cap).vertex_count == cap
    with pytest.raises(InputError, match=f"at most {cap} edges"):
        polygon(cap + 1)
    # n facets meet at each vertex, so n * |vertices| bounds the facet count
    assert explicit_polytope(2, 3, [[0, 1], [1, 2], [0, 2]]).facet_count == 3
    with pytest.raises(InputError, match="7 facets cannot all lie on 3 vertices"):
        explicit_polytope(2, 7, [[0, 1], [1, 2], [0, 2]])
    with pytest.raises(InputError, match="facets cannot all lie"):
        explicit_polytope(0, 1, [])


def test_polygon_relation_cap():
    cap = polytope.MAX_POLYGON_RELATIONS
    assert polytope.minimal_non_faces(polygon(9)) == [
        (i, j) for i in range(9) for j in range(i + 2, 9) if (i, j) != (0, 8)]
    assert len(polytope.minimal_non_faces(polygon(1025))) == 1025 * 1022 // 2 <= cap
    # the 1 026-gon's 524 799 pairs are refused before any is listed
    P = polygon(1026)
    with pytest.raises(InputError, match=f"1026-gon's ring has 524799 relations; at most {cap}"):
        polytope.minimal_non_faces(P)
    assert "_minimal_non_faces" not in vars(P)
    # the polygon itself and its h-vector are still there
    assert h_vector(P).h == (1, 1024, 1)


def test_product_vertex_cap():
    assert polytope.MAX_PRODUCT_VERTICES == product_vertex_count((3,) * 8)
    big = product_of_simplices((3,) * 9)
    # closed-form queries still answer
    assert big.vertex_count == 4 ** 9
    assert simplex_facets(big) == [] and len(facet_neighbours(big, 0)) == 35
    with pytest.raises(InputError, match="262144 vertices"):
        big.vertices
    with pytest.raises(InputError, match="262144 vertices"):
        big.facet_vertex_indices(0)
    # the sampler refuses it before its first draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match="262144 vertices"):
        sampling.random_characteristic(big, rng, 1)
    assert rng.getstate() == state
