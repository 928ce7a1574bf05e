"""Combinatorial simple polytopes.

Vertices are the primitive data: each vertex is the set of the n facets
meeting it.  Higher faces are recovered by intersecting facet subsets, and
f-/h-vectors are derived from the incidence structure (closed forms for the
built-in families).  A product of simplices holds only its block dimensions:
its vertex count, simplex facets, facet neighbours and disjoint facet pairs
come in closed form, and so do its vertices (`product_vertices`), listed up
to MAX_PRODUCT_VERTICES only when read.  Equal constructions return one
object while any is alive, so what `kept` stores is found once per value.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import cached_property
from itertools import chain, combinations, product
from math import comb, prod
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import InputError

# Largest product of simplices whose vertices are built: (3,)x8 has 65 536.
# It also caps the edges of a polygon, which has as many vertices.
MAX_PRODUCT_VERTICES = 65536
# Largest relation count of a polygon's ring, one per pair of disjoint
# edges: the 1 025-gon's k(k-3)/2 = 523 775 are listed, the 1 026-gon's are
# not.  `ring` on the 1 025-gon peaks near 0.7 GB.
MAX_POLYGON_RELATIONS = 1 << 19
# Largest vertex count * 2^n, the facet subsets of every vertex, that an
# explicit polytope's face table enumerates: the 14-simplex's 15 * 2^14.
_MAX_FACE_SUBSETS = 1 << 18
# Largest dimension of a product of simplices: its tower's n + 1 facet
# vectors of n entries each are laid out even when no vertex is built.
MAX_PRODUCT_DIMENSION = 1024
# every live polytope by its value, which == compares; it holds none of them
_LIVE = weakref.WeakValueDictionary()


class SimplePolytope:
    """A simple polytope of dimension n as its vertices, each the frozenset of
    the n facets on it, and `family`, the built-in family it belongs to, or
    ("explicit",).  The constructor checks the incidences: each vertex lies
    on n known facets, no vertex repeats, every facet lies on a vertex and
    every edge on two.  Equality and hashing go by n, facet_count, vertices
    and family; none of them can be assigned, and neither `_facet_vertices`
    nor what `kept` stores is part of the value."""

    def __init__(self, n: int, facet_count: int, vertices: Tuple[FrozenSet[int], ...],
                 family: Tuple = ("explicit",)):
        if n < 0 or facet_count < 0:
            raise InputError("negative dimension or facet count")
        first = {}  # vertex -> the index it first appears at
        for vi, v in enumerate(vertices):
            if len(v) != n:
                raise InputError(f"vertex {vi} does not lie on exactly {n} facets")
            for f in v:
                if not 0 <= f < facet_count:
                    raise InputError(f"vertex {vi} uses unknown facet {f}")
            if first.setdefault(v, vi) != vi:
                raise InputError(f"vertex {vi} repeats vertex {first[v]}")
        # each facet lies on a vertex, so the vertices bound the facet table
        if facet_count > n * len(vertices):
            raise InputError(f"{facet_count} facets cannot all lie on "
                             f"{len(vertices)} vertices of dimension {n}")
        if not vertices:
            raise InputError("a polytope needs at least one vertex")
        incidence = _incidence(vertices, facet_count)
        if n > 0:
            for f, incident in enumerate(incidence):
                if not incident:
                    raise InputError(f"facet {f} lies on no vertex")
        # the n - 1 facets of a vertex but one meet in an edge: two vertices
        edges = Counter(v - {f} for v in vertices for f in v)
        for edge, count in edges.items():
            if count != 2:
                raise InputError(f"an edge lies on 2 vertices, but facets "
                                 f"{sorted(edge)} meet in {count}")
        # _facet_vertices: facet -> sorted tuple of incident vertex indices
        vars(self).update(n=n, facet_count=facet_count, vertices=vertices, family=family,
                          _facet_vertices=incidence)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _value(self) -> Tuple:
        return self.n, self.facet_count, self.vertices, self.family

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        return (f"SimplePolytope(n={self.n!r}, facet_count={self.facet_count!r}, "
                f"vertices={self.vertices!r}, family={self.family!r})")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def facet_vertex_indices(self, f: int) -> Tuple[int, ...]:
        if not 0 <= f < self.facet_count:
            raise InputError(f"unknown facet {f}")
        return self._facet_vertices[f]

    def facets_disjoint(self, f: int, g: int) -> bool:
        return not set(self.facet_vertex_indices(f)) & set(self.facet_vertex_indices(g))


def _incidence(vertices, facet_count: int) -> Tuple[Tuple[int, ...], ...]:
    seen = [[] for _ in range(facet_count)]
    for vi, v in enumerate(vertices):
        for f in v:
            seen[f].append(vi)
    return tuple(tuple(s) for s in seen)


def kept(P: SimplePolytope, name: str, build: Callable):
    """build(P), found on first use and kept on P as `name`: once per live
    polytope value, as equal constructions share P.  It is not a field, so
    equality and hashing do not see it."""
    if name not in P.__dict__:
        object.__setattr__(P, name, build(P))
    return P.__dict__[name]


class ProductOfSimplices(SimplePolytope):
    """Product of simplices held as its dims; see product_of_simplices.

    `vertices` and `_facet_vertices` come from `product_vertices` on first
    read and are kept; no closed form, nor `charfun.validate`, reads them.
    Equality and hashing go by dims alone.
    """

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise InputError("dims must be a nonempty list of positive integers")
        if sum(dims) > MAX_PRODUCT_DIMENSION:
            raise InputError(f"a product of simplices has dimension at most "
                             f"{MAX_PRODUCT_DIMENSION}, got n = {sum(dims)}")
        vars(self).update(n=sum(dims), facet_count=sum(dims) + len(dims),
                          family=("product_of_simplices", dims))

    @cached_property
    def vertices(self) -> Tuple[FrozenSet[int], ...]:
        # vertex 0 leaves out the first facet of each block
        return tuple(map(frozenset, reversed(product_vertices(self))))

    @cached_property
    def _facet_vertices(self) -> Tuple[Tuple[int, ...], ...]:
        return _incidence(self.vertices, self.facet_count)

    def _value(self) -> Tuple:
        return self.family

    def __repr__(self):
        return f"ProductOfSimplices(dims={self.family[1]})"

    @property
    def vertex_count(self) -> int:
        return product_vertex_count(self.family[1])

    def facets_disjoint(self, f: int, g: int) -> bool:
        # only the two facets of a 1-dimensional block miss each other
        block = _block(self, f)
        return f != g and block == _block(self, g) and self.family[1][block[0]] == 1


def product_of_simplices(dims: Sequence[int]) -> SimplePolytope:
    """Product of simplices with the given dimensions.

    Block j contributes facets indexed consecutively; a vertex omits exactly
    one facet from each block.  Holds only the dims (see ProductOfSimplices).
    """
    P = ProductOfSimplices(dims)
    return _LIVE.setdefault(P.family, P)


def product_vertices(P: SimplePolytope) -> List[Tuple[int, ...]]:
    """The vertices of a product of simplices as sorted facet tuples in
    ascending order: a vertex keeps all facets of each block but one."""
    dims = P.family[1]
    check_vertex_cap(P)
    blocks = [combinations(range(off, off + d + 1), d)
              for off, d in zip(block_offsets(dims), dims)]
    return list(map(tuple, map(chain.from_iterable, product(*blocks))))


def check_vertex_cap(P: SimplePolytope) -> None:
    """Refuses a product of simplices past MAX_PRODUCT_VERTICES by its count."""
    if P.vertex_count > MAX_PRODUCT_VERTICES:
        raise InputError(f"product of simplices {list(P.family[1])} has {P.vertex_count} "
                         f"vertices; at most {MAX_PRODUCT_VERTICES} can be built")


def block_offsets(dims: Sequence[int]) -> List[int]:
    """Starting facet index of each block in the product layout."""
    offsets, off = [], 0
    for d in dims:
        offsets.append(off)
        off += d + 1
    return offsets


def polygon(k: int) -> SimplePolytope:
    """Convex k-gon with edges 0..k-1 in cyclic order."""
    if k < 3:
        raise InputError("a polygon needs at least 3 edges")
    if k > MAX_PRODUCT_VERTICES:
        raise InputError(f"a polygon has at most {MAX_PRODUCT_VERTICES} edges, got {k}")
    vertices = tuple(frozenset({i, (i + 1) % k}) for i in range(k))
    P = SimplePolytope(2, k, vertices, ("polygon", k))
    return _LIVE.setdefault(P.family, P)


def explicit_polytope(n: int, facet_count: int, vertices: Sequence[Sequence[int]]) -> SimplePolytope:
    P = SimplePolytope(n, facet_count, tuple(frozenset(v) for v in vertices))
    return _LIVE.setdefault((P.n, P.facet_count, P.vertices), P)


class FVector(NamedTuple):
    f: Tuple[int, ...]  # f_0 .. f_{n-1}, vertices first


class HVector(NamedTuple("HVector", [("h", Tuple[int, ...])])):
    """h_0 .. h_n, checked by the constructor: it starts and ends with 1,
    has no negative entry and is a palindrome."""
    __slots__ = ()

    def __new__(cls, h: Tuple[int, ...]) -> "HVector":
        if h[0] != 1 or h[-1] != 1:
            raise InputError("h-vector must start and end with 1")
        if any(x < 0 for x in h):
            raise InputError("h-vector entries must be non-negative")
        if h != tuple(reversed(h)):
            raise InputError("h-vector fails the palindromic identity")
        return super().__new__(cls, h)


def _poly_product(polys: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """Coefficients of a product of integer polynomials, lowest degree
    first: face counts of a product of polytopes, or Betti numbers of a
    tensor product, from those of its factors."""
    out = [1]
    for p in polys:
        acc = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                acc[i + j] += a * b
        out = acc
    return tuple(out)


def f_vector(P: SimplePolytope) -> FVector:
    kind = P.family[0]
    if kind == "product_of_simplices":
        dims = P.family[1]
        # face-count polynomial of a simplex block: sum_d C(n_j+1, d+1) t^d
        coeffs = _poly_product([comb(d + 1, k + 1) for k in range(d + 1)] for d in dims)
        return FVector(coeffs[: P.n])  # drop the whole-polytope term
    if kind == "polygon":
        k = P.family[1]
        return FVector((k, k))
    faces = kept(P, "_faces", _face_table)
    return FVector(tuple(sum(faces[P.n - i].values()) for i in range(P.n)))


def _face_table(P: SimplePolytope) -> List[Dict[Tuple[int, ...], int]]:
    """faces[c][S]: how many faces the sorted set S of c facets cuts out of
    an explicit polytope, for every S on a vertex: the components of the
    vertices on S joined by the edges on S.  An empty level ends the list."""
    if P.vertex_count << P.n > _MAX_FACE_SUBSETS:
        raise InputError(f"{P.vertex_count} vertices * 2^{P.n} facet subsets exceed "
                         f"the {_MAX_FACE_SUBSETS} an explicit face table enumerates")
    parents: Dict[Tuple[int, ...], Dict[int, int]] = {}  # S -> {vertex on S: parent}
    for vi, v in enumerate(P.vertices):
        for c in range(P.n + 1):
            for S in combinations(sorted(v), c):
                parents.setdefault(S, {})[vi] = vi
    faces = [{} for _ in range(P.n + 2)]
    for S, parent in parents.items():
        faces[len(S)][S] = len(parent)
    # n - 1 facets on a vertex lie on an edge, two vertices as the constructor
    # checks, which it joins in the face of each S it lies on
    for edge in faces[P.n - 1]:
        a, b = parents[edge]
        for c in range(P.n):
            level = faces[c]
            for S in combinations(edge, c):
                if level[S] > 1:  # else the face is one component already
                    parent = parents[S]
                    ra, rb = _root(parent, a), _root(parent, b)
                    if ra != rb:
                        parent[ra] = rb
                        level[S] -= 1
    return faces


def _root(parent: Dict[int, int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def h_vector(P: SimplePolytope) -> HVector:
    """h-vector via sum_i f_{i-1} (t-1)^{n-i} = sum_i h_i t^{n-i}, found
    once per polytope and kept on it."""
    return kept(P, "_h_vector", _h_vector)


def _h_vector(P: SimplePolytope) -> HVector:
    n = P.n
    if n == 0:
        return HVector((1,))
    # the transform runs over the dual simplicial sphere: index by codimension
    f = (1,) + tuple(reversed(f_vector(P).f))  # facets first, empty face = 1
    acc = [0] * (n + 1)  # coefficients of t^0 .. t^n
    for i, fi in enumerate(f):
        # fi * (t-1)^(n-i)
        d = n - i
        for k in range(d + 1):
            acc[k] += fi * comb(d, k) * (-1) ** (d - k)
    h = tuple(acc[n - i] for i in range(n + 1))
    hv = HVector(h)
    if sum(h) != P.vertex_count:
        raise InputError("h-vector entries do not sum to the vertex count")
    return hv


def minimal_non_faces(P: SimplePolytope) -> List[Tuple[int, ...]]:
    """Minimal facet sets with empty intersection, found once per polytope
    and kept on it."""
    return list(kept(P, "_minimal_non_faces", _minimal_non_faces))


def _minimal_non_faces(P: SimplePolytope) -> List[Tuple[int, ...]]:
    kind = P.family[0]
    if kind == "product_of_simplices":
        dims = P.family[1]
        offs = block_offsets(dims)
        return [tuple(range(offs[j], offs[j] + dims[j] + 1)) for j in range(len(dims))]
    if kind == "polygon":
        k = P.family[1]
        if k == 3:  # a triangle: its three edges meet in no vertex
            return [(0, 1, 2)]
        count = k * (k - 3) // 2
        if count > MAX_POLYGON_RELATIONS:
            raise InputError(f"a {k}-gon's ring has {count} relations; at most "
                             f"{MAX_POLYGON_RELATIONS} can be listed")
        # edges i < j are disjoint unless adjacent: j = i + 1, or 0 and k - 1
        return [(i, j) for i in range(k) for j in range(i + 2, k) if (i, j) != (0, k - 1)]
    # explicit: a minimal non-face T lies on no vertex while each T - {f}
    # does, so T is a face S of the table and one facet above max S
    faces = kept(P, "_faces", _face_table)
    out = []
    for c in range(1, P.n + 1):
        for S in faces[c]:
            for f in range(S[-1] + 1, P.facet_count):
                T = S + (f,)
                if T not in faces[c + 1] and all(T[:i] + T[i + 1:] in faces[c]
                                                 for i in range(c)):
                    out.append(T)
    return sorted(out)


def _block(P: SimplePolytope, f: int) -> Tuple[int, int]:
    """(block, first facet of the block) of facet f in a product of simplices."""
    if not 0 <= f < P.facet_count:
        raise InputError(f"unknown facet {f}")
    off = 0
    for j, d in enumerate(P.family[1]):
        if f <= off + d:
            return j, off
        off += d + 1


def simplex_facets(P: SimplePolytope) -> List[int]:
    """Facets that are simplices: their induced vertex count equals n."""
    if P.family[0] == "product_of_simplices":
        # a block-j facet has n_j * prod_{i != j} (n_i + 1) vertices
        dims, count = P.family[1], P.vertex_count
        return [
            f
            for off, d in zip(block_offsets(dims), dims)
            if count // (d + 1) * d == P.n
            for f in range(off, off + d + 1)
        ]
    return [
        f
        for f in range(P.facet_count)
        if len(P.facet_vertex_indices(f)) == P.n
    ]


def facet_neighbours(P: SimplePolytope, f: int) -> List[int]:
    """Facets other than f sharing at least one vertex with f."""
    if P.family[0] == "product_of_simplices":
        # every other facet, except the other facet of a 1-dimensional block
        j, off = _block(P, f)
        skip = range(off, off + 2) if P.family[1][j] == 1 else (f,)
        return [g for g in range(P.facet_count) if g not in skip]
    out = set()
    for vi in P.facet_vertex_indices(f):
        out |= P.vertices[vi]
    out.discard(f)
    return sorted(out)


def product_vertex_count(dims: Sequence[int]) -> int:
    return prod(d + 1 for d in dims)
