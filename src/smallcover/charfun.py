"""Facet vector assignments over GF(2).

Validation checks invertibility of the vertex matrices; for a simple
polytope that subsumes the conditions on all lower faces.  The multiplicative
sign convention is carried additively (a -1 entry is bit 1).  On a product
of simplices, a Bott matrix gives facet vectors in the block layout
(`from_bott`), and `reduce_to_bott` takes a valid assignment back to such a
matrix in polynomial time: one basis change, then the blocks peeled from
the end into a triangular order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from . import gf2
from .errors import CharacteristicError, InputError, ReductionFailed
from .polytope import SimplePolytope, block_offsets, kept, product_of_simplices

GF2Vector = Tuple[int, ...]


def parse_bits(s: str) -> GF2Vector:
    """Bitstring "10" -> (1, 0); leftmost character is coordinate 1.  Only a
    str is a bitstring: a JSON array of "0"/"1" strings is refused."""
    if not isinstance(s, str) or not s or any(c not in "01" for c in s):
        raise InputError(f"bad bitstring {s!r}")
    return tuple(int(c) for c in s)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    bad_vertices: Tuple[Tuple[int, ...], ...]  # offending vertices, as facet tuples


def validate(P: SimplePolytope, vectors: Sequence[GF2Vector]) -> ValidationReport:
    """Check that every vertex matrix of facet vectors is invertible.

    The vertices are walked in lexicographic order of their sorted facet
    tuples, so each shares a prefix with the one before it.  The rows of
    that prefix stay reduced, in a dict keyed by lead bit with the leads
    in push order, so going back to a prefix pops the rows pushed since,
    and only the vertex's other facets are reduced.  A dependent prefix
    makes every vertex under it bad with no further work.  The bad
    vertices come out in walk order, which is sorted order.  The walk is
    built once per live polytope value (`P._vertex_walk`).  P keeps the
    masks last found valid on it (`P._valid_masks`), so a ring built on an
    assignment just accepted walks it no more; lengths are always checked.
    """
    if len(vectors) != P.facet_count:
        raise CharacteristicError(
            f"expected {P.facet_count} vectors, got {len(vectors)}"
        )
    for v in vectors:
        if len(v) != P.n:
            raise CharacteristicError("vector length differs from the dimension")
    masks = [gf2.mask_of(v) for v in vectors]
    if masks == vars(P).get("_valid_masks"):
        return ValidationReport(True, ())
    bad = tuple(_dependent_vertices(P, masks))
    if not bad:
        object.__setattr__(P, "_valid_masks", masks)
    return ValidationReport(not bad, bad)


def _dependent_vertices(P: SimplePolytope, masks: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """The vertices whose facet vectors (bit masks) are dependent, as sorted
    facet tuples in ascending order, by the walk of validate."""
    walk = kept(P, "_vertex_walk", lambda P: _vertex_walk(P.vertices))
    n = P.n
    pivots: Dict[int, int] = {}
    leads: List[int] = []
    facets = [0] * n  # the current vertex
    dead = n + 1  # length of the shortest dependent prefix; n + 1 if none
    for p, new in walk:
        facets[p:] = new
        if p < dead:
            while len(leads) > p:
                del pivots[leads.pop()]
            dead = n + 1
            for t, f in enumerate(new, p):
                row = masks[f]
                while row:
                    lead = row.bit_length() - 1
                    pivot = pivots.get(lead)
                    if pivot is None:
                        break
                    row ^= pivot
                if not row:
                    dead = t + 1
                    break
                pivots[lead] = row
                leads.append(lead)
        if dead <= n:
            yield tuple(facets)


def _vertex_walk(vertices) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """The vertices in lexicographic order of their sorted facet tuples, one
    step (p, new) per vertex: the length p of the prefix it shares with the
    vertex before it, and its facets after that prefix.  Equal steps are
    one object, so the walk holds about one reference per vertex."""
    out: List[Tuple[int, Tuple[int, ...]]] = []
    steps: Dict[tuple, tuple] = {}  # each distinct step, once
    prev: Tuple[int, ...] = ()
    for v in sorted(tuple(sorted(v)) for v in vertices):
        p = 0
        for a, b in zip(prev, v):
            if a != b:
                break
            p += 1
        step = (p, v[p:])
        out.append(steps.setdefault(step, step))
        prev = v
    return tuple(out)


@dataclass(frozen=True)
class BottMatrix:
    """Unipotent lower-triangular block matrix.

    beta[(k, j)] is the block in row k, column j (1-based, j < k), a vector of
    length dims[k-1].  Diagonal blocks are all-ones, upper blocks zero.
    """

    dims: Tuple[int, ...]
    beta: Tuple[Tuple[Tuple[int, int], GF2Vector], ...] = ()

    @staticmethod
    def make(dims: Sequence[int], beta: Dict[Tuple[int, int], Sequence[int]] = None) -> "BottMatrix":
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise InputError("dims must be a nonempty list of positive integers")
        items = []
        beta = beta or {}
        for (k, j), bits in beta.items():
            if not (1 <= j < k <= len(dims)):
                raise InputError(f"bad beta block index ({k}, {j})")
            bits = tuple(int(b) & 1 for b in bits)
            if len(bits) != dims[k - 1]:
                raise InputError(f"beta block ({k}, {j}) must have length {dims[k - 1]}")
            if any(bits):
                items.append(((k, j), bits))
        return BottMatrix(dims, tuple(sorted(items)))

    def block(self, k: int, j: int) -> GF2Vector:
        for key, bits in self.beta:
            if key == (k, j):
                return bits
        return (0,) * self.dims[k - 1]

    @property
    def m(self) -> int:
        return len(self.dims)

    def column(self, j: int) -> GF2Vector:
        """Column j assembled as a length-n vector over the block layout."""
        out: List[int] = []
        for k in range(1, self.m + 1):
            if k < j:
                out.extend([0] * self.dims[k - 1])
            elif k == j:
                out.extend([1] * self.dims[k - 1])
            else:
                out.extend(self.block(k, j))
        return tuple(out)


def from_bott(dims: Sequence[int], B: BottMatrix) -> List[GF2Vector]:
    """Facet vectors on the product of simplices in the block layout.

    Block j's first n_j facets get consecutive standard basis vectors; its
    last facet gets column j of the matrix.
    """
    dims = tuple(dims)
    if B.dims != dims:
        raise InputError("matrix dims disagree with the polytope dims")
    n = sum(dims)
    vectors: List[GF2Vector] = []
    coord = 0
    for j, d in enumerate(dims, start=1):
        for _ in range(d):
            vectors.append(tuple(1 if c == coord else 0 for c in range(n)))
            coord += 1
        vectors.append(B.column(j))
    return vectors


@dataclass(frozen=True)
class BottReduction:
    matrix: BottMatrix
    block_order: Tuple[int, ...]  # position t holds the original block (1-based)
    alpha_facets: Tuple[int, ...]  # global facet index playing the alpha role per original block
    basis_change: Tuple[GF2Vector, ...]  # rows of C; new vector = C . old


def reduce_to_bott(dims: Sequence[int], vectors: Sequence[GF2Vector]) -> BottReduction:
    """Bring a valid assignment on a product of simplices to triangular form.

    The last facet of each block plays the alpha role.  The other facets
    meet in a vertex, so their vectors are a basis, and C takes them to
    e_1..e_n in the block layout.  In those coordinates each alpha vector
    is all ones on its own block: the vertex that swaps one of the block's
    other facets for alpha needs that coordinate.  Say j precedes k when
    alpha_j is nonzero on block k.  The form is triangular in a block order
    exactly when that order puts every j before the blocks it precedes, so
    the blocks are peeled from the end: the remaining block whose alpha
    vanishes on every other remaining block goes last, the highest such
    index first, which keeps a from_bott layout in its own order.

    Any alpha choice gives the same answer.  Making block j's facet with
    vector e_p its alpha is the shear x -> x + x_p w, w = alpha_j + e_p:
    block j's alpha keeps its image, and another alpha_l changes only when
    it has bit p (l precedes j), and then only on block j and on the blocks
    j precedes.  So the change adds only pairs l, k with l before j before
    k, and an acyclic relation stays acyclic; the swap undoes itself, so
    the converse holds too.  Hence ReductionFailed, raised when the peel
    finds no block, means that no block order and alpha choice is
    triangular.
    """
    dims = tuple(dims)
    report = validate(product_of_simplices(dims), vectors)
    if not report.valid:
        raise CharacteristicError(f"invalid assignment at vertices {report.bad_vertices}")
    m, n = len(dims), sum(dims)
    masks = [gf2.mask_of(v) for v in vectors]
    offsets = block_offsets(dims)
    alphas = [off + d for off, d in zip(offsets, dims)]
    starts = [sum(dims[:j]) for j in range(m)]  # first coordinate of each block
    segments = [((1 << d) - 1) << s for d, s in zip(dims, starts)]

    # the basis row-reduced, each row with the bits of the basis vectors it sums
    pivots: Dict[int, Tuple[int, int]] = {}
    basis = (mask for f, mask in enumerate(masks) if f not in alphas)
    for i, row in enumerate(basis):
        tag = 1 << i
        while row.bit_length() - 1 in pivots:
            reduced, used = pivots[row.bit_length() - 1]
            row, tag = row ^ reduced, tag ^ used
        pivots[row.bit_length() - 1] = (row, tag)

    def coordinates(v: int) -> int:
        tag = 0
        while v:
            reduced, used = pivots[v.bit_length() - 1]
            v, tag = v ^ reduced, tag ^ used
        return tag

    images = [coordinates(masks[a]) for a in alphas]
    left, order = list(range(m)), []
    while left:
        span = sum(segments[k] for k in left)
        last = next((j for j in reversed(left) if not images[j] & (span ^ segments[j])), None)
        if last is None:
            raise ReductionFailed(f"no block order is triangular for dims {dims}")
        left.remove(last)
        order.insert(0, last)

    perm_dims = tuple(dims[j] for j in order)
    beta = {(s + 1, t + 1): gf2.bits_of(images[j] >> starts[k], dims[k])
            for t, j in enumerate(order) for s, k in enumerate(order) if s > t}
    B = BottMatrix.make(perm_dims, beta)
    # C: the rows of the coordinate map, blocks in the new order
    columns = [coordinates(1 << c) for c in range(n)]
    C = [sum(((col >> r) & 1) << c for c, col in enumerate(columns))
         for j in order for r in range(starts[j], starts[j] + dims[j])]
    # postcondition: the transformed, reordered vectors are the layout
    laid = [tuple((row & masks[f]).bit_count() & 1 for row in C)
            for j in order for f in range(offsets[j], alphas[j] + 1)]
    assert laid == from_bott(perm_dims, B)
    return BottReduction(B, tuple(j + 1 for j in order), tuple(alphas),
                         tuple(gf2.bits_of(row, n) for row in C))
