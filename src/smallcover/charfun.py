"""Facet vector assignments over GF(2).

Validation checks invertibility of the vertex matrices; for a simple
polytope that subsumes the conditions on all lower faces.  The multiplicative
sign convention is carried additively (a -1 entry is bit 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
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


def render_bits(v: GF2Vector) -> str:
    return "".join(str(b) for b in v)


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
    built once per polytope (`P._vertex_walk`): per vertex, the length of
    the prefix it shares with the one before it, then its other facets.
    """
    if len(vectors) != P.facet_count:
        raise CharacteristicError(
            f"expected {P.facet_count} vectors, got {len(vectors)}"
        )
    for v in vectors:
        if len(v) != P.n:
            raise CharacteristicError("vector length differs from the dimension")
    bad = tuple(_dependent_vertices(P, [gf2.mask_of(v) for v in vectors]))
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
    i, end = 0, len(walk)
    while i < end:
        p = walk[i]
        i += 1 + n - p
        facets[p:] = walk[i - n + p:i]
        if p < dead:
            while len(leads) > p:
                del pivots[leads.pop()]
            dead = n + 1
            for t in range(p, n):
                row = masks[facets[t]]
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


def _vertex_walk(vertices) -> Tuple[int, ...]:
    """The vertices in lexicographic order of their sorted facet tuples, as
    one flat tuple: per vertex, the length p of the prefix it shares with
    the vertex before it, then its facets after that prefix."""
    out: List[int] = []
    prev: Tuple[int, ...] = ()
    for v in sorted(tuple(sorted(v)) for v in vertices):
        p = 0
        for a, b in zip(prev, v):
            if a != b:
                break
            p += 1
        out.append(p)
        out.extend(v[p:])
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


def _mat_vec(rows: Sequence[GF2Vector], v: GF2Vector) -> GF2Vector:
    return tuple(sum(r[i] * v[i] for i in range(len(v))) & 1 for r in rows)


def _invert(rows: Sequence[GF2Vector]) -> List[GF2Vector]:
    n = len(rows)
    # matrix in the high bits (where the reduction pivots), identity low
    aug = [(gf2.mask_of(rows[i]) << n) | (1 << i) for i in range(n)]
    red, pivots = gf2.row_reduce([gf2.bits_of(a, 2 * n) for a in aug])
    if pivots != list(range(n, 2 * n)):
        raise InputError("matrix is singular")
    inv = [None] * n
    for row in red:
        lead = row.bit_length() - 1 - n
        inv[lead] = gf2.bits_of(row & ((1 << n) - 1), n)
    return inv


def reduce_to_bott(dims: Sequence[int], vectors: Sequence[GF2Vector]) -> BottReduction:
    """Bring a valid assignment on a product of simplices to triangular form.

    Searches block orders and, within each block, the choice of which facet
    plays the alpha role; the remaining facets pin the basis change uniquely
    (they form a vertex, hence a basis).  Raises ReductionFailed with a
    diagnostic when no choice is triangular.
    """
    dims = tuple(dims)
    P = product_of_simplices(dims)
    report = validate(P, vectors)
    if not report.valid:
        raise CharacteristicError(f"invalid assignment at vertices {report.bad_vertices}")
    m = len(dims)
    n = sum(dims)
    offsets = block_offsets(dims)
    blocks = [list(range(offsets[j], offsets[j] + dims[j] + 1)) for j in range(m)]

    for order in permutations(range(m)):
        perm_dims = tuple(dims[b] for b in order)
        # try the last facet of each block first: the standard layout round-trips
        for alpha_choice in product(*[range(dims[b], -1, -1) for b in order]):
            # columns of C^{-1}: the non-alpha vectors must become e_1..e_n
            basis_vecs: List[GF2Vector] = []
            alpha_facets = [None] * m
            for t, b in enumerate(order):
                alpha_local = alpha_choice[t]
                alpha_facets[b] = blocks[b][alpha_local]
                basis_vecs.extend(
                    vectors[f] for i, f in enumerate(blocks[b]) if i != alpha_local
                )
            # C maps basis_vecs[i] to e_{i+1}: C = (columns basis_vecs)^{-1}
            cols = [[basis_vecs[j][i] for j in range(n)] for i in range(n)]
            C = _invert([tuple(c) for c in cols])
            # check triangularity of the alpha columns
            beta: Dict[Tuple[int, int], GF2Vector] = {}
            ok = True
            # coordinate offsets (block widths, not facet counts)
            starts = [0] * m
            for k in range(1, m):
                starts[k] = starts[k - 1] + perm_dims[k - 1]
            for t, b in enumerate(order):
                img = _mat_vec(C, vectors[alpha_facets[b]])
                for k in range(m):
                    seg = img[starts[k] : starts[k] + perm_dims[k]]
                    if k < t and any(seg):
                        ok = False
                        break
                    if k == t and any(x != 1 for x in seg):
                        ok = False
                        break
                    if k > t and any(seg):
                        beta[(k + 1, t + 1)] = seg
                if not ok:
                    break
            if not ok:
                continue
            B = BottMatrix.make(perm_dims, beta)
            # postcondition: transformed, reordered vectors match the layout
            rebuilt = from_bott(perm_dims, B)
            transformed = []
            for t, b in enumerate(order):
                alpha_local = alpha_choice[t]
                for i, f in enumerate(blocks[b]):
                    if i != alpha_local:
                        transformed.append(_mat_vec(C, vectors[f]))
                transformed.append(_mat_vec(C, vectors[blocks[b][alpha_local]]))
            assert transformed == rebuilt
            return BottReduction(
                B, tuple(o + 1 for o in order), tuple(alpha_facets), tuple(C)
            )
    raise ReductionFailed(
        f"no block order and alpha choice is triangular for dims {dims}"
    )
