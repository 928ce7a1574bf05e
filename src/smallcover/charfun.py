"""Facet vector assignments over GF(2), as one int mask per facet
(`FacetMasks`).  0/1 tuples given to `validate` are packed once (`_masks`),
the multiplicative sign convention carried additively (a -1 entry is bit 1).

Validation checks invertibility of the vertex matrices, all in one
elimination (`validate`), on the smaller Gale side on a product; for a
simple polytope that subsumes the conditions on all lower faces.  On a
product of simplices, a Bott matrix gives facet vectors in the block layout
(`from_bott`), and the block peel takes an assignment back to such a matrix
in polynomial time: one basis change, then the blocks peeled from the end
into a triangular order.  The peel succeeds exactly on the valid
assignments, so on a product it decides validity; `validate` keeps it, and
`peel_matrix` reads its Bott matrix.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, compress
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from . import gf2
from .errors import CharacteristicError, InputError
from .polytope import SimplePolytope, block_offsets, kept, product_vertices

GF2Vector = Tuple[int, ...]


class FacetMasks(tuple):
    """Facet vectors as int masks, coordinate 1 at bit 0 (as `gf2.mask_of`
    packs a 0/1 tuple), with n, the length of each, or -1 if they differ."""

    def __new__(cls, n: int, masks: Iterable[int]) -> "FacetMasks":
        self = super().__new__(cls, masks)
        self.n = n
        return self


# the ASCII digits 0 and 1 to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bitstring(s: str) -> str:
    """s, if it is a bitstring.  Only a str is a bitstring: a JSON array of
    "0"/"1" strings is refused."""
    if not isinstance(s, str) or not s or s.count("0") + s.count("1") < len(s):
        raise InputError(f"bad bitstring {s!r}")
    return s


def parse_bits(s: str) -> GF2Vector:
    """Bitstring "10" -> (1, 0); leftmost character is coordinate 1."""
    return tuple(_bitstring(s).encode().translate(_BIT_BYTES))


def parse_vectors(strings: Sequence[str]) -> FacetMasks:
    """Bitstrings to masks as `parse_bits` reads them, each checked in turn;
    `validate` checks their count and lengths."""
    masks = [int(_bitstring(s)[::-1], 2) for s in strings]
    lengths = set(map(len, strings))
    return FacetMasks(lengths.pop() if len(lengths) == 1 else -1, masks)


Vectors = Union[FacetMasks, Sequence[GF2Vector]]  # masks, or 0/1 tuples to pack


class ValidationReport(NamedTuple):
    valid: bool
    bad_vertices: Tuple[Tuple[int, ...], ...]  # offending vertices, as facet tuples


def validate(P: SimplePolytope, vectors: Vectors) -> ValidationReport:
    """Check that every vertex matrix of facet vectors is invertible.

    On a product of simplices the block peel (`_peel`) decides first: it
    succeeds exactly on a valid assignment, so an accepted one needs no
    vertex list.  A refused one, and any assignment on another polytope,
    goes to one elimination over all vertex matrices (`_dependent_vertices`).
    On a product with F - n < n it reads the F - n facets off each vertex in
    a basis of the relations among the facet vectors: those span the
    complement of the rows of the n x F matrix of facet vectors, so n of its
    columns are a basis exactly when the relations on the other F - n are
    independent (matroid duality; Oxley, Matroid Theory, ch. 2), and more
    than F - n relations mean rank < n.  P keeps the masks last found valid
    on it (`P._valid_masks`) and, set with them, their peel (`P._peeled`,
    None off a product), so a ring built on an assignment just accepted
    checks it no more, and reads both there; count and lengths are always
    checked.
    """
    masks = _masks(P, vectors)
    if masks == vars(P).get("_valid_masks"):
        return ValidationReport(True, ())
    peeled = _peel(P, masks) if P.family[0] == "product_of_simplices" else None
    bad = () if peeled else _dependent_vertices(P, masks)
    if not bad:
        object.__setattr__(P, "_peeled", peeled)
        object.__setattr__(P, "_valid_masks", masks)
    return ValidationReport(not bad, bad)


def _masks(P: SimplePolytope, vectors: Vectors) -> Tuple[int, ...]:
    """The masks, once their count and then their lengths fit P; 0/1 tuples
    are packed here, the one place, by `gf2.mask_of`."""
    if len(vectors) != P.facet_count:
        raise CharacteristicError(
            f"expected {P.facet_count} vectors, got {len(vectors)}"
        )
    if isinstance(vectors, FacetMasks):
        if vectors and (vectors.n != P.n or max(vectors) >> P.n):
            raise CharacteristicError("vector length differs from the dimension")
        return vectors
    for v in vectors:
        if len(v) != P.n:
            raise CharacteristicError("vector length differs from the dimension")
    return tuple(map(gf2.mask_of, vectors))


def _dependent_vertices(P: SimplePolytope, masks: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """The vertices with dependent facet vectors (bit masks), as sorted facet
    tuples in ascending order.  Row i is a lane of whole bytes per vertex,
    gathered by `str.translate`: its facet's vector or relation column
    (`validate`).  Column c pivots each lane on its first row with bit c,
    adds that to the later rows with bit c and zeroes it, clearing bits c
    and below; a lane with no pivot is a bad vertex."""
    vertices, rows = kept(P, "_vertex_rows", _vertex_rows)
    r = len(rows)
    if r < P.n:
        relations = gf2.kernel_combos(masks)
        if len(relations) > r:
            return tuple(vertices)
        masks = [0] * P.facet_count  # each facet's column in the relations
        for k, relation in enumerate(relations):
            for f in gf2.bit_positions(relation):
                masks[f] |= 1 << k
    width = -(-r // 8) or 1  # bytes per lane
    cells = [mask.to_bytes(width, "little").decode("latin-1") for mask in masks]
    rows = [int.from_bytes(facets.translate(cells).encode("latin-1"), "little")
            for facets in rows]
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * len(vertices), "little")
    bad = 0
    for c in range(r):
        bit = free = ones << c  # free: bit c of the lanes with no pivot yet
        lane = (1 << 8 * width - c) - 1  # times a bit c: bits c and up of its lane
        pivot = 0
        for i, row in enumerate(rows):
            has = row & bit
            if has:
                take = has & free
                if take:
                    free ^= take
                    pivot |= row & take * lane
                rows[i] = row ^ pivot & has * lane
        bad |= free >> c
    return tuple(compress(vertices, bad.to_bytes(width * len(vertices), "little")[::width]))


def _vertex_rows(P: SimplePolytope):
    """The vertices as sorted facet tuples in ascending order, and per row a
    str whose k-th character codes the facet vertex k puts there: its n
    facets, or on a product with F - n < n the F - n off it, one per block
    (on the triangle and the 3-prism, those rows took longer per draw).
    In `product_vertices` order, block j's row counts down its facets, each
    held for as many vertices as the later blocks have, and repeats that run
    once per vertex of the earlier blocks."""
    on_product = P.family[0] == "product_of_simplices"
    vertices = (product_vertices(P) if on_product
                else sorted(tuple(sorted(v)) for v in P.vertices))
    if not on_product or P.facet_count - P.n >= P.n:
        return vertices, tuple("".join(map(chr, row)) for row in zip(*vertices))
    rows, held = [], len(vertices)
    for off, d in zip(block_offsets(P.family[1]), P.family[1]):
        held //= d + 1  # the vertices of the later blocks
        run = "".join(chr(f) * held for f in range(off + d, off - 1, -1))
        rows.append(run * (len(vertices) // len(run)))
    return vertices, tuple(rows)


class _BottFields(NamedTuple):
    dims: Tuple[int, ...]
    beta: Tuple[Tuple[Tuple[int, int], GF2Vector], ...] = ()


class BottMatrix(_BottFields):
    """Unipotent lower-triangular block matrix.

    beta[(k, j)] is the block in row k, column j (1-based, j < k), 0/1 ints
    of length dims[k-1], kept as `make` is given them.  Diagonal blocks are
    all-ones, upper zero.  A `NamedTuple` with a `__dict__` for `_blocks`.
    """

    @staticmethod
    def make(dims: Sequence[int], beta: Dict[Tuple[int, int], Sequence[int]] = None) -> "BottMatrix":
        dims = tuple(dims)
        if not dims or {*map(type, dims)} != {int} or min(dims) < 1:
            raise InputError("dims must be a nonempty list of positive integers")
        items = []
        beta = beta or {}
        for (k, j), bits in beta.items():
            if not (1 <= j < k <= len(dims)):
                raise InputError(f"bad beta block index ({k}, {j})")
            bits = tuple(bits)
            if len(bits) != dims[k - 1]:
                raise InputError(f"beta block ({k}, {j}) must have length {dims[k - 1]}")
            if any(bits):
                items.append(((k, j), bits))
        return BottMatrix(dims, tuple(sorted(items)))

    @cached_property
    def _blocks(self) -> Dict[Tuple[int, int], GF2Vector]:
        # off the fields, so equality and hash read dims and beta alone
        return dict(self.beta)

    def block(self, k: int, j: int) -> GF2Vector:
        return self._blocks.get((k, j)) or (0,) * self.dims[k - 1]


def from_bott(B: BottMatrix) -> FacetMasks:
    """Facet masks on the product of simplices of B.dims in the block layout:
    block j's first n_j facets get consecutive standard basis vectors, its last
    column j of B, ones on block j and block (k, j) on each k > j."""
    starts = list(accumulate(B.dims, initial=0))  # each block's first coordinate, then n
    columns = [(1 << end) - (1 << start) for start, end in zip(starts, starts[1:])]
    for (k, j), bits in B.beta:
        columns[j - 1] |= gf2.mask_of(bits) << starts[k - 1]
    masks: List[int] = []
    for start, end, column in zip(starts, starts[1:], columns):
        masks += [1 << c for c in range(start, end)] + [column]
    return FacetMasks(starts[-1], masks)


def peel_matrix(dims: Sequence[int], peeled) -> BottMatrix:
    """The Bott matrix of a peel on the product of simplices of dims, its
    blocks in the peeled order: block (s, t) is alpha_t read on block s."""
    _, images, order = peeled
    starts = [off - j for j, off in enumerate(block_offsets(dims))]
    beta = {(s + 1, t + 1): gf2.bits_of(images[j] >> starts[k], dims[k])
            for t, j in enumerate(order) for s, k in enumerate(order) if s > t}
    return BottMatrix.make([dims[j] for j in order], beta)


def _peel(P: SimplePolytope, masks: Sequence[int]):
    """(pivots, images, order) of the block peel of facet masks on a product
    of simplices, or None where the assignment is invalid.

    The last facet of each block plays the alpha role.  The other facets
    meet in a vertex, so on a valid assignment their vectors are a basis,
    and the pivots (lead bit -> reduced row, basis vectors it sums) take a
    vector to its coordinates in it, e_1..e_n in the block layout.  The
    images are the alpha vectors in those coordinates.  Each is all ones on
    its own block: the vertex that swaps one of the block's other facets for
    alpha needs that coordinate.  Say j precedes k when alpha_j is nonzero
    on block k.  The form is triangular in a block order exactly when that
    order puts every j before the blocks it precedes, so the blocks are
    peeled from the end: the remaining block whose alpha vanishes on every
    other remaining block goes last, the highest such index first, which
    keeps a from_bott layout in its own order; `order` lists the blocks
    (0-based) first to last.

    Any alpha choice gives the same answer.  Making block j's facet with
    vector e_p its alpha is the shear x -> x + x_p w, w = alpha_j + e_p:
    block j's alpha keeps its image, and another alpha_l changes only when
    it has bit p (l precedes j), and then only on block j and on the blocks
    j precedes.  So the change adds only pairs l, k with l before j before
    k, and an acyclic relation stays acyclic; the swap undoes itself, so
    the converse holds too.  Hence a failed peel means that no block order
    and alpha choice is triangular.  On a product of simplices every small
    cover is a generalized real Bott manifold (Choi-Masuda-Suh, Osaka J.
    Math. 47, 2010), so that happens only on an invalid assignment; and a
    triangular form is the layout of its Bott matrix, which is valid.
    """
    alphas, basis, segments = kept(P, "_peel_layout", _peel_layout)
    pivots: Dict[int, Tuple[int, int]] = {}
    for i, f in enumerate(basis):
        row, tag = gf2.reduce_tagged(pivots, masks[f], 1 << i)
        if not row:  # the facets of a vertex are dependent
            return None
        pivots[row.bit_length() - 1] = (row, tag)
    images = [gf2.reduce_tagged(pivots, masks[a])[1] for a in alphas]
    if any(image & segment != segment for image, segment in zip(images, segments)):
        return None
    left, order = list(range(len(alphas))), []
    span = (1 << P.n) - 1  # the coordinates of the blocks left
    while left:
        last = next((j for j in reversed(left) if not images[j] & (span ^ segments[j])), None)
        if last is None:
            return None
        left.remove(last)
        order.insert(0, last)
        span ^= segments[last]
    return pivots, images, order


def _peel_layout(P: SimplePolytope):
    """What the peel reads of a product of simplices alone: the alpha facet
    of each block, the other facets in order, and each block's coordinates
    as a mask."""
    dims = P.family[1]
    alphas = tuple(off + d for off, d in zip(block_offsets(dims), dims))
    alpha_set = set(alphas)
    basis = tuple(f for f in range(P.facet_count) if f not in alpha_set)
    segments, start = [], 0
    for d in dims:
        segments.append(((1 << d) - 1) << start)
        start += d
    return alphas, basis, tuple(segments)
