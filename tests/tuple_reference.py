"""Exponent-tuple polynomial arithmetic over GF(2), the tests' reference.

The package does all monomial arithmetic on packed ints.  This module keeps
the plain form it is checked against: a monomial is a tuple of exponents, a
polynomial a frozenset of monomials (coefficient 1, addition is symmetric
difference), and a tensor-square element a frozenset of ordered monomial
pairs.  On top of it sit the rewriting normal form of a real Bott tower and
the full-expansion certificate oracle, as the package had them before it
packed them.  Then comes the row reduction of 0/1 rows that a small
cover's reduced coordinate matrix (`gf2.column_rref`) is checked against.
Last come facet vectors as 0/1 tuples: the Bott matrix layout and the
simplex-facet hypotheses by a rank of tuple rows, which the package's
masks are checked against, and the free-circle blocks of a tower read block
by block, which the package's block roots (`BottMatrix.roots`) are checked
against.  The tower's tensor-power certificate is kept as the package
first built it, per-block unit tuples and rendered terms included.  At the
end, `reduce_to_bott` reads the peel that `validate` keeps as the basis
change that takes an assignment on a product of simplices to its Bott
matrix's layout; no command needs that, and the tests check the peel
through it.
"""

from collections import Counter
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from smallcover import gf2
from smallcover.charfun import BottMatrix, peel_matrix, validate
from smallcover.charfun import from_bott as layout_masks
from smallcover.errors import CharacteristicError, InputError
from smallcover.gf2 import _as_masks, default_names, mono_render, row_reduce_masks
from smallcover.invariants import (LEADING_TERM_ARGUMENT, ZclCertificate, certificate_length,
                                   power_exponent)
from smallcover.polytope import facet_neighbours, product_of_simplices, simplex_facets

Monomial = Tuple[int, ...]
GF2Poly = frozenset  # of Monomial
TensorElement = frozenset  # of (Monomial, Monomial)

ZERO_POLY: GF2Poly = frozenset()


# ---------------------------------------------------------------------------
# monomials and polynomials


def mono_deg(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) != len(b):
        raise InputError("monomial arity mismatch")
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(m: Monomial):
    """Graded lex with variable 1 smallest (the last variable dominates)."""
    return (sum(m), tuple(reversed(m)))


def mono_one(arity: int) -> Monomial:
    return (0,) * arity


def mono_var(arity: int, i: int, e: int = 1) -> Monomial:
    """Monomial var_i^e with 1-based variable index i."""
    return tuple(e if k == i - 1 else 0 for k in range(arity))


def poly(monomials: Iterable[Monomial]) -> GF2Poly:
    """Build a polynomial, XOR-cancelling duplicate monomials."""
    acc: set = set()
    for m in monomials:
        acc.symmetric_difference_update({tuple(m)})
    return frozenset(acc)


def poly_mul(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    acc: set = set()
    for u in a:
        for v in b:
            acc.symmetric_difference_update({mono_mul(u, v)})
    return frozenset(acc)


def poly_deg(p: GF2Poly) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return max((mono_deg(m) for m in p), default=-1)


def poly_render(p: GF2Poly, names: Sequence[str]) -> str:
    if not p:
        return "0"
    terms = sorted(p, key=grlex_key, reverse=True)
    return " + ".join(mono_render(m, names) for m in terms)


# ---------------------------------------------------------------------------
# tensor-square elements


def tensor_mul(s: TensorElement, t: TensorElement) -> TensorElement:
    """(u x v)(u' x v') = uu' x vv'; no sign bookkeeping in char 2."""
    acc: set = set()
    for u, v in s:
        for x, y in t:
            acc.symmetric_difference_update({(mono_mul(u, x), mono_mul(v, y))})
    return frozenset(acc)


def tensor_cup(s: TensorElement) -> GF2Poly:
    """Image under the multiplication map u x v -> uv."""
    acc: set = set()
    for u, v in s:
        acc.symmetric_difference_update({mono_mul(u, v)})
    return frozenset(acc)


def tensor_render(t: TensorElement, names: Sequence[str]) -> str:
    if not t:
        return "0"
    terms = sorted(t, key=lambda uv: (grlex_key(uv[0]), grlex_key(uv[1])), reverse=True)
    return " + ".join(
        f"{mono_render(u, names)}(x){mono_render(v, names)}" for u, v in terms
    )


# ---------------------------------------------------------------------------
# the rings' relations as tuples


def unpacked_relations(ring) -> Tuple[GF2Poly, ...]:
    """A quotient ring's packed relations, each as a set of exponent tuples."""
    field = (1 << ring._width) - 1
    return tuple(frozenset(tuple((t >> (i * ring._width)) & field for i in range(ring.nvars))
                           for t in terms) for _, terms in ring._packed)


def _block(B, k: int, j: int, table=None) -> Tuple[int, ...]:
    """Block (k, j) of a Bott matrix, looked up in its stored beta (or in
    `table`, that beta as a dict): the reference's own reading, not the
    package's roots."""
    return (table or dict(B.beta)).get((k, j)) or (0,) * B.dims[k - 1]


def bott_roots(B) -> Tuple[Tuple[int, ...], ...]:
    """`BottMatrix.roots` by block lookups: block j's masks w_0 = 0, w_1,
    ..., w_{n_j}, w_k with bit l - 1 set when block (j, l) has entry k."""
    table = dict(B.beta)
    out = []
    for j, n in enumerate(B.dims, start=1):
        rows = [_block(B, j, l, table) for l in range(1, j)]
        out.append((0,) + tuple(sum(row[k] << l for l, row in enumerate(rows))
                                for k in range(n)))
    return tuple(out)


def gammas(dims, B) -> Tuple[GF2Poly, ...]:
    """Gamma_j = y_j prod_k (y_j + sum_l beta(j, l)[k] y_l) of a tower."""
    m = len(dims)
    out = []
    for j in range(1, m + 1):
        acc = frozenset({mono_var(m, j)})
        for k in range(1, dims[j - 1] + 1):
            factor = {mono_var(m, j)}
            for l in range(1, j):
                if _block(B, j, l)[k - 1]:
                    factor ^= {mono_var(m, l)}
            acc = poly_mul(acc, frozenset(factor))
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# the tower normal form and the certificate oracle


def bott_normal_form(p: GF2Poly, dims, B) -> GF2Poly:
    """Unique representative of p on the standard monomials of a tower.

    Rewrites y_j^{n_j+1} by the lower-order tail of its relation, the
    grlex-largest reducible monomial first; the leading monomials are
    pairwise coprime, so the rewriting needs no S-polynomial completion.
    """
    m = len(dims)
    tails = [g ^ {mono_var(m, j, n + 1)}
             for j, (g, n) in enumerate(zip(gammas(dims, B), dims), start=1)]
    cur = set(p)
    while True:
        nonstd = [mon for mon in cur if any(e > d for e, d in zip(mon, dims))]
        if not nonstd:
            return frozenset(cur)
        mon = max(nonstd, key=grlex_key)
        j = max(i + 1 for i, (e, d) in enumerate(zip(mon, dims)) if e > d)
        rest = tuple(
            e - (dims[j - 1] + 1) if i == j - 1 else e
            for i, e in enumerate(mon)
        )
        cur.symmetric_difference_update({mon})
        cur.symmetric_difference_update(poly_mul(tails[j - 1], frozenset({rest})))


def certificate_product(dims, B, factors) -> TensorElement:
    """The product of the factors, both legs reduced after each one."""
    forms: dict = {}

    def reduce_tensor(t: TensorElement) -> TensorElement:
        acc: set = set()
        for u, v in t:
            for mon in (u, v):
                if mon not in forms:
                    forms[mon] = bott_normal_form(frozenset({mon}), dims, B)
            for x in forms[u]:
                for y in forms[v]:
                    acc.symmetric_difference_update({(x, y)})
        return frozenset(acc)

    product: TensorElement = frozenset({(mono_one(len(dims)),) * 2})
    for f in factors:
        product = reduce_tensor(tensor_mul(product, f))
    return product


def verify_certificate(dims, B, cert) -> bool:
    """The certificate oracle by the full expansion on exponent tuples."""
    if len(cert.factors) != cert.k or not cert.product:
        return False
    for f in set(cert.factors):
        if bott_normal_form(tensor_cup(f), dims, B):
            return False
    return cert.product <= certificate_product(dims, B, cert.factors)


# ---------------------------------------------------------------------------
# row reduction


def row_reduce(rows: Iterable[Sequence[int]]):
    """Reduced row echelon form.

    Returns (rows, pivot_cols): fully reduced nonzero rows as masks, sorted by
    pivot column, and the list of pivot column indices.
    """
    reduced = row_reduce_masks(_as_masks(rows))
    # back-substitute to clear entries above pivots
    for i, row in enumerate(reduced):
        lead = row.bit_length() - 1
        for j in range(len(reduced)):
            if j != i and (reduced[j] >> lead) & 1:
                reduced[j] ^= row
    reduced.sort(key=lambda r: r.bit_length())
    pivot_cols = [r.bit_length() - 1 for r in reduced]
    return reduced, pivot_cols


# ---------------------------------------------------------------------------
# facet vectors as tuples


def bott_column(B, j: int) -> Tuple[int, ...]:
    """Column j of a Bott matrix as a length-n vector over the block layout."""
    out: List[int] = []
    for k, d in enumerate(B.dims, start=1):  # zero above block j, ones on it
        out.extend(_block(B, k, j) if k > j else (int(k == j),) * d)
    return tuple(out)


def block_offsets(dims) -> List[int]:
    """The first facet of each block of a product of simplices, stated here
    rather than read from the package: block j owns n_j + 1 facets in turn."""
    offsets, off = [], 0
    for d in dims:
        offsets.append(off)
        off += d + 1
    return offsets


def from_bott(dims, B) -> List[Tuple[int, ...]]:
    """`charfun.from_bott`'s layout as tuples: block j's first n_j facets get
    consecutive standard basis vectors, its last facet column j of B."""
    n = sum(dims)
    vectors: List[Tuple[int, ...]] = []
    coord = 0
    for j, d in enumerate(dims, start=1):
        for _ in range(d):
            vectors.append(tuple(1 if c == coord else 0 for c in range(n)))
            coord += 1
        vectors.append(bott_column(B, j))
    return vectors


def tuples(vectors: Iterable, n: int) -> List[Tuple[int, ...]]:
    """Facet vectors as 0/1 tuples of length n: each mask as the tuple it
    packs, each tuple as it is."""
    return [tuple(v) if isinstance(v, Sequence) else tuple((v >> i) & 1 for i in range(n))
            for v in vectors]


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over GF(2) by elimination on 0/1 lists, column by column."""
    rows = [list(r) for r in rows]
    done = 0  # the rows that hold a pivot
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(done, len(rows)) if rows[i][c] & 1), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for i, row in enumerate(rows):
            if i != done and row[c] & 1:
                rows[i] = [a ^ b for a, b in zip(row, rows[done])]
        done += 1
    return done


def simplex_facet_hypotheses(P, vectors) -> Tuple[bool, bool]:
    """`bounds.simplex_facet_hypotheses` on 0/1 tuples: some facet is a
    simplex, and some simplex facet has n neighbours whose vectors have
    rank n."""
    simplices = simplex_facets(P)
    invertible = any(len(nb) == P.n and rank([vectors[g] for g in nb]) == P.n
                     for nb in (facet_neighbours(P, f) for f in simplices))
    return bool(simplices), invertible


def free_circle_blocks(dims, B) -> List[int]:
    """`bounds.free_circle_blocks` block by block: each candidate's fibre
    vectors w_k as tuples of `_block` lookups, counted."""
    twisted = {j for (_, j), bits in B.beta if any(bits)}
    out = []
    for j, nj in enumerate(dims, start=1):
        if nj == 1 or nj % 2 == 0 or j in twisted:
            continue
        rows = [_block(B, j, l) for l in range(1, j)]
        fibre = Counter(tuple(row[k] for row in rows) for k in range(nj))
        fibre[(0,) * (j - 1)] += 1
        if all(c % 2 == 0 for c in fibre.values()):
            out.append(j)
    return out


def zcl_certificate_bott(dims) -> ZclCertificate:
    """`invariants.zcl_certificate_bott` as it was first written: a unit
    tuple built per block, and each surviving term joined from a generator.
    It reads the block sizes alone."""
    m = len(dims)
    names = default_names(m, "y")
    one = (0,) * m
    factors: List[frozenset] = []
    left: List[int] = []
    surviving = []
    for j, nj in enumerate(dims):
        dj = (1 << power_exponent(nj)) - 1
        y_j = tuple(int(i == j) for i in range(m))
        factors.extend([frozenset({(one, y_j), (y_j, one)})] * dj)
        left.append(dj - nj)
        surviving.append("(x)".join(mono_render((e,), names[j:j + 1])
                                    for e in (dj - nj, nj)))
    witness = frozenset({(tuple(left), tuple(dims))})
    return ZclCertificate(certificate_length(dims), tuple(factors), witness,
                          tuple(surviving), LEADING_TERM_ARGUMENT)


# ---------------------------------------------------------------------------
# triangular reduction


class ReductionFailed(RuntimeError):
    """No basis change brings the assignment into triangular form."""


class BottReduction(NamedTuple):
    matrix: BottMatrix
    block_order: Tuple[int, ...]  # position t holds the original block (1-based)
    alpha_facets: Tuple[int, ...]  # global facet index playing the alpha role per original block
    basis_change: Tuple[Tuple[int, ...], ...]  # rows of C; new vector = C . old


def reduce_to_bott(dims: Sequence[int], vectors) -> BottReduction:
    """Bring a valid assignment on a product of simplices to triangular form
    by the block peel (`charfun._peel`) that `validate` keeps with the masks;
    a refused assignment raises with the bad vertices `validate` lists."""
    dims = tuple(dims)
    P = product_of_simplices(dims)
    report = validate(P, vectors)
    if not report.valid:
        raise CharacteristicError(f"invalid assignment at vertices {report.bad_vertices}")
    masks, peeled = P._valid_masks, P._peeled
    if peeled is None:
        raise ReductionFailed(f"no block order is triangular for dims {dims}")
    B = peel_matrix(dims, peeled)
    pivots, _, order = peeled
    n = P.n
    offsets = block_offsets(dims)
    alphas = [off + d for off, d in zip(offsets, dims)]
    starts = [off - j for j, off in enumerate(offsets)]  # first coordinate of each block
    # C: the rows of the coordinate map, blocks in the new order
    columns = [gf2.reduce_tagged(pivots, 1 << c)[1] for c in range(n)]
    C = [sum(((col >> r) & 1) << c for c, col in enumerate(columns))
         for j in order for r in range(starts[j], starts[j] + dims[j])]
    # postcondition: the transformed, reordered vectors are the layout
    laid = [sum(((row & masks[f]).bit_count() & 1) << r for r, row in enumerate(C))
            for j in order for f in range(offsets[j], alphas[j] + 1)]
    assert tuple(laid) == layout_masks(B)
    return BottReduction(B, tuple(j + 1 for j in order), tuple(alphas),
                         tuple(gf2.bits_of(row, n) for row in C))
