"""Random product shapes, facet vectors and twistings, and the enumeration
of small Bott towers.

Shared by the CLI's verification sweeps and the test suite.  Each draw
takes the caller's `random.Random`, and the sampler the caller's try
count, so each caller's random stream stays its own.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator, Optional, Tuple

from .charfun import BottMatrix, FacetMasks, _dependent_vertices, _peel
from .errors import InputError
from .polytope import MAX_PRODUCT_DIMENSION, SimplePolytope, check_vertex_cap


def random_dims(rng: random.Random, max_m: int, max_n: int) -> Tuple[int, ...]:
    """Random block dimensions of a product of simplices: one
    rng.randint(1, max_m) for the block count, then one rng.randint(1, max_n)
    per block.  Each block adds at least 1 to the dimension, so a max_m past
    MAX_PRODUCT_DIMENSION is refused before any draw."""
    if max_m > MAX_PRODUCT_DIMENSION:
        raise InputError(f"a product of simplices has at most {MAX_PRODUCT_DIMENSION} "
                         f"blocks, got a block count up to {max_m}")
    return tuple(rng.randint(1, max_n) for _ in range(rng.randint(1, max_m)))


def random_characteristic(P: SimplePolytope, rng: random.Random,
                          tries: int) -> Optional[FacetMasks]:
    """Random valid facet vectors for P, as masks, or None after `tries` draws,
    each decided as `validate` does: by the block peel on a product."""
    n = P.n
    on_product = P.family[0] == "product_of_simplices"
    if on_product:  # refused past the vertex cap, as listing its vertices is
        check_vertex_cap(P)
    first = ([f for block in P.blocks for f in block[1:]] if on_product  # vertex 0's facets
             else sorted(P.vertices[0]))
    for _ in range(tries):
        # a nonzero vector is one draw from 1 .. 2^n - 1, as a mask, so no
        # list of all 2^n - 1 of them is built
        masks = [rng.randrange(1, 1 << n) for _ in range(P.facet_count)]
        # make the first vertex a basis to help the success rate
        for i, f in enumerate(first):
            masks[f] = 1 << i
        if _peel(P, masks) if on_product else not _dependent_vertices(P, masks):
            return FacetMasks(n, masks)
    return None


def random_bott_matrix(dims: Tuple[int, ...], rng: random.Random) -> BottMatrix:
    """A random twisting of the blocks dims: for k ascending and j < k
    ascending, one rng.randint(0, 1) per entry of the block beta(k, j)."""
    beta = {(k, j): tuple(rng.randint(0, 1) for _ in range(dims[k - 1]))
            for k in range(2, len(dims) + 1) for j in range(1, k)}
    return BottMatrix.make(dims, beta)


def all_bott_matrices(m: int, max_n: int) -> Iterator[Tuple[Tuple[int, ...], BottMatrix]]:
    """All Bott matrices with exactly m blocks and block dimensions <= max_n."""
    slots = [(k, j) for k in range(2, m + 1) for j in range(1, k)]
    for dims in product(range(1, max_n + 1), repeat=m):
        widths = [dims[k - 1] for k, _ in slots]
        for bits in range(1 << sum(widths)):
            beta = {}
            off = 0
            for (k, j), w in zip(slots, widths):
                chunk = tuple((bits >> (off + i)) & 1 for i in range(w))
                off += w
                if any(chunk):
                    beta[(k, j)] = chunk
            yield dims, BottMatrix.make(dims, beta)
