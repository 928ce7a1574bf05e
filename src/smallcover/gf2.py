"""Exact GF(2) kernels.

Bit-vector linear algebra (rank, row reduction, kernel combinations) on int
masks, the parity of binomial coefficients, and the text of a monomial.
Polynomial arithmetic lives with the rings (`cohomology`), on monomials
packed into ints.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InputError


# ---------------------------------------------------------------------------
# bit-vector linear algebra


def mask_of(bits: Sequence[int]) -> int:
    """Pack a 0/1 sequence into an int, coordinate 1 at the lowest bit."""
    m = 0
    for i, b in enumerate(bits):
        if b & 1:
            m |= 1 << i
    return m


def bits_of(mask: int, n: int) -> Tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def bit_positions(mask: int) -> List[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _as_masks(rows: Iterable[Sequence[int]]) -> List[int]:
    rows = list(rows)
    if not rows:
        return []
    length = len(rows[0])
    masks = []
    for r in rows:
        if len(r) != length:
            raise InputError("ragged matrix rows")
        masks.append(mask_of(r))
    return masks

def row_reduce_masks(masks: Iterable[int]) -> List[int]:
    """Row-reduce int bitmask rows; returns the nonzero reduced rows."""
    pivots: dict[int, int] = {}
    for row in masks:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                break
    return [pivots[k] for k in sorted(pivots, reverse=True)]


def reduce_tagged(pivots: Dict[int, Tuple[int, int]], row: int, tag: int = 0) -> Tuple[int, int]:
    """Reduce row by pivots (lead bit -> (reduced row, tag)), XORing the tag
    of each pivot used into tag: (remainder, tag).  With each tag the set of
    rows a pivot sums, a zero remainder makes tag the coordinates of row."""
    while row:
        pivot = pivots.get(row.bit_length() - 1)
        if pivot is None:
            break
        row, tag = row ^ pivot[0], tag ^ pivot[1]
    return row, tag


def column_rref(columns: Sequence[int]) -> List[int]:
    """Reduced row echelon form of the matrix whose column f is the mask
    columns[f], each row's pivot its lead bit: the nonzero rows as masks,
    pivot ascending.  It is read off the columns: the pivot columns are
    chosen greedily from the last one, row p has bit p, and a free column f
    has bit f in the rows of the pivot columns it sums."""
    pivots: Dict[int, Tuple[int, int]] = {}
    rows: Dict[int, int] = {}  # pivot column -> its row
    for f in reversed(range(len(columns))):
        rest, tag = reduce_tagged(pivots, columns[f])
        if rest:
            pivots[rest.bit_length() - 1] = (rest, tag | 1 << f)
            rows[f] = 1 << f
            continue
        for p in bit_positions(tag):
            rows[p] |= 1 << f
    return [rows[p] for p in sorted(rows)]


def rank_gf2(rows: Iterable[Sequence[int]]) -> int:
    """Matrix rank over GF(2); rows are 0/1 sequences of equal length."""
    return len(row_reduce_masks(_as_masks(rows)))


def kernel_combos(images: Sequence[int]) -> List[int]:
    """Span of the kernel of j -> images[j].

    Images are bitmasks in some codomain.  Returns masks over the domain
    indices: each returned mask c satisfies XOR_{j in c} images[j] == 0.
    """
    pivots: Dict[int, Tuple[int, int]] = {}  # lead bit -> (image, combo)
    kernel = []
    for j, img in enumerate(images):
        img, combo = reduce_tagged(pivots, img, 1 << j)
        if img:
            pivots[img.bit_length() - 1] = (img, combo)
        else:
            kernel.append(combo)
    return kernel


# ---------------------------------------------------------------------------
# binomial parity


def binom_odd(k: int, i: int) -> bool:
    """True iff C(k, i) is odd (Lucas: the base-2 digits of i fit inside k)."""
    if i < 0 or i > k:
        raise InputError("binomial index out of range")
    return (i & k) == i


# ---------------------------------------------------------------------------
# canonical text rendering


def default_names(arity: int, stem: str = "y") -> List[str]:
    return [f"{stem}{i + 1}" for i in range(arity)]


def mono_render(m: Sequence[int], names: Sequence[str]) -> str:
    parts = []
    for e, name in zip(m, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"
