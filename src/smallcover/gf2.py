"""Exact GF(2) kernels.

Bit-vector linear algebra (rank, row reduction, kernel combinations) and
multivariate polynomial arithmetic with implicit coefficient 1: a polynomial
is a finite set of monomials and addition is symmetric difference, so
cancellation in characteristic 2 is automatic.  Tensor-square elements are
sets of ordered monomial pairs with the same XOR semantics.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence, Tuple

from .errors import InputError

Monomial = Tuple[int, ...]
GF2Poly = frozenset  # of Monomial
TensorElement = frozenset  # of (Monomial, Monomial)

ZERO_POLY: GF2Poly = frozenset()
ZERO_TENSOR: TensorElement = frozenset()


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


def rank_gf2(rows: Iterable[Sequence[int]]) -> int:
    """Matrix rank over GF(2); rows are 0/1 sequences of equal length."""
    return len(row_reduce_masks(_as_masks(rows)))


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


def solve_gf2(rows: Iterable[Sequence[int]], rhs: Sequence[int]):
    """Solve A x = b over GF(2); returns one solution mask or None."""
    masks = _as_masks(rows)
    # rhs at the low bit so the elimination never pivots on it
    aug = [(m << 1) | (b & 1) for m, b in zip(masks, rhs)]
    pivots: dict[int, int] = {}
    for row in aug:
        while row > 1:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                break
        else:
            if row == 1:
                return None  # inconsistent
    x = 0
    for lead in sorted(pivots):  # ascending: lower columns are already known
        row = pivots[lead]
        acc = row & 1
        m = (row >> 1) & ~(1 << (lead - 1))
        while m:
            b = m.bit_length() - 1
            acc ^= (x >> b) & 1
            m &= ~(1 << b)
        if acc:
            x |= 1 << (lead - 1)
    return x


def kernel_combos(images: Sequence[int]) -> List[int]:
    """Span of the kernel of j -> images[j].

    Images are bitmasks in some codomain.  Returns masks over the domain
    indices: each returned mask c satisfies XOR_{j in c} images[j] == 0.
    """
    pivots: dict[int, Tuple[int, int]] = {}  # lead bit -> (image, combo)
    kernel = []
    for j, img in enumerate(images):
        combo = 1 << j
        while img:
            lead = img.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (img, combo)
                break
            pimg, pcombo = pivots[lead]
            img ^= pimg
            combo ^= pcombo
        else:
            kernel.append(combo)
    return kernel


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


def poly_add(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    return a ^ b


def poly_mul(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    acc: set = set()
    for u in a:
        for v in b:
            acc.symmetric_difference_update({mono_mul(u, v)})
    return frozenset(acc)


def poly_deg(p: GF2Poly) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return max((mono_deg(m) for m in p), default=-1)


# ---------------------------------------------------------------------------
# tensor-square elements


def tensor(pairs: Iterable[Tuple[Monomial, Monomial]]) -> TensorElement:
    acc: set = set()
    for u, v in pairs:
        acc.symmetric_difference_update({(tuple(u), tuple(v))})
    return frozenset(acc)


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


# ---------------------------------------------------------------------------
# binomial parity


def binom_odd(k: int, i: int) -> bool:
    """True iff C(k, i) is odd (Lucas: the base-2 digits of i fit inside k)."""
    if i < 0 or i > k:
        raise InputError("binomial index out of range")
    return (i & k) == i


# ---------------------------------------------------------------------------
# canonical text rendering / parsing


def default_names(arity: int, stem: str = "y") -> List[str]:
    return [f"{stem}{i + 1}" for i in range(arity)]


def mono_render(m: Monomial, names: Sequence[str]) -> str:
    parts = []
    for e, name in zip(m, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def poly_render(p: GF2Poly, names: Sequence[str]) -> str:
    if not p:
        return "0"
    terms = sorted(p, key=grlex_key, reverse=True)
    return " + ".join(mono_render(m, names) for m in terms)


def tensor_render(t: TensorElement, names: Sequence[str]) -> str:
    if not t:
        return "0"
    terms = sorted(t, key=lambda uv: (grlex_key(uv[0]), grlex_key(uv[1])), reverse=True)
    return " + ".join(
        f"{mono_render(u, names)}(x){mono_render(v, names)}" for u, v in terms
    )


_FACTOR_RE = re.compile(r"^([A-Za-z]+\d*)(?:\^(\d+))?$")


def poly_parse(text: str, names: Sequence[str]) -> GF2Poly:
    """Parse the grammar emitted by poly_render."""
    text = text.strip()
    if text == "0":
        return ZERO_POLY
    index = {name: i for i, name in enumerate(names)}
    arity = len(names)
    monomials = []
    for term in text.split("+"):
        term = term.strip()
        exps = [0] * arity
        if term != "1":
            for factor in term.split("*"):
                m = _FACTOR_RE.match(factor.strip())
                if not m or m.group(1) not in index:
                    raise InputError(f"cannot parse factor {factor!r}")
                exps[index[m.group(1)]] += int(m.group(2) or 1)
        monomials.append(tuple(exps))
    return poly(monomials)
