"""Cup-length and zero-divisor-cup-length machinery.

The exact search works in the tensor square: the kernel of the
multiplication map is the ideal generated by the diagonal classes
g (x) 1 + 1 (x) g of the algebra generators g, so its k-th power is
generated by the k-fold monomials in those classes, and the
zero-divisor-cup-length is the longest nonzero such monomial.  It builds
no tensor-square object: a basis pair's position is computed from the
Betti numbers, multiplication by a diagonal class is built one degree at a
time from the algebra's own products, when the search first needs that
degree, and each witness factor is rendered once from its generator's label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import ceil, log2
from typing import List, Sequence, Tuple

from . import gf2
from .charfun import BottMatrix
from .cohomology import (
    BottRing,
    GradedAlgebra,
    Ring,
)
# unused here; perfbench/tracer.py rebinds these names on this module
from .cohomology import cup_kernel, ideal_powers  # noqa: F401
from .errors import BudgetExceeded, InputError

DEFAULT_BUDGET = 12
# Largest budget the CLI takes: a ring of dimension 128 searches in under 1 s
# and 120 MB, the 256-gon in 6.5 s and 1.2 GB; (1,)^9 (512) runs out of 3 GB.
MAX_EXACT_BUDGET = 128


@dataclass(frozen=True)
class IntervalValue:
    lo: int
    hi: int
    lo_source: str
    hi_source: str
    witness: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError(f"empty interval [{self.lo}, {self.hi}]")
        if not self.lo_source or not self.hi_source:
            raise InputError("interval sources must be nonempty")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class ZclCertificate:
    """k zero divisors whose product is nonzero.

    Each factor and `product` is a frozenset of terms u (x) v, each a pair
    of exponent tuples.  `product` holds witness terms of the reduced
    product, not the product itself: for a tower certificate it is the
    single split term T*.  `argument` names why the witness terms survive.
    """
    k: int
    factors: Tuple[frozenset, ...]
    product: frozenset
    surviving_terms: Tuple[str, ...] = ()
    argument: str = ""


# ---------------------------------------------------------------------------
# cup-length


def _longest_product(start: Sequence[Tuple[int, int]], steps: Sequence[tuple],
                     top: int) -> Tuple[int, Tuple[int, ...]]:
    """(k, a): the length and exponents of the longest nonzero monomial in
    the classes `start`, in an algebra of top degree `top`.  steps[j] is
    (s, rows) for start[j] of degree s: rows(d) lists the images of degree
    d's basis elements under start[j], for d + s <= top.

    Level by level over the nonzero monomials only (a multiple of a zero
    monomial is zero).  A monomial whose last factor is class j takes only
    the classes j' >= j, so each multiset is visited once; a is the first
    monomial of the last nonzero level.  A monomial's set bits are read once
    and each step XORs the rows at them.
    """
    m = len(start)
    level = [(j, d, mask, tuple(int(i == j) for i in range(m)))
             for j, (d, mask) in enumerate(start) if mask]
    k, best = 0, (0,) * m
    while level:
        k, best = k + 1, level[0][3]
        nxt = []
        for j, d, mask, a in level:
            bits, rest = [], mask
            while rest:
                low = rest & -rest
                bits.append(low.bit_length() - 1)
                rest ^= low
            for i in range(j, m):
                s, rows = steps[i]
                if d + s <= top:
                    table, image = rows(d), 0
                    for b in bits:
                        image ^= table[b]
                    if image:
                        nxt.append((i, d + s, image, a[:i] + (a[i] + 1,) + a[i + 1:]))
        level = nxt
    return k, best


def cup_length(ring: Ring) -> int:
    """Cup-length of a ring presentation.

    Closed forms for every ring kind the package builds: rings generated in
    degree 1 with a nonzero top product realise the top degree; sphere rings
    have a single square-zero class; the point has none.
    """
    if ring.kind in ("bott", "small_cover"):
        return ring.top
    if ring.kind == "sphere":
        return 1
    if ring.kind == "point":
        return 0
    raise InputError(f"no cup-length closed form for a ring of kind {ring.kind!r}")


# ---------------------------------------------------------------------------
# certificate for triangular rings


def power_exponent(nj: int) -> int:
    """Smallest r with nj <= 2^r - 1 < 2 nj."""
    return ceil(log2(nj + 1))


def certificate_length(dims: Sequence[int]) -> int:
    return sum((1 << power_exponent(d)) - 1 for d in dims)


LEADING_TERM_ARGUMENT = (
    "lex leading term: of the terms y^(d-s) (x) y^s of the product, only "
    "s = n reaches y^(d-n) (x) y^n, since reduction never raises a monomial"
)


def zcl_certificate_bott(dims: Sequence[int], B: BottMatrix) -> ZclCertificate:
    """Nonzero product of diagonal zero divisors of maximal binary length.

    Uses one factor a_j = 1 (x) y_j + y_j (x) 1 per generator, raised to
    d_j = 2^{r_j} - 1.  Every C(d_j, s) is odd, so before reduction the
    product is the sum over 0 <= s <= d of y^{d-s} (x) y^s.  The split term
    T* = y^{d-n} (x) y^n is already in normal form (d_j - n_j < n_j).  The
    relation of y_j rewrites y_j^{n_j+1} into terms with a lower power of y_j
    and only lower variables, so in lex order with y_m most significant the
    normal form of a monomial u has only monomials <= u.  T* can therefore
    come only from an s with y^s >= y^n and y^{d-s} >= y^{d-n}; at the
    highest index where s differs from n these two conditions contradict
    each other.  So only s = n contributes, T* has coefficient 1, and the
    product is nonzero for every twisting matrix.

    The certificate is built from that argument alone, in O(m): `product`
    holds the witness term {T*}, not the expanded product.
    `verify_certificate` re-checks it by the full expansion.
    """
    dims = tuple(dims)
    if B.dims != dims:
        raise InputError("matrix dims disagree with the ring dims")
    m = len(dims)
    names = gf2.default_names(m, "y")
    one = (0,) * m
    factors: List[frozenset] = []
    left: List[int] = []
    surviving = []
    for j, nj in enumerate(dims):
        dj = (1 << power_exponent(nj)) - 1
        y_j = tuple(int(i == j) for i in range(m))
        factors.extend([frozenset({(one, y_j), (y_j, one)})] * dj)
        left.append(dj - nj)
        surviving.append("(x)".join(gf2.mono_render((e,), names[j:j + 1])
                                    for e in (dj - nj, nj)))
    witness = frozenset({(tuple(left), dims)})
    return ZclCertificate(certificate_length(dims), tuple(factors), witness,
                          tuple(surviving), LEADING_TERM_ARGUMENT)


def verify_certificate(ring: BottRing, cert: ZclCertificate) -> bool:
    """Oracle for a certificate, by the full expansion.

    Checks that there are k factors, that each one dies under multiplication,
    and that every witness term of `cert.product` occurs in the fully
    reduced product of the factors (so the product is nonzero).  The
    expansion has up to 2^k terms; the bound rules never call it.

    A tensor leg is one int: the ring's packed monomial plus its degree in a
    field above the exponents, so a sum of legs is their product and adds
    their degrees.  A sum is kept only when its degree is at most top; any
    other is zero (H^d = 0 above top).  The exponents of a monomial of
    degree at most top fit their fields, so nothing kept has carried; a
    forged leg of higher degree may carry, but only up into the degree
    field, which then reads higher still.  Each distinct factor is packed
    once, and each leg reduced once.
    """
    if len(cert.factors) != cert.k or not cert.product:
        return False
    top, shift = ring.top, ring.m * ring._width

    def leg(mon) -> int:
        return ring._pack(mon) + (sum(mon) << shift)

    factors = {f: [(leg(u), leg(v)) for u, v in f] for f in set(cert.factors)}
    for legs in factors.values():
        cup: set = set()
        for u, v in legs:
            if (u + v) >> shift <= top:
                cup ^= {u + v}
        if ring._reduce(cup):
            return False
    product = {(0, 0)}  # 1 (x) 1
    forms: dict = {}
    for f in cert.factors:
        terms: set = set()
        for x, y in product:
            for u, v in factors[f]:
                a, b = x + u, y + v
                if a >> shift <= top and b >> shift <= top:
                    terms ^= {(a, b)}
        product = set()
        for a, b in terms:
            for t in (a, b):
                if t not in forms:
                    forms[t] = ring._reduce((t,))
            for x in forms[a]:
                for y in forms[b]:
                    product ^= {(x, y)}
    try:
        witness = {(leg(u), leg(v)) for u, v in cert.product}
    except InputError:  # not a term of this ring's tensor square
        return False
    return witness <= product


# ---------------------------------------------------------------------------
# exact search


def _diagonal_steps(alg: GradedAlgebra) -> Tuple[list, list]:
    """(start, steps) of the diagonal classes z_g = g (x) 1 + 1 (x) g of the
    generators g of A, in A (x) A, for `_longest_product`.

    Degree d of A (x) A lists the pairs (d1, i, d - d1, j) of basis elements
    by d1, then i, then j, so a pair sits at base[d][d1] + i*b(d - d1) + j,
    b being A's Betti numbers.  z_g maps a (x) b to (a.g) (x) b + a (x) (b.g),
    so its rows come from the dim A products of A by g, and a degree's rows
    are built the first time the search steps from that degree.
    """
    top = alg.top
    b = alg.betti + (0,) * top  # zero above the top, up to 2 top
    base = []
    for d in range(2 * top + 1):
        offsets = [0]
        for d1 in range(d):
            offsets.append(offsets[-1] + b[d1] * b[d - d1])
        base.append(offsets)

    def step(s: int, ig: int) -> tuple:
        by_g = [[alg.mult_basis(d, i, s, ig) for i in range(b[d])] for d in range(top + 1)]

        def rows(d: int) -> List[int]:
            out = []
            for d1 in range(max(0, d - top), min(d, top) + 1):
                d2 = d - d1
                left, right, n2, n2s = base[d + s][d1 + s], base[d + s][d1], b[d2], b[d2 + s]
                for i, ag in enumerate(by_g[d1]):
                    # (a.g) (x) b: a.g's bits spread at stride b(d2)
                    spread = 0
                    while ag:
                        low = ag & -ag
                        spread |= 1 << ((low.bit_length() - 1) * n2 + left)
                        ag ^= low
                    at = right + i * n2s
                    out += [(spread << j) ^ (bg << at) for j, bg in enumerate(by_g[d2])]
            return out

        return s, cache(rows)

    start = [(s, m << base[s][s] | m) for s, m in alg.gens]
    return start, [step(s, m.bit_length() - 1) for s, m in alg.gens]


def zcl_exact(ring: Ring, budget: int = DEFAULT_BUDGET) -> IntervalValue:
    """Exact zero-divisor-cup-length of a ring of total dimension <= budget.

    The kernel of the multiplication map is the ideal I generated by the
    diagonal classes z_g = g (x) 1 + 1 (x) g of the algebra generators g, so
    I^k is generated by the monomials prod z_g^(a_g) with sum a_g = k, and
    I^k is zero exactly when they all are.  The value is the length of the
    longest nonzero monomial, and the witness is that monomial, each factor
    z_g repeated a_g times; multiplying it out re-checks it.  The ring keeps
    the result; the budget is checked before it is reused.
    """
    if ring.dim > budget:
        raise BudgetExceeded(
            f"ring dimension {ring.dim} exceeds the exact-search budget {budget}"
        )
    if ring._zcl is None:
        alg = ring.algebra()
        k, exponents = _longest_product(*_diagonal_steps(alg), 2 * alg.top)
        witness: Tuple[str, ...] = ()
        for (d, m), e in zip(alg.gens, exponents):
            if e:
                one, g = alg.label(0, 0), alg.label(d, m.bit_length() - 1)
                witness += (f"{one}(x){g} + {g}(x){one}",) * e
        ring._zcl = IntervalValue(k, k, "exhaustive kernel power search",
                                  "exhaustive kernel power search", witness)
    return ring._zcl


# ---------------------------------------------------------------------------
# projective spaces

RP_CLOSED_FORM = "projective closed form (Farber-Tabachnikov-Yuzvinsky)"


def zcl_rp(n: int) -> IntervalValue:
    """Zero-divisor-cup-length of the projective ring Z2[y]/(y^{n+1}).

    The cup kernel is generated by the one class y (x) 1 + 1 (x) y, whose
    powers vanish exactly from 2^{floor(log2 n)+1} on, so the value is
    2^{floor(log2 n)+1} - 1 (Farber-Tabachnikov-Yuzvinsky, IMRN 2003).
    """
    if n < 1:
        raise InputError("projective dimension must be at least 1")
    k = (1 << n.bit_length()) - 1
    return IntervalValue(k, k, RP_CLOSED_FORM, RP_CLOSED_FORM)


def zcl_interval(ring: Ring, budget: int = DEFAULT_BUDGET) -> IntervalValue:
    """Best-available zero-divisor-cup-length interval for a ring."""
    try:
        return zcl_exact(ring, budget)
    except BudgetExceeded:
        pass
    hi = 2 * ring.top
    if ring.kind == "bott":
        lo = certificate_length(ring.dims)
        return IntervalValue(lo, hi, "tensor power certificate", "grading cap")
    if ring.kind == "sphere":
        return sphere_zcl(ring.n)
    return IntervalValue(1 if ring.top >= 1 else 0, hi, "degree-one diagonal class",
                         "grading cap")


def sphere_zcl(n: int) -> IntervalValue:
    """Mod-2 zero-divisor interval of the n-sphere: (1 (x) s + s (x) 1)^2 = 0
    in every degree, so the lower end is 1 for every n."""
    return IntervalValue(1, 2 * n, "mod-2 sphere value", "grading cap")


def sphere_zcl_declared(n: int) -> int:
    """Rational zero-divisor-cup-length of the n-sphere (1 odd, 2 even):
    over Q, (1 (x) s - s (x) 1)^2 = -2 s (x) s.  Never add it to a mod-2
    bound; that is `sphere_zcl`."""
    if n < 1:
        raise InputError("sphere dimension must be at least 1")
    return 1 if n % 2 else 2
