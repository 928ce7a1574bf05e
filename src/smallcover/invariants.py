"""Cup-length and zero-divisor-cup-length machinery.

The exact search works in the tensor square: the kernel of the
multiplication map is the ideal generated by the diagonal classes
g (x) 1 + 1 (x) g of the algebra generators g, so its k-th power is
generated by the k-fold monomials in those classes, and the zcl is the
longest nonzero such monomial, found depth first with the exponent caps
pruning what cannot beat it.  An element is a bit matrix over the
algebra's basis, on which each class acts through its generator's products.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_
from typing import NamedTuple, Sequence, Tuple

from . import gf2
from .charfun import BottMatrix
from .cohomology import BottRing, GradedAlgebra, Ring, apply_step
# unused here; perfbench/tracer.py rebinds these names on this module
from .cohomology import cup_kernel, ideal_powers  # noqa: F401
from .errors import BudgetExceeded, InputError

DEFAULT_BUDGET = 12
# Largest budget the CLI takes: the 128-gon, of dimension 128, builds its ring and
# searches in 0.10 s at 24 MB peak RSS, the 256-gon in 0.6 s at 112 MB (one fresh
# process each, Python 3.11, 2 vCPUs).
MAX_EXACT_BUDGET = 128


class IntervalValue(NamedTuple("IntervalValue", [
        ("lo", int), ("hi", int), ("lo_source", str), ("hi_source", str),
        ("witness", Tuple[str, ...])])):
    """[lo, hi] with the rule behind each end, checked by the constructor:
    lo <= hi, and both sources are nonempty."""
    __slots__ = ()

    def __new__(cls, lo: int, hi: int, lo_source: str, hi_source: str,
                witness: Tuple[str, ...] = ()) -> "IntervalValue":
        if lo > hi:
            raise InputError(f"empty interval [{lo}, {hi}]")
        if not lo_source or not hi_source:
            raise InputError("interval sources must be nonempty")
        return super().__new__(cls, lo, hi, lo_source, hi_source, witness)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


class ZclCertificate(NamedTuple):
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
    return nj.bit_length()


def certificate_length(dims: Sequence[int]) -> int:
    return sum((1 << power_exponent(d)) - 1 for d in dims)


LEADING_TERM_ARGUMENT = (
    "lex leading term: of the terms y^(d-s) (x) y^s of the product, only "
    "s = n reaches y^(d-n) (x) y^n, since reduction never raises a monomial"
)


def zcl_certificate_bott(B: BottMatrix) -> ZclCertificate:
    """Nonzero product of diagonal zero divisors of maximal binary length for B's tower.

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
    dims = B.dims
    one = (0,) * len(dims)
    factors, left, surviving = [], [], []
    for j, nj in enumerate(dims):
        dj = (1 << power_exponent(nj)) - 1
        y_j = one[:j] + (1,) + one[j + 1:]
        factors.extend([frozenset({(one, y_j), (y_j, one)})] * dj)
        left.append(dj - nj)
        name = (f"y{j + 1}",)  # gf2.default_names
        surviving.append(gf2.mono_render((dj - nj,), name) + "(x)" + gf2.mono_render((nj,), name))
    return ZclCertificate(len(factors), tuple(factors), frozenset({(tuple(left), dims)}),
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


class _Diagonal:
    """Multiplication by z_g = g (x) 1 + 1 (x) g, g a generator of A.

    An element M of A (x) A is a matrix over A's whole basis (e_i (x) e_j at
    row i, column j), kept as {i: row mask} over its nonzero rows.  With
    G[i] the mask of e_i.g, z_g.M = G^T M + M G: each row r at i is XORed
    into the rows at the bits of G[i], and row i receives r.G, kept per r.
    M is symmetric, so z_g.M = 0 when no row of M is in `support`, the rows
    where G is nonzero.  In characteristic 2, z_g^(2^h) = g^(2^h) (x) 1 +
    1 (x) g^(2^h), so for the least h with g^(2^h) = 0, no nonzero monomial
    has an exponent of z_g above `cap` = 2^h - 1.
    """

    def __init__(self, alg: GradedAlgebra, offset: Sequence[int], s: int, i: int):
        G, g = [], alg.basis[s][i]  # read off the tables of degree s and up
        for d in range(alg.top + 1 - s):
            table, shift = alg.table(d + s), offset[d + s]
            G += [table[u + g] << shift for u in alg.basis[d]]
        self.G = G = G + [0] * (offset[-1] - len(G))
        self.targets = [gf2.bit_positions(row) for row in G]
        self.support = sum(1 << j for j, row in enumerate(G) if row)
        self._products: dict = {}
        g = offset[s] + i
        self.z = {0: 1 << g, g: 1}
        height, power = 1, G[g]  # g^2
        while power:
            height, power = height + 1, apply_step(G, power)
        self.cap = (1 << height.bit_length()) - 1

    def times(self, M: dict) -> dict:
        out, products, targets = {}, self._products, self.targets
        get = out.get
        for i, r in M.items():
            image = products.get(r)
            if image is None:
                image = products[r] = apply_step(self.G, r)
            if image:
                out[i] = get(i, 0) ^ image
            for t in targets[i]:
                out[t] = get(t, 0) ^ r
        return out if all(out.values()) else {i: r for i, r in out.items() if r}


def _longest_monomial(alg: GradedAlgebra) -> Tuple[int, Tuple[int, ...]]:
    """(k, a): the length and exponents of the first longest nonzero monomial in
    the diagonal classes, depth first over the nonzero monomials in lex order of
    their sorted factors: one ending in a run of z_j takes only the z_i, i >= j,
    z_j up to its cap.  A branch whose open caps cannot beat the longest found
    is dropped, and `limit`, the longest a nonzero monomial can be, ends it;
    zcl + 1 frames deep.

    The limit is 2 top - 1 when H^top is one-dimensional and top > 0 (the
    terms of a length-2 top monomial cancel in pairs, see `zcl_exact`), 0 on
    a point, and the grading cap 2 top otherwise.  `first` changes only for
    a strictly longer monomial, and none is longer than the limit, so
    stopping there keeps the first longest monomial, and so the witness,
    that a search of the whole tree finds."""
    offset = list(accumulate(alg.betti, initial=0))
    diagonals = list(enumerate(_Diagonal(alg, offset, s, m.bit_length() - 1) for s, m in alg.gens))
    # reach[i]: the most factors z_i, z_(i+1), ... can still add
    reach = list(accumulate([z.cap for _, z in reversed(diagonals)], initial=0))[::-1]
    top = alg.top
    limit = 2 * top - 1 if top and alg.betti[top] == 1 else 2 * top
    best, first, path = 0, [], []

    def extend(j: int, M: dict, run: int, k: int) -> None:
        """Visit the nonzero z_i.M, i >= j, that can beat `best`; M has length k."""
        nonlocal best, first
        rows = reduce(or_, M.values())  # M is symmetric: its nonzero rows
        for i, z in diagonals[j:]:
            if z.support & rows and (i > j or run < z.cap):
                if best == limit or k + reach[i] - (run if i == j else 0) <= best:
                    return  # and so for every later i: reach falls with i
                image = z.times(M)
                if image:
                    path.append(i)
                    if k + 1 > best:
                        best, first = k + 1, path[:]
                    extend(i, image, run + 1 if i == j else 1, k + 1)
                    path.pop()

    extend(0, {0: 1}, 0, 0)  # from the unit 1 (x) 1, a run of no factor
    del extend  # its own cell holds it: a cycle would keep the diagonals
    return best, tuple(map(first.count, range(len(diagonals))))


def zcl_exact(ring: Ring, budget: int = DEFAULT_BUDGET) -> IntervalValue:
    """Exact zero-divisor-cup-length of a ring of total dimension <= budget.

    The kernel of the multiplication map is the ideal I generated by the
    diagonal classes z_g = g (x) 1 + 1 (x) g of the algebra generators g, so
    I^k is generated by the monomials prod z_g^(a_g) with sum a_g = k, and
    I^k is zero exactly when they all are.  (A kernel element sum a_i (x) b_i
    is sum (a_i (x) 1) z_(b_i), as sum a_i b_i (x) 1 = 0; z is additive, and
    z_(gh) = (g (x) 1) z_h + (1 (x) h) z_g.)  The value is the length of the
    longest nonzero monomial, and the witness is that monomial, each factor
    z_g repeated a_g times; multiplying it out re-checks it.  Each call
    searches: `bounds` keeps the result once per manifold and budget.

    The value is at most 2 top - 1 when H^top is one-dimensional, as on a
    closed manifold.  A monomial of length k has degree at least k, and
    A (x) A is zero above degree 2 top.  At k = 2 top every factor has
    degree one, and z_(g_1)...z_(g_k) = sum over index sets S of
    g_S (x) g_(S^c), of which only the |S| = top terms survive, each
    c_S c_(S^c) u (x) u with u spanning H^top.  The terms for S and for
    S^c != S are equal, so they cancel in pairs mod 2.  So the search ends
    at its first monomial of length 2 top - 1, with the witness that a
    search of the whole tree finds.  Where H^top has dimension two or more,
    the search runs to 2 top: on Z2[a, b]/(a^2, ab, b^2),
    z_a z_b = a (x) b + b (x) a is not zero.
    """
    if ring.dim > budget:
        raise BudgetExceeded(
            f"ring dimension {ring.dim} exceeds the exact-search budget {budget}"
        )
    alg = ring.algebra()
    k, exponents = _longest_monomial(alg)
    witness: Tuple[str, ...] = ()
    for (d, m), e in zip(alg.gens, exponents):
        if e:
            one, g = alg.label(0, 0), alg.label(d, m.bit_length() - 1)
            witness += (f"{one}(x){g} + {g}(x){one}",) * e
    return IntervalValue(k, k, "exhaustive kernel power search",
                         "exhaustive kernel power search", witness)


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
    """Best-available zero-divisor-cup-length interval for a ring, without facet
    rules.  No command calls it; it stays because perfbench/tracer.py wraps it."""
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
