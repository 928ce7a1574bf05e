"""Cup-length and zero-divisor-cup-length machinery.

The exact search works on the kernel of the multiplication map inside the
tensor square: the longest nonzero product of kernel elements equals the
nilpotency length of the kernel ideal, computed by iterated subspace
products (a product of inhomogeneous zero divisors is nonzero only if some
product of their homogeneous components is, and homogeneous components of
kernel elements stay in the kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import List, Optional, Sequence, Tuple

from . import gf2
from .charfun import BottMatrix
from .cohomology import (
    BottRing,
    GradedAlgebra,
    Ring,
    TensorAlgebra,
    algebra_generators,
    cup_kernel,
    ideal_powers,
    projective_ring,
)
from .errors import BudgetExceeded, InputError
from .gf2 import TensorElement, binom_odd, tensor_cup, tensor_mul

DEFAULT_BUDGET = 12


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
    k: int
    factors: Tuple[TensorElement, ...]
    product: TensorElement
    surviving_terms: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# cup-length


def cup_length_algebra(alg: GradedAlgebra) -> int:
    """Longest nonzero product of positive-degree elements, by exhaustion.

    Exact: the positive-degree part is an ideal generated by the algebra
    generators, and its k-th power is nonzero iff some k-fold product is.
    """
    positive = [
        (d, 1 << i)
        for d in range(1, alg.top + 1)
        for i in range(alg.betti[d])
    ]
    return len(ideal_powers(alg, positive, algebra_generators(alg)))


def cup_length(ring: Ring) -> int:
    """Cup-length of a ring presentation.

    Closed forms where the structure gives them: rings generated in degree 1
    with a nonzero top product realise the top degree; sphere rings have a
    single square-zero class; twisted products add the fibre cup-length.
    Other inputs fall back to the exhaustive subspace computation.
    """
    if ring.kind in ("bott", "small_cover"):
        return ring.top
    if ring.kind == "sphere":
        return 1
    if ring.kind == "point":
        return 0
    if ring.kind == "dold":
        return cup_length(ring.base) + ring.p[0] + ring.r - 1
    return cup_length_algebra(ring.algebra())


# ---------------------------------------------------------------------------
# certificate for triangular rings


def power_exponent(nj: int) -> int:
    """Smallest r with nj <= 2^r - 1 < 2 nj."""
    return ceil(log2(nj + 1))


def certificate_length(dims: Sequence[int]) -> int:
    return sum((1 << power_exponent(d)) - 1 for d in dims)


def zcl_certificate_bott(dims: Sequence[int], B: BottMatrix) -> ZclCertificate:
    """Nonzero product of diagonal zero divisors of maximal binary length.

    Uses one factor a_j = 1 (x) y_j + y_j (x) 1 per generator, raised to
    d_j = 2^{r_j} - 1: every binomial coefficient in the expansion is odd, so
    the reduced power keeps the split term y_j^{d_j - n_j} (x) y_j^{n_j}.
    """
    ring = BottRing(dims, B)
    m = ring.m
    one = gf2.mono_one(m)
    factors: List[TensorElement] = []
    product: TensorElement = frozenset({(one, one)})
    surviving = []
    for j, nj in enumerate(ring.dims, start=1):
        dj = (1 << power_exponent(nj)) - 1
        a_j = frozenset({(one, gf2.mono_var(m, j)), (gf2.mono_var(m, j), one)})
        factors.extend([a_j] * dj)
        # expand a_j^{d_j} directly: all C(d_j, s) are odd
        power: TensorElement = frozenset()
        for s in range(dj + 1):
            assert binom_odd(dj, s)
            left = ring.power(j, dj - s)
            right = ring.power(j, s)
            if left and right:
                power ^= gf2.tensor((x, y) for x in left for y in right)
        split = (gf2.mono_var(m, j, dj - nj), gf2.mono_var(m, j, nj))
        if split not in power:
            raise AssertionError("expected split term missing from the reduced power")
        surviving.append(gf2.tensor_render(frozenset({split}), ring.names))
        product = _reduce_tensor(ring, tensor_mul(product, power))
    if not product:
        raise AssertionError("certificate product vanished")
    return ZclCertificate(certificate_length(dims), tuple(factors), product, tuple(surviving))


def _reduce_tensor(ring: BottRing, t: TensorElement) -> TensorElement:
    """Normal form on both tensor legs."""
    acc: set = set()
    for u, v in t:
        left = ring.normal_form(frozenset({u}))
        right = ring.normal_form(frozenset({v}))
        for x in left:
            for y in right:
                acc.symmetric_difference_update({(x, y)})
    return frozenset(acc)


def verify_certificate(ring: BottRing, cert: ZclCertificate) -> bool:
    """Re-check: every factor dies under multiplication, the product does not."""
    if len(cert.factors) != cert.k:
        return False
    for f in cert.factors:
        if ring.normal_form(tensor_cup(f)):
            return False
    product: TensorElement = frozenset({(gf2.mono_one(ring.m),) * 2})
    for f in cert.factors:
        product = _reduce_tensor(ring, tensor_mul(product, f))
    return product == cert.product and bool(product)


# ---------------------------------------------------------------------------
# exact search


def zcl_exact(ring: Ring, budget: int = DEFAULT_BUDGET) -> IntervalValue:
    """Exact zero-divisor-cup-length of a ring of total dimension <= budget.

    The kernel of the multiplication map is the ideal generated by the
    diagonal classes g (x) 1 + 1 (x) g of the algebra generators g, so each
    kernel power is its predecessor times those few classes.  The ring keeps
    the result; the budget is checked before it is reused.
    """
    if ring.dim > budget:
        raise BudgetExceeded(
            f"ring dimension {ring.dim} exceeds the exact-search budget {budget}"
        )
    if ring._zcl is None:
        alg = ring.algebra()
        T, kernel = cup_kernel(alg)
        diagonals = [T.diagonal(g) for g in algebra_generators(alg)]
        powers = ideal_powers(T, kernel, diagonals)
        k = len(powers)
        witness = _extract_witness(T, kernel, powers)
        ring._zcl = IntervalValue(k, k, "exhaustive kernel power search",
                                  "exhaustive kernel power search", witness)
    return ring._zcl


def _extract_witness(T: TensorAlgebra, kernel: Sequence[Tuple[int, int]],
                     powers: Sequence) -> Tuple[str, ...]:
    """Greedy factor extraction: peel one kernel generator per power level."""
    k = len(powers)
    if k == 0:
        return ()
    chosen: List[Tuple[int, int]] = []
    current: Optional[Tuple[int, int]] = None
    for level in range(k):
        remaining = k - level - 1
        for g in kernel:
            if not g[1]:
                continue
            cand = g if current is None else T.mult_elem(current, g)
            if not cand[1]:
                continue
            if remaining == 0 or any(
                T.mult_elem(cand, v)[1] for v in powers[remaining - 1].basis()
            ):
                chosen.append(g)
                current = cand
                break
        else:
            raise AssertionError("witness extraction failed")
    return tuple(T.render_elem(g) for g in chosen)


# ---------------------------------------------------------------------------
# projective-space table


def _rp_power_lower_bound(n: int) -> int:
    """Best k with a nonzero diagonal zero-divisor power in the truncated ring.

    The k-th power keeps a term x^{k-s} (x) x^s exactly when C(k, s) is odd
    and both exponents stay at most n.
    """
    best = 0
    for k in range(1, 2 * n + 1):
        lo = max(0, k - n)
        hi = min(k, n)
        if any(binom_odd(k, s) for s in range(lo, hi + 1)):
            best = k
    return best


def zcl_rp(n: int, budget: int = DEFAULT_BUDGET) -> IntervalValue:
    """Zero-divisor-cup-length interval for the rank-one truncated ring."""
    if n < 1:
        raise InputError("projective dimension must be at least 1")
    if n + 1 <= budget:
        return zcl_exact(projective_ring(n), budget)
    lo = _rp_power_lower_bound(n)
    lo_source = "diagonal zero-divisor power via odd binomials"
    s = n.bit_length() - 1
    if n == 1 << s and (1 << (s + 1)) - 1 > lo:
        lo = (1 << (s + 1)) - 1
        lo_source = "power-of-two projective lower bound"
    return IntervalValue(lo, 2 * n, lo_source, "grading cap 2n")


def norm_cup_length(ring: Ring, budget: int = DEFAULT_BUDGET) -> IntervalValue:
    """Cup-length of the norm subring.

    In characteristic 2 the norm elements x (x) y + y (x) x coincide with the
    diagonal zero divisors, so the value agrees with the zero-divisor
    cup-length interval of the ring, relabeled.
    """
    if ring.kind == "point":
        return IntervalValue(0, 0, "trivial ring", "trivial ring")
    iv = zcl_interval(ring, budget)
    return IntervalValue(iv.lo, iv.hi, f"norm subring: {iv.lo_source}",
                         f"norm subring: {iv.hi_source}", iv.witness)


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
        # declared values for the sphere (1 odd, 2 even)
        lo = 1 if ring.n % 2 else 2
        return IntervalValue(lo, hi, "declared sphere value", "grading cap")
    if ring.kind == "dold":
        base = zcl_interval(ring.base, budget)
        lo = base.lo + zcl_rp(ring.p[0], budget).lo + ring.r - 1
        return IntervalValue(lo, hi, "twisted product sum", "grading cap")
    return IntervalValue(1 if ring.top >= 1 else 0, hi, "degree-one diagonal class",
                         "grading cap")


def sphere_zcl_declared(n: int) -> int:
    """Declared zero-divisor-cup-length of the n-sphere (1 odd, 2 even)."""
    if n < 1:
        raise InputError("sphere dimension must be at least 1")
    return 1 if n % 2 else 2
