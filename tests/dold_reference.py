"""The twisted-product (Dold-type) ring, the tests' reference.

The package bounds a Dold manifold of real torus type in closed form
(`bounds.dold_bounds`) and builds no twisted-product ring.  This module
keeps the ring it is checked against: Dold's mod-2 presentation
Z2[a]/(a^{p_1+1}) (x) Z2[a_2]/(a_2^2) (x) ... (x) Z2[a_r]/(a_r^2) (x) H*(B)
(Dold, "Erzeugende der Thomschen Algebra N", Math. Z. 65, 1956), built as
`TensorAlgebra` products of the package's own algebras.  Its cup-length
comes from the exhaustive search `cup_length_algebra`, which also checks
the package's closed forms (`invariants.cup_length`).  It runs level by
level over the nonzero monomials in the generators, stepping through each
generator's product rows, built per degree.  `longest_monomial_levels` is
the same level loop over the diagonal classes in the tensor square: the
reference for the package's depth-first zcl search.
"""

from functools import cache, cached_property, reduce
from itertools import accumulate
from operator import or_
from typing import Optional, Sequence, Tuple

from smallcover.cohomology import (
    GradedAlgebra,
    QuotientRing,
    Ring,
    TensorAlgebra,
    dold_exponents,
    square_zero,
)
from smallcover.errors import InputError
from smallcover.invariants import _Diagonal
from smallcover.polytope import _poly_product


def _product_label(la: str, lb: str) -> str:
    """Label of a basis product in a tensor product of rings, unit omitted."""
    if la == "1":
        return lb
    if lb == "1":
        return la
    return f"{la}*{lb}"


class TruncatedRing(QuotientRing):
    """Z2[x]/(x^{n+1}) on one class x of degree one, named `name`."""

    kind = "truncated"

    def __init__(self, name: str, n: int):
        super().__init__([name], n)

    def _relations(self):
        # in one variable the monomial x^e packs to the int e
        return ((self.top + 1, (self.top + 1,)),)


_RETRACTABLE_KINDS = {"bott", "small_cover", "sphere", "point"}


class DoldRing(Ring):
    kind = "dold"

    def __init__(self, base: Ring, p: Sequence[int]):
        p = dold_exponents(p)
        if base.kind not in _RETRACTABLE_KINDS:
            raise InputError(
                f"unsupported base ring kind {base.kind!r}; the twisted product "
                "construction is only applied over the declared families"
            )
        self.base = base
        self.p = p
        self.r = len(p)
        self.top = base.top + sum(p)
        names = ["a"] + [f"a{i + 2}" for i in range(self.r - 1)]
        # the truncated generator lives in degree 1; the square-zero ones in p_i
        self.generators = tuple(zip(names, (1,) + p[1:])) + base.generators
        self._alg: Optional[GradedAlgebra] = None
        self._names = names

    @cached_property
    def relations_text(self) -> Tuple[str, ...]:
        names = self._names
        return ((f"a^{self.p[0] + 1}",) + tuple(f"{a}^2" for a in names[1:])
                + self.base.relations_text)

    @cached_property
    def betti(self) -> Tuple[int, ...]:
        """The base's Betti numbers times (1 + ... + t^{p_1}) prod (1 + t^{p_i})."""
        return _poly_product([self.base.betti, (1,) * (self.p[0] + 1)] + [
            (1,) + (0,) * (n - 1) + (1,) for n in self.p[1:]])

    def algebra(self) -> GradedAlgebra:
        """Z2[a]/(a^{p_1+1}) (x) Z2[a_i]/(a_i^2) ... (x) the base's algebra."""
        if self._alg is None:
            p, names = self.p, self._names
            factors = [TruncatedRing(names[0], p[0]).algebra()]
            factors += [square_zero(name, n) for name, n in zip(names[1:], p[1:])]
            # nested from the right, so each degree lists its basis products
            # a^e * a2^b2 * ... * ar^br in ascending (e, b2, ..., br)
            fibre = reduce(lambda right, left: TensorAlgebra(left, right, _product_label),
                           reversed(factors))
            self._alg = TensorAlgebra(fibre, self.base.algebra(), _product_label)
        return self._alg


def cup_length_algebra(alg: GradedAlgebra) -> int:
    """Longest nonzero product of positive-degree elements, by exhaustion.

    Exact: the positive-degree part is the ideal generated by the algebra
    generators, so its k-th power is spanned by multiples of the k-fold
    monomials in them, and it is nonzero iff one of those monomials is.
    """
    def step(s: int, ig: int) -> tuple:
        return s, cache(lambda d: [alg.mult_basis(d, i, s, ig) for i in range(alg.betti[d])])

    steps = [step(s, m.bit_length() - 1) for s, m in alg.gens]
    return _longest_product(alg.gens, steps, alg.top)


def _longest_product(start, steps, top: int) -> int:
    """Length of the longest nonzero monomial in the classes `start`, in
    an algebra of top degree `top`.  steps[j] is (s, rows) for start[j] of
    degree s: rows(d) lists the images of degree d's basis elements under
    start[j], for d + s <= top.

    Level by level over the nonzero monomials only (a multiple of a zero
    monomial is zero).  A monomial whose last factor is class j takes only
    the classes j' >= j, so each multiset is visited once.
    """
    level = [(j, d, mask) for j, (d, mask) in enumerate(start) if mask]
    k = 0
    while level:
        k += 1
        nxt = []
        for j, d, mask in level:
            for i in range(j, len(start)):
                s, rows = steps[i]
                if d + s <= top:
                    table, image = rows(d), 0
                    for b in range(mask.bit_length()):
                        if mask >> b & 1:
                            image ^= table[b]
                    if image:
                        nxt.append((i, d + s, image))
        level = nxt
    return k


def longest_monomial_levels(alg: GradedAlgebra) -> Tuple[int, Tuple[int, ...]]:
    """(k, a): the length and exponents of the longest nonzero monomial in
    the diagonal classes, level by level over the nonzero monomials only (a
    multiple of a zero monomial is zero).  A monomial (j, M, run, prefix)
    ends in a run of z_j and takes only the z_j' with j' >= j, z_j up to its
    cap, so each multiset is visited once; a is the first of the last level.
    `invariants._longest_monomial` must give the same (k, a)."""
    offset = list(accumulate(alg.betti, initial=0))
    diagonals = [_Diagonal(alg, offset, s, m.bit_length() - 1) for s, m in alg.gens]
    level = [(j, z.z, 1, None) for j, z in enumerate(diagonals)]
    k, last = 0, None
    while level:
        k, last, nxt = k + 1, level[0], []
        for monomial in level:
            j, M, run, _ = monomial
            rows = reduce(or_, M.values())  # M is symmetric: its nonzero rows
            for i, z in enumerate(diagonals[j:], j):
                if (i > j or run < z.cap) and z.support & rows:
                    image = z.times(M)
                    if image:
                        nxt.append((i, image, run + 1 if i == j else 1, monomial))
        level = nxt
    a = [0] * len(diagonals)
    while last:
        a[last[0]] += 1
        last = last[3]
    return k, tuple(a)
