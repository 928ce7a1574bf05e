"""The twisted-product (Dold-type) ring, the tests' reference.

The package bounds a Dold manifold of real torus type in closed form
(`bounds.dold_bounds`) and builds no twisted-product ring.  This module
keeps the ring it is checked against: Dold's mod-2 presentation
Z2[a]/(a^{p_1+1}) (x) Z2[a_2]/(a_2^2) (x) ... (x) Z2[a_r]/(a_r^2) (x) H*(B)
(Dold, "Erzeugende der Thomschen Algebra N", Math. Z. 65, 1956), built as
`TensorAlgebra` products of the package's own algebras.
"""

from functools import cached_property, reduce
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
