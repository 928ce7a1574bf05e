"""Mod-2 cohomology rings.

One engine for quotients Z2[v1..vk]/(relations) of degree-one variables
(`QuotientRing`): each degree is row-reduced once and products are looked up
in a normal-form table.  A monomial there is one int whose fields are its
exponents, so a product of monomials is an integer sum, with no carry.  Each
presentation builds its relations in that packed form, on first use, through
one hook: the triangular (Bott) presentation Z2[y1..ym]/<Gamma_1..Gamma_m>,
and an arbitrary polytope/vector pair with the linear relations eliminated
and the non-face monomials as relations in the surviving variables.  The
Bott relations have pairwise-coprime leading monomials under graded lex with
y1 < ... < ym, so single polynomials also reduce by rewriting, on the same
packed ints, without completion and without a slice; exponent tuples appear
only as the input and output of `BottRing.normal_form` and `power`.
A sphere's algebra is one square-zero class, and the tensor square of an
algebra, in which the cup kernel lives, is a `TensorAlgebra`.  Betti numbers
of both presentations are read in closed form, building nothing.
"""

from __future__ import annotations

import weakref
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from operator import lshift
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import gf2
from .charfun import BottMatrix, FacetMasks, Vectors, _masks, validate
from .errors import CharacteristicError, InputError
from .polytope import (SimplePolytope, _poly_product, h_vector, kept, minimal_non_faces,
                       product_vertex_count)


# ---------------------------------------------------------------------------
# graded algebra core


class GradedAlgebra:
    """Finite graded-commutative GF(2) algebra with an explicit basis.

    Basis elements are addressed as (degree, index); homogeneous elements are
    (degree, bitmask) pairs.  Products of basis elements are supplied by a
    callable, which caches what it needs itself.  The builder also supplies
    label(d, i), the name of a basis element, and gens, basis elements
    (d, 1 << i) that generate the algebra, sorted by degree, then index.
    """

    def __init__(self, betti: Sequence[int], mult: Callable[[int, int, int, int], int],
                 label: Callable[[int, int], str], gens: Sequence[Tuple[int, int]]):
        self.betti = tuple(betti)
        self.top = len(self.betti) - 1
        self._mult = mult
        self.label = label
        self.gens = tuple(gens)

    @property
    def dim(self) -> int:
        return sum(self.betti)

    def mult_basis(self, d1: int, i: int, d2: int, j: int) -> int:
        if d1 + d2 > self.top:
            return 0
        return self._mult(d1, i, d2, j)


class GradedSpan:
    """Row-reduced span of homogeneous elements, bucketed by degree."""

    def __init__(self):
        self._pivots: Dict[int, Dict[int, int]] = {}

    def insert(self, deg: int, mask: int) -> bool:
        rows = self._pivots.setdefault(deg, {})
        while mask:
            lead = mask.bit_length() - 1
            if lead in rows:
                mask ^= rows[lead]
            else:
                rows[lead] = mask
                return True
        return False

    def contains(self, deg: int, mask: int) -> bool:
        rows = self._pivots.get(deg, {})
        while mask:
            lead = mask.bit_length() - 1
            if lead not in rows:
                return False
            mask ^= rows[lead]
        return True

    def rank(self, deg: int) -> int:
        return len(self._pivots.get(deg, ()))

    def basis(self) -> List[Tuple[int, int]]:
        out = []
        for deg in sorted(self._pivots):
            out.extend((deg, row) for row in self._pivots[deg].values())
        return out

    @property
    def is_zero(self) -> bool:
        return not any(self._pivots.values())


# A step table (s, rows) is multiplication by one homogeneous class of degree
# s > 0: rows[d][i] is the image of basis element i of degree d, for every d
# with d + s <= top.
StepTable = Tuple[int, Sequence[Sequence[int]]]


def apply_step(rows: Sequence[int], mask: int) -> int:
    """Image of a homogeneous mask: the XOR of the rows at its set bits."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def step_span(V: GradedSpan, steps: Sequence[StepTable],
              cap: Optional[GradedSpan] = None) -> GradedSpan:
    """Span of the products v*c over a basis v of V and the step classes c.

    cap, when given, is a span known to contain the result: a degree takes
    no more products once the result's rank there reaches cap's.
    """
    out = GradedSpan()
    for s, rows in steps:
        for d, pivots in V._pivots.items():
            if d >= len(rows):
                continue
            e = d + s
            full = cap.rank(e) if cap is not None else -1
            table = rows[d]
            for v in pivots.values():
                if out.rank(e) == full:
                    break
                image = apply_step(table, v)
                if image:
                    out.insert(e, image)
    return out


def ideal_powers(gens: Sequence[Tuple[int, int]],
                 steps: Sequence[StepTable]) -> List[GradedSpan]:
    """Spans of the ideal powers [I^1, I^2, ...] down to the first zero.

    gens span the ideal I as a vector space and the step classes generate it
    as an ideal.  Each power is an ideal, so I^{k+1} = I^k * I is spanned by
    the products of a basis of I^k with the step classes alone, and
    I^{k+1} is contained in I^k, so a degree stops taking products once it
    has as many pivots as in I^k.  The step classes must have positive
    degree, so the powers die at or before the top degree and the loop
    terminates.
    """
    if any(s <= 0 for s, _ in steps):
        raise InputError("ideal generators must have positive degree")
    powers = []
    V = GradedSpan()
    for d, m in gens:
        V.insert(d, m)
    while not V.is_zero:
        powers.append(V)
        V = step_span(V, steps, cap=V)
    return powers


class TensorAlgebra(GradedAlgebra):
    """Graded tensor product A (x) B; no Koszul signs in characteristic 2.

    Basis element i of degree d is the pair pairs[d][i] = (d1, i1, d2, i2):
    basis element (d1, i1) of A times basis element (d2, i2) of B.  index
    maps a pair back to its position in its degree.  join names a pair from
    the names of its two factors.  Its product is the one built from other
    products, so it is the one product that is memoised.
    """

    def __init__(self, A: GradedAlgebra, B: GradedAlgebra, join: Callable[[str, str], str]):
        top = A.top + B.top
        pairs: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(top + 1)]
        index: Dict[Tuple[int, int, int, int], int] = {}
        for d in range(top + 1):
            for d1 in range(max(0, d - B.top), min(d, A.top) + 1):
                d2 = d - d1
                for i in range(A.betti[d1]):
                    for j in range(B.betti[d2]):
                        index[(d1, i, d2, j)] = len(pairs[d])
                        pairs[d].append((d1, i, d2, j))
        self.pairs = pairs
        self.index = index

        def label(d: int, i: int) -> str:
            d1, i1, d2, i2 = pairs[d][i]
            return join(A.label(d1, i1), B.label(d2, i2))

        # g (x) 1 and 1 (x) h for the generators g of A and h of B
        gens = sorted([(d, 1 << index[(d, m.bit_length() - 1, 0, 0)]) for d, m in A.gens]
                      + [(d, 1 << index[(0, 0, d, m.bit_length() - 1)]) for d, m in B.gens])

        @lru_cache(maxsize=None)
        def mult(da: int, ia: int, db: int, jb: int) -> int:
            a1, i1, a2, j1 = pairs[da][ia]
            b1, i2, b2, j2 = pairs[db][jb]
            left = A.mult_basis(a1, i1, b1, i2)
            if not left:
                return 0
            right = B.mult_basis(a2, j1, b2, j2)
            if not right:
                return 0
            dl, dr = a1 + b1, a2 + b2
            acc = 0
            ml = left
            while ml:
                li = ml.bit_length() - 1
                ml &= ~(1 << li)
                mr = right
                while mr:
                    rj = mr.bit_length() - 1
                    mr &= ~(1 << rj)
                    acc ^= 1 << index[(dl, li, dr, rj)]
            return acc

        super().__init__([len(p) for p in pairs], mult, label, gens)


def tensor_square(A: GradedAlgebra) -> TensorAlgebra:
    """The algebra A (x) A with basis pairs, graded by total degree."""
    return TensorAlgebra(A, A, lambda la, lb: f"{la}(x){lb}")


def cup_kernel(A: GradedAlgebra) -> Tuple[TensorAlgebra, List[Tuple[int, int]]]:
    """Tensor square together with a basis of the multiplication kernel.

    Kernel elements are returned as homogeneous (total degree, mask) pairs of
    positive degree; the degree-0 part of the kernel is zero.
    """
    T = tensor_square(A)
    gens: List[Tuple[int, int]] = []
    for d in range(1, T.top + 1):
        images = [A.mult_basis(*p) for p in T.pairs[d]]
        for combo in gf2.kernel_combos(images):
            gens.append((d, combo))
    return T, gens


def square_zero(name: str, n: int) -> GradedAlgebra:
    """Z2[x]/(x^2) with x in degree n >= 1.  A product inside the top degree
    has a unit factor, so it is the one basis element of its degree."""
    return GradedAlgebra([1] + [0] * (n - 1) + [1], lambda d1, i, d2, j: 1,
                         lambda d, i: name if d else "1", [(n, 1)])


# ---------------------------------------------------------------------------
# ring presentations


class Ring:
    """Common surface of all ring presentations."""

    kind: str
    top: int
    generators: Tuple[Tuple[str, int], ...]
    relations_text: Tuple[str, ...]
    # the exact zero-divisor-cup-length, kept once found (invariants.zcl_exact)
    _zcl = None

    def algebra(self) -> GradedAlgebra:
        raise NotImplementedError

    @property
    def betti(self) -> Tuple[int, ...]:
        return self.algebra().betti

    @property
    def dim(self) -> int:
        return sum(self.betti)


class QuotientRing(Ring):
    """Z2[v1..vk]/(relations) on degree-one variables, built degree by degree.

    A presentation supplies the variable names, the top degree and, through
    one hook, `_relations`, its relations packed; the first slice, text or
    normal form builds them.  Degree d's slice row-reduces the multiples of
    the relations among all monomials of degree d; its basis is the
    monomials that lead no pivot row, in grlex order, and its normal-form
    table, built when the algebra first needs it, gives the product of two
    basis monomials that lands in degree d.

    A monomial is packed into one int of k fields, each of width
    w = (top + 1).bit_length(); the exponent of variable i sits at bit
    i*w, so the last variable takes the highest field and, within one
    degree, int order is grlex order.  An exponent is at most top + 1 <
    2^w, the largest degree of a relation, and in a slice at most its
    degree d <= top, so the sum of two monomials whose degrees add up to at
    most top never carries from one field into the next: it is their
    product.  Labels render a monomial when they are asked for.
    """

    def __init__(self, names: Sequence[str], top: int):
        self.names = names
        self.nvars = len(names)
        self.top = top
        self.generators = tuple((name, 1) for name in names)
        self._width = (top + 1).bit_length()
        self._slices: Dict[int, tuple] = {}
        self._alg: Optional[GradedAlgebra] = None

    def _relations(self) -> Iterable[Tuple[int, Tuple[int, ...]]]:
        """(degree, packed terms) of each nonzero relation, of degree at
        most top + 1: each presentation's one hook.  Here none, a point."""
        return ()

    @cached_property
    def _packed(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        return tuple(self._relations())

    @cached_property
    def relations_text(self) -> Tuple[str, ...]:
        """The relations as text, rendered on first use: only the `ring`
        command prints them.  A relation is homogeneous, so its terms in
        descending int order are in descending grlex order."""
        w, names = self._width, self.names
        return tuple(" + ".join(_render(t, w, names) for t in sorted(terms, reverse=True))
                     for _, terms in self._packed)

    @cached_property
    def _monomials(self) -> List[List[int]]:
        """_monomials[d]: all packed monomials of degree d <= top, ascending
        (in grlex order)."""
        k, w, top = self.nvars, self._width, self.top
        if k == 0:
            return [[0]] + [[] for _ in range(top)]
        # levels[e]: the monomials of degree e in the variables so far
        levels = [[e] for e in range(top + 1)]
        for shift in range(w, k * w, w):
            # ascending in the new, highest field, then in the rest
            levels = [[m + (a << shift) for a in range(e + 1) for m in levels[e - a]]
                      for e in range(top + 1)]
        return levels

    def _slice(self, d: int):
        """(monomials, pivot rows, basis monomials) of degree d, monomials
        packed."""
        if d not in self._slices:
            mons = self._monomials[d]
            pos = {m: i for i, m in enumerate(mons)}
            pivots: Dict[int, int] = {}
            for gd, terms in self._packed:
                if gd > d:
                    continue
                for u in self._monomials[d - gd]:
                    # multiplying by u is injective, so no two terms cancel
                    row = 0
                    for mon in terms:
                        row ^= 1 << pos[u + mon]
                    while row:
                        lead = row.bit_length() - 1
                        if lead in pivots:
                            row ^= pivots[lead]
                        else:
                            pivots[lead] = row
                            break
            basis = [m for i, m in enumerate(mons) if i not in pivots]
            self._slices[d] = (mons, pivots, basis)
        return self._slices[d]

    def algebra(self) -> GradedAlgebra:
        if self._alg is None:
            slices = [self._slice(d) for d in range(self.top + 1)]
            betti = [len(s[2]) for s in slices]
            # a ring that only pairs builds only the top degree's table
            tables = [None] * len(slices)
            # the product and the labels hold the ring's slices and names,
            # not the ring, so a ring and its algebra form no cycle
            names, w = self.names, self._width

            def mult(d1, i, d2, j):
                d = d1 + d2
                table = tables[d]
                if table is None:
                    table = tables[d] = _normal_form_table(*slices[d][:2])
                return table[slices[d1][2][i] + slices[d2][2][j]]

            def label(d, i):
                return _render(slices[d][2][i], w, names)

            # generated in degree one, as the polynomial ring is
            gens = [(1, 1 << i) for i in range(betti[1])] if self.top else []
            self._alg = GradedAlgebra(betti, mult, label, gens)
        return self._alg


def _product(factors: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """Packed terms of a product of polynomials given by their packed
    terms: the sums of one term from each factor, cancelled in pairs."""
    acc = {0}
    for factor in factors:
        nxt: set = set()
        for u in acc:
            for v in factor:
                nxt ^= {u + v}
        acc = nxt
    return tuple(sorted(acc))


def _unpack(packed: int, k: int, w: int) -> Tuple[int, ...]:
    """The exponents of a packed monomial in k variables."""
    field = (1 << w) - 1
    return tuple([(packed >> s) & field for s in range(0, k * w, w)])


def _render(packed: int, w: int, names: Sequence[str]) -> str:
    """A packed monomial as `gf2.mono_render` writes it, from its nonzero
    fields alone."""
    parts = []
    while packed:
        i = ((packed & -packed).bit_length() - 1) // w
        e = (packed >> i * w) & ((1 << w) - 1)
        packed ^= e << i * w
        parts.append(names[i] if e == 1 else f"{names[i]}^{e}")
    return "*".join(parts) or "1"


def _normal_form_table(mons: Sequence[int], pivots: Dict[int, int]) -> Dict[int, int]:
    """Normal form of every monomial of one degree slice, as a basis mask.

    Each monomial reduces once against the slice's pivot rows.  A pivot
    row is its lead monomial plus lower ones, so in ascending order a
    pivot monomial's normal form is the XOR of the forms already found
    for the rest of its row; a basis monomial is its own form.  The
    normal form is linear, so this equals reducing any mask bit by bit.
    """
    forms: List[int] = []
    rank = 0
    for i in range(len(mons)):
        row = pivots.get(i)
        if row is None:
            forms.append(1 << rank)
            rank += 1
        else:  # the row's lead bit is i
            forms.append(apply_step(forms, row ^ 1 << i))
    return dict(zip(mons, forms))


class BottRing(QuotientRing):
    """Z2[y_1..y_m]/<Gamma_1..Gamma_m>, the ring of B's tower; `dims` is B.dims."""
    kind = "bott"
    dim = property(lambda self: product_vertex_count(self.dims))  # prod (n_j + 1), no `betti`

    def __init__(self, B: BottMatrix):
        self.dims = B.dims
        self.bmat = B
        self.m = len(B.dims)
        super().__init__(gf2.default_names(self.m, "y"), sum(B.dims))

    @cached_property
    def betti(self) -> Tuple[int, ...]:
        """The basis is the box of monomials with y_j-degree at most n_j, so
        the Betti numbers are the coefficients of prod (1 + t + ... + t^{n_j})."""
        return _poly_product((1,) * (n + 1) for n in self.dims)

    def _relations(self):
        """Gamma_j = y_j prod_{k <= n_j} (y_j + sum_{l < j} beta(j, l)[k] y_l)."""
        w = self._width
        for j, n in enumerate(self.dims):
            y = [1 << (i * w) for i in range(j + 1)]
            blocks = [self.bmat.block(j + 1, l + 1) for l in range(j)]
            factors = [[y[j]] + [y[l] for l in range(j) if blocks[l][k]] for k in range(n)]
            yield n + 1, _product([[y[j]]] + factors)

    @cached_property
    def _tails(self) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        """For j from m down to 1: the shift of y_j's field, n_j, and
        Gamma_j without its leading monomial y_j^{n_j+1}, packed."""
        w = self._width
        tails = [(j * w, n, tuple(t for t in terms if t != (n + 1) << (j * w)))
                 for j, ((_, terms), n) in enumerate(zip(self._packed, self.dims))]
        return tuple(reversed(tails))

    def _pack(self, mon: Sequence[int]) -> int:
        """An exponent tuple as one int.  The fields hold the exponents of
        a monomial of degree at most top + 1; a higher one may carry."""
        if len(mon) != self.m or min(mon, default=0) < 0:
            raise InputError(f"{tuple(mon)} is not a monomial in {self.m} variables")
        return sum(map(lshift, mon, range(0, self.m * self._width, self._width)))

    def normal_form(self, p: Iterable[Sequence[int]]) -> FrozenSet[Tuple[int, ...]]:
        """Unique representative on standard monomials, by rewriting.  It
        builds no degree slice, so it also serves towers too large for one.

        p is a set of exponent tuples, and so is the result.  Rewriting
        keeps the degree, and every standard monomial has degree at most
        top = sum n_j, so a monomial of higher degree reduces to zero
        (H^d = 0 above the top degree) and is dropped before the rest is
        packed; those pack without carry and are rewritten as ints.
        """
        packed: set = set()
        for mon in p:
            t = self._pack(mon)
            if sum(mon) <= self.top:
                packed ^= {t}
        k, w = self.m, self._width
        return frozenset(_unpack(t, k, w) for t in self._reduce(packed))

    def _reduce(self, terms: Iterable[int]) -> set:
        """Normal form of a sum of distinct packed monomials of degree at
        most top, packed.

        Monomials leave a max-heap largest first.  A standard one is final;
        in any other, y_j^{n_j+1}, for the highest j it exceeds, becomes the
        tail of Gamma_j.  The leading monomials are pairwise coprime, so the
        rewriting needs no S-polynomial completion.  A tail term is a
        smaller int of the same degree (lower in grlex), so no field
        carries, and a monomial once taken never comes back.  Whatever the
        ints hold above the m fields rides along unchanged.
        """
        field, tails = (1 << self._width) - 1, self._tails
        cur = set(terms)
        heap = [-t for t in cur]
        heapify(heap)
        out = set()
        while heap:
            t = -heappop(heap)
            if t not in cur:  # cancelled, or pushed twice
                continue
            cur.remove(t)
            for shift, n, tail in tails:
                if (t >> shift) & field > n:
                    rest = t - ((n + 1) << shift)
                    for u in tail:
                        u += rest
                        if u in cur:
                            cur.remove(u)
                        else:
                            cur.add(u)
                            heappush(heap, -u)
                    break
            else:
                out.add(t)
        return out

    def power(self, j: int, e: int) -> FrozenSet[Tuple[int, ...]]:
        """Reduced y_j^e."""
        return self.normal_form({tuple(e if i == j - 1 else 0 for i in range(self.m))})


def projective_ring(n: int) -> BottRing:
    """The ring Z2[y]/(y^{n+1})."""
    if n < 0:
        raise InputError("projective dimension must be non-negative")
    if n == 0:
        return PointRing()
    return BottRing(BottMatrix.make((n,)))


class SmallCoverRing(QuotientRing):
    kind = "small_cover"

    @staticmethod
    def _on(P: SimplePolytope, vectors: Vectors) -> "SmallCoverRing":
        """The ring last built on P if it has these vectors, else a new one on
        their masks, packed once.  P holds it weakly (`P._ring`)."""
        masks = _masks(P, vectors)
        ring = vars(P).get("_ring", lambda: None)()
        same = ring is not None and ring.vectors == masks
        return ring if same else SmallCoverRing(P, FacetMasks(P.n, masks))

    def __init__(self, P: SimplePolytope, vectors: Vectors):
        report = validate(P, vectors)
        if not report.valid:
            raise CharacteristicError(
                f"invalid assignment at vertices {report.bad_vertices}"
            )
        self.P = P
        self.vectors = FacetMasks(P.n, P._valid_masks)  # as validate packed them
        self._peeled = P._peeled  # kept on P with them
        super().__init__([f"z{i + 1}" for i in range(P.facet_count - P.n)], P.n)
        object.__setattr__(P, "_ring", weakref.ref(self))

    @cached_property
    def _reduced(self) -> List[int]:
        """The reduced coordinate matrix of the vectors, on first use."""
        return gf2.column_rref(self.vectors)

    def _relations(self):
        """The non-face monomials, each facet class a linear form in the free
        classes z_i, those of the facets that lead no reduced row."""
        non_faces = minimal_non_faces(self.P)  # first: a polygon over the cap refuses
        w, rows = self._width, self._reduced
        leads = {row.bit_length() - 1 for row in rows}
        free = [f for f in range(self.P.facet_count) if f not in leads]
        subs = {f: (1 << (i * w),) for i, f in enumerate(free)}
        for row in rows:
            # a fully reduced row has no other lead bit
            subs[row.bit_length() - 1] = tuple(subs[f][0] for f in free if row >> f & 1)
        for S in non_faces:
            terms = _product(subs[f] for f in S)
            if terms:
                yield len(S), terms

    @cached_property
    def _monomials(self) -> List[List[int]]:
        # r - n variables up to degree n: P alone fixes them, so P keeps them
        return kept(self.P, "_monomials", lambda P: QuotientRing._monomials.func(self))

    @cached_property
    def betti(self) -> Tuple[int, ...]:
        """The h-vector of P (Davis-Januszkiewicz), building no slice."""
        return h_vector(self.P).h

    @property
    def dim(self) -> int:
        return self.P.vertex_count


class SphereRing(Ring):
    kind = "sphere"

    def __init__(self, n: int):
        if n < 1:
            raise InputError("sphere dimension must be at least 1")
        self.n = n
        self.top = n
        self.generators = (("s", n),)
        self.relations_text = ("s^2",)
        self._alg = square_zero("s", n)

    def algebra(self) -> GradedAlgebra:
        return self._alg


class PointRing(QuotientRing):
    kind = "point"

    def __init__(self):
        super().__init__([], 0)


def dold_exponents(p: Iterable) -> Tuple[int, ...]:
    """The fibre exponents p_1 <= ... <= p_r of a twisted product, as ints;
    InputError unless they are nonempty, ascending and positive."""
    p = tuple(int(x) for x in p)
    if not p or list(p) != sorted(p) or p[0] < 1:
        raise InputError("dold exponents must be ascending positive integers")
    return p


# ---------------------------------------------------------------------------
# verification operations


class PairingReport(NamedTuple):
    nondegenerate: bool
    by_degree: Tuple[bool, ...]


def poincare_pairing(ring: Ring) -> PairingReport:
    """Nondegeneracy of H^d x H^{top-d} -> H^top for each degree.  The
    algebra is commutative, so the matrix of degree top - d is the
    transpose of that of degree d: each flag is found for d <= top/2 and
    mirrored."""
    alg = ring.algebra()
    top, betti = alg.top, alg.betti
    if betti[top] != 1:
        raise InputError("ring has no one-dimensional top class")
    flags = [False] * (top + 1)
    for d in range(top // 2 + 1):
        e = top - d
        if betti[d] != betti[e]:
            continue
        rows = [sum(1 << j for j in range(betti[e]) if alg.mult_basis(d, i, e, j))
                for i in range(betti[d])]
        flags[d] = flags[e] = len(gf2.row_reduce_masks(rows)) == betti[d]
    return PairingReport(all(flags), tuple(flags))


def verify_top_monomial(B: BottMatrix) -> bool:
    """Each y_j^{n_j} and the full product y_1^{n_1}..y_m^{n_m} of B's tower are nonzero."""
    ring = BottRing(B)
    powers = [n << (j * ring._width) for j, n in enumerate(ring.dims)]
    return all(ring._reduce({t}) for t in powers + [sum(powers)])
