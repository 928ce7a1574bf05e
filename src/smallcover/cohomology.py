"""Mod-2 cohomology rings.

Two backends: a normal-form engine for the triangular (Bott) presentation
Z2[y1..ym]/<Gamma_1..Gamma_m>, whose relations have pairwise-coprime leading
monomials under graded lex with y1 < ... < ym and therefore reduce without
completion; and a degree-by-degree linear-algebra backend for an arbitrary
polytope/vector pair, which eliminates the linear relations first and then
quotients by the non-face monomial ideal in the surviving variables.
Sphere rings and the twisted product (Dold-type) rings are assembled on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import gf2
from .charfun import BottMatrix, GF2Vector, validate
from .errors import CharacteristicError, InputError
from .gf2 import GF2Poly, Monomial, grlex_key, mono_deg, mono_mul, poly_mul
from .polytope import SimplePolytope, block_offsets


# ---------------------------------------------------------------------------
# graded algebra core


class GradedAlgebra:
    """Finite graded-commutative GF(2) algebra with an explicit basis.

    Basis elements are addressed as (degree, index); homogeneous elements are
    (degree, bitmask) pairs.  Products of basis elements are supplied by a
    callable and memoised.
    """

    def __init__(self, betti: Sequence[int], mult: Callable[[int, int, int, int], int],
                 labels: Optional[Sequence[Sequence[str]]] = None):
        self.betti = tuple(betti)
        self.top = len(self.betti) - 1
        self._mult = mult
        self._cache: Dict[Tuple[int, int, int, int], int] = {}
        if labels is None:
            labels = [[f"b{d}_{i}" for i in range(b)] for d, b in enumerate(self.betti)]
        self.labels = tuple(tuple(l) for l in labels)

    @property
    def dim(self) -> int:
        return sum(self.betti)

    def mult_basis(self, d1: int, i: int, d2: int, j: int) -> int:
        if d1 + d2 > self.top:
            return 0
        key = (d1, i, d2, j)
        if key not in self._cache:
            self._cache[key] = self._mult(d1, i, d2, j)
        return self._cache[key]

    def mult_elem(self, e1: Tuple[int, int], e2: Tuple[int, int]) -> Tuple[int, int]:
        d1, m1 = e1
        d2, m2 = e2
        d = d1 + d2
        if d > self.top or not m1 or not m2:
            return (d, 0)
        acc = 0
        mm1 = m1
        while mm1:
            i = mm1.bit_length() - 1
            mm1 &= ~(1 << i)
            mm2 = m2
            while mm2:
                j = mm2.bit_length() - 1
                mm2 &= ~(1 << j)
                acc ^= self.mult_basis(d1, i, d2, j)
        return (d, acc)

    def render_elem(self, e: Tuple[int, int]) -> str:
        d, m = e
        if not m:
            return "0"
        parts = [self.labels[d][i] for i in range(self.betti[d]) if (m >> i) & 1]
        return " + ".join(parts)


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

    def basis(self) -> List[Tuple[int, int]]:
        out = []
        for deg in sorted(self._pivots):
            out.extend((deg, row) for row in self._pivots[deg].values())
        return out

    @property
    def is_zero(self) -> bool:
        return not any(self._pivots.values())


def span_product(alg: GradedAlgebra, V: Sequence[Tuple[int, int]],
                 W: Sequence[Tuple[int, int]]) -> GradedSpan:
    out = GradedSpan()
    for e1 in V:
        for e2 in W:
            d, m = alg.mult_elem(e1, e2)
            if m:
                out.insert(d, m)
    return out


def ideal_powers(alg: GradedAlgebra, gens: Sequence[Tuple[int, int]],
                 ideal_gens: Sequence[Tuple[int, int]]) -> List[GradedSpan]:
    """Spans of the ideal powers [I^1, I^2, ...] down to the first zero.

    gens span the ideal I as a vector space and ideal_gens generate it as an
    ideal.  Each power is an ideal, so I^{k+1} = I^k * I is spanned by the
    products of a basis of I^k with the ideal generators alone.  The ideal
    generators must have positive degree, so the powers die at or before the
    top degree and the loop terminates.
    """
    ideal_gens = [g for g in ideal_gens if g[1]]
    if any(d <= 0 for d, _ in ideal_gens):
        raise InputError("ideal generators must have positive degree")
    powers = []
    V = GradedSpan()
    for d, m in gens:
        V.insert(d, m)
    while not V.is_zero:
        powers.append(V)
        V = span_product(alg, V.basis(), ideal_gens)
    return powers


def algebra_generators(alg: GradedAlgebra) -> List[Tuple[int, int]]:
    """Homogeneous generators of a connected algebra, as basis elements.

    In each positive degree d, the basis elements that extend the span of the
    products A_i * A_{d-i} (0 < i < d), taken greedily in basis order: a
    complement of the decomposables, so they generate A as an algebra.
    """
    if not alg.betti or alg.betti[0] != 1:
        raise InputError("algebra is not connected")
    gens: List[Tuple[int, int]] = []
    for d in range(1, alg.top + 1):
        span = GradedSpan()
        for i in range(1, d // 2 + 1):
            for a in range(alg.betti[i]):
                for b in range(alg.betti[d - i]):
                    span.insert(d, alg.mult_basis(i, a, d - i, b))
        for k in range(alg.betti[d]):
            if span.insert(d, 1 << k):
                gens.append((d, 1 << k))
    return gens


class TensorAlgebra(GradedAlgebra):
    """Graded tensor product A (x) B; no Koszul signs in characteristic 2.

    Basis element i of degree d is the pair pairs[d][i] = (d1, i1, d2, i2):
    basis element (d1, i1) of A times basis element (d2, i2) of B.  index
    maps a pair back to its position in its degree.
    """

    def __init__(self, A: GradedAlgebra, B: GradedAlgebra, label: Callable[[str, str], str]):
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
        labels = [
            [label(A.labels[d1][i], B.labels[d2][j]) for (d1, i, d2, j) in pairs[d]]
            for d in range(top + 1)
        ]

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

        super().__init__([len(p) for p in pairs], mult, labels)

    def diagonal(self, g: Tuple[int, int]) -> Tuple[int, int]:
        """g (x) 1 + 1 (x) g for a homogeneous g of positive degree, in a
        tensor square with the unit as basis element (0, 0)."""
        d, m = g
        acc = 0
        while m:
            i = m.bit_length() - 1
            m &= ~(1 << i)
            acc ^= (1 << self.index[(d, i, 0, 0)]) ^ (1 << self.index[(0, 0, d, i)])
        return (d, acc)


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


def _product_label(la: str, lb: str) -> str:
    """Label of a basis product in a tensor product of rings, unit omitted."""
    if la == "1":
        return lb
    if lb == "1":
        return la
    return f"{la}*{lb}"


# ---------------------------------------------------------------------------
# ring presentations


@dataclass(frozen=True)
class GradedBasis:
    betti: Tuple[int, ...]
    labels: Tuple[Tuple[str, ...], ...]


class Ring:
    """Common surface of all ring presentations."""

    kind: str
    top: int
    generators: Tuple[Tuple[str, int], ...]
    relations_text: Tuple[str, ...]
    # exact zero-divisor-cup-length, kept by invariants.zcl_exact
    _zcl = None

    def algebra(self) -> GradedAlgebra:
        raise NotImplementedError

    @property
    def betti(self) -> Tuple[int, ...]:
        return self.algebra().betti

    @property
    def dim(self) -> int:
        return sum(self.betti)

    def basis(self) -> GradedBasis:
        alg = self.algebra()
        return GradedBasis(alg.betti, alg.labels)


class BottRing(Ring):
    kind = "bott"
    # tensor-power certificate, kept by bounds.tc_bounds
    _cert = None

    def __init__(self, dims: Sequence[int], B: BottMatrix):
        dims = tuple(dims)
        if B.dims != dims:
            raise InputError("matrix dims disagree with the ring dims")
        self.dims = dims
        self.bmat = B
        self.m = len(dims)
        self.top = sum(dims)
        self.names = gf2.default_names(self.m, "y")
        self.generators = tuple((name, 1) for name in self.names)
        self.gammas = tuple(self._gamma(j) for j in range(1, self.m + 1))
        # tail_j: Gamma_j with its leading monomial y_j^{n_j+1} removed
        self._tails = []
        for j, g in enumerate(self.gammas, start=1):
            lead = gf2.mono_var(self.m, j, self.dims[j - 1] + 1)
            self._tails.append(g ^ {lead})
        self.relations_text = tuple(gf2.poly_render(g, self.names) for g in self.gammas)
        self._power_cache: Dict[Tuple[int, int], GF2Poly] = {}
        self._alg: Optional[GradedAlgebra] = None
        self._std: Optional[List[List[Monomial]]] = None

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d + 1
        return out

    def _gamma(self, j: int) -> GF2Poly:
        acc = frozenset({gf2.mono_var(self.m, j)})
        for k in range(1, self.dims[j - 1] + 1):
            factor = {gf2.mono_var(self.m, j)}
            for l in range(1, j):
                if self.bmat.block(j, l)[k - 1]:
                    factor = set(factor) ^ {gf2.mono_var(self.m, l)}
            acc = poly_mul(acc, frozenset(factor))
        return acc

    def is_standard(self, mon: Monomial) -> bool:
        return all(e <= d for e, d in zip(mon, self.dims))

    def normal_form(self, p: GF2Poly) -> GF2Poly:
        """Unique representative on standard monomials.

        Rewrites y_j^{n_j+1} by the lower-order tail of its relation; the
        leading monomials are pairwise coprime, so the rewriting confluence
        needs no S-polynomial completion and the loop terminates in the
        monomial well-order.
        """
        for mon in p:
            if len(mon) != self.m:
                raise InputError("polynomial arity disagrees with the ring")
        cur = set(p)
        while True:
            nonstd = [mon for mon in cur if not self.is_standard(mon)]
            if not nonstd:
                return frozenset(cur)
            mon = max(nonstd, key=grlex_key)
            j = max(i + 1 for i in range(self.m) if mon[i] > self.dims[i])
            rest = tuple(
                e - (self.dims[j - 1] + 1) if i == j - 1 else e
                for i, e in enumerate(mon)
            )
            cur.symmetric_difference_update({mon})
            cur.symmetric_difference_update(poly_mul(self._tails[j - 1], frozenset({rest})))

    def power(self, j: int, e: int) -> GF2Poly:
        """Reduced y_j^e."""
        key = (j, e)
        if key not in self._power_cache:
            self._power_cache[key] = self.normal_form(
                frozenset({gf2.mono_var(self.m, j, e)})
            )
        return self._power_cache[key]

    def standard_monomials(self) -> List[List[Monomial]]:
        if self._std is None:
            by_deg: List[List[Monomial]] = [[] for _ in range(self.top + 1)]

            def rec(i: int, acc: List[int]):
                if i == self.m:
                    mon = tuple(acc)
                    by_deg[mono_deg(mon)].append(mon)
                    return
                for e in range(self.dims[i] + 1):
                    rec(i + 1, acc + [e])

            rec(0, [])
            for lst in by_deg:
                lst.sort(key=grlex_key)
            self._std = by_deg
        return self._std

    def algebra(self) -> GradedAlgebra:
        if self._alg is None:
            std = self.standard_monomials()
            betti = [len(s) for s in std]
            labels = [[gf2.mono_render(m, self.names) for m in s] for s in std]

            def mult(d1, i, d2, j):
                prod = self.normal_form(frozenset({mono_mul(std[d1][i], std[d2][j])}))
                target = std[d1 + d2]
                mask = 0
                for mon in prod:
                    mask |= 1 << target.index(mon)
                return mask

            self._alg = GradedAlgebra(betti, mult, labels)
        return self._alg


def bott_ring(dims: Sequence[int], B: BottMatrix) -> BottRing:
    return BottRing(dims, B)


def projective_ring(n: int) -> BottRing:
    """The ring Z2[y]/(y^{n+1})."""
    if n < 0:
        raise InputError("projective dimension must be non-negative")
    if n == 0:
        return point_ring()
    return BottRing((n,), BottMatrix.make((n,)))


def substitute_x(dims: Sequence[int], B: BottMatrix, i: int) -> GF2Poly:
    """Degree-1 class of the i-th non-distinguished facet variable.

    Indices 1..n run over the non-distinguished facets in block order; index
    n+j names the distinguished facet of block j and maps to y_j.
    """
    dims = tuple(dims)
    n, m = sum(dims), len(dims)
    if not 1 <= i <= n + m:
        raise InputError(f"index {i} out of range 1..{n + m}")
    if i > n:
        return frozenset({gf2.mono_var(m, i - n)})
    j = 1
    acc = 0
    for d in dims:
        if i <= acc + d:
            k = i - acc
            mons = {gf2.mono_var(m, j)}
            for l in range(1, j):
                if B.block(j, l)[k - 1]:
                    mons ^= {gf2.mono_var(m, l)}
            return frozenset(mons)
        acc += d
        j += 1
    raise AssertionError


def minimal_non_faces(P: SimplePolytope) -> List[Tuple[int, ...]]:
    """Minimal facet sets with empty intersection."""
    kind = P.family[0]
    if kind == "product_of_simplices":
        dims = P.family[1]
        offs = block_offsets(dims)
        return [tuple(range(offs[j], offs[j] + dims[j] + 1)) for j in range(len(dims))]
    if kind == "polygon":
        k = P.family[1]
        return [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if j - i != 1 and not (i == 0 and j == k - 1)
        ]
    # explicit: grow candidate sets whose proper subsets are all faces
    vertex_sets = [frozenset(v) for v in P.vertices]

    def is_face(S: frozenset) -> bool:
        return any(S <= v for v in vertex_sets)

    out: List[Tuple[int, ...]] = []
    faces_prev = {frozenset({f}) for f in range(P.facet_count) if is_face(frozenset({f}))}
    for size in range(2, P.n + 2):
        faces_now = set()
        cands = set()
        for S in faces_prev:
            for f in range(P.facet_count):
                if f not in S:
                    cands.add(S | {f})
        for S in cands:
            if any(S - {f} not in faces_prev for f in S):
                continue
            if is_face(S):
                faces_now.add(S)
            else:
                out.append(tuple(sorted(S)))
        faces_prev = faces_now
        if not faces_prev:
            break
    return sorted(out)


class SmallCoverRing(Ring):
    kind = "small_cover"

    def __init__(self, P: SimplePolytope, vectors: Sequence[GF2Vector]):
        report = validate(P, vectors)
        if not report.valid:
            raise CharacteristicError(
                f"invalid assignment at vertices {report.bad_vertices}"
            )
        self.P = P
        self.vectors = tuple(tuple(v) for v in vectors)
        self.top = P.n
        r = P.facet_count
        # eliminate the linear relations: row-reduce the coordinate matrix
        rows = [[vectors[f][i] for f in range(r)] for i in range(P.n)]
        reduced, pivot_cols = gf2.row_reduce(rows)
        if len(pivot_cols) != P.n:
            raise CharacteristicError("facet vectors do not span the ambient space")
        free_cols = [c for c in range(r) if c not in set(pivot_cols)]
        self.free_facets = free_cols
        self.nvars = len(free_cols)
        free_index = {c: i for i, c in enumerate(free_cols)}
        self.names = [f"z{i + 1}" for i in range(self.nvars)]
        # substitution: facet class as a linear polynomial in the free classes
        subs: List[GF2Poly] = [None] * r
        for c in free_cols:
            subs[c] = frozenset({gf2.mono_var(self.nvars, free_index[c] + 1)})
        for row in reduced:
            lead = row.bit_length() - 1
            mons = set()
            rest = row & ~(1 << lead)
            while rest:
                b = rest.bit_length() - 1
                rest &= ~(1 << b)
                mons ^= {gf2.mono_var(self.nvars, free_index[b] + 1)}
            subs[lead] = frozenset(mons)
        self.facet_classes = subs
        self.generators = tuple((name, 1) for name in self.names)
        # non-face monomials become polynomial relations in the free classes
        gens: List[GF2Poly] = []
        for S in minimal_non_faces(P):
            g = frozenset({gf2.mono_one(self.nvars)})
            for f in S:
                g = poly_mul(g, subs[f])
            if g:
                gens.append(g)
        self.ideal_gens = gens
        self.relations_text = tuple(gf2.poly_render(g, self.names) for g in gens)
        self._slices: Dict[int, Tuple[List[Monomial], Dict[int, int], List[Monomial]]] = {}
        self._tables: Dict[int, Dict[Monomial, int]] = {}
        self._alg: Optional[GradedAlgebra] = None

    @property
    def dim(self) -> int:
        return self.P.vertex_count

    def _monomials(self, d: int) -> List[Monomial]:
        out: List[Monomial] = []

        def rec(i: int, left: int, acc: List[int]):
            if i == self.nvars - 1:
                out.append(tuple(acc + [left]))
                return
            for e in range(left + 1):
                rec(i + 1, left - e, acc + [e])

        if self.nvars == 0:
            return [()] if d == 0 else []
        rec(0, d, [])
        out.sort(key=grlex_key)
        return out

    def _slice(self, d: int):
        """(monomials, pivot rows, basis monomials) of degree d."""
        if d not in self._slices:
            mons = self._monomials(d)
            pos = {m: i for i, m in enumerate(mons)}
            pivots: Dict[int, int] = {}
            for g in self.ideal_gens:
                gd = gf2.poly_deg(g)
                if gd > d:
                    continue
                for u in self._monomials(d - gd):
                    row = 0
                    for mon in poly_mul(frozenset({u}), g):
                        row ^= 1 << pos[mon]
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

    def _table(self, d: int) -> Dict[Monomial, int]:
        """Normal form of every monomial of degree d, as a basis mask.

        Each monomial reduces once against the slice's pivot rows.  A pivot
        row is its lead monomial plus lower ones, so in ascending order a
        pivot monomial's normal form is the XOR of the forms already found
        for the rest of its row; a basis monomial is its own form.  The
        normal form is linear, so this equals reducing any mask bit by bit.
        """
        if d not in self._tables:
            mons, pivots, _ = self._slice(d)
            forms: List[int] = []
            rank = 0
            for i in range(len(mons)):
                row = pivots.get(i)
                if row is None:
                    forms.append(1 << rank)
                    rank += 1
                    continue
                acc = 0
                rest = row & ~(1 << i)
                while rest:
                    b = rest.bit_length() - 1
                    rest &= ~(1 << b)
                    acc ^= forms[b]
                forms.append(acc)
            self._tables[d] = dict(zip(mons, forms))
        return self._tables[d]

    def algebra(self) -> GradedAlgebra:
        if self._alg is None:
            slices = [self._slice(d) for d in range(self.top + 1)]
            betti = [len(s[2]) for s in slices]
            labels = [[gf2.mono_render(m, self.names) for m in s[2]] for s in slices]

            def mult(d1, i, d2, j):
                u = slices[d1][2][i]
                v = slices[d2][2][j]
                return self._table(d1 + d2)[mono_mul(u, v)]

            self._alg = GradedAlgebra(betti, mult, labels)
        return self._alg


def small_cover_ring(P: SimplePolytope, vectors: Sequence[GF2Vector]) -> Tuple[SmallCoverRing, GradedBasis]:
    ring = SmallCoverRing(P, vectors)
    return ring, ring.basis()


class SphereRing(Ring):
    kind = "sphere"

    def __init__(self, n: int):
        if n < 1:
            raise InputError("sphere dimension must be at least 1")
        self.n = n
        self.top = n
        self.generators = (("s", n),)
        self.relations_text = ("s^2",)
        betti = [1] + [0] * (n - 1) + [1]
        labels = [["1"]] + [[] for _ in range(n - 1)] + [["s"]]
        self._alg = GradedAlgebra(betti, lambda d1, i, d2, j: 1, labels)

    def algebra(self) -> GradedAlgebra:
        return self._alg


def sphere_ring(n: int) -> SphereRing:
    return SphereRing(n)


class PointRing(Ring):
    kind = "point"

    def __init__(self):
        self.top = 0
        self.generators = ()
        self.relations_text = ()
        self._alg = GradedAlgebra([1], lambda d1, i, d2, j: 1, [["1"]])

    def algebra(self) -> GradedAlgebra:
        return self._alg


def point_ring() -> PointRing:
    return PointRing()


_RETRACTABLE_KINDS = {"bott", "small_cover", "sphere", "point"}


class DoldRing(Ring):
    kind = "dold"

    def __init__(self, base: Ring, p: Sequence[int]):
        p = tuple(int(x) for x in p)
        if not p or list(p) != sorted(p) or p[0] < 1:
            raise InputError("exponent list must be ascending positive integers")
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
        self.generators = tuple(
            [(names[0], 1)] + [(names[i + 1], p[i + 1]) for i in range(self.r - 1)]
        ) + base.generators
        self.relations_text = (f"a^{p[0] + 1}",) + tuple(
            f"{names[i + 1]}^2" for i in range(self.r - 1)
        ) + base.relations_text
        self._alg: Optional[GradedAlgebra] = None
        self._names = names

    def _fibre_algebra(self) -> GradedAlgebra:
        p, r, names = self.p, self.r, self._names
        # basis: a^e * product of square-zero generators, graded by weight
        elems: List[Tuple[int, Tuple[int, ...]]] = []
        for e in range(p[0] + 1):
            for bits in range(1 << (r - 1)):
                exps = (e,) + tuple((bits >> i) & 1 for i in range(r - 1))
                deg = e + sum(((bits >> i) & 1) * p[i + 1] for i in range(r - 1))
                elems.append((deg, exps))
        top = max(d for d, _ in elems)
        by_deg: List[List[Tuple[int, ...]]] = [[] for _ in range(top + 1)]
        for d, exps in elems:
            by_deg[d].append(exps)
        for lst in by_deg:
            lst.sort()
        index = {exps: (d, i) for d, lst in enumerate(by_deg) for i, exps in enumerate(lst)}

        def label(exps):
            parts = []
            if exps[0] == 1:
                parts.append(names[0])
            elif exps[0] > 1:
                parts.append(f"{names[0]}^{exps[0]}")
            for i, e in enumerate(exps[1:]):
                if e:
                    parts.append(names[i + 1])
            return "*".join(parts) if parts else "1"

        labels = [[label(exps) for exps in lst] for lst in by_deg]

        def mult(d1, i, d2, j):
            u = by_deg[d1][i]
            v = by_deg[d2][j]
            w = tuple(a + b for a, b in zip(u, v))
            if w[0] > p[0] or any(e > 1 for e in w[1:]):
                return 0
            d, k = index[w]
            assert d == d1 + d2
            return 1 << k

        return GradedAlgebra([len(l) for l in by_deg], mult, labels)

    def algebra(self) -> GradedAlgebra:
        if self._alg is None:
            self._alg = TensorAlgebra(self._fibre_algebra(), self.base.algebra(),
                                      _product_label)
        return self._alg


def dold_ring(base: Ring, p: Sequence[int]) -> DoldRing:
    return DoldRing(base, p)


# ---------------------------------------------------------------------------
# verification operations


@dataclass(frozen=True)
class PairingReport:
    nondegenerate: bool
    by_degree: Tuple[bool, ...]


def poincare_pairing(ring: Ring) -> PairingReport:
    """Nondegeneracy of H^d x H^{top-d} -> H^top for each degree."""
    alg = ring.algebra()
    if alg.betti[alg.top] != 1:
        raise InputError("ring has no one-dimensional top class")
    flags = []
    for d in range(alg.top + 1):
        e = alg.top - d
        if alg.betti[d] != alg.betti[e]:
            flags.append(False)
            continue
        rows = []
        for i in range(alg.betti[d]):
            row = 0
            for j in range(alg.betti[e]):
                if alg.mult_basis(d, i, e, j):
                    row |= 1 << j
            rows.append(row)
        flags.append(len(gf2.row_reduce_masks(rows)) == alg.betti[d])
    return PairingReport(all(flags), tuple(flags))


def verify_top_monomial(dims: Sequence[int], B: BottMatrix) -> bool:
    """Each y_j^{n_j} and the full product y_1^{n_1}..y_m^{n_m} are nonzero."""
    ring = BottRing(dims, B)
    for j, d in enumerate(ring.dims, start=1):
        if not ring.power(j, d):
            return False
    full = gf2.mono_one(ring.m)
    for j, d in enumerate(ring.dims, start=1):
        full = mono_mul(full, gf2.mono_var(ring.m, j, d))
    return bool(ring.normal_form(frozenset({full})))
