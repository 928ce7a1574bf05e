"""Interval bounds for category-type invariants of the supported manifolds.

Every rule is a tuple (side, value, name, detail[, witness]): a one-sided
bound with a named certificate.  Each report lists its rules in trail
order, and the one merge, `_report`, keeps the tightest interval together
with that trail.  A description keeps one `_Bounds` record per budget, which
builds each part the reports share once, on first use.  Hypotheses that are
topological rather than combinatorial (connectedness of a fixed set) are
user-asserted flags and are recorded in the report when used.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .charfun import BottMatrix, FacetMasks, GF2Vector, Vectors, from_bott, peel_matrix
from .cohomology import BottRing, Ring, SmallCoverRing, SphereRing, dold_exponents
from .errors import BudgetExceeded, InputError
from .gf2 import mask_of, row_reduce_masks
from .invariants import (
    DEFAULT_BUDGET,
    IntervalValue,
    cup_length,
    sphere_zcl,
    sphere_zcl_declared,
    zcl_certificate_bott,
    zcl_exact,
    zcl_rp,
)
from .polytope import (
    SimplePolytope,
    facet_neighbours,
    product_of_simplices,
    simplex_facets,
)


class _ManifoldFields(NamedTuple):
    kind: str  # the ring presentation: 'small_cover' | 'bott' | 'sphere'
    n: int
    P: Optional[SimplePolytope] = None
    vectors: Optional[FacetMasks] = None
    bmat: Optional[BottMatrix] = None
    involution: Optional[GF2Vector] = None
    fixed_set_connected: bool = False


class ManifoldDescription(_ManifoldFields):
    """A manifold as the bound rules read it.  Over a product of simplices, in
    either input form, `bmat` is its tower, and `bmat.dims` its block sizes.
    A `NamedTuple` with a `__dict__`, which keeps what is built once off the
    fields: the ring, and `_records`, a `_Bounds` per budget (`_at`)."""
    # the cohomology ring, built once by manifold_ring
    _ring: Optional[Ring] = None


def bott_manifold(dims: Sequence[int], B: BottMatrix,
                  involution: Optional[GF2Vector] = None,
                  fixed_set_connected: bool = False,
                  P: Optional[SimplePolytope] = None) -> ManifoldDescription:
    """The tower of B over P, the product of simplices of dims if not given.
    The one check that dims are B's block sizes, made after P is built."""
    P = product_of_simplices(dims) if P is None else P
    if B.dims != tuple(dims):
        raise InputError("matrix dims disagree with the polytope dims")
    return ManifoldDescription("bott", P.n, P, from_bott(B), B,
                               involution, fixed_set_connected)


def small_cover_manifold(P: SimplePolytope, vectors: Vectors,
                         involution: Optional[GF2Vector] = None,
                         fixed_set_connected: bool = False) -> ManifoldDescription:
    # the ring already built on these vectors, or a new one, which validates
    # them once; the description keeps it, and the tower of its peel
    ring = SmallCoverRing._on(P, vectors)
    B = None if ring._peeled is None else peel_matrix(P.family[1], ring._peeled)
    M = ManifoldDescription("small_cover", P.n, P, ring.vectors, B,
                            involution, fixed_set_connected)
    M._ring = ring
    return M


def sphere_manifold(n: int, fixed_set_connected: bool = False) -> ManifoldDescription:
    if n < 1:
        raise InputError("sphere dimension must be at least 1")
    return ManifoldDescription("sphere", n, fixed_set_connected=fixed_set_connected)


def manifold_ring(M: ManifoldDescription) -> Ring:
    if M._ring is None:
        if M.kind == "bott":
            ring = BottRing(M.bmat)
        elif M.kind == "small_cover":
            ring = SmallCoverRing(M.P, M.vectors)
        elif M.kind == "sphere":
            ring = SphereRing(M.n)
        else:
            raise InputError(f"unsupported manifold kind {M.kind!r}")
        M._ring = ring
    return M._ring


class BoundReport(NamedTuple):
    invariant: str  # 'cat' | 'TC' | 'TC_S' | 'cat_eq' | 'zcl'
    interval: IntervalValue
    certificates: Tuple[Tuple[str, str, str], ...]  # (side, rule, witness summary)
    assumed_flags: Tuple[str, ...] = ()

    def to_json(self) -> Dict:
        return {
            "invariant": self.invariant,
            "lo": self.interval.lo,
            "hi": self.interval.hi,
            "lo_source": self.interval.lo_source,
            "hi_source": self.interval.hi_source,
            "witness": list(self.interval.witness),
            "certificates": [
                {"side": s, "rule": r, "witness": w} for s, r, w in self.certificates
            ],
            "assumed_flags": list(self.assumed_flags),
        }

    @staticmethod
    def from_json(data: Dict) -> "BoundReport":
        return BoundReport(
            data["invariant"],
            IntervalValue(data["lo"], data["hi"], data["lo_source"],
                          data["hi_source"], tuple(data["witness"])),
            tuple((c["side"], c["rule"], c["witness"]) for c in data["certificates"]),
            tuple(data["assumed_flags"]),
        )


def _report(invariant: str, rules: Sequence[tuple], flags: Sequence[str] = ()) -> BoundReport:
    """The one merge: rules (side, value, name, detail[, witness]) in trail order
    as a report; each end is the first best rule on its side, with its witness."""
    lo = hi = None
    for r in rules:  # strict comparisons, so the first of equal values wins
        if r[0] == "lo" and (lo is None or r[1] > lo[1]):
            lo = r
        elif r[0] == "hi" and (hi is None or r[1] < hi[1]):
            hi = r
    if lo is None or hi is None:
        raise InputError("incomplete bound computation")
    if lo[1] > hi[1]:
        raise InputError(f"{invariant}: lower end {lo[1]} ({lo[2]}) "
                         f"exceeds upper end {hi[1]} ({hi[2]})")
    return BoundReport(invariant,
                       IntervalValue(lo[1], hi[1], lo[2], hi[2], lo[4] if len(lo) > 4 else ()),
                       tuple(map(itemgetter(0, 2, 3), rules)), tuple(flags))


# ---------------------------------------------------------------------------
# hypothesis checks


def simplex_facet_hypotheses(P: SimplePolytope, masks: FacetMasks):
    """(some facet is a simplex, some simplex facet has an invertible neighbour
    matrix: exactly n neighbouring facets whose masks form a basis)."""
    simplices = simplex_facets(P)
    return bool(simplices), any(
        len(nb) == P.n and len(row_reduce_masks(masks[g] for g in nb)) == P.n
        for nb in (facet_neighbours(P, f) for f in simplices))


def free_circle_blocks(B: BottMatrix) -> List[int]:
    """Blocks j (1-based) whose stage of B's tower carries a free circle action by scalars.

    Block j counts when n_j > 1 is odd, its fibre line bundles pair up, and
    no later block is twisted by y_j (beta(j', j) = 0 for every j' > j).  The
    bundles pair up when every vector of {w_0 = 0, w_1, ..., w_{n_j}}, with
    w_k = (beta(j, l)[k])_{l < j}, occurs an even number of times: the fibre
    is then a complex projectivisation.  The README's bound rules give the argument.
    """
    # each candidate's w_k, an int with bit l set when beta(j, l)[k] = 1
    fibres = {j: [0] * (nj + 1) for j, nj in enumerate(B.dims, start=1) if nj > 1 and nj % 2}
    twisted = set()
    for (j, l), bits in B.beta:
        twisted.add(l)
        w = fibres.get(j)
        if w is not None:
            for k, bit in enumerate(bits):
                w[k] |= bit << l
    # sorted, every value occurs an even number of times iff the pairs match
    return [j for j, w in fibres.items()
            if j not in twisted and (s := sorted(w))[::2] == s[1::2]]


# ---------------------------------------------------------------------------
# one evaluator per (manifold, budget); the engines read it


class _part(cached_property):
    """A `_Bounds` part: a `cached_property` without the lock it takes on 3.11."""
    def __get__(self, rec, owner=None):
        value = rec.__dict__[self.attrname] = self.func(rec)
        return value


class _Bounds:
    """What the rules read of one description M at one budget (`_at`), each part
    built once.  It keeps M's fields and ring, not M, which keeps it: no cycle."""

    def __init__(self, M: ManifoldDescription, budget: int):
        self.M, self.ring, self.budget = _ManifoldFields._make(M), manifold_ring(M), budget

    @_part
    def hypotheses(self) -> Tuple[bool, bool]:
        return simplex_facet_hypotheses(self.M.P, self.M.vectors)

    @_part
    def exact(self) -> Optional[IntervalValue]:  # None above the budget
        try:
            return zcl_exact(self.ring, self.budget)
        except BudgetExceeded:
            return None

    @_part
    def zcl_rules(self) -> Tuple[tuple, ...]:  # a polytope manifold's "lo" zcl ends
        n, rules = self.M.n, []
        if self.M.bmat is not None:
            cert = zcl_certificate_bott(self.M.bmat)
            rules.append(("lo", cert.k, "tensor power certificate",
                          f"{cert.k} diagonal zero divisors with nonzero product, "
                          f"surviving terms {', '.join(cert.surviving_terms)}"))
        if self.exact is not None:
            rules.append(("lo", self.exact.lo, "exact kernel search",
                          "complete search within budget", self.exact.witness))
        if n > 1:
            has_simplex, det_ok = self.hypotheses
            if has_simplex:
                rules.append(("lo", zcl_rp(n - 1).lo, "facet projective restriction",
                              f"simplex facet restricts onto the ({n - 1})-projective ring"))
            if det_ok:
                rules.append(("lo", zcl_rp(n).lo, "connected-sum projective subring",
                              f"invertible neighbour matrix embeds the {n}-projective ring"))
        return tuple(rules)

    @_part
    def zcl(self) -> IntervalValue:  # an exact value ends the merge
        if self.M.kind == "sphere":
            return sphere_zcl(self.M.n)
        return self.exact or _report("zcl", [("lo", 1, "degree-one diagonal class", ""),
                                             *self.zcl_rules,
                                             ("hi", 2 * self.M.n, "grading cap", "")]).interval

    @_part
    def cat(self) -> BoundReport:
        if self.M.kind == "sphere":
            return _report("cat", [("lo", 2, "cup-length floor", "single positive-degree class"),
                                   ("hi", 2, "two contractible caps", "")])
        n = self.M.n
        return _report("cat", [("lo", n + 1, "vertex class product",
                                "product of the facet classes through one vertex is nonzero"),
                               ("hi", n + 1, "dimension cap", "dim + 1")])

    @_part
    def tc(self) -> BoundReport:
        M, n = self.M, self.M.n
        if M.kind == "sphere":
            rules = [("lo", sphere_zcl_declared(n) + 1, "rational sphere zero-divisor bound",
                      "zero-divisor-cup-length over Q plus one"),
                     ("hi", 2 * self.cat.interval.hi - 1, "category sandwich", "")]
        else:
            rules = [("lo", self.cat.interval.lo, "category floor", "TC is at least cat"),
                     *[("lo", r[1] + 1) + r[2:] for r in self.zcl_rules]]
        rules.append(("hi", 2 * n + 1, "dimension cap", ""))
        if M.bmat is not None and (blocks := free_circle_blocks(M.bmat)):
            rules.append(("hi", 2 * n - len(blocks) + 1, "free circle actions",
                          "free circle on blocks " + ", ".join(map(str, blocks))))
        return _report("TC", rules)

    @_part
    def tcs(self) -> BoundReport:
        M, n = self.M, self.M.n
        rules = [("lo", self.tc.interval.lo, "ordinary complexity floor", "")]
        if n >= 1:  # a point has TC_S 1
            # in characteristic 2 the norm elements x (x) y + y (x) x are the diagonal
            # zero divisors, so the norm subring's cup-length is at least the zcl
            zcl = self.zcl
            rules += [("lo", 2, "more than one point", ""),
                      ("lo", zcl.lo + 2, "norm subring",
                       f"norm-subring cup-length at least {zcl.lo} ({zcl.lo_source})")]
        rules.append(("hi", 2 * n + 1, "dimension cap", ""))
        if M.kind != "sphere" and n > 1 and self.hypotheses[1] and n & (n - 1) == 0:
            rules.append(("lo", 2 * n + 1, "projective exactness",
                          "power-of-two dimension with invertible neighbour matrix"))
        return _report("TC_S", rules)


def _at(M: ManifoldDescription, budget: int) -> _Bounds:
    records = vars(M).setdefault("_records", {})
    return records.get(budget) or records.setdefault(budget, _Bounds(M, budget))


# module functions, since the CLI, perfbench and its tracer call them by name
def manifold_zcl(M: ManifoldDescription, budget: int) -> IntervalValue:
    return _at(M, budget).zcl


def cat_bounds(M: ManifoldDescription) -> BoundReport:
    return _at(M, DEFAULT_BUDGET).cat


def tc_bounds(M: ManifoldDescription, budget: int = DEFAULT_BUDGET) -> BoundReport:
    return _at(M, budget).tc


def symm_tc_bounds(M: ManifoldDescription, budget: int = DEFAULT_BUDGET) -> BoundReport:
    return _at(M, budget).tcs


def eq_cat_bounds(M: ManifoldDescription) -> BoundReport:
    if M.kind == "sphere":
        raise InputError("equivariant category bounds need a polytope description")
    g = M.involution
    if g is None or not any(g):
        raise InputError("a nonzero involution vector is required")
    n = M.n
    if M.fixed_set_connected:
        return _report("cat_eq", [
            ("lo", n + 1, "connected fixed set", "invariant categorical cover by height levels"),
            ("hi", n + 1, "connected fixed set", "")], ["fixed_set_connected"])
    P, vectors = M.P, M.vectors
    rules = [("hi", P.vertex_count, "fixed point count",
              "one invariant categorical set per vertex")]
    target = mask_of(g) if len(g) == n else None  # of another length, g matches no facet
    matching = [f for f, mask in enumerate(vectors) if mask == target]
    if n == 2 and matching:
        disjoint = all(
            P.facets_disjoint(f, h)
            for i, f in enumerate(matching)
            for h in matching[i + 1:]
        )
        circles = set(matching)
        if disjoint and all(not circles.isdisjoint(v) for v in P.vertices):
            rules.append(("lo", 2 * len(matching), "fixed circle cover",
                          f"{len(matching)} disjoint fixed circles through every vertex"))
    rules.append(("lo", _at(M, DEFAULT_BUDGET).cat.interval.lo, "non-equivariant floor", ""))
    return _report("cat_eq", rules)


def dold_bounds(M: ManifoldDescription, p: Sequence[int],
                budget: int = DEFAULT_BUDGET) -> Tuple[BoundReport, BoundReport, BoundReport]:
    """(cat, TC, TC_S) reports for the twisted product over M.

    The product's zero-divisor sum is zcl + rp + (r - 1), with zcl the
    base's lower end and rp that of RP^{p_1}.  TC takes it plus 1, and the
    TC_S "norm subring" end plus 2, the norm rule of `symm_tc_bounds`.
    """
    p = dold_exponents(p)
    r, p1, n = len(p), p[0], M.n
    dim_d = n + sum(p)
    flags = ["fixed_set_connected"] if M.fixed_set_connected else []
    rec = _at(M, budget)
    cl_base = cup_length(rec.ring)
    cat_tau = 2 if M.kind == "sphere" else n + 1
    cat = [("lo", cl_base + p1 + r, "cup-length product",
            "base cup-length plus fibre cup-length, plus one")]
    if M.fixed_set_connected or M.kind == "sphere":
        cat.append(("hi", cat_tau + p1 + r - 1, "invariant cover product",
                    "invariant categorical cover of the base times the fibre cover"))
    cat.append(("hi", dim_d + 1, "dimension cap", ""))

    zb, rp = rec.zcl, zcl_rp(p1)
    zsum = zb.lo + rp.lo + r - 1
    tc = [("lo", zsum + 1, "tensor zero-divisor sum",
           f"base bound {zb.lo} ({zb.lo_source}) plus fibre bound {rp.lo}"),
          ("lo", cl_base + p1 + r, "category floor", "")]
    # one fibre factor over a polytope base with an invertible neighbour matrix
    det_ok = r == 1 and M.kind != "sphere" and rec.hypotheses[1]
    if M.kind == "sphere":
        tc.append(("hi", 2 * (cat_tau + p1 + r) - 1, "invariant cover cap", ""))
    else:
        tc.append(("hi", 2 * (n + p1 + r) + 1, "dimension-type cap", ""))
        if det_ok:
            tc.append(("hi", 2 * (n + p1) + 1, "single-factor projective cap",
                       "invertible neighbour matrix, one fibre factor"))
    tc.append(("hi", 2 * dim_d + 1, "dimension cap", ""))

    tcs = [("lo", 2, "more than one point", ""),
           ("lo", zsum + 2, "norm subring", ""),
           ("hi", 2 * dim_d + 1, "dimension cap", "")]
    if det_ok:
        tcs.append(("hi", 2 * (n + p1) + 1, "single-factor projective cap", ""))

    return _report("cat", cat, flags), _report("TC", tc, flags), _report("TC_S", tcs, flags)
