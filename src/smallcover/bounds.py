"""Interval bounds for category-type invariants of the supported manifolds.

Every rule contributes a one-sided bound with a named certificate; the
report keeps the tightest interval together with the trail of rules that
produced each side.  Hypotheses that are topological rather than
combinatorial (connectedness of a fixed set) are user-asserted flags and are
recorded in the report when used.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .charfun import BottMatrix, FacetMasks, GF2Vector, Vectors, from_bott, peel_matrix
from .cohomology import BottRing, Ring, SmallCoverRing, SphereRing, dold_exponents
from .errors import BudgetExceeded, InputError
from .gf2 import mask_of, row_reduce_masks
from .invariants import (
    DEFAULT_BUDGET,
    IntervalValue,
    ZclCertificate,
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
    fields: the ring, the hypotheses, the certificate and the reports."""
    # the cohomology ring, built once by manifold_ring
    _ring: Optional[Ring] = None

    @cached_property
    def _by_budget(self) -> dict:
        """Per budget, the zcl rules and the TC report, each built once."""
        return {}

    @cached_property
    def _facet_hypotheses(self) -> Tuple[bool, bool]:
        """`simplex_facet_hypotheses` of (P, vectors), checked once."""
        return simplex_facet_hypotheses(self.P, self.vectors)

    @cached_property
    def _certificate(self) -> ZclCertificate:
        """The tower's tensor-power certificate, built once."""
        return zcl_certificate_bott(self.bmat)


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
    invariant: str  # 'cat' | 'TC' | 'TC_S' | 'cat_eq'
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


class _Builder:
    """Accumulates one-sided bounds and their certificates."""

    def __init__(self, invariant: str):
        self.invariant = invariant
        self.lo = None
        self.hi = None
        self.lo_cert = None
        self.hi_cert = None
        self.certs: List[Tuple[str, str, str]] = []
        self.witness: Tuple[str, ...] = ()

    def lower(self, value: int, rule: str, detail: str = "", witness=()):
        self.certs.append(("lo", rule, detail))
        if self.lo is None or value > self.lo:
            self.lo = value
            self.lo_cert = rule
            if witness:
                self.witness = tuple(witness)

    def upper(self, value: int, rule: str, detail: str = ""):
        self.certs.append(("hi", rule, detail))
        if self.hi is None or value < self.hi:
            self.hi = value
            self.hi_cert = rule

    def report(self, flags: Sequence[str] = ()) -> BoundReport:
        if self.lo is None or self.hi is None:
            raise InputError("incomplete bound computation")
        if self.lo > self.hi:
            raise InputError(f"{self.invariant}: lower end {self.lo} ({self.lo_cert}) "
                             f"exceeds upper end {self.hi} ({self.hi_cert})")
        return BoundReport(
            self.invariant,
            IntervalValue(self.lo, self.hi, self.lo_cert, self.hi_cert, self.witness),
            tuple(self.certs),
            tuple(flags),
        )


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
    is then a complex projectivisation.  The README gives the argument.
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


def _zcl_rules(M: ManifoldDescription, budget: int) -> Tuple[tuple, ...]:
    """The zero-divisor lower ends of a polytope manifold, as
    (value, rule, detail, witness) in trail order.  `tc_bounds` and
    `manifold_zcl` both read it, listed once per budget on M."""
    if ("zcl", budget) in M._by_budget:
        return M._by_budget["zcl", budget]
    n = M.n
    ring = manifold_ring(M)
    rules = []
    if M.bmat is not None:
        cert = M._certificate
        rules.append((cert.k, "tensor power certificate",
                      f"{cert.k} diagonal zero divisors with nonzero product, "
                      f"surviving terms {', '.join(cert.surviving_terms)}", ()))
    try:
        ex = zcl_exact(ring, budget)
        rules.append((ex.lo, "exact kernel search", "complete search within budget",
                      ex.witness))
    except BudgetExceeded:
        pass
    if n > 1:
        has_simplex, det_ok = M._facet_hypotheses
        if has_simplex:
            rules.append((zcl_rp(n - 1).lo, "facet projective restriction",
                          f"simplex facet restricts onto the ({n - 1})-projective ring",
                          ()))
        if det_ok:
            rules.append((zcl_rp(n).lo, "connected-sum projective subring",
                          f"invertible neighbour matrix embeds the {n}-projective ring",
                          ()))
    return M._by_budget.setdefault(("zcl", budget), tuple(rules))


def manifold_zcl(M: ManifoldDescription, budget: int) -> IntervalValue:
    """Zero-divisor interval: the exact search within the budget, otherwise
    the first largest of the degree-one class and `_zcl_rules`, capped at 2n."""
    if M.kind == "sphere":  # spheres use the declared mod-2 value only
        return sphere_zcl(M.n)
    ring = manifold_ring(M)
    if ring.dim <= budget:  # an exact value ends the merge
        return zcl_exact(ring, budget)
    rules = ((1, "degree-one diagonal class", "", ()),) + _zcl_rules(M, budget)
    value, rule, _, witness = max(rules, key=lambda r: r[0])
    return IntervalValue(value, 2 * M.n, rule, "grading cap", witness)


# ---------------------------------------------------------------------------
# invariant engines


def cat_bounds(M: ManifoldDescription) -> BoundReport:
    b = _Builder("cat")
    if M.kind == "sphere":
        b.lower(2, "cup-length floor", "single positive-degree class")
        b.upper(2, "two contractible caps")
        return b.report()
    n = M.n
    b.lower(n + 1, "vertex class product",
            "product of the facet classes through one vertex is nonzero")
    b.upper(n + 1, "dimension cap", "dim + 1")
    return b.report()


def tc_bounds(M: ManifoldDescription, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """The TC report, built once per budget on M; `symm_tc_bounds` reads it."""
    if ("TC", budget) in M._by_budget:
        return M._by_budget["TC", budget]
    b = _Builder("TC")
    n = M.n
    if M.kind == "sphere":
        b.lower(sphere_zcl_declared(n) + 1, "rational sphere zero-divisor bound",
                "zero-divisor-cup-length over Q plus one")
        b.upper(2 * cat_bounds(M).interval.hi - 1, "category sandwich")
    else:
        b.lower(cat_bounds(M).interval.lo, "category floor", "TC is at least cat")
        for value, rule, detail, witness in _zcl_rules(M, budget):
            b.lower(value + 1, rule, detail, witness)
    b.upper(2 * n + 1, "dimension cap")
    blocks = () if M.bmat is None else free_circle_blocks(M.bmat)
    if blocks:
        b.upper(2 * n - len(blocks) + 1, "free circle actions",
                "free circle on blocks " + ", ".join(map(str, blocks)))
    return M._by_budget.setdefault(("TC", budget), b.report())


def eq_cat_bounds(M: ManifoldDescription) -> BoundReport:
    if M.kind == "sphere":
        raise InputError("equivariant category bounds need a polytope description")
    g = M.involution
    if g is None or not any(g):
        raise InputError("a nonzero involution vector is required")
    b = _Builder("cat_eq")
    flags = []
    n = M.n
    if M.fixed_set_connected:
        flags.append("fixed_set_connected")
        b.lower(n + 1, "connected fixed set", "invariant categorical cover by height levels")
        b.upper(n + 1, "connected fixed set")
        return b.report(flags)
    P, vectors = M.P, M.vectors
    b.upper(P.vertex_count, "fixed point count",
            "one invariant categorical set per vertex")
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
            b.lower(2 * len(matching), "fixed circle cover",
                    f"{len(matching)} disjoint fixed circles through every vertex")
    cat = cat_bounds(M)
    b.lower(cat.interval.lo, "non-equivariant floor")
    return b.report(flags)


def symm_tc_bounds(M: ManifoldDescription, budget: int = DEFAULT_BUDGET) -> BoundReport:
    b = _Builder("TC_S")
    n = M.n
    tc = tc_bounds(M, budget)
    b.lower(tc.interval.lo, "ordinary complexity floor")
    if n >= 1:  # a point has TC_S 1
        b.lower(2, "more than one point")
        # in characteristic 2 the norm elements x (x) y + y (x) x are the
        # diagonal zero divisors, so the norm subring's cup-length is at
        # least the zcl
        zcl = manifold_zcl(M, budget)
        b.lower(zcl.lo + 2, "norm subring",
                f"norm-subring cup-length at least {zcl.lo} ({zcl.lo_source})")
    b.upper(2 * n + 1, "dimension cap")
    if M.kind != "sphere" and n > 1:
        _, det_ok = M._facet_hypotheses
        s = n.bit_length() - 1
        if det_ok and n == (1 << s):
            b.lower(2 * n + 1, "projective exactness",
                    "power-of-two dimension with invertible neighbour matrix")
    return b.report()


def dold_bounds(M: ManifoldDescription, p: Sequence[int],
                budget: int = DEFAULT_BUDGET) -> Tuple[BoundReport, BoundReport, BoundReport]:
    """(cat, TC, TC_S) reports for the twisted product over M.

    The product's zero-divisor sum is zcl + rp + (r - 1), with zcl the
    base's lower end and rp that of RP^{p_1}.  TC takes it plus 1, and the
    TC_S "norm subring" end plus 2, the norm rule of `symm_tc_bounds`.
    """
    p = dold_exponents(p)
    r = len(p)
    p1 = p[0]
    n = M.n
    dim_d = n + sum(p)
    flags = ["fixed_set_connected"] if M.fixed_set_connected else []

    base_ring = manifold_ring(M)
    cl_base = cup_length(base_ring)
    cat_tau = 2 if M.kind == "sphere" else n + 1

    cat = _Builder("cat")
    cat.lower(cl_base + p1 + r, "cup-length product",
              "base cup-length plus fibre cup-length, plus one")
    if M.fixed_set_connected or M.kind == "sphere":
        cat.upper(cat_tau + p1 + r - 1, "invariant cover product",
                  "invariant categorical cover of the base times the fibre cover")
    cat.upper(dim_d + 1, "dimension cap")

    tc = _Builder("TC")
    zb = manifold_zcl(M, budget)
    rp = zcl_rp(p1)
    zsum = zb.lo + rp.lo + r - 1
    tc.lower(zsum + 1, "tensor zero-divisor sum",
             f"base bound {zb.lo} ({zb.lo_source}) plus fibre bound {rp.lo}")
    tc.lower(cl_base + p1 + r, "category floor")
    # one fibre factor over a polytope base with an invertible neighbour matrix
    det_ok = (r == 1 and M.kind != "sphere"
              and M._facet_hypotheses[1])
    if M.kind == "sphere":
        tc.upper(2 * (cat_tau + p1 + r) - 1, "invariant cover cap")
    else:
        tc.upper(2 * (n + p1 + r) + 1, "dimension-type cap")
        if det_ok:
            tc.upper(2 * (n + p1) + 1, "single-factor projective cap",
                     "invertible neighbour matrix, one fibre factor")
    tc.upper(2 * dim_d + 1, "dimension cap")

    tcs = _Builder("TC_S")
    tcs.lower(2, "more than one point")
    tcs.lower(zsum + 2, "norm subring")
    tcs.upper(2 * dim_d + 1, "dimension cap")
    if det_ok:
        tcs.upper(2 * (n + p1) + 1, "single-factor projective cap")

    return cat.report(flags), tc.report(flags), tcs.report(flags)
