"""Interval bounds for category-type invariants of the supported manifolds.

Every rule contributes a one-sided bound with a named certificate; the
report keeps the tightest interval together with the trail of rules that
produced each side.  Hypotheses that are topological rather than
combinatorial (connectedness of a fixed set) are user-asserted flags and are
recorded in the report when used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .charfun import BottMatrix, GF2Vector, from_bott, validate
from .cohomology import BottRing, Ring, SmallCoverRing, SphereRing
from .errors import BudgetExceeded, CharacteristicError, InputError
from .gf2 import rank_gf2
from .invariants import (
    DEFAULT_BUDGET,
    IntervalValue,
    certificate_length,
    cup_length,
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


@dataclass(frozen=True)
class ManifoldDescription:
    kind: str  # 'small_cover' | 'bott' | 'sphere'
    n: int
    P: Optional[SimplePolytope] = None
    vectors: Optional[Tuple[GF2Vector, ...]] = None
    dims: Optional[Tuple[int, ...]] = None
    bmat: Optional[BottMatrix] = None
    involution: Optional[GF2Vector] = None
    fixed_set_connected: bool = False
    # the cohomology ring, built once by manifold_ring
    _ring: Optional[Ring] = field(default=None, init=False, repr=False, compare=False)


def bott_manifold(dims: Sequence[int], B: BottMatrix,
                  involution: Optional[GF2Vector] = None,
                  fixed_set_connected: bool = False) -> ManifoldDescription:
    dims = tuple(dims)
    P = product_of_simplices(dims)
    vectors = tuple(from_bott(dims, B))
    return ManifoldDescription("bott", P.n, P, vectors, dims, B,
                               involution, fixed_set_connected)


def small_cover_manifold(P: SimplePolytope, vectors: Sequence[GF2Vector],
                         involution: Optional[GF2Vector] = None,
                         fixed_set_connected: bool = False) -> ManifoldDescription:
    report = validate(P, vectors)
    if not report.valid:
        raise CharacteristicError(f"invalid assignment at vertices {report.bad_vertices}")
    return ManifoldDescription("small_cover", P.n, P, tuple(tuple(v) for v in vectors),
                               None, None, involution, fixed_set_connected)


def sphere_manifold(n: int, fixed_set_connected: bool = False) -> ManifoldDescription:
    if n < 1:
        raise InputError("sphere dimension must be at least 1")
    return ManifoldDescription("sphere", n, fixed_set_connected=fixed_set_connected)


def manifold_ring(M: ManifoldDescription) -> Ring:
    if M._ring is None:
        if M.kind == "bott":
            ring = BottRing(M.dims, M.bmat)
        elif M.kind == "small_cover":
            ring = SmallCoverRing(M.P, M.vectors)
        elif M.kind == "sphere":
            ring = SphereRing(M.n)
        else:
            raise InputError(f"unsupported manifold kind {M.kind!r}")
        object.__setattr__(M, "_ring", ring)
    return M._ring


@dataclass(frozen=True)
class BoundReport:
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
        return BoundReport(
            self.invariant,
            IntervalValue(self.lo, self.hi, self.lo_cert, self.hi_cert, self.witness),
            tuple(self.certs),
            tuple(flags),
        )


# ---------------------------------------------------------------------------
# hypothesis checks


def simplex_facet_hypotheses(P: SimplePolytope, vectors: Sequence[GF2Vector]):
    """(some facet is a simplex, some simplex facet has an invertible
    neighbour matrix).  The second needs exactly n neighbouring facets whose
    vectors form a basis."""
    has_simplex = False
    det_ok = False
    for f in simplex_facets(P):
        has_simplex = True
        nb = facet_neighbours(P, f)
        if len(nb) == P.n and rank_gf2([vectors[g] for g in nb]) == P.n:
            det_ok = True
            break
    return has_simplex, det_ok


def _manifold_zcl(M: ManifoldDescription, budget: int) -> IntervalValue:
    """Zero-divisor interval for the manifold's ring, merging every route."""
    candidates: List[IntervalValue] = []
    if M.kind != "sphere":  # spheres use the declared values only
        try:
            candidates.append(zcl_exact(manifold_ring(M), budget))
        except BudgetExceeded:
            pass
    hi = 2 * M.n
    if M.kind == "bott":
        candidates.append(IntervalValue(certificate_length(M.dims), hi,
                                        "tensor power certificate", "grading cap"))
    if M.kind in ("bott", "small_cover") and M.n > 1:
        has_simplex, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
        if has_simplex:
            rp = zcl_rp(M.n - 1, budget)
            candidates.append(IntervalValue(rp.lo, hi,
                                            "facet projective restriction", "grading cap"))
        if det_ok:
            rp = zcl_rp(M.n, budget)
            candidates.append(IntervalValue(rp.lo, hi,
                                            "connected-sum projective subring", "grading cap"))
    if M.kind == "sphere":
        candidates.append(IntervalValue(sphere_zcl_declared(M.n), hi,
                                        "declared sphere value", "grading cap"))
    if not candidates:
        candidates.append(IntervalValue(1, hi, "degree-one diagonal class", "grading cap"))
    lo = max(c.lo for c in candidates)
    hi = min(c.hi for c in candidates)
    best = max(candidates, key=lambda c: c.lo)
    return IntervalValue(lo, hi, best.lo_source, "grading cap", best.witness)


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
    b = _Builder("TC")
    n = M.n
    cat = cat_bounds(M)
    if M.kind == "sphere":
        lo = sphere_zcl_declared(n) + 1
        b.lower(lo, "declared sphere zero-divisor bound")
        b.upper(2 * cat.interval.hi - 1, "category sandwich")
        b.upper(2 * n + 1, "dimension cap")
        return b.report()
    b.lower(cat.interval.lo, "category floor", "TC is at least cat")
    ring = manifold_ring(M)
    if M.kind == "bott":
        if ring._cert is None:
            ring._cert = zcl_certificate_bott(M.dims, M.bmat)
        cert = ring._cert
        b.lower(cert.k + 1, "tensor power certificate",
                f"{cert.k} diagonal zero divisors with nonzero product, "
                f"surviving terms {', '.join(cert.surviving_terms)}")
    try:
        ex = zcl_exact(ring, budget)
        b.lower(ex.lo + 1, "exact kernel search", "complete search within budget",
                witness=ex.witness)
    except BudgetExceeded:
        pass
    if n > 1:
        has_simplex, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
        if has_simplex:
            rp = zcl_rp(n - 1, budget)
            b.lower(rp.lo + 1, "facet projective restriction",
                    f"simplex facet restricts onto the ({n - 1})-projective ring")
        if det_ok:
            rp = zcl_rp(n, budget)
            b.lower(rp.lo + 1, "connected-sum projective subring",
                    f"invertible neighbour matrix embeds the {n}-projective ring")
    b.upper(2 * n + 1, "dimension cap")
    if M.kind == "bott":
        k = sum(1 for d in M.dims if d > 1 and d % 2 == 1)
        if k:
            b.upper(2 * n - k + 1, "free circle actions",
                    f"{k} odd blocks of dimension > 1")
    return b.report()


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
    matching = [f for f in range(P.facet_count) if tuple(vectors[f]) == tuple(g)]
    if n == 2 and matching:
        disjoint = all(
            P.facets_disjoint(f, h)
            for i, f in enumerate(matching)
            for h in matching[i + 1:]
        )
        covered = set()
        for f in matching:
            covered |= set(P.facet_vertex_indices(f))
        if disjoint and covered == set(range(P.vertex_count)):
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
    b.lower(2, "more than one point")
    if M.kind == "sphere":
        b.lower(sphere_zcl_declared(n) + 2, "norm subring")
    else:
        zcl = _manifold_zcl(M, budget)
        b.lower(zcl.lo + 2, "norm subring",
                f"norm-subring cup-length at least {zcl.lo} ({zcl.lo_source})")
    b.upper(2 * n + 1, "dimension cap")
    if M.kind in ("bott", "small_cover") and n > 1:
        _, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
        s = n.bit_length() - 1
        if det_ok and n == (1 << s):
            b.lower(2 * n + 1, "projective exactness",
                    "power-of-two dimension with invertible neighbour matrix")
    return b.report()


def dold_bounds(M: ManifoldDescription, p: Sequence[int],
                budget: int = DEFAULT_BUDGET) -> Tuple[BoundReport, BoundReport, BoundReport]:
    """(cat, TC, TC_S) reports for the twisted product over M."""
    p = tuple(int(x) for x in p)
    if not p or list(p) != sorted(p) or p[0] < 1:
        raise InputError("exponent list must be ascending positive integers")
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
    if M.kind == "sphere":
        zcl_base_lo = sphere_zcl_declared(n)
        zcl_src = "declared sphere value"
    else:
        zb = _manifold_zcl(M, budget)
        zcl_base_lo = zb.lo
        zcl_src = zb.lo_source
    rp = zcl_rp(p1, budget)
    tc.lower(zcl_base_lo + rp.lo + r, "tensor zero-divisor sum",
             f"base bound {zcl_base_lo} ({zcl_src}) plus fibre bound {rp.lo}")
    tc.lower(cl_base + p1 + r, "category floor")
    if M.kind == "sphere":
        tc.upper(2 * (cat_tau + p1 + r) - 1, "invariant cover cap")
    else:
        tc.upper(2 * (n + p1 + r) + 1, "dimension-type cap")
        if r == 1:
            _, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
            if det_ok:
                tc.upper(2 * (n + p1) + 1, "single-factor projective cap",
                         "invertible neighbour matrix, one fibre factor")
    tc.upper(2 * dim_d + 1, "dimension cap")

    tcs = _Builder("TC_S")
    tcs.lower(2, "more than one point")
    tcs.lower(zcl_base_lo + rp.lo + 2 if r == 1 else zcl_base_lo + rp.lo + r,
              "norm subring")
    tcs.upper(2 * dim_d + 1, "dimension cap")
    if M.kind in ("bott", "small_cover") and r == 1:
        _, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
        if det_ok:
            tcs.upper(2 * (n + p1) + 1, "single-factor projective cap")

    return cat.report(flags), tc.report(flags), tcs.report(flags)


@dataclass(frozen=True)
class FamilyResult:
    rule: str
    interval: IntervalValue


def special_family_bounds(dims: Sequence[int]) -> List[FamilyResult]:
    """Closed-form corollaries whose hypotheses the block dimensions satisfy."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise InputError("dims must be a nonempty list of positive integers")
    n = sum(dims)
    m = len(dims)
    out: List[FamilyResult] = []
    general_lo = certificate_length(dims) + 1
    if all(d & (d - 1) == 0 for d in dims):
        out.append(FamilyResult(
            "power-of-two blocks",
            IntervalValue(2 * n - m + 1, 2 * n + 1,
                          "tensor power certificate", "dimension cap"),
        ))
    k = sum(1 for d in dims if d > 1 and d % 2 == 1)
    if all(d > 1 for d in dims) and k:
        out.append(FamilyResult(
            "odd blocks with free circle actions",
            IntervalValue(general_lo, 2 * n - k + 1,
                          "tensor power certificate", "free circle actions"),
        ))
    if all(d >= 3 and ((d - 1) & (d - 2)) == 0 for d in dims):
        out.append(FamilyResult(
            "power-of-two-plus-one blocks",
            IntervalValue(2 * n - 3 * m + 1, 2 * n - m + 1,
                          "tensor power certificate", "free circle actions"),
        ))
    return out
