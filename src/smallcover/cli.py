"""Command-line front end.

One JSON problem document per invocation; commands dispatch into the library
and render either a plain table or the JSON form of the same report.  Exit
codes: 0 success, 1 invalid facet assignment, 2 malformed input, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from typing import Dict, List, Optional, Tuple

from . import bounds as bounds_mod
from . import charfun, cohomology, invariants, polytope
from .errors import BudgetExceeded, CharacteristicError, InputError, ReductionFailed

EX_USAGE = 64


class ProblemSpec:
    """Parsed problem document."""

    def __init__(self, data: Dict):
        if not isinstance(data, dict):
            raise InputError("problem document must be a JSON object")
        self.P = _parse_polytope(data.get("polytope"))
        self.char = data.get("characteristic")
        self.dims: Optional[Tuple[int, ...]] = None
        self.bmat: Optional[charfun.BottMatrix] = None
        self.vectors: Optional[Tuple[charfun.GF2Vector, ...]] = None
        if self.char is not None:
            self.vectors, self.dims, self.bmat = _parse_characteristic(self.P, self.char)
        inv = data.get("involution")
        self.involution = charfun.parse_bits(inv) if inv is not None else None
        if self.involution is not None and len(self.involution) != self.P.n:
            raise InputError("involution bit length differs from the dimension")
        dold = data.get("dold") or {}
        if dold and not isinstance(dold, dict):
            raise InputError("dold section must be an object")
        p = dold.get("p") if dold else None
        if p is not None:
            p = [int(x) for x in p]
            if p != sorted(p) or (p and p[0] < 1):
                raise InputError("dold exponents must be ascending positive integers")
        self.dold_p = tuple(p) if p else None
        flags = data.get("flags") or {}
        self.fixed_set_connected = bool(flags.get("fixed_set_connected", False))
        options = data.get("options") or {}
        self.exact_budget = options.get("exact_budget")
        if self.exact_budget is not None:
            self.exact_budget = int(self.exact_budget)
        self.format = options.get("format")
        if self.format not in (None, "table", "json"):
            raise InputError(f"unknown output format {self.format!r}")


def _parse_polytope(obj) -> polytope.SimplePolytope:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("polytope section must be an object with a type")
    kind = obj["type"]
    if kind == "product_of_simplices":
        return polytope.product_of_simplices([int(d) for d in obj["dims"]])
    if kind == "polygon":
        return polytope.polygon(int(obj["edges"]))
    if kind == "explicit":
        return polytope.explicit_polytope(
            int(obj["n"]), int(obj["facet_count"]),
            [[int(f) for f in v] for v in obj["vertices"]],
        )
    raise InputError(f"unknown polytope type {kind!r}")


def _parse_characteristic(P, obj):
    """-> (vectors, dims-or-None, matrix-or-None)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("characteristic section must be an object with a type")
    kind = obj["type"]
    if kind == "facet_vectors":
        vectors = tuple(charfun.parse_bits(s) for s in obj["vectors"])
        return vectors, None, None
    if kind == "bott_matrix":
        dims = tuple(int(d) for d in obj["dims"])
        if P.family[0] != "product_of_simplices" or P.family[1] != dims:
            raise InputError("bott_matrix dims disagree with the polytope")
        beta = {}
        for key, bits in (obj.get("beta") or {}).items():
            k, j = (int(x) for x in key.split(","))
            beta[(k, j)] = charfun.parse_bits(bits)
        B = charfun.BottMatrix.make(dims, beta)
        return tuple(charfun.from_bott(dims, B)), dims, B
    raise InputError(f"unknown characteristic type {kind!r}")


def _load(path: str) -> ProblemSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem file: {exc}")
    try:
        return ProblemSpec(data)
    except (InputError, CharacteristicError):
        raise
    except KeyError as exc:
        raise InputError(f"malformed problem document: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc


def _require_char(spec: ProblemSpec):
    if spec.vectors is None:
        raise InputError("this command needs a characteristic section")


def _manifold(spec: ProblemSpec) -> bounds_mod.ManifoldDescription:
    _require_char(spec)
    if spec.bmat is not None:
        # the parsed polytope and vectors already came from dims and the matrix
        return bounds_mod.ManifoldDescription(
            "bott", spec.P.n, spec.P, spec.vectors, spec.dims, spec.bmat,
            spec.involution, spec.fixed_set_connected)
    return bounds_mod.small_cover_manifold(spec.P, spec.vectors, spec.involution,
                                           spec.fixed_set_connected)


def _ring(spec: ProblemSpec) -> cohomology.Ring:
    _require_char(spec)
    if spec.bmat is not None:
        return cohomology.BottRing(spec.dims, spec.bmat)
    return cohomology.SmallCoverRing(spec.P, spec.vectors)


def _budget(spec: ProblemSpec, args) -> int:
    if getattr(args, "exact_budget", None) is not None:
        return args.exact_budget
    if spec.exact_budget is not None:
        return spec.exact_budget
    env = os.environ.get("SMALLCOVER_EXACT_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"SMALLCOVER_EXACT_BUDGET is not an integer: {env!r}")
    return invariants.DEFAULT_BUDGET


def _format(spec: ProblemSpec, args) -> str:
    return getattr(args, "format", None) or spec.format or "table"


def _emit(fmt: str, table_lines: List[str], payload: Dict) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    spec = _load(args.problem)
    _require_char(spec)
    report = charfun.validate(spec.P, spec.vectors)
    fmt = _format(spec, args)
    payload = {"valid": report.valid,
               "bad_vertices": [list(v) for v in report.bad_vertices]}
    if report.valid:
        _emit(fmt, ["valid"], payload)
        return 0
    lines = ["invalid"] + [
        "  vertex on facets " + " ".join(str(f) for f in v)
        for v in report.bad_vertices
    ]
    _emit(fmt, lines, payload)
    return 1


def cmd_ring(args) -> int:
    spec = _load(args.problem)
    ring = _ring(spec)
    fmt = _format(spec, args)
    gens = [f"{name} (deg {d})" for name, d in ring.generators]
    lines = ["generators: " + ", ".join(gens),
             "relations:"]
    lines += [f"  {r}" for r in ring.relations_text]
    lines.append("betti: " + " ".join(str(b) for b in ring.betti))
    payload = {
        "kind": ring.kind,
        "generators": [{"name": n, "degree": d} for n, d in ring.generators],
        "relations": list(ring.relations_text),
        "betti": list(ring.betti),
    }
    _emit(fmt, lines, payload)
    return 0


def cmd_betti(args) -> int:
    spec = _load(args.problem)
    ring = _ring(spec)
    fmt = _format(spec, args)
    _emit(fmt, [" ".join(str(b) for b in ring.betti)], {"betti": list(ring.betti)})
    return 0


def cmd_cl(args) -> int:
    spec = _load(args.problem)
    ring = _ring(spec)
    fmt = _format(spec, args)
    cl = invariants.cup_length(ring)
    _emit(fmt, [f"cup-length = {cl}"], {"cup_length": cl})
    return 0


def cmd_zcl(args) -> int:
    spec = _load(args.problem)
    ring = _ring(spec)
    fmt = _format(spec, args)
    budget = _budget(spec, args)
    if args.certificate_only:
        if spec.bmat is None:
            raise InputError("--certificate-only needs a bott_matrix characteristic")
        cert = invariants.zcl_certificate_bott(spec.dims, spec.bmat)
        lines = [f"certificate length = {cert.k}",
                 "surviving terms: " + ", ".join(cert.surviving_terms)]
        payload = {"certificate_length": cert.k,
                   "surviving_terms": list(cert.surviving_terms)}
        _emit(fmt, lines, payload)
        return 0
    iv = invariants.zcl_interval(ring, budget)
    lines = [f"zcl in [{iv.lo}, {iv.hi}]",
             f"  lower: {iv.lo_source}",
             f"  upper: {iv.hi_source}"]
    if iv.witness:
        lines.append("  witness factors:")
        lines += [f"    {w}" for w in iv.witness]
    payload = {"lo": iv.lo, "hi": iv.hi, "lo_source": iv.lo_source,
               "hi_source": iv.hi_source, "witness": list(iv.witness)}
    _emit(fmt, lines, payload)
    return 0


_INVARIANT_LABEL = {"cat": "cat", "TC": "TC", "TC_S": "TCs", "cat_eq": "cat_eq"}


def _report_lines(rep: bounds_mod.BoundReport) -> List[str]:
    name = _INVARIANT_LABEL.get(rep.invariant, rep.invariant)
    iv = rep.interval
    lines = [f"{name} ∈ [{iv.lo},{iv.hi}]",
             f"  lower: {iv.lo_source}",
             f"  upper: {iv.hi_source}"]
    for flag in rep.assumed_flags:
        lines.append(f"  assuming: {flag}")
    return lines


def cmd_bounds(args) -> int:
    spec = _load(args.problem)
    M = _manifold(spec)
    if args.assume_fixed_set_connected or args.involution:
        inv = charfun.parse_bits(args.involution) if args.involution else M.involution
        M = dataclasses.replace(
            M, involution=inv,
            fixed_set_connected=M.fixed_set_connected or args.assume_fixed_set_connected,
        )
    fmt = _format(spec, args)
    budget = _budget(spec, args)
    which = args.invariant
    reports: List[bounds_mod.BoundReport] = []
    if which in ("cat", "all"):
        reports.append(bounds_mod.cat_bounds(M))
    if which in ("tc", "all"):
        reports.append(bounds_mod.tc_bounds(M, budget))
    if which in ("tcs", "all"):
        reports.append(bounds_mod.symm_tc_bounds(M, budget))
    if which in ("cateq", "all"):
        if M.involution is not None and any(M.involution):
            reports.append(bounds_mod.eq_cat_bounds(M))
        elif which == "cateq":
            raise InputError("cateq needs an involution bitstring")
    lines: List[str] = []
    for rep in reports:
        lines += _report_lines(rep)
    payload = {"reports": [rep.to_json() for rep in reports]}
    _emit(fmt, lines, payload)
    return 0


def cmd_dold(args) -> int:
    spec = _load(args.problem)
    M = _manifold(spec)
    p = spec.dold_p
    if args.dold:
        try:
            p = tuple(int(x) for x in args.dold.split(","))
        except ValueError:
            raise InputError(f"--dold needs comma-separated integers, got {args.dold!r}")
    if not p:
        raise InputError("dold needs an exponent list (--dold or the dold section)")
    fmt = _format(spec, args)
    budget = _budget(spec, args)
    cat, tc, tcs = bounds_mod.dold_bounds(M, p, budget)
    lines: List[str] = []
    for rep in (cat, tc, tcs):
        lines += _report_lines(rep)
    payload = {"p": list(p), "reports": [rep.to_json() for rep in (cat, tc, tcs)]}
    _emit(fmt, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# verification sweeps


def _all_bott_matrices(m: int, max_n: int):
    """All Bott matrices with exactly m blocks and block dimensions <= max_n."""
    from itertools import product as iproduct

    for dims in iproduct(range(1, max_n + 1), repeat=m):
        slots = [(k, j) for k in range(2, m + 1) for j in range(1, k)]
        widths = [dims[k - 1] for k, _ in slots]
        total = sum(widths)
        for bits in range(1 << total):
            beta = {}
            off = 0
            for (k, j), w in zip(slots, widths):
                chunk = tuple((bits >> (off + i)) & 1 for i in range(w))
                off += w
                if any(chunk):
                    beta[(k, j)] = chunk
            yield dims, charfun.BottMatrix.make(dims, beta)


def _suite_lemma(max_m: int, max_n: int, corrupt: bool):
    count, fail = 0, None
    for m in range(1, max_m + 1):
        for dims, B in _all_bott_matrices(m, max_n):
            count += 1
            ok = cohomology.verify_top_monomial(dims, B)
            if corrupt and count == 1:
                ok = False  # fault injection hook for tests
            if not ok and fail is None:
                fail = f"dims={list(dims)} beta={dict(B.beta)}"
    return count, 0, fail


def _suite_betti(max_m: int, max_n: int, rng: random.Random):
    count, skipped, fail = 0, 0, None
    cases = []
    for _ in range(10):
        m = rng.randint(1, max_m)
        dims = tuple(rng.randint(1, max_n) for _ in range(m))
        cases.append(polytope.product_of_simplices(dims))
    cases += [polytope.polygon(k) for k in range(3, 9)]
    for P in cases:
        lam = _random_characteristic(P, rng)
        if lam is None:
            skipped += 1
            continue
        count += 1
        ring = cohomology.SmallCoverRing(P, lam)
        h = polytope.h_vector(P).h
        if tuple(ring.betti) != h and fail is None:
            fail = f"{P.family}: betti {ring.betti} != h {h}"
    return count, skipped, fail


def _suite_duality(max_m: int, max_n: int, rng: random.Random):
    count, skipped, fail = 0, 0, None
    for _ in range(8):
        m = rng.randint(1, max_m)
        dims = tuple(rng.randint(1, max_n) for _ in range(m))
        P = polytope.product_of_simplices(dims)
        lam = _random_characteristic(P, rng)
        if lam is None:
            skipped += 1
            continue
        count += 1
        rep = cohomology.poincare_pairing(cohomology.SmallCoverRing(P, lam))
        if not rep.nondegenerate and fail is None:
            fail = f"dims={list(dims)}: degenerate pairing {rep.by_degree}"
    return count, skipped, fail


def _suite_certificate(max_m: int, max_n: int, rng: random.Random):
    count, fail = 0, None
    for _ in range(8):
        m = rng.randint(1, max_m)
        dims = tuple(rng.randint(1, max_n) for _ in range(m))
        beta = {}
        for k in range(2, m + 1):
            for j in range(1, k):
                chunk = tuple(rng.randint(0, 1) for _ in range(dims[k - 1]))
                if any(chunk):
                    beta[(k, j)] = chunk
        B = charfun.BottMatrix.make(dims, beta)
        count += 1
        cert = invariants.zcl_certificate_bott(dims, B)
        ring = cohomology.BottRing(dims, B)
        ok = (cert.k == invariants.certificate_length(dims)
              and invariants.verify_certificate(ring, cert))
        if not ok and fail is None:
            fail = f"dims={list(dims)} beta={beta}"
    return count, 0, fail


def _suite_binom(_max_m, _max_n, _rng):
    count, fail = 0, None
    pascal = [[1]]
    for k in range(1, 65):
        prev = pascal[-1]
        pascal.append([1] + [(prev[i - 1] + prev[i]) % 2 for i in range(1, k)] + [1])
    for k in range(65):
        for i in range(k + 1):
            count += 1
            if invariants.binom_odd(k, i) != bool(pascal[k][i]) and fail is None:
                fail = f"C({k},{i})"
    return count, 0, fail


def _random_characteristic(P: polytope.SimplePolytope, rng: random.Random,
                           tries: int = 400):
    """Random valid facet vectors, or None if sampling keeps failing."""
    n = P.n
    nonzero = [tuple((v >> i) & 1 for i in range(n)) for v in range(1, 1 << n)]
    first = sorted(P.vertices[0])
    for _ in range(tries):
        vectors = [rng.choice(nonzero) for _ in range(P.facet_count)]
        # make the first vertex a basis to help the success rate
        for i, f in enumerate(first):
            vectors[f] = tuple(1 if c == i else 0 for c in range(n))
        if charfun.validate(P, vectors).valid:
            return tuple(vectors)
    return None


_SUITES = {
    "lemma": None,  # handled separately (fault-injection flag)
    "betti": _suite_betti,
    "duality": _suite_duality,
    "certificate": _suite_certificate,
    "binom": _suite_binom,
}


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else ["lemma", "betti", "duality",
                                             "certificate", "binom"]
    rng = random.Random(args.seed)
    failed = False
    for name in names:
        if name not in _SUITES:
            raise InputError(f"unknown suite {name!r}")
        if name == "lemma":
            count, skipped, fail = _suite_lemma(args.max_m, args.max_n, args.inject_fault)
        else:
            count, skipped, fail = _SUITES[name](args.max_m, args.max_n, rng)
        cases = f"{count} cases"
        if skipped:
            cases += f", {skipped} draw{'s' if skipped > 1 else ''} skipped"
        if fail is None:
            print(f"{name}: {cases}, pass")
        else:
            print(f"{name}: {cases}, FAIL ({fail})")
            failed = True
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcover",
        description="cohomology rings and category/complexity bounds for small covers",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, problem=True):
        if problem:
            p.add_argument("problem", help="JSON problem file")
        p.add_argument("--format", choices=["table", "json"], default=None)
        p.add_argument("--exact-budget", dest="exact_budget", type=int, default=None)

    common(sub.add_parser("validate", help="check the facet vector assignment"))
    common(sub.add_parser("ring", help="generators, relations and betti numbers"))
    common(sub.add_parser("betti", help="graded dimensions only"))
    common(sub.add_parser("cl", help="cup-length"))
    p = sub.add_parser("zcl", help="zero-divisor-cup-length interval")
    common(p)
    p.add_argument("--certificate-only", action="store_true")
    p = sub.add_parser("bounds", help="interval bounds with certificate trails")
    common(p)
    p.add_argument("--invariant", choices=["cat", "tc", "tcs", "cateq", "all"],
                   default="all")
    p.add_argument("--assume-fixed-set-connected", action="store_true")
    p.add_argument("--involution", default=None, metavar="BITS")
    p = sub.add_parser("dold", help="bounds for the twisted sphere product")
    common(p)
    p.add_argument("--dold", default=None, metavar="P1,P2,...")
    p = sub.add_parser("verify", help="run the built-in verification sweeps")
    p.add_argument("--suite", choices=sorted(_SUITES), default=None)
    p.add_argument("--max-m", dest="max_m", type=int, default=3)
    p.add_argument("--max-n", dest="max_n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


_DISPATCH = {
    "validate": cmd_validate,
    "ring": cmd_ring,
    "betti": cmd_betti,
    "cl": cmd_cl,
    "zcl": cmd_zcl,
    "bounds": cmd_bounds,
    "dold": cmd_dold,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] not in _DISPATCH and not argv[0].startswith("-"):
        print(f"unknown command {argv[0]!r}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        return _DISPATCH[args.command](args)
    except CharacteristicError as exc:
        print(f"invalid characteristic: {exc}", file=sys.stderr)
        return 1
    except (InputError, ReductionFailed, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
