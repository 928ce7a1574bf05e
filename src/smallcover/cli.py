"""Command-line front end.

One JSON problem document per invocation.  `main` reads the arguments with
the command's own parser, built at import, loads the document, runs the
subcommand's handler and prints its result once, as a plain table or as the
JSON form of the same report.  Exit codes: 0 success, 1 invalid facet
assignment, 2 malformed input, 64 usage.  A reader that closes the pipe
early cuts the output short, quietly, and the exit code stays the command's own.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import partial
from json.encoder import encode_basestring_ascii  # the C encoder where it is built
from typing import Callable, Dict, List, Optional, Tuple

from . import bounds as bounds_mod
from . import charfun, cohomology, gf2, invariants, polytope, sampling
from .errors import BudgetExceeded, CharacteristicError, InputError

EX_USAGE = 64
_BUDGET_RANGE = f"must be a non-negative integer at most {invariants.MAX_EXACT_BUDGET}"


class ProblemSpec:
    """Parsed problem document."""

    def __init__(self, data: Dict):
        if not isinstance(data, dict):
            raise InputError("problem document must be a JSON object")
        self.P = _parse_polytope(data.get("polytope"))
        self.char = data.get("characteristic")
        self.bmat: Optional[charfun.BottMatrix] = None
        self.vectors: Optional[charfun.FacetMasks] = None
        if self.char is not None:
            self.vectors, self.bmat = _parse_characteristic(self.P, self.char)
        inv = data.get("involution")
        self.involution = _involution(inv, self.P.n) if inv is not None else None
        p = _object(data.get("dold"), "dold").get("p")
        # an absent, null or empty exponent list means no Dold section
        p = [] if p is None else _array(p, "dold p")
        self.dold_p = cohomology.dold_exponents(p) if p else None
        flags = _object(data.get("flags"), "flags")
        self.fixed_set_connected = flags.get("fixed_set_connected", False)
        if not isinstance(self.fixed_set_connected, bool):
            raise InputError("fixed_set_connected must be true or false")
        options = _object(data.get("options"), "options")
        self.exact_budget = options.get("exact_budget")
        if self.exact_budget is not None:
            self.exact_budget = _int(self.exact_budget, "exact_budget")
            if not 0 <= self.exact_budget <= invariants.MAX_EXACT_BUDGET:
                raise InputError(f"exact_budget {_BUDGET_RANGE}")
        self.format = options.get("format")
        if self.format not in (None, "table", "json"):
            raise InputError(f"unknown output format {self.format!r}")


def _involution(bits, n: int) -> charfun.GF2Vector:
    g = charfun.parse_bits(bits)
    if len(g) != n:
        raise InputError("involution bit length differs from the dimension")
    return g


def _int(x, field: str) -> int:
    """x, which must be a JSON integer: booleans, numbers with a fraction
    part and strings are refused, not coerced."""
    if type(x) is not int:
        raise InputError(f"{field} must be an integer, not {type(x).__name__}")
    return x


def _object(x, field: str) -> Dict:
    """x, which must be a JSON object; an absent or null one reads as empty."""
    if x is None:
        return {}
    if not isinstance(x, dict):
        raise InputError(f"{field} section must be an object, not {type(x).__name__}")
    return x


def _array(xs, field: str, item: Optional[Callable] = _int) -> List:
    """xs, which must be a JSON array; item, if given, checks each entry."""
    if not isinstance(xs, list):
        raise InputError(f"{field} must be an array, not {type(xs).__name__}")
    return xs if item is None else [item(x, field) for x in xs]


def _parse_polytope(obj) -> polytope.SimplePolytope:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("polytope section must be an object with a type")
    kind = obj["type"]
    if kind == "product_of_simplices":
        return polytope.product_of_simplices(_array(obj["dims"], "dims"))
    if kind == "polygon":
        return polytope.polygon(_int(obj["edges"], "edges"))
    if kind == "explicit":
        return polytope.explicit_polytope(
            _int(obj["n"], "n"), _int(obj["facet_count"], "facet_count"),
            _array(obj["vertices"], "vertices", _array),
        )
    raise InputError(f"unknown polytope type {kind!r}")


def _parse_characteristic(P, obj):
    """-> (vectors as masks, None) or (None, matrix)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("characteristic section must be an object with a type")
    kind = obj["type"]
    if kind == "facet_vectors":
        return charfun.parse_vectors(_array(obj["vectors"], "vectors", None)), None
    if kind == "bott_matrix":
        dims = tuple(_array(obj["dims"], "characteristic dims"))
        if P.family[0] != "product_of_simplices" or P.family[1] != dims:
            raise InputError("bott_matrix dims disagree with the polytope")
        beta = {}
        for key, bits in _object(obj.get("beta"), "beta").items():
            try:
                k, j = map(int, key.split(","))
            except ValueError:
                raise InputError(f"beta key {key!r} is not two integers k,j") from None
            if (k, j) in beta:
                raise InputError(f"beta block {k},{j} is given twice")
            beta[(k, j)] = charfun.parse_bits(bits)
        return None, charfun.BottMatrix.make(dims, beta)
    raise InputError(f"unknown characteristic type {kind!r}")


def _load(path: str) -> ProblemSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or too deep
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
    if spec.char is None:
        raise InputError("this command needs a characteristic section")


def _manifold(spec: ProblemSpec) -> bounds_mod.ManifoldDescription:
    _require_char(spec)
    if spec.bmat is not None:  # the matrix is laid out here, once
        return bounds_mod.bott_manifold(spec.bmat.dims, spec.bmat, spec.involution,
                                        spec.fixed_set_connected, spec.P)
    return bounds_mod.small_cover_manifold(spec.P, spec.vectors, spec.involution,
                                           spec.fixed_set_connected)


def _budget(spec: ProblemSpec, args) -> int:
    if args.exact_budget is not None:
        return args.exact_budget
    if spec.exact_budget is not None:
        return spec.exact_budget
    return invariants.DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# commands: each document command maps (spec, args) to
# (exit code, table lines, JSON payload)

_Result = Tuple[int, List[str], Dict]


def cmd_validate(spec: ProblemSpec, args) -> _Result:
    _require_char(spec)
    B = spec.bmat
    report = charfun.validate(spec.P, spec.vectors if B is None else charfun.from_bott(B))
    payload = {"valid": report.valid,
               "bad_vertices": [list(v) for v in report.bad_vertices]}
    if report.valid:
        return 0, ["valid"], payload
    lines = ["invalid"] + [
        "  vertex on facets " + " ".join(str(f) for f in v)
        for v in report.bad_vertices
    ]
    return 1, lines, payload


def cmd_ring(spec: ProblemSpec, args) -> _Result:
    ring = bounds_mod.manifold_ring(_manifold(spec))
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
    return 0, lines, payload


def cmd_betti(spec: ProblemSpec, args) -> _Result:
    ring = bounds_mod.manifold_ring(_manifold(spec))
    return 0, [" ".join(str(b) for b in ring.betti)], {"betti": list(ring.betti)}


def cmd_cl(spec: ProblemSpec, args) -> _Result:
    cl = invariants.cup_length(bounds_mod.manifold_ring(_manifold(spec)))
    return 0, [f"cup-length = {cl}"], {"cup_length": cl}


def cmd_zcl(spec: ProblemSpec, args) -> _Result:
    M = _manifold(spec)
    if args.certificate_only:
        if M.bmat is None:
            raise InputError("--certificate-only needs a product of simplices")
        cert = invariants.zcl_certificate_bott(M.bmat)
        lines = [f"certificate length = {cert.k}",
                 "surviving terms: " + ", ".join(cert.surviving_terms),
                 f"argument: {cert.argument}"]
        payload = {"certificate_length": cert.k,
                   "surviving_terms": list(cert.surviving_terms)}
        return 0, lines, payload
    iv = bounds_mod.manifold_zcl(M, _budget(spec, args))
    lines = [f"zcl in [{iv.lo}, {iv.hi}]",
             f"  lower: {iv.lo_source}",
             f"  upper: {iv.hi_source}"]
    if iv.witness:
        lines.append("  witness factors:")
        lines += [f"    {w}" for w in iv.witness]
    payload = {"lo": iv.lo, "hi": iv.hi, "lo_source": iv.lo_source,
               "hi_source": iv.hi_source, "witness": list(iv.witness)}
    return 0, lines, payload


# the table names every invariant by its report name, except TC_S
_INVARIANT_LABEL = {"TC_S": "TCs"}


def _report_lines(reports: List[bounds_mod.BoundReport]) -> List[str]:
    lines: List[str] = []
    for rep in reports:
        iv = rep.interval
        name = _INVARIANT_LABEL.get(rep.invariant, rep.invariant)
        lines += [f"{name} ∈ [{iv.lo},{iv.hi}]",
                  f"  lower: {iv.lo_source}",
                  f"  upper: {iv.hi_source}"]
        lines += [f"  assuming: {flag}" for flag in rep.assumed_flags]
    return lines


def _json_text(x, indent: str = "\n") -> str:
    """`json.dumps(x, indent=2, sort_keys=True)` without the pure-Python encoder
    that `indent` selects, keyed on `type(x)`: lists and tuples are arrays."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return int.__repr__(x)
    inner = indent + "  "
    if kind is dict:
        items = []  # a str or int value is written here, without a call
        for k in sorted(x):
            v = x[k]
            items.append(encode_basestring_ascii(k) + ": " + (
                encode_basestring_ascii(v) if type(v) is str else
                int.__repr__(v) if type(v) is int else _json_text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}" if x else "{}"
    if kind is list or kind is tuple:
        items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if x else "[]"
    if isinstance(x, (dict, list, tuple)):  # a subclass, as its base type
        return _json_text(dict(x.items()) if isinstance(x, dict) else list(x), indent)
    return json.dumps(x)  # None, bool, a float, or a str or int subclass


def cmd_bounds(spec: ProblemSpec, args) -> _Result:
    # the flags override the document, through the same check, before the
    # description (and its ring) is built once
    if args.involution:
        spec.involution = _involution(args.involution, spec.P.n)
    spec.fixed_set_connected = spec.fixed_set_connected or args.assume_fixed_set_connected
    M = _manifold(spec)
    budget = _budget(spec, args)
    which = args.invariant
    reports: List[bounds_mod.BoundReport] = []
    if which in ("cat", "all"):
        reports.append(bounds_mod.cat_bounds(M))
    if which in ("tc", "all"):
        reports.append(bounds_mod.tc_bounds(M, budget))
    if which in ("tcs", "all"):
        reports.append(bounds_mod.symm_tc_bounds(M, budget))
    if which == "cateq" and M.involution is None:
        raise InputError("cateq needs an involution bitstring")
    # eq_cat_bounds refuses a zero involution itself
    if which == "cateq" or (which == "all" and any(M.involution or ())):
        reports.append(bounds_mod.eq_cat_bounds(M))
    return 0, _report_lines(reports), {"reports": [rep.to_json() for rep in reports]}


def cmd_dold(spec: ProblemSpec, args) -> _Result:
    M = _manifold(spec)
    p = spec.dold_p
    if args.dold:
        try:
            p = tuple(int(x) for x in args.dold.split(","))
        except ValueError:
            raise InputError(f"--dold needs comma-separated integers, got {args.dold!r}")
    if not p:
        raise InputError("dold needs an exponent list (--dold or the dold section)")
    reports = bounds_mod.dold_bounds(M, p, _budget(spec, args))
    payload = {"p": list(p), "reports": [rep.to_json() for rep in reports]}
    return 0, _report_lines(reports), payload


# ---------------------------------------------------------------------------
# verification sweeps: each suite yields one outcome per case, "" when it
# passes, its failure text when it fails, and None for a random draw it skips

# draws per random facet assignment before a sweep skips the polytope
_SAMPLER_TRIES = 400
# most towers the lemma suite sweeps, about a minute at the default sweep's
# rate: (4, 3) has 2 063 925 and (4, 4) 190 984 924
_LEMMA_MAX_TOWERS = 1 << 20


def _suite_lemma(max_m: int, max_n: int, _rng):
    # counted first: the sum over m of prod_{k < m} sum_{n <= max_n} 2^{kn},
    # exact while max_m, max_n <= 22; cut to 22, a larger one still passes
    # the cap (2^{22} from block k = 1, or 2^{231} at m = 22)
    total, count, cut = 0, 1, _LEMMA_MAX_TOWERS.bit_length() + 1
    for k in range(min(max_m, cut)):
        count *= sum(1 << k * n for n in range(1, min(max_n, cut) + 1)) if k else max_n
        total += count
    if total > _LEMMA_MAX_TOWERS:
        raise InputError(f"the lemma suite would sweep more than {_LEMMA_MAX_TOWERS} "
                         f"towers at --max-m {max_m} --max-n {max_n}")
    for m in range(1, max_m + 1):
        for dims, B in sampling.all_bott_matrices(m, max_n):
            ok = cohomology.verify_top_monomial(B)
            yield "" if ok else f"dims={list(dims)} beta={dict(B.beta)}"


def _random_ring(rng: random.Random, build: Callable[[], polytope.SimplePolytope]):
    """The ring of P = build() on facet vectors drawn at random, or None for
    a draw the sampler gives up on or a command would refuse: building P, or
    listing its vertices before the first draw, raises InputError."""
    try:
        P = build()
        lam = sampling.random_characteristic(P, rng, _SAMPLER_TRIES)
    except InputError:
        return None
    return None if lam is None else cohomology.SmallCoverRing(P, lam)


def _suite_betti(max_m: int, max_n: int, rng: random.Random):
    builds = [partial(polytope.product_of_simplices, sampling.random_dims(rng, max_m, max_n))
              for _ in range(10)]
    builds += [partial(polytope.polygon, k) for k in range(3, 9)]
    for build in builds:
        ring = _random_ring(rng, build)
        if ring is None:
            yield None
            continue
        h, betti = polytope.h_vector(ring.P).h, ring.algebra().betti
        yield "" if betti == h else f"{ring.P.family}: betti {betti} != h {h}"


def _suite_duality(max_m: int, max_n: int, rng: random.Random):
    for _ in range(8):
        dims = sampling.random_dims(rng, max_m, max_n)
        ring = _random_ring(rng, partial(polytope.product_of_simplices, dims))
        if ring is None:
            yield None
            continue
        rep = cohomology.poincare_pairing(ring)
        yield "" if rep.nondegenerate else f"dims={list(dims)}: degenerate pairing {rep.by_degree}"


# longest certificate the certificate suite expands: the oracle multiplies
# out up to 2^k tensor terms, so longer draws are skipped
_CERTIFICATE_MAX_LENGTH = 20


def _suite_certificate(max_m: int, max_n: int, rng: random.Random):
    for _ in range(8):
        dims = sampling.random_dims(rng, max_m, max_n)
        B = sampling.random_bott_matrix(dims, rng)
        k = invariants.certificate_length(dims)
        if k > _CERTIFICATE_MAX_LENGTH:
            yield None
            continue
        cert = invariants.zcl_certificate_bott(B)
        ok = cert.k == k and invariants.verify_certificate(cohomology.BottRing(B), cert)
        yield "" if ok else f"dims={list(dims)} beta={dict(B.beta)}"


def _suite_binom(_max_m, _max_n, _rng):
    row = [1]  # Pascal's row k mod 2
    for k in range(65):
        for i in range(k + 1):
            yield "" if gf2.binom_odd(k, i) == bool(row[i]) else f"C({k},{i})"
        row = [a ^ b for a, b in zip([0] + row, row + [0])]


_SUITES = {
    "lemma": _suite_lemma,
    "betti": _suite_betti,
    "duality": _suite_duality,
    "certificate": _suite_certificate,
    "binom": _suite_binom,
}


def cmd_verify(args) -> Tuple[int, List[str]]:
    """Runs the sweeps, one output line per suite; reads no document."""
    rng = random.Random(args.seed)
    lines, failed = [], False
    for name in [args.suite] if args.suite else _SUITES:
        count = skipped = 0
        fail = ""  # the first failure's text
        for outcome in _SUITES[name](args.max_m, args.max_n, rng):
            if outcome is None:
                skipped += 1
            else:
                count += 1
                fail = fail or outcome
        cases = f"{count} cases"
        if skipped:
            cases += f", {skipped} draw{'s' if skipped > 1 else ''} skipped"
        lines.append(f"{name}: {cases}, " + (f"FAIL ({fail})" if fail else "pass"))
        failed |= bool(fail)
    return int(failed), lines


# ---------------------------------------------------------------------------
# argument parsing


def _in_range(low: int, high: Optional[int], words: str) -> Callable[[str], int]:
    """An option type: an integer from low up to high, if given, as words say."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{words}, got {text!r}")
        return value
    return parse


_positive = _in_range(1, None, "must be a positive integer")
_exact_budget = _in_range(0, invariants.MAX_EXACT_BUDGET, _BUDGET_RANGE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallcover",
        description="cohomology rings and category/complexity bounds for small covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # each command's own parser, by name

    def document(name, run, help, exact_budget=False):
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("problem", help="JSON problem file")
        p.add_argument("--format", choices=["table", "json"], default=None)
        if exact_budget:
            p.add_argument("--exact-budget", dest="exact_budget", type=_exact_budget,
                           default=None)
        return p

    document("validate", cmd_validate, "check the facet vector assignment")
    document("ring", cmd_ring, "generators, relations and betti numbers")
    document("betti", cmd_betti, "graded dimensions only")
    document("cl", cmd_cl, "cup-length")
    p = document("zcl", cmd_zcl, "zero-divisor-cup-length interval", exact_budget=True)
    p.add_argument("--certificate-only", action="store_true")
    p = document("bounds", cmd_bounds, "interval bounds with certificate trails",
                 exact_budget=True)
    p.add_argument("--invariant", choices=["cat", "tc", "tcs", "cateq", "all"],
                   default="all")
    p.add_argument("--assume-fixed-set-connected", action="store_true")
    p.add_argument("--involution", default=None, metavar="BITS")
    p = document("dold", cmd_dold, "bounds for the twisted sphere product",
                 exact_budget=True)
    p.add_argument("--dold", default=None, metavar="P1,P2,...")
    p = parser.commands["verify"] = sub.add_parser(
        "verify", help="run the built-in verification sweeps")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--suite", choices=sorted(_SUITES), default=None)
    p.add_argument("--max-m", dest="max_m", type=_positive, default=3)
    p.add_argument("--max-n", dest="max_n", type=_positive, default=3)
    p.add_argument("--seed", type=int, default=0)
    return parser


# argparse keeps no state between parse_args calls, so one parser serves all
_PARSER = build_parser()


def _args(argv: List[str]) -> argparse.Namespace:
    """argv as its command's own parser reads it; the top-level parser, which
    writes every usage text, reads one that names no command or leaves words."""
    own = _PARSER.commands.get(argv[0]) if argv else None
    args, extra = own.parse_known_args(argv[1:]) if own else (None, None)
    return args if own and not extra else _PARSER.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        if args.run is cmd_verify:
            code, lines = args.run(args)
        else:
            spec = _load(args.problem)
            code, lines, payload = args.run(spec, args)
            if (args.format or spec.format) == "json":
                lines = [_json_text(payload)]
    except CharacteristicError as exc:
        print(f"invalid characteristic: {exc}", file=sys.stderr)
        return 1
    except (InputError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: the rest, and the flush at exit, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
