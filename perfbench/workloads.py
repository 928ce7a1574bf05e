"""The three workloads: seeded inputs, one operation, and its checks.

Each workload is a round of at least 100 operations of one kind whose make-up
(shapes, commands, counts, order) is fixed and whose details (twisting bits,
block order, facet vectors; the order of the survey) come from the seed.
The number of validate calls per op and the projective dimensions do not
depend on the seed, since their cost would move the latency percentiles.  `make_round` builds the inputs outside
any timed interval, `op` is the timed call into smallcover, and `check`
judges the outputs against `oracles` afterwards: it returns "" when they
hold.  Every program call goes through a module attribute (`bounds.tc_bounds`,
not a local alias) so that a traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import product
from math import prod
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from smallcover import bounds, charfun, cli, cohomology, polytope

import oracles


class OpFailed(Exception):
    """The program refused an input the benchmark expects it to accept."""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _random_beta(rng: random.Random, dims: Sequence[int]) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    beta = {}
    for k in range(2, len(dims) + 1):
        for j in range(1, k):
            bits = tuple(rng.randint(0, 1) for _ in range(dims[k - 1]))
            if any(bits):
                beta[(k, j)] = bits
    return beta


def _interval(report) -> Tuple[int, int]:
    return report.interval.lo, report.interval.hi


def _chain(*values: int) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


# A check failure that starts with this tag is a known program fault: the op
# counts as failed, but `correct` stays true.  There is one such fault.
KNOWN_FAULT = "known fault: "


def _check_dold(name: str, dim: int, cat, tc, tcs) -> str:
    """Dold-type product of dimension dim: cat <= dim + 1, cat <= TC <= TC_S,
    and both complexities at most 2 dim + 1."""
    if not (_chain(*cat, dim + 1) and _chain(cat[0], *tc)
            and _chain(tc[0], *tcs, 2 * dim + 1)):
        return f"{name}: Dold cat {cat} TC {tc} TC_S {tcs} (dim {dim})"
    if tc[1] > 2 * dim + 1:
        # dold_bounds caps TC at 2(n + p1 + r) + 1 and never at 2 dim + 1
        return f"{KNOWN_FAULT}{name}: Dold TC upper end {tc[1]} > 2 dim + 1 = {2 * dim + 1}"
    return ""


# ---------------------------------------------------------------------------
# tower_survey: every real Bott tower with m <= 3, n_j <= 3, ring dim <= 12


def _all_towers():
    for m in (1, 2, 3):
        for dims in product(range(1, 4), repeat=m):
            if prod(d + 1 for d in dims) > 12:
                continue
            slots = [(k, j) for k in range(2, m + 1) for j in range(1, k)]
            width = sum(dims[k - 1] for k, _ in slots)
            for bits in range(1 << width):
                beta, off = {}, 0
                for k, j in slots:
                    chunk = tuple((bits >> (off + i)) & 1 for i in range(dims[k - 1]))
                    off += dims[k - 1]
                    if any(chunk):
                        beta[(k, j)] = chunk
                yield dims, beta


class TowerSurvey:
    name = "tower_survey"
    round_seconds = 27.0  # one round on the reference host (see README)

    def make_round(self, seed: int, index: int, workdir: Path) -> List:
        towers = list(_all_towers())
        _rng(self.name, seed, index).shuffle(towers)
        return [(dims, beta, charfun.BottMatrix.make(dims, beta)) for dims, beta in towers]

    def op(self, item):
        dims, _, B = item
        M = bounds.bott_manifold(dims, B)
        return (bounds.cat_bounds(M), bounds.tc_bounds(M), bounds.symm_tc_bounds(M),
                bounds.dold_bounds(M, (1,)))

    def check(self, item, result) -> str:
        dims, beta, _ = item
        cat, tc, tcs, (dcat, dtc, dtcs) = result
        n = sum(dims)
        if _interval(cat) != (n + 1, n + 1):
            return f"{dims}: cat {_interval(cat)} != [{n + 1}, {n + 1}]"
        lo, hi = _interval(tc)
        if not _chain(n + 1, lo, hi, 2 * n + 1):
            return f"{dims}: TC [{lo}, {hi}] outside [{n + 1}, {2 * n + 1}]"
        # within the exact budget TC's lower end is exact zcl + 1
        zcl = lo - 1
        if not beta and zcl != oracles.zcl_untwisted(dims):
            return f"{dims}: exact zcl {zcl} != {oracles.zcl_untwisted(dims)}"
        if beta and not _chain(oracles.certificate_length(dims), zcl, 2 * n):
            return f"{dims} {beta}: exact zcl {zcl} below the certificate or above 2n"
        witness = tc.interval.witness
        if tc.interval.lo_source == "exact kernel search" or witness:
            if len(witness) != zcl:
                return f"{dims} {beta}: witness has {len(witness)} factors, zcl is {zcl}"
            problem = oracles.witness_problem(oracles.BottArithmetic(dims, beta), witness)
            if problem:
                return f"{dims} {beta}: {problem}"
        if not _chain(lo, *_interval(tcs), 2 * n + 1):
            return f"{dims}: TC_S {_interval(tcs)} against TC [{lo}, {hi}]"
        return _check_dold(str(dims), n + 1, _interval(dcat), _interval(dtc),
                           _interval(dtcs))


# ---------------------------------------------------------------------------
# tower_cli: problem documents above the exact budget, through cli.main

PAPER_TC = {(16, 8): (47, 49), (16, 9): (47, 50), (17, 8): (47, 50), (17, 9): (47, 51)}
# fixed projective dimensions: their ops sit around the p90, which a seeded
# dimension would move with the seed; n >= 13 keeps RP^{n-1} above the exact
# budget as well
RP_DIMS = (14, 18, 23, 30, 37, 46)
# twisted towers: fixed block multisets, seeded order and twisting; blocks of
# size 2 (the only ones whose certificate powers need reduction) are kept to
# one per tower so the certificate cost does not swing with the seed
TWISTED_BLOCKS = (
    (1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1), (1, 1, 1, 1, 1), (3, 3, 1, 1),
    (2, 3, 1, 1), (1, 1, 1, 1, 1, 1), (3, 1, 3, 1, 1), (2, 1, 1, 1, 1, 1),
    (3, 3, 3, 1), (1,) * 7, (3, 3, 1, 1, 1, 1), (2, 3, 3, 1, 1), (1,) * 8,
    (3, 3, 3, 3), (3, 3, 3, 1, 1, 1), (3,) * 6, (3,) * 8,
)
# assigned by position, not drawn: which Dold ops hit the known fault depends
# on the exponents, and the failed share must not depend on the seed
DOLD_EXPONENTS = ((1,), (2,), (3,), (1, 2), (2, 2), (1, 3))
COMMANDS = (("bounds", "--invariant", "all"), ("dold",), ("zcl",))


def _bott_document(dims, beta) -> Dict:
    return {
        "polytope": {"type": "product_of_simplices", "dims": list(dims)},
        "characteristic": {
            "type": "bott_matrix", "dims": list(dims),
            "beta": {f"{k},{j}": "".join(map(str, bits)) for (k, j), bits in beta.items()},
        },
    }


def _rp_facet_document(n: int) -> Dict:
    vectors = ["".join("1" if c == i else "0" for c in range(n)) for i in range(n)]
    return {
        "polytope": {"type": "product_of_simplices", "dims": [n]},
        "characteristic": {"type": "facet_vectors", "vectors": vectors + ["1" * n]},
    }


class TowerCli:
    name = "tower_cli"
    round_seconds = 6.5

    def make_round(self, seed: int, index: int, workdir: Path) -> List:
        rng = _rng(self.name, seed, index)
        problems = []  # (document, dims, beta or None for facet vectors)
        for dims in PAPER_TC:
            problems.append((_bott_document(dims, {}), dims, {}))
        for n in RP_DIMS:
            problems.append((_bott_document((n,), {}), (n,), {}))
            problems.append((_rp_facet_document(n), (n,), None))
        for blocks in TWISTED_BLOCKS:
            dims = list(blocks)
            rng.shuffle(dims)
            dims = tuple(dims)
            beta = _random_beta(rng, dims)
            problems.append((_bott_document(dims, beta), dims, beta))
        items = []
        for i, (doc, dims, beta) in enumerate(problems):
            p = DOLD_EXPONENTS[i % len(DOLD_EXPONENTS)]
            doc["dold"] = {"p": list(p)}
            path = workdir / f"round{index}-{i}.json"
            path.write_text(json.dumps(doc))
            for command in COMMANDS:
                argv = [command[0], str(path), "--format", "json", *command[1:]]
                items.append((argv, dims, beta, p))
        return items

    def op(self, item):
        argv = item[0]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, item, result) -> str:
        argv, dims, beta, p = item
        command = argv[0]
        n = sum(dims)
        name = f"{command} {dims}"
        data = json.loads(result)
        if command == "zcl":
            lo, hi = data["lo"], data["hi"]
            if not _chain(lo, hi, 2 * n):
                return f"{name}: zcl [{lo}, {hi}] not within [.., {2 * n}]"
            if beta is not None and not _chain(oracles.certificate_length(dims), lo):
                return f"{name}: zcl lower end {lo} below the certificate"
            if not beta and not _chain(lo, oracles.zcl_untwisted(dims), hi):
                return f"{name}: zcl [{lo}, {hi}] misses {oracles.zcl_untwisted(dims)}"
            return ""
        reports = {r["invariant"]: (r["lo"], r["hi"]) for r in data["reports"]}
        if command == "bounds":
            (clo, chi), (lo, hi), (slo, shi) = reports["cat"], reports["TC"], reports["TC_S"]
            if (clo, chi) != (n + 1, n + 1):
                return f"{name}: cat [{clo}, {chi}] != [{n + 1}, {n + 1}]"
            if not _chain(n + 1, lo, hi, 2 * n + 1):
                return f"{name}: TC [{lo}, {hi}] outside [{n + 1}, {2 * n + 1}]"
            if not _chain(lo, slo, shi, 2 * n + 1):
                return f"{name}: TC_S [{slo}, {shi}] against TC [{lo}, {hi}]"
            if beta is not None and lo < oracles.certificate_length(dims) + 1:
                return f"{name}: TC lower end {lo} below certificate + 1"
            if dims in PAPER_TC and beta == {} and (lo, hi) != PAPER_TC[dims]:
                return f"{name}: TC [{lo}, {hi}] != paper {PAPER_TC[dims]}"
            return ""
        return _check_dold(f"{name} p={p}", n + sum(p), reports["cat"], reports["TC"],
                           reports["TC_S"])


# ---------------------------------------------------------------------------
# random_covers: seeded facet vectors on fixed polytopes

PRODUCT_SHAPES = (
    (1, 1), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1), (1, 1, 1, 1), (4, 3), (2, 2, 2),
    (3, 1, 1, 1), (1,) * 6, (3, 3, 3), (2, 2, 2, 2),
)
POLYGON_SIZES = (3, 4, 5, 6, 8, 10, 12)
PRISM_SIZES = (3, 4, 6, 8)
COPIES = 32
# 128 and 256 vertices, 0.5-1 s per op: with few copies of them a round has
# room for 32 seeded assignments of every other shape, and the p50, which
# lands among ops whose cost depends on the assignment, rests on that many
BIG_PRODUCTS = ((1, 1, 1, 1, 1, 2), (3, 3, 3, 3))
BIG_COPIES = 6
# every op validates this many rejected draws before the valid one, whatever
# the seed: drawn until the first valid one, an op's number of validate calls
# would be a geometric variable of the seed, and the percentiles would follow
REJECTED_DRAWS = 12


def _product_vertices(dims) -> List[Tuple[int, ...]]:
    offsets, off = [], 0
    for d in dims:
        offsets.append(off)
        off += d + 1
    blocks = [range(o, o + d + 1) for o, d in zip(offsets, dims)]
    return [tuple(sorted(set().union(*blocks) - set(omit))) for omit in product(*blocks)]


def _polygon_vectors(k: int) -> List[Tuple[int, ...]]:
    """Neighbouring edges get distinct nonzero vectors of Z2^2."""
    vectors = [(1, 0), (0, 1)] * (k // 2)
    return vectors + [(1, 1)] if k % 2 else vectors


def _triangular_vectors(rng, shape, k_or_dims) -> List[Tuple[int, ...]]:
    if shape == "product":
        dims = k_or_dims
        n = sum(dims)
        vectors, coord = [], 0
        beta = _random_beta(rng, dims)
        starts = [sum(dims[:j]) for j in range(len(dims))]
        for j, d in enumerate(dims):
            for _ in range(d):
                vectors.append(tuple(int(c == coord) for c in range(n)))
                coord += 1
            column = [0] * n
            for c in range(starts[j], starts[j] + d):
                column[c] = 1
            for (k, jj), bits in beta.items():
                if jj == j + 1:
                    for i, b in enumerate(bits):
                        column[starts[k - 1] + i] = b
            vectors.append(tuple(column))
        return vectors
    if shape == "polygon":
        return _polygon_vectors(k_or_dims)
    k = k_or_dims
    return [v + (0,) for v in _polygon_vectors(k)] + [(0, 0, 1), (0, 0, 1)]


def _prism_vertices(k: int) -> List[Tuple[int, ...]]:
    return [tuple(sorted((i, (i + 1) % k, cap))) for i in range(k) for cap in (k, k + 1)]


def _shape_data(shape: str, param):
    """Vertices as facet sets, the closed-form h-vector, all nonzero vectors."""
    if shape == "product":
        vertices, h = _product_vertices(param), oracles.h_product_of_simplices(param)
    elif shape == "polygon":
        vertices = [tuple(sorted((i, (i + 1) % param))) for i in range(param)]
        h = oracles.h_polygon(param)
    else:
        vertices, h = _prism_vertices(param), oracles.h_prism(param)
    n = len(vertices[0])
    return vertices, h, [tuple((v >> i) & 1 for i in range(n)) for v in range(1, 1 << n)]


def _rejected_draw(rng, vertices, facets: int, nonzero) -> List[Tuple[int, ...]]:
    """Random nonzero facet vectors, made dependent at one random vertex."""
    n = len(nonzero[0])
    vectors = [rng.choice(nonzero) for _ in range(facets)]
    for i, f in enumerate(vertices[0]):  # one vertex is a basis
        vectors[f] = tuple(int(c == i) for c in range(n))
    a, b = rng.sample(vertices[rng.randrange(len(vertices))], 2)
    vectors[b] = vectors[a]
    return vectors


def _basis_change(rng, vectors, n):
    while True:
        C = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if oracles.rank_gf2(C) == n:
            break
    return [tuple(sum(C[r][i] * v[i] for i in range(n)) & 1 for r in range(n)) for v in vectors]


class RandomCovers:
    name = "random_covers"
    round_seconds = 28.0

    def make_round(self, seed: int, index: int, workdir: Path) -> List:
        rng = _rng(self.name, seed, index)
        shapes = ([("product", d) for d in PRODUCT_SHAPES]
                  + [("polygon", k) for k in POLYGON_SIZES]
                  + [("prism", k) for k in PRISM_SIZES])
        big = [("product", d) for d in BIG_PRODUCTS]
        known = {}  # the benchmark's own data per shape: vertices, h, vectors
        items = []
        for shape, param in (shapes + big) * BIG_COPIES + shapes * (COPIES - BIG_COPIES):
            if shape == "product":
                P = polytope.product_of_simplices(param)
            elif shape == "polygon":
                P = polytope.polygon(param)
            else:
                k = param
                P = polytope.explicit_polytope(3, k + 2, _prism_vertices(k))
            if (shape, param) not in known:
                known[(shape, param)] = _shape_data(shape, param)
            vertices, h, nonzero = known[(shape, param)]
            facets = max(max(v) for v in vertices) + 1
            candidates = [_rejected_draw(rng, vertices, facets, nonzero)
                          for _ in range(REJECTED_DRAWS)]
            candidates.append(_basis_change(rng, _triangular_vectors(rng, shape, param),
                                            len(vertices[0])))
            items.append((f"{shape} {param}", P, vertices, h, candidates))
        return items

    def op(self, item):
        _, P, _, _, candidates = item
        rejected = []
        for vectors in candidates:
            report = charfun.validate(P, vectors)
            if report.valid:
                break
            rejected.append((vectors, report.bad_vertices))
        else:
            raise OpFailed("a basis change of a triangular assignment was rejected")
        ring = cohomology.SmallCoverRing(P, vectors)
        betti = ring.betti
        pairing = cohomology.poincare_pairing(ring)
        h = polytope.h_vector(P).h
        M = bounds.small_cover_manifold(P, vectors)
        return rejected, vectors, betti, pairing, h, bounds.cat_bounds(M), bounds.tc_bounds(M)

    def check(self, item, result) -> str:
        name, _, vertices, h, candidates = item
        rejected, vectors, betti, pairing, program_h, cat, tc = result
        n = len(vertices[0])
        if len(rejected) != len(candidates) - 1:
            return f"{name}: {len(rejected)} draws rejected, {len(candidates) - 1} expected"
        for candidate, bad in rejected:
            if not bad:
                return f"{name}: rejected draw without a bad vertex"
            for v in bad:
                if oracles.vertex_is_independent(candidate, v, n):
                    return f"{name}: vertex {v} reported bad but independent"
        for v in vertices:
            if not oracles.vertex_is_independent(vectors, v, n):
                return f"{name}: accepted vectors are dependent at vertex {v}"
        if tuple(betti) != h or tuple(program_h) != h:
            return f"{name}: betti {betti}, h-vector {program_h}, expected {h}"
        if not pairing.nondegenerate:
            return f"{name}: degenerate Poincare pairing {pairing.by_degree}"
        if _interval(cat) != (n + 1, n + 1):
            return f"{name}: cat {_interval(cat)} != [{n + 1}, {n + 1}]"
        lo, hi = _interval(tc)
        if not _chain(n + 1, lo, hi, 2 * n + 1):
            return f"{name}: TC [{lo}, {hi}] outside [{n + 1}, {2 * n + 1}]"
        return ""


WORKLOADS = {w.name: w for w in (TowerSurvey(), TowerCli(), RandomCovers())}
