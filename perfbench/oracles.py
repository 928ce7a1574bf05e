"""Reference values and re-checks that do not use the smallcover package.

Everything here is written from the definitions, so the benchmark can judge
the program's outputs without trusting the program's own arithmetic:

* zcl(RP^n) = 2^{s+1} - 1 for 2^s <= n < 2^{s+1} (Farber-Tabachnikov-
  Yuzvinsky), additive over products with field coefficients;
* the length of the binary-power certificate of a real Bott tower;
* h-vectors of products of simplices, polygons and prisms in closed form;
* GF(2) rank by elimination on the lowest set bit;
* a normal form for the triangular presentation Z2[y1..ym]/<Gamma_j>, used to
  re-check an exact-search witness in the tensor square.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Monomial = Tuple[int, ...]
Poly = Set[Monomial]  # monomials with coefficient 1; addition is XOR
TensorPoly = Set[Tuple[Monomial, Monomial]]


# ---------------------------------------------------------------------------
# zero-divisor-cup-length values


def zcl_rp(n: int) -> int:
    """zcl(RP^n) = 2^{s+1} - 1 where 2^s <= n < 2^{s+1}."""
    if n < 1:
        raise ValueError("projective dimension must be at least 1")
    s = 0
    while 2 ** (s + 1) <= n:
        s += 1
    return 2 ** (s + 1) - 1


def zcl_untwisted(dims: Sequence[int]) -> int:
    """zcl of a product of projective spaces: the sum over its factors."""
    return sum(zcl_rp(d) for d in dims)


def certificate_length(dims: Sequence[int]) -> int:
    """Sum over blocks of 2^{ceil(log2(n_j + 1))} - 1."""
    total = 0
    for d in dims:
        r = 0
        while 2 ** r < d + 1:
            r += 1
        total += 2 ** r - 1
    return total


# ---------------------------------------------------------------------------
# h-vectors in closed form


def h_product_of_simplices(dims: Sequence[int]) -> Tuple[int, ...]:
    """Coefficients of prod_j (1 + t + ... + t^{n_j})."""
    coeffs = [1]
    for d in dims:
        out = [0] * (len(coeffs) + d)
        for i, c in enumerate(coeffs):
            for k in range(d + 1):
                out[i + k] += c
        coeffs = out
    return tuple(coeffs)


def h_polygon(k: int) -> Tuple[int, ...]:
    return (1, k - 2, 1)


def h_prism(k: int) -> Tuple[int, ...]:
    """Prism over a k-gon: k + 2 facets, so h_1 = k - 1."""
    return (1, k - 1, k - 1, 1)


# ---------------------------------------------------------------------------
# GF(2) rank


def rank_gf2(rows: Iterable[Sequence[int]]) -> int:
    """Rank over GF(2) of a matrix given as rows of 0/1 entries.

    Rows are packed into integers and eliminated on their lowest set bit.
    """
    pivots: Dict[int, int] = {}  # lowest set bit -> row
    for row in rows:
        x = sum(1 << i for i, b in enumerate(row) if b & 1)
        while x:
            low = x & -x
            if low not in pivots:
                pivots[low] = x
                break
            x ^= pivots[low]
    return len(pivots)


def vertex_is_independent(vectors: Sequence[Sequence[int]], facets: Iterable[int], n: int) -> bool:
    return rank_gf2([vectors[f] for f in facets]) == n


# ---------------------------------------------------------------------------
# triangular (Bott) presentation


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _poly_mul(p: Iterable[Monomial], q: Iterable[Monomial]) -> Poly:
    out: Poly = set()
    for u in p:
        for v in q:
            out ^= {_mono_mul(u, v)}
    return out


def _var(m: int, i: int, e: int = 1) -> Monomial:
    return tuple(e if k == i else 0 for k in range(m))


class BottArithmetic:
    """Z2[y1..ym] modulo Gamma_j = y_j prod_k (y_j + sum_{l<j} beta[j,l]_k y_l).

    beta maps (j, l), 1-based with l < j, to a 0/1 tuple of length dims[j-1].
    Reducing y_j^{n_j + 1} by the rest of Gamma_j lowers the exponent of y_j
    and only touches variables of smaller index, so rewriting the largest
    offending variable first terminates.
    """

    def __init__(self, dims: Sequence[int], beta: Dict[Tuple[int, int], Sequence[int]]):
        self.dims = tuple(dims)
        self.m = len(self.dims)
        self.tails: List[Poly] = []
        for j in range(1, self.m + 1):
            gamma: Poly = {_var(self.m, j - 1)}
            for k in range(self.dims[j - 1]):
                factor: Poly = {_var(self.m, j - 1)}
                for (jj, l), bits in beta.items():
                    if jj == j and bits[k]:
                        factor ^= {_var(self.m, l - 1)}
                gamma = _poly_mul(gamma, factor)
            self.tails.append(gamma ^ {_var(self.m, j - 1, self.dims[j - 1] + 1)})

    def reduce(self, p: Iterable[Monomial]) -> Poly:
        cur: Poly = set(p)
        done: Poly = set()
        while cur:
            mon = cur.pop()
            over = [i for i in range(self.m) if mon[i] > self.dims[i]]
            if not over:
                done ^= {mon}
                continue
            j = over[-1]
            rest = tuple(e - (self.dims[j] + 1) if i == j else e for i, e in enumerate(mon))
            cur ^= _poly_mul(self.tails[j], [rest])
        return done

    def reduce_tensor(self, t: Iterable[Tuple[Monomial, Monomial]]) -> TensorPoly:
        out: TensorPoly = set()
        for u, v in t:
            for x in self.reduce([u]):
                for y in self.reduce([v]):
                    out ^= {(x, y)}
        return out


_FACTOR = re.compile(r"^y(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, m: int) -> Monomial:
    """Parse "1", "y2" or "y1^2*y3" into an exponent tuple of arity m."""
    exps = [0] * m
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        match = _FACTOR.match(factor.strip())
        if not match or not 1 <= int(match.group(1)) <= m:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        exps[int(match.group(1)) - 1] += int(match.group(2) or 1)
    return tuple(exps)


def parse_tensor(text: str, m: int) -> TensorPoly:
    """Parse "u(x)v + u'(x)v'" into a set of monomial pairs."""
    out: TensorPoly = set()
    for term in text.split(" + "):
        left, sep, right = term.partition("(x)")
        if not sep:
            raise ValueError(f"tensor term without (x): {term!r}")
        out ^= {(parse_monomial(left, m), parse_monomial(right, m))}
    return out


def witness_problem(arith: BottArithmetic, witness: Sequence[str]) -> str:
    """Re-check a zero-divisor witness; returns "" when it holds.

    Each factor must map to zero under multiplication u (x) v -> uv, and the
    product of all factors must be nonzero in the tensor square.
    """
    product: TensorPoly = {(_var(arith.m, 0, 0), _var(arith.m, 0, 0))}
    for text in witness:
        factor = parse_tensor(text, arith.m)
        cup: Poly = set()
        for u, v in factor:
            cup ^= {_mono_mul(u, v)}
        if arith.reduce(cup):
            return f"witness factor {text!r} is not a zero divisor"
        expanded: TensorPoly = set()
        for a, b in product:
            for u, v in factor:
                expanded ^= {(_mono_mul(a, u), _mono_mul(b, v))}
        product = arith.reduce_tensor(expanded)
    if not product:
        return "witness product vanishes"
    return ""
