"""Spans and counters at smallcover's module boundaries.

`Tracer.install()` rebinds, at run time, the functions that each module of
the package calls in the module below it (for example `bounds.zcl_exact`,
`invariants.cup_kernel`, `cli.polytope.product_of_simplices`), so every call
across a layer boundary records a span: name, start, end, parent span and op
id.  Spans stay in memory until `write()`.  Hot methods
(`GradedAlgebra.mult_basis`, `BottRing.normal_form`, `gf2.rank_gf2`) are
counted, not timed.  Nothing is installed unless a traced run asks for it, so
untraced runs execute the program unmodified.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, op id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.op_id: Optional[int] = None
        self._ring_keys: set = set()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_result: Callable = None,
              on_error: Callable = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span[1], span[2] = start, time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            if self.op_id is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from smallcover import bounds, charfun, cli, cohomology, gf2, invariants, polytope
        from smallcover.errors import BudgetExceeded

        counts = self.counts

        def rebind(name, owner_attr, *, on_result=None, on_error=None, also=()):
            owner, attr = owner_attr
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, on_result, on_error)
            setattr(owner, attr, wrapped)
            for module in also:
                if getattr(module, attr, None) is fn:
                    setattr(module, attr, wrapped)

        def built(args, P):
            counts["polytope.vertices"] += P.vertex_count

        for attr in ("product_of_simplices", "polygon", "explicit_polytope"):
            rebind("polytope.build", (polytope, attr), on_result=built,
                   also=(bounds, charfun))
        for attr in ("simplex_facets", "facet_neighbours", "f_vector", "h_vector"):
            rebind("polytope.query", (polytope, attr), also=(bounds,))

        def validated(args, report):
            counts["charfun.vertex_checks"] += args[0].vertex_count
            counts["charfun.accepted"] += bool(report.valid)

        rebind("charfun.validate", (charfun, "validate"), on_result=validated,
               also=(bounds, cohomology))
        rebind("charfun.from_bott", (charfun, "from_bott"), also=(bounds,))

        counted = self._count("gf2.rank", gf2.rank_gf2)
        gf2.rank_gf2 = counted
        bounds.rank_gf2 = counted
        rebind("gf2.kernel_combos", (gf2, "kernel_combos"))

        for cls in (cohomology.BottRing, cohomology.SmallCoverRing):
            rebind("cohomology.ring_build", (cls, "__init__"))
            rebind("cohomology.ring_build", (cls, "algebra"))
        cohomology.BottRing.normal_form = self._count(
            "cohomology.normal_form", cohomology.BottRing.normal_form)
        cohomology.GradedAlgebra.mult_basis = self._count(
            "cohomology.mult_basis", cohomology.GradedAlgebra.mult_basis)

        def kernel(args, result):
            T, gens = result
            counts["cohomology.tensor_dim"] += T.dim
            counts["cohomology.kernel_dim"] += len(gens)

        def powers(args, result):
            counts["cohomology.power_levels"] += len(result)

        rebind("cohomology.cup_kernel", (invariants, "cup_kernel"), on_result=kernel)
        rebind("cohomology.ideal_powers", (invariants, "ideal_powers"), on_result=powers,
               also=(cohomology,))
        rebind("cohomology.pairing", (cohomology, "poincare_pairing"))

        def searched(args, result):
            self._ring_keys.add(_ring_key(args[0]))

        def skipped(exc):
            if isinstance(exc, BudgetExceeded):
                counts["invariants.budget_skips"] += 1

        rebind("invariants.zcl_exact", (invariants, "zcl_exact"), on_result=searched,
               on_error=skipped, also=(bounds,))

        def certified(args, cert):
            counts["invariants.certificate_terms"] += len(cert.product)

        rebind("invariants.certificate", (invariants, "zcl_certificate_bott"),
               on_result=certified, also=(bounds,))
        for attr in ("zcl_interval", "zcl_rp", "cup_length"):
            rebind("invariants.other", (invariants, attr), also=(bounds,))

        for attr in ("cat_bounds", "tc_bounds", "symm_tc_bounds", "dold_bounds",
                     "eq_cat_bounds", "bott_manifold", "small_cover_manifold",
                     "manifold_ring"):
            rebind("bounds." + attr, (bounds, attr))
        rebind("bounds.hypotheses", (bounds, "simplex_facet_hypotheses"))

        rebind("cli.main", (cli, "main"))
        rebind("cli.load", (cli, "_load"))

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Per-op figures of one traced round; see README for definitions."""
        spans, counts = self.spans, self.counts
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)  # outermost spans of each name only
        self_time = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_time[name] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += end - start

        def per_op_ms(seconds):
            return 1000.0 * seconds / ops

        def layer_self_ms(layer):
            return per_op_ms(sum(t for n, t in self_time.items()
                                 if n.split(".")[0] == layer))

        def ratio(a, b):
            return counts[a] / counts[b] if counts[b] else 0.0

        searches = counts["invariants.zcl_exact.calls"] - counts["invariants.budget_skips"]
        return {
            "polytope.build_ms": per_op_ms(inclusive["polytope.build"]),
            "polytope.vertices_built": counts["polytope.vertices"] / ops,
            "polytope.builds_per_op": counts["polytope.build.calls"] / ops,
            "polytope.query_ms": per_op_ms(inclusive["polytope.query"]),
            "charfun.validate_ms": per_op_ms(inclusive["charfun.validate"]),
            "charfun.validate_calls": counts["charfun.validate.calls"] / ops,
            "charfun.vertex_checks": counts["charfun.vertex_checks"] / ops,
            "charfun.accept_ratio": ratio("charfun.accepted", "charfun.validate.calls"),
            "charfun.from_bott_ms": per_op_ms(inclusive["charfun.from_bott"]),
            "gf2.rank_calls": counts["gf2.rank"] / ops,
            "gf2.kernel_combos_ms": per_op_ms(inclusive["gf2.kernel_combos"]),
            "cohomology.ring_build_ms": per_op_ms(inclusive["cohomology.ring_build"]),
            "cohomology.normal_form_calls": counts["cohomology.normal_form"] / ops,
            "cohomology.cup_kernel_ms": per_op_ms(inclusive["cohomology.cup_kernel"]),
            "cohomology.tensor_dim": ratio("cohomology.tensor_dim",
                                           "cohomology.cup_kernel.calls"),
            "cohomology.kernel_dim": ratio("cohomology.kernel_dim",
                                           "cohomology.cup_kernel.calls"),
            "cohomology.ideal_powers_ms": per_op_ms(inclusive["cohomology.ideal_powers"]),
            "cohomology.power_levels": ratio("cohomology.power_levels",
                                             "cohomology.ideal_powers.calls"),
            "cohomology.mult_basis_calls": counts["cohomology.mult_basis"] / ops,
            "cohomology.pairing_ms": per_op_ms(inclusive["cohomology.pairing"]),
            "invariants.zcl_exact_self_ms": per_op_ms(self_time["invariants.zcl_exact"]),
            "invariants.zcl_exact_calls": counts["invariants.zcl_exact.calls"] / ops,
            "invariants.zcl_exact_distinct_ratio":
                len(self._ring_keys) / searches if searches else 0.0,
            "invariants.certificate_ms": per_op_ms(inclusive["invariants.certificate"]),
            "invariants.certificate_terms": ratio("invariants.certificate_terms",
                                                  "invariants.certificate.calls"),
            "invariants.budget_skips": counts["invariants.budget_skips"] / ops,
            "bounds.self_ms": layer_self_ms("bounds"),
            "bounds.tc_calls": counts["bounds.tc_bounds.calls"] / ops,
            "bounds.hypotheses_ms": per_op_ms(inclusive["bounds.hypotheses"]),
            "cli.parse_ms": per_op_ms(self_time["cli.load"]),
            "cli.self_ms": layer_self_ms("cli"),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _ring_key(ring):
    """Presentation of a ring, so equal rings built twice count once."""
    if ring.kind == "bott":
        return ("bott", ring.dims, ring.bmat)
    if ring.kind == "small_cover":
        return ("small_cover", ring.P.vertices, ring.vectors)
    return (ring.kind, ring.top, tuple(ring.relations_text))
