"""The package's value records: `typing.NamedTuple`s, and `SimplePolytope`
as a plain class, all behaving as the frozen dataclasses they replace, and
an import of the package that loads neither `dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from smallcover import bounds, charfun, cohomology, invariants, polytope
from smallcover.errors import InputError

SRC = Path(__file__).resolve().parent.parent / "src"

fs = frozenset
B = charfun.BottMatrix.make((1, 2), {(2, 1): (1, 0)})
SQUARE = (fs({0, 1}), fs({1, 2}), fs({2, 3}), fs({0, 3}))
INTERVAL_TEXT = "IntervalValue(lo=1, hi=2, lo_source='a', hi_source='b', witness=('w',))"

# (a function that builds a new record, the text the dataclass wrote for it,
# a field); the text is the parent's repr, copied
RECORDS = {
    "FVector": (lambda: polytope.FVector((4, 4)), "FVector(f=(4, 4))", "f"),
    "HVector": (lambda: polytope.HVector((1, 2, 1)), "HVector(h=(1, 2, 1))", "h"),
    "ValidationReport": (
        lambda: charfun.ValidationReport(False, ((0, 2), (1, 2))),
        "ValidationReport(valid=False, bad_vertices=((0, 2), (1, 2)))", "valid"),
    "BottMatrix": (
        lambda: charfun.BottMatrix((1, 2), (((2, 1), (1, 0)),)),
        "BottMatrix(dims=(1, 2), beta=(((2, 1), (1, 0)),))", "beta"),
    "BottMatrix default": (lambda: charfun.BottMatrix((1,)),
                           "BottMatrix(dims=(1,), beta=())", "dims"),
    "PairingReport": (
        lambda: cohomology.PairingReport(True, (True, False)),
        "PairingReport(nondegenerate=True, by_degree=(True, False))", "nondegenerate"),
    "IntervalValue": (lambda: invariants.IntervalValue(1, 2, "a", "b", ("w",)),
                      INTERVAL_TEXT, "lo"),
    "IntervalValue default": (
        lambda: invariants.IntervalValue(0, 0, "x", "y"),
        "IntervalValue(lo=0, hi=0, lo_source='x', hi_source='y', witness=())", "witness"),
    "ZclCertificate": (
        lambda: invariants.ZclCertificate(1, (fs({((0,), (1,))}),), fs({((0,), (1,))}),
                                          ("t",), "arg"),
        "ZclCertificate(k=1, factors=(frozenset({((0,), (1,))}),), "
        "product=frozenset({((0,), (1,))}), surviving_terms=('t',), argument='arg')", "k"),
    "ZclCertificate default": (
        lambda: invariants.ZclCertificate(0, (), fs()),
        "ZclCertificate(k=0, factors=(), product=frozenset(), surviving_terms=(), "
        "argument='')", "argument"),
    "BoundReport": (
        lambda: bounds.BoundReport("TC", invariants.IntervalValue(1, 2, "a", "b", ("w",)),
                                   (("lo", "r", "w"),), ("f",)),
        f"BoundReport(invariant='TC', interval={INTERVAL_TEXT}, "
        "certificates=(('lo', 'r', 'w'),), assumed_flags=('f',))", "interval"),
    "SimplePolytope": (
        lambda: polytope.SimplePolytope(2, 4, SQUARE, ("polygon", 4)),
        "SimplePolytope(n=2, facet_count=4, vertices=(frozenset({0, 1}), "
        "frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})), family=('polygon', 4))",
        "vertices"),
    "SimplePolytope explicit": (
        lambda: polytope.SimplePolytope(1, 2, (fs({0}), fs({1}))),
        "SimplePolytope(n=1, facet_count=2, vertices=(frozenset({0}), frozenset({1})), "
        "family=('explicit',))", "n"),
    "ManifoldDescription": (
        lambda: bounds.ManifoldDescription("bott", 3, polytope.ProductOfSimplices((1, 2)),
                                           charfun.from_bott(B), B),
        "ManifoldDescription(kind='bott', n=3, P=ProductOfSimplices(dims=(1, 2)), "
        "vectors=(1, 3, 2, 4, 6), bmat=BottMatrix(dims=(1, 2), beta=(((2, 1), (1, 0)),)), "
        "involution=None, fixed_set_connected=False)", "bmat"),
    "ManifoldDescription default": (
        lambda: bounds.ManifoldDescription("sphere", 2),
        "ManifoldDescription(kind='sphere', n=2, P=None, vectors=None, bmat=None, "
        "involution=None, fixed_set_connected=False)", "kind"),
}


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site-packages .pth file loads modules before the package does
    code = ("import sys, smallcover, smallcover.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert run.stdout == "[]\n", run.stderr


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_value_semantics(name):
    build, text, field = RECORDS[name]
    record, twin = build(), build()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert not record != twin
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == twin and repr(record) == text


def test_records_of_different_values_differ():
    iv = invariants.IntervalValue(1, 2, "a", "b")
    assert iv != invariants.IntervalValue(1, 3, "a", "b")
    assert charfun.BottMatrix((1, 2)) != B
    assert bounds.sphere_manifold(2) != bounds.sphere_manifold(3)
    # a polytope equals only a polytope of its own class and value
    square = polytope.SimplePolytope(2, 4, SQUARE, ("polygon", 4))
    assert square != polytope.SimplePolytope(2, 4, SQUARE)
    assert polytope.ProductOfSimplices((1, 1)) != polytope.SimplePolytope(
        2, 4, SQUARE, ("product_of_simplices", (1, 1)))
    assert square.__eq__(SQUARE) is NotImplemented


def test_kept_values_stay_off_the_fields():
    M = bounds.bott_manifold((1, 2), B)
    twin = bounds.bott_manifold((1, 2), B)
    bounds.manifold_ring(M)
    bounds.tc_bounds(M, 0)
    assert M._ring is not None and M._records and twin._ring is None
    assert M == twin and hash(M) == hash(twin) and repr(M) == repr(twin)
    assert "_records" not in vars(twin) and "_records" not in repr(M)
    P = polytope.SimplePolytope(2, 4, SQUARE, ("polygon", 4))
    polytope.h_vector(P)
    assert "_h_vector" in vars(P) and P == polytope.polygon(4)
    with pytest.raises(AttributeError, match="cannot assign to field 'family'"):
        P.family = ("explicit",)


@pytest.mark.parametrize("build, message", [
    (lambda: invariants.IntervalValue(3, 2, "a", "b"), "empty interval [3, 2]"),
    (lambda: invariants.IntervalValue(1, 2, "a", ""), "interval sources must be nonempty"),
    (lambda: invariants.IntervalValue(lo=1, hi=2, lo_source="", hi_source="b"),
     "interval sources must be nonempty"),
    (lambda: polytope.HVector((2, 1)), "h-vector must start and end with 1"),
    (lambda: polytope.HVector((1, -1, 1)), "h-vector entries must be non-negative"),
    (lambda: polytope.HVector((1, 2, 3, 1)), "h-vector fails the palindromic identity"),
    (lambda: polytope.SimplePolytope(-1, 0, ()), "negative dimension or facet count"),
    (lambda: polytope.SimplePolytope(2, 3, (fs({0}),)),
     "vertex 0 does not lie on exactly 2 facets"),
    (lambda: polytope.SimplePolytope(1, 2, (fs({0}), fs({2}))), "vertex 1 uses unknown facet 2"),
    (lambda: polytope.SimplePolytope(1, 2, (fs({0}), fs({0}))), "vertex 1 repeats vertex 0"),
    (lambda: polytope.SimplePolytope(1, 3, (fs({0}), fs({1}))),
     "3 facets cannot all lie on 2 vertices of dimension 1"),
    (lambda: polytope.SimplePolytope(1, 0, ()), "a polytope needs at least one vertex"),
    (lambda: polytope.SimplePolytope(2, 4, (fs({0, 1}), fs({1, 2}), fs({2, 0}))),
     "facet 3 lies on no vertex"),
    (lambda: polytope.SimplePolytope(2, 3, (fs({0, 1}), fs({1, 2}))),
     "an edge lies on 2 vertices, but facets [0] meet in 1"),
])
def test_record_checks_keep_their_messages(build, message):
    with pytest.raises(InputError) as refused:
        build()
    assert str(refused.value) == message

