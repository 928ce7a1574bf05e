"""The CLI on mutated problem documents: a clean exit code, never a traceback.
Its JSON writer on random JSON values: the text `json.dumps` writes.

Each example takes a small valid document, applies one to three mutations
(drop a key or list entry, swap a value's type, or put in a small integer
that may be out of range) and runs one command through `cli.main`.  Sizes
stay small: block dimensions at most 4, at most 4 blocks, at most 12 polygon
edges and an exact budget of at most 16.
"""

import copy
import json
from typing import NamedTuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smallcover.cli import _json_text, main

BASES = [
    {"polytope": {"type": "polygon", "edges": 4},
     "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "10", "11"]},
     "involution": "10", "dold": {"p": [1]}},
    {"polytope": {"type": "polygon", "edges": 6},
     "characteristic": {"type": "facet_vectors",
                        "vectors": ["10", "01", "10", "01", "10", "11"]},
     "options": {"exact_budget": 8, "format": "json"}},
    {"polytope": {"type": "product_of_simplices", "dims": [1, 2]},
     "characteristic": {"type": "bott_matrix", "dims": [1, 2], "beta": {"2,1": "10"}},
     "dold": {"p": [1, 2]}, "flags": {"fixed_set_connected": True}},
    {"polytope": {"type": "product_of_simplices", "dims": [2]},
     "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "11"]}},
    {"polytope": {"type": "explicit", "n": 2, "facet_count": 3,
                  "vertices": [[0, 1], [1, 2], [0, 2]]},
     "characteristic": {"type": "facet_vectors", "vectors": ["10", "01", "11"]},
     "dold": {"p": [2]}},
]
COMMANDS = ["validate", "ring", "betti", "cl", "zcl", "bounds", "dold"]
# small integers per key; other integers are facet indices or exponents
INT_RANGES = {"edges": (0, 12), "exact_budget": (-1, 16), "facet_count": (-1, 12)}
OTHER_TYPES = [None, 0, -1, 1.5, True, "x", "", [], {}, [1], {"type": "x"}]


def _slots(doc):
    """Every (container, key) position in the document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        kind = draw(st.sampled_from(["drop", "type", "int"]))
        if kind == "drop":
            del container[key]
        elif kind == "type":
            container[key] = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
        else:
            lo, hi = INT_RANGES.get(key, (-1, 4))
            container[key] = draw(st.integers(lo, hi))
    return doc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_documents(), command=st.sampled_from(COMMANDS),
       as_json=st.booleans())
def test_cli_exits_cleanly_on_mutated_documents(tmp_path, capsys, doc, command, as_json):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--format", "json"] if as_json else [])
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 64), (code, doc)
    assert "Traceback" not in err


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _Pair(NamedTuple):
    first: object
    second: object


# the corners of the string encoder: quotes, backslashes, control
# characters and non-ASCII text, as well as any text
_STRINGS = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€\u2028😀')) | st.text()
# the writer reads exact types by type(): subclasses of str, int, dict and
# tuple, and bool, take its other route
_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
            | st.floats(allow_nan=True, allow_infinity=True) | _STRINGS
            | st.integers(-2**70, 2**70).map(_Int) | _STRINGS.map(_Str))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.builds(_Pair, inner, inner)
                   | st.dictionaries(_STRINGS | _STRINGS.map(_Str), inner, max_size=4)
                   | st.dictionaries(_STRINGS, inner, max_size=4).map(_Dict)),
    max_leaves=30)


@settings(max_examples=100, deadline=None)
@given(_VALUES)
@example({"b": [], "a": {}, "c": (), "é": [True, False, None, 2**64, -2**63 - 1]})
@example([[], {}, [[1, (2, "x")]], {"": {"\"": "\\"}}])
@example(_Pair(_Int(3), [True, _Str("é"), _Dict(b=_Pair(False, {}), a=())]))
def test_json_writer_writes_what_json_dumps_writes(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
