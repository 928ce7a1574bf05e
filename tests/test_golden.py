"""Committed CLI outputs for fixed problems, compared byte for byte.

Each `<name>.problem.json` under `golden/` has the outputs that OUTPUTS
names for it next to it, one `<name>.<output>.json` per command in COMMANDS,
each from `smallcover <command> <problem> ... --format json`.  A change that
moves a bound on purpose rewrites the file and says why in CHANGES.md.
The README's rule table is checked against the golden trails and
`bounds.py`, and its Python example against the values it states.
"""

import ast
import json
import re
from pathlib import Path

from smallcover import bounds
from smallcover.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
COMMANDS = {
    "bounds": ["bounds", "--invariant", "all", "--format", "json"],
    "certificate": ["zcl", "--certificate-only", "--format", "json"],
    "zcl": ["zcl", "--format", "json"],
    "dold": ["dold", "--format", "json"],
    "ring": ["ring", "--format", "json"],
    "betti": ["betti", "--format", "json"],
    "cl": ["cl", "--format", "json"],
}
OUTPUTS = {
    "circle_guard_1_3_3": ("bounds", "certificate"),
    "dold_rp2": ("bounds", "certificate", "zcl", "dold", "ring", "betti", "cl"),
    "hexagon": ("bounds", "zcl"),
    "klein_bottle": ("bounds", "zcl", "ring", "betti", "cl"),
    "rp16_facets": ("bounds", "zcl"),
    "tower_16_8": ("bounds", "certificate", "ring", "betti"),
    "tower_17_9": ("bounds", "certificate"),
    "twisted_1_3": ("bounds", "certificate"),
    "twisted_3x8": ("bounds", "certificate", "ring", "betti"),
}


def test_golden_outputs_byte_identical(capsys):
    problems = sorted(GOLDEN.glob("*.problem.json"))
    assert [p.name.split(".")[0] for p in problems] == sorted(OUTPUTS)
    committed = {p.name for p in GOLDEN.glob("*.json")} - {p.name for p in problems}
    assert committed == {f"{name}.{output}.json"
                         for name, outputs in OUTPUTS.items() for output in outputs}
    for problem in problems:
        name = problem.name.split(".")[0]
        for output in OUTPUTS[name]:
            command, *options = COMMANDS[output]
            assert main([command, str(problem), *options]) == 0, (name, output)
            expected = (GOLDEN / f"{name}.{output}.json").read_text()
            assert capsys.readouterr().out == expected, (name, output)


def _readme_rules():
    """{(report, side): rule names} from the README's rule table."""
    header = "| report | lower-end rules | upper-end rules |\n|---|---|---|\n"
    table = README.read_text().split(header)[1].split("\n\n")[0]
    rules = {}
    for row in table.splitlines():
        report, lo, hi = (cell.strip() for cell in row.strip("|").split("|"))
        rules[report, "lo"] = set(re.findall(r"`([^`]+)`", lo))
        rules[report, "hi"] = set(re.findall(r"`([^`]+)`", hi))
    return rules


def test_readme_rule_table_names_every_rule():
    """Every rule in a committed golden trail is in its report's row of the
    README's rule table, on its side, and the table names exactly the rules
    that `bounds.py` states as rule tuples (side, value, name, detail[,
    witness]), each with its name written out."""
    listed = _readme_rules()
    trails = 0
    for path in sorted(GOLDEN.glob("*.json")):
        data = json.loads(path.read_text())
        prefix = "Dold " if path.name.endswith(".dold.json") else ""
        for report in data.get("reports", ()) if isinstance(data, dict) else ():
            for cert in report["certificates"]:
                key = prefix + report["invariant"], cert["side"]
                assert cert["rule"] in listed[key], (path.name, key, cert["rule"])
                trails += 1
    assert trails > 0
    source = ast.parse(Path(bounds.__file__).read_text())
    rules = [node.elts for node in ast.walk(source)
             if isinstance(node, ast.Tuple) and len(node.elts) >= 3
             and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in ("lo", "hi")]
    assert all(isinstance(r[2], ast.Constant) and isinstance(r[2].value, str) for r in rules)
    stated = {r[2].value for r in rules}
    assert set().union(*listed.values()) == stated


def test_readme_example_runs():
    """The README's Python example runs and gives the values its comments state."""
    block = README.read_text().split("```python\n")[1].split("```")[0]
    names = {}
    exec(block, names)
    assert "betti (1, 2, 1)" in block and names["ring"].betti == (1, 2, 1)
    assert "TC in [47, 49]" in block and names["rep"].interval[:2] == (47, 49)
    rp2 = names["rp2"]
    assert "lo = hi = 3" in block and (rp2.lo, rp2.hi, len(rp2.witness)) == (3, 3, 3)
    assert "TC in [7, 9]" in block and names["tc"].interval[:2] == (7, 9)
