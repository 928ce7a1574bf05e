"""Committed CLI outputs for fixed problems, compared byte for byte.

Each `<name>.problem.json` under `golden/` has the outputs that OUTPUTS
names for it next to it, one `<name>.<output>.json` per command in COMMANDS,
each from `smallcover <command> <problem> ... --format json`.  A change that
moves a bound on purpose rewrites the file and says why in CHANGES.md.
"""

from pathlib import Path

from smallcover.cli import main

GOLDEN = Path(__file__).parent / "golden"
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
