"""Committed CLI outputs for fixed towers, compared byte for byte.

Each `<name>.problem.json` under `golden/` has two outputs next to it:
`<name>.bounds.json` from `smallcover bounds <problem> --invariant all
--format json` and `<name>.certificate.json` from `smallcover zcl <problem>
--certificate-only --format json`.  A change that moves a bound on purpose
rewrites the file and says why in CHANGES.md.
"""

from pathlib import Path

from smallcover.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "bounds": ["bounds", "--invariant", "all", "--format", "json"],
    "certificate": ["zcl", "--certificate-only", "--format", "json"],
}


def test_golden_outputs_byte_identical(capsys):
    problems = sorted(GOLDEN.glob("*.problem.json"))
    assert [p.name.split(".")[0] for p in problems] == [
        "circle_guard_1_3_3", "tower_16_8", "tower_17_9", "twisted_1_3", "twisted_3x8"]
    for problem in problems:
        name = problem.name.split(".")[0]
        for output, (command, *options) in COMMANDS.items():
            assert main([command, str(problem), *options]) == 0, (name, output)
            expected = (GOLDEN / f"{name}.{output}.json").read_text()
            assert capsys.readouterr().out == expected, (name, output)
