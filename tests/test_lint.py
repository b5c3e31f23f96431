"""Source-layout checks over the program, its tests and its demos."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIDTH = 99  # the repository's line width


def test_no_line_exceeds_the_repository_width():
    paths = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    wide = [f"{path.relative_to(ROOT)}:{n}" for path in paths
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > WIDTH]
    assert not wide, wide
