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


ALLOCATING_MODULES = ("tensor", "blocks", "scan", "model", "objective")


def _allocations_without_dtype(source: str) -> list:
    """Lines of np.empty/zeros/ones/full calls that pass no dtype= (the
    *_like forms follow their argument's dtype and are not matched)."""
    import ast

    bad = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("empty", "zeros", "ones", "full")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and not any(k.arg == "dtype" for k in node.keywords)):
            bad.append(node.lineno)
    return bad


def test_allocations_name_their_dtype():
    # an allocation without dtype= is float64 and would quietly turn the
    # float32 path back into float64
    bad = [f"src/sumnet/{m}.py:{line}" for m in ALLOCATING_MODULES
           for line in _allocations_without_dtype(
               (ROOT / "src" / "sumnet" / f"{m}.py").read_text(encoding="utf-8"))]
    assert not bad, bad


def test_the_allocation_rule_sees_a_call_without_dtype():
    src = "np.zeros(3)\nnp.empty((2, 2), dtype=x.dtype)\nnp.ones_like(x)\nnp.full(2, 1.0)\n"
    assert _allocations_without_dtype(src) == [1, 4]
