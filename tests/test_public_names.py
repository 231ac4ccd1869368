"""Every public name in the package is reached by something besides the tests.

A test-only oracle belongs in ``tests/helpers.py``; a function or class in
``src/`` that only tests call is code no command, pipeline, demo or
benchmark runs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "codec_infill"

# The masked-reconstruction check, which `codec-infill eval` is to run
# (ROADMAP item 1); until it does, only tests call it.
EXEMPT = {"masked_reconstruction_eval", "sample_reconstruction_cases"}


def unreached_names() -> set[str]:
    """Public top-level defs and classes of the package's modules that only tests name."""
    modules = {path: path.read_text() for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    outside = [
        path.read_text()
        for folder in ("demos", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    ]
    unreached = set()
    for path, text in modules.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if len(word.findall(text)) > 1:  # its own module uses it beyond the definition
                continue
            others = [t for p, t in modules.items() if p != path] + outside
            if not any(word.search(other) for other in others):
                unreached.add(node.name)
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_names() == EXEMPT
