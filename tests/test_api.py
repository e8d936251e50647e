"""Every public name has a caller: in the package or in README's tour."""

import ast
import re
from pathlib import Path

import indmom

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "indmom"


def _tour() -> str:
    """The code block of README's "Library quick tour"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _identifiers(path: Path) -> set:
    """The names a module's code reads, attributes and imports included."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_name_has_a_caller_or_a_tour_line():
    # a caller is code outside the name's own module and __init__; the
    # tour may name a result type in a comment
    used = {path.stem: _identifiers(path) for path in PACKAGE.glob("*.py")}
    tour = set(re.findall(r"\w+", _tour()))
    orphans = []
    for name in indmom.__all__:
        home = getattr(indmom, name).__module__.rsplit(".", 1)[1]
        if name not in tour and not any(
                name in names for module, names in used.items()
                if module not in (home, "__init__")):
            orphans.append(name)
    assert orphans == []


def test_the_tour_runs():
    exec(compile(_tour(), "README.md tour", "exec"), {})
