"""The library carries no code that only its own tests reach.

Every top-level function and class of `src/ffvojta` is referenced by
library code outside its own definition (`__init__.py`'s re-exports do not
count), or named in `perfbench/tracing.py`, whose wrappers break a traced
run when a name they wrap is missing.  The exceptions are the checkers an
open ROADMAP item will wire into a CLI mode and two of the paper's
constants.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ffvojta"
TRACING = ROOT / "perfbench" / "tracing.py"

# name -> the ROADMAP item that wires or keeps it
ALLOWED = {
    "check_cz_gcd_bound": "item 4, stage 3: the gcd lemma per common zero",
    "check_dependence_transfer": "item 4, stage 3: dependence transfer",
    "check_zannier_bound": "item 7: Zannier's bound beside BM in bm mode",
    "section_height_constant": "item 7: a paper constant no mode prints yet",
    "section_pullback_degree": "item 7: a paper constant no mode prints yet",
}


def _names(tree: ast.AST) -> set[str]:
    """The names a tree reads, and the attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unreached() -> list[str]:
    """`module.name` of each top-level function and class of the library
    (not `__init__`) that no other top-level statement of it names."""
    statements = [(path.stem, stmt)
                  for path in sorted(LIBRARY.glob("*.py"))
                  if path.name != "__init__.py"
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    named = [_names(stmt) for _, stmt in statements]
    out = []
    for i, (mod, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names
                   for j, names in enumerate(named) if j != i):
            out.append(f"{mod}.{stmt.name}")
    return out


def test_every_definition_is_reached():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = _names(tree) | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert [name for name in _unreached()
            if name.split(".")[1] not in ALLOWED
            and name.split(".")[1] not in traced] == []


def test_allowed_names_are_defined_and_unreached():
    # a name that a mode comes to reach, or that goes, leaves the list
    assert set(ALLOWED) <= {name.split(".")[1] for name in _unreached()}
