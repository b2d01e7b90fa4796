"""The library carries no code that only its own tests reach.

Every top-level function and class of `src/ffvojta` is referenced by
library code outside its own definition (`__init__.py`'s re-exports do not
count), or named in `perfbench/tracing.py`, whose wrappers break a traced
run when a name they wrap is missing.  The exceptions are the checkers an
open ROADMAP item will wire into a CLI mode.  Likewise every public method of a library class has its name
read by library code outside the method itself, or by the tracing code.

sympy stays out of the library's decisions: only `bipoly.bipoly_gcd`,
which the tracing code wraps and no library code calls, imports it.  And
importing the library loads no hashlib, which would cost every CLI start
milliseconds.  Only `field_core` names the table of lift primes.  No
module calls `id()`: an id is reused once its object is collected, so a
per-instance cache lives in a slot of the instance, never in a dict keyed
on ids.  An evaluated inequality is a `counting.BoundCheck`, whichever
checker made it: no other class has both an `lhs` and a `holds` field.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ffvojta"
TRACING = ROOT / "perfbench" / "tracing.py"

# name -> the ROADMAP item that wires or keeps it
ALLOWED = {
    "check_cz_gcd_bound": "item 4, stage 3: the gcd lemma per common zero",
    "check_dependence_transfer": "item 4, stage 3: dependence transfer",
    "check_zannier_bound": "item 5: Zannier's bound beside BM in bm mode",
}


def _names(tree: ast.AST) -> Counter[str]:
    """The names a tree reads, and the attributes, each with the number of
    times it reads them."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _library() -> list[tuple[str, ast.Module]]:
    """(module name, parsed tree) of each library module but `__init__`."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(LIBRARY.glob("*.py"))
            if path.name != "__init__.py"]


def _traced() -> set[str]:
    """The names and strings of `perfbench/tracing.py`."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return set(_names(tree)) | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _unreached() -> list[str]:
    """`module.name` of each top-level function and class of the library
    (not `__init__`) that no other top-level statement of it names."""
    statements = [(mod, stmt) for mod, tree in _library()
                  for stmt in tree.body]
    named = [_names(stmt) for _, stmt in statements]
    out = []
    for i, (mod, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names
                   for j, names in enumerate(named) if j != i):
            out.append(f"{mod}.{stmt.name}")
    return out


def _unread_methods() -> list[str]:
    """`module.Class.name` of each public method of a library class whose
    name no library code reads outside the method's own body."""
    reads, methods = Counter(), []
    for mod, tree in _library():
        reads += _names(tree)
        methods += [(f"{mod}.{cls.name}.{fn.name}", fn)
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("_")]
    return [name for name, fn in methods
            if reads[fn.name] == _names(fn)[fn.name]]


def test_every_definition_is_reached():
    traced = _traced()
    assert [name for name in _unreached()
            if name.split(".")[1] not in ALLOWED
            and name.split(".")[1] not in traced] == []


def test_allowed_names_are_defined_and_unreached():
    # a name that a mode comes to reach, or that goes, leaves the list
    assert set(ALLOWED) <= {name.split(".")[1] for name in _unreached()}


def test_every_public_method_is_read():
    traced = _traced()
    assert [name for name in _unread_methods()
            if name.rsplit(".", 1)[1] not in traced] == []


def _outside_gcd() -> list[tuple[str, ast.AST]]:
    """(module name, node) of every node of the library outside
    `bipoly.bipoly_gcd`."""
    out = []
    for mod, tree in _library():
        stack = [tree]
        while stack:
            node = stack.pop()
            if (mod == "bipoly" and isinstance(node, ast.FunctionDef)
                    and node.name == "bipoly_gcd"):
                continue
            out.append((mod, node))
            stack.extend(ast.iter_child_nodes(node))
    return out


def test_sympy_imported_only_by_bipoly_gcd():
    imports = [f"{mod}:{node.lineno}" for mod, node in _outside_gcd()
               if (isinstance(node, ast.Import)
                   and any(a.name.split(".")[0] == "sympy"
                           for a in node.names))
               or (isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "sympy")]
    assert imports == []
    gcd = [node for mod, tree in _library() if mod == "bipoly"
           for node in tree.body if isinstance(node, ast.FunctionDef)
           and node.name == "bipoly_gcd"]
    assert len(gcd) == 1 and any(isinstance(node, ast.Import)
                                 for node in ast.walk(gcd[0]))


def test_no_library_code_calls_bipoly_gcd():
    assert [f"{mod}:{node.lineno}" for mod, node in _outside_gcd()
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            and "bipoly_gcd" in (getattr(node, "id", None),
                                 getattr(node, "attr", None),
                                 getattr(node, "name", None))] == []


def test_only_field_core_names_the_lift_primes():
    # the least prime above a bound is chosen in one place
    # (`field_core._lift_modulus`)
    assert [path.name for path in sorted(LIBRARY.glob("*.py"))
            if path.name != "field_core.py" and "_MERSENNE_EXPONENTS"
            in path.read_text(encoding="utf-8")] == []


def test_no_module_calls_id():
    assert [f"{path.name}:{node.lineno}"
            for path in sorted(LIBRARY.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "id"] == []


def test_one_bound_check_record():
    records = [f"{mod}.{cls.name}" for mod, tree in _library()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               and {"lhs", "holds"} <= {stmt.target.id for stmt in cls.body
                                        if isinstance(stmt, ast.AnnAssign)
                                        and isinstance(stmt.target, ast.Name)}]
    assert records == ["counting.BoundCheck"]


def test_import_loads_no_hashlib():
    # the seeded draws take sha512 from CPython's lean built-in module
    code = (f"import sys; sys.path.insert(0, {str(LIBRARY.parent)!r}); "
            "before = set(sys.modules); import ffvojta; "
            "print(ffvojta.__file__); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == [str(LIBRARY / "__init__.py"), "[]"]
