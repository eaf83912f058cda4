"""Layout check: every module-level function of the package is used by the
package itself, the scripts or the benchmark harness. Code that only the
tests call belongs in `tests/`."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "magnetkit"
USERS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]


def module_aliases(tree, own):
    """Local name -> package module name for every import of a package
    module in ``tree``; ``own`` is the module's name if it is in the package,
    for relative imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level == 1 and own is not None
            if node.module == "magnetkit" or (relative and node.module is None):
                for a in node.names:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("magnetkit.") and a.asname:
                    aliases[a.asname] = a.name.partition(".")[2]
    return aliases


def imported_names(tree, own):
    """(module, name) pairs imported by name from a package module."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module.startswith("magnetkit."):
            module = node.module.partition(".")[2]
        elif node.level == 1 and own is not None:
            module = node.module
        else:
            continue
        found |= {(module, a.name) for a in node.names}
    return found


def references():
    """Every (module, function) pair referenced from the user directories."""
    refs = set()
    for path in (p for d in USERS for p in d.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = path.stem if path.parent == PACKAGE else None
        aliases = module_aliases(tree, own)
        refs |= imported_names(tree, own)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and own is not None:
                refs.add((own, node.id))
    return refs


def module_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node.name


def test_every_module_function_has_a_caller_outside_tests():
    refs = references()
    unused = [f"{module}.{name}" for module, name in module_functions()
              if (module, name) not in refs]
    assert not unused, f"used by tests only (move to tests/): {unused}"

