"""Orphan guard: library code that only tests use is not a feature.

Every public function, class and method defined in ``src/mmrec`` must be
referenced somewhere in the library, the demos or the benchmark's modules
(not its tests), apart from its own definition. A reference is any name or
attribute with the same identifier, so the guard can miss an orphan that
shares its name with something else, but it never flags a name in use.
The allow-list holds the test oracles and fixtures the library keeps on
purpose.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOWED = {
    "numerics.finite_diff_grad": "central-difference oracle of every backward test",
    "numerics.rel_error": "error measure of the finite-difference oracle",
    "model.flatten": "parameter vector of the composed-objective gradient check",
    "model.unflatten": "inverse of flatten for the same check",
    "synth.two_tasks": "sequential-task fixture of the EWC forgetting test",
}


def _py_files(directory, skip_tests=False):
    path = os.path.join(ROOT, directory)
    return [os.path.join(path, f) for f in sorted(os.listdir(path))
            if f.endswith(".py") and not (skip_tests and f.startswith("test_"))]


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _public_definitions():
    """(qualified name, bare name, file, first line, last line)."""
    out = []
    for path in _py_files(os.path.join("src", "mmrec")):
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((f"{module}.{node.name}", node.name, path,
                        node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        out.append((f"{module}.{node.name}.{sub.name}", sub.name,
                                    path, sub.lineno, sub.end_lineno))
    return out


def _references():
    """identifier -> [(file, line)] of every name and attribute use."""
    refs = {}
    files = (_py_files(os.path.join("src", "mmrec")) + _py_files("demos")
             + _py_files("perfbench", skip_tests=True))
    for path in files:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def test_allow_list_names_exist():
    defined = {qual for qual, *_ in _public_definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def test_every_public_name_has_a_caller():
    refs = _references()
    orphans = []
    for qual, name, path, first, last in _public_definitions():
        if qual in ALLOWED:
            continue
        outside = [(f, line) for f, line in refs.get(name, [])
                   if not (f == path and first <= line <= last)]
        if not outside:
            orphans.append(qual)
    assert not orphans, f"public names used only by tests (or nowhere): {orphans}"
