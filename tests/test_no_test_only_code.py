"""Every function, class and method in the package has a caller in the package.

Code that only tests call still has to be read, kept working and kept in
step with the rest, yet no run depends on it. A definition counts as used
when its name appears in ``src/fedfbn`` outside its own body, as a name or
an attribute. Dunders are called by Python itself and names in
``__init__.__all__`` are the public API, so both are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedfbn"

ALLOWED = {
    # the only reader of the shipped global_<arm>.ckpt; the checkpoint and
    # hostile-input tests load those files through it
    "checkpoint.load_global",
}


def names_used(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def definitions(module: str, tree):
    """(qualified name, node) of each module-level def and class, and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def public_api() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__":
            return set(ast.literal_eval(node.value))
    raise AssertionError("__init__.py has no __all__")


def unused_definitions() -> list[str]:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    exempt = public_api()
    unused = []
    for module, tree in trees.items():
        for qualname, node in definitions(module, tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name in exempt:
                continue
            if used[node.name] - names_used(node)[node.name] < 1:
                unused.append(qualname)
    return unused


def test_every_definition_has_a_caller_in_the_package():
    assert sorted(unused_definitions()) == sorted(ALLOWED)
