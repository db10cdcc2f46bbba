"""Every function, class, method, dataclass field and module-level constant
in the package is used there.

Code that only tests call still has to be read, kept working and kept in
step with the rest, yet no run depends on it. A definition counts as used
when its name appears in ``src/fedfbn`` outside its own body, as a name or
an attribute. Dunders (``__all__`` among them) are read by Python itself and
names in ``__init__.__all__`` are the public API, so both are exempt. A
dataclass field counts as used when ``src/fedfbn`` reads it as an attribute;
setting it in a constructor call is not a read. A module-level constant
counts as used when its name appears outside its own assignment. A
parameter with a default counts as used when a call in ``src/fedfbn`` to a
function or method of its name passes it, by keyword or by position. A
name a module imports counts as used when the module reads it or lists it
in its ``__all__``.
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


def package_trees() -> dict:
    """Module name -> parsed source, for each module of the package."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def names_used(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def assigned_names(node) -> list[str]:
    """The plain names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
    ]


def definitions(module: str, tree):
    """(qualified name, name, node) of each module-level def, class and
    constant, and each method; a constant's node is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in assigned_names(node):
                yield f"{module}.{name}", name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def exported(tree) -> set[str]:
    """The names a module's ``__all__`` lists; empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            return set(ast.literal_eval(node.value))
    return set()


def public_api() -> set[str]:
    names = exported(package_trees()["__init__"])
    assert names, "__init__.py has no __all__"
    return names


def unused_definitions() -> list[str]:
    trees = package_trees()
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    exempt = public_api()
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in definitions(module, tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in exempt:
                continue
            if used[name] - names_used(node)[name] < 1:
                unused.append(qualname)
    return unused


def test_every_definition_has_a_caller_in_the_package():
    assert sorted(unused_definitions()) == sorted(ALLOWED)


def is_dataclass(node) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass...``."""
    targets = (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def unread_fields() -> list[str]:
    trees = package_trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}.{node.name}.{item.target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in read
    ]


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_fields() == []


# set only by callers outside the package: main() reads sys.argv by default
UNPASSED_ALLOWED = {"cli.main(argv)"}


def defaulted_parameters(module: str, tree):
    """(label, callee name, parameter, position or None, leading implicit
    arguments) of each parameter with a default, in each module-level
    function and method; ``__init__`` is called through its class name."""
    scopes = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    scopes += [
        (cls, item)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for item in cls.body if isinstance(item, ast.FunctionDef)
    ]
    for cls, fn in scopes:
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        implicit = 0 if cls is None or static else 1
        callee = cls.name if fn.name == "__init__" else fn.name
        label = f"{module}.{cls.name + '.' if cls else ''}{fn.name}"
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield label, callee, arg.arg, i, implicit
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield label, callee, arg.arg, None, implicit


def passes(call, name: str, position, implicit: int) -> bool:
    """Whether ``call`` may set the parameter; a ``*`` or ``**`` argument
    counts as setting every parameter it could reach."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return implicit + len(call.args) > position


def unpassed_defaults() -> list[str]:
    trees = package_trees()
    calls: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    return [
        f"{label}({name})"
        for module, tree in trees.items()
        for label, callee, name, position, implicit in defaulted_parameters(module, tree)
        if not any(passes(c, name, position, implicit) for c in calls.get(callee, []))
    ]


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert sorted(unpassed_defaults()) == sorted(UNPASSED_ALLOWED)


def imported_names(tree):
    """Each name an import in ``tree`` binds; ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def unused_imports() -> list[str]:
    unused = []
    for module, tree in package_trees().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= exported(tree)
        unused += [f"{module}.{name}" for name in imported_names(tree) if name not in read]
    return unused


def test_every_imported_name_is_used_in_its_module():
    assert unused_imports() == []
