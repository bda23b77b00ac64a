"""Every top-level function, class and constant of `src/liqinfer`, and every
non-dunder method, is referenced from the program itself: from `src/`,
`demos/` or `perfbench/`, somewhere other than inside its own definition.
Code that only the tests reach fails this check, and so does an export
that nothing calls: an `__all__` entry is not a use.

Every class is also constructed somewhere in the program, unless it is a
base class or a metaclass of another class of the package: a class that is
only tested for (`isinstance`) or caught is a leftover.

Every parameter of a function or method of the package, nested ones too, is
read in its body, but for `self`, `cls` and `mcs` and those of dunder
methods: a parameter no body reads is one every caller fills for nothing.

Every parameter with a default is passed by some call in the program or
its tests, by keyword or by place: a default no call overrides is a
constant spelled as a parameter. A constructor's parameters are passed by
calls of its class, or of a subclass, by name, and so is each field with a
default of a `NamedTuple` class.

Every `__slots__` name of a class of the package, but for dunders such as
`__weakref__`, is referenced somewhere in the package other than its
declaration, as an attribute or in a string such as
`getattr(node, "_formula", None)`: a slot nothing reads or sets is a
leftover.

References are matched by name, not resolved: a use of `.infer` anywhere
counts for every method named `infer`. Imports are not uses. A string that
parses as a Python expression, such as a quoted annotation or a
`perfbench/spans.py` wrap point like "Inferencer.infer", counts for the
names in it; a docstring or an `__all__` entry does not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liqinfer"
PROGRAM_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench")

# (module, qualified name): why a definition that nothing in the program
# reaches stays
ALLOWED: dict[tuple[str, str], str] = {
    ("__init__", "__getattr__"): "the interpreter calls it for an export that loads on first access",
    ("anf", "is_anf"): "the definition of A-normal form, the exported postcondition of `normalize` that its tests state",
    ("parser", "pretty_print"): "the exported inverse of `parse_program`, in which the parser's round trip is stated",
    ("syntax", "intersect"): "the paper's intersection of two types, exported; criterion 8 checks its algebra",
    ("syntax", "subst_type"): "the paper's substitution of values in a scheme, exported; its laws are tested",
    ("syntax", "well_founded"): "the paper's judgement t :: T, exported; every type is tested well founded at its shape",
}


# (module, qualified function name, parameter): why a parameter that its body
# does not read stays, such as one a protocol fixes
ALLOWED_PARAMS: dict[tuple[str, str, str], str] = {}


# (module, qualified function name, parameter): why a parameter with a
# default that no call passes stays
ALLOWED_DEFAULTS: dict[tuple[str, str, str], str] = {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each top-level function, class
    and constant, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield target.id, target.id, node


def _unread_strings(tree: ast.AST) -> set[int]:
    """The ids of the docstrings and of the entries of `__all__` lists: an
    export is not a use."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            out.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out |= {id(n) for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return out


def _references(tree: ast.AST):
    """(name, line) of each use of a name in the module."""
    skip = _unread_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            try:
                inner = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            for name, _ in _references(inner):
                yield name, node.lineno


def _constructed(tree: ast.AST):
    """Names of the classes a module may construct: callees of calls, names
    raised, and classes handed on as values (a table's values, a call's
    arguments) from which something else builds them. Not the classes an
    `isinstance` or `issubclass` asks about, nor a table's keys."""
    for node in ast.walk(tree):
        found: list[ast.expr] = []
        if isinstance(node, ast.Call):
            found.append(node.func)
            if not (isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass")):
                found += node.args
        elif isinstance(node, ast.Raise) and node.exc is not None:
            found.append(node.exc)
        elif isinstance(node, ast.Dict):
            found += node.values
        for expr in found:
            if isinstance(expr, ast.Name):
                yield expr.id
            elif isinstance(expr, ast.Attribute):
                yield expr.attr


def _program_files():
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _program_trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in _program_files()}


def unreached(allowed=ALLOWED) -> list[str]:
    trees = _program_trees()
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, node in _definitions(trees[path]):
            if (path.stem, qualified) in allowed:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside for p, line in uses.get(name, ())):
                out.append(f"{path.stem}.{qualified}")
    return out


def unconstructed() -> list[str]:
    trees = _program_trees()
    built = {name for tree in trees.values() for name in _constructed(tree)}
    classes = {}
    exempt = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = path.stem
                for base in node.bases + [k.value for k in node.keywords]:
                    exempt.add(base.id if isinstance(base, ast.Name) else getattr(base, "attr", None))
    return [f"{stem}.{name}" for name, stem in classes.items() if name not in built | exempt]


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of each function and method under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def unread_parameters(allowed=ALLOWED_PARAMS) -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, fn in _functions(ast.parse(path.read_text())):
            if _is_dunder(fn.name):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [
                f"{path.stem}.{qualified}({p.arg})" for p in params
                if p.arg not in ("self", "cls", "mcs") and p.arg not in read
                and (path.stem, qualified, p.arg) not in allowed
            ]
    return out


def _name(expr: ast.expr):
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def unpassed_defaults(allowed=ALLOWED_DEFAULTS) -> list[str]:
    # each call, by callee name: its count of positional arguments and its
    # keywords, None where it unpacks some (`*args`, `**kwargs`) and so may
    # pass any; and each class's bases, by name
    calls: dict[str, list] = {}
    classes: dict[str, set[str]] = {}
    for directory in PROGRAM_DIRS + (ROOT / "tests",):
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    keywords = {k.arg for k in node.keywords}
                    calls.setdefault(_name(node.func), []).append((
                        None if any(isinstance(arg, ast.Starred) for arg in node.args) else len(node.args),
                        None if None in keywords else keywords,
                    ))
                elif isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, set()).update(_name(b) for b in node.bases)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qualified, fn in _functions(tree):
            owner, _, name = qualified.rpartition(".")
            if name == "__init__":
                # a constructor is called by its class's name, or a subclass's
                names = _subclasses(classes, owner) | {name}
            elif _is_dunder(name):
                continue
            else:
                names = {name}
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(i, p) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            uses = [use for n in names for use in calls.get(n, ())]
            for i, p in defaulted:
                # the receiver of a method call fills `self`
                place = None if i is None else i - (owner in classes)
                if (path.stem, qualified, p.arg) in allowed or any(
                    keywords is None or p.arg in keywords
                    or (place is not None and (count is None or count > place))
                    for count, keywords in uses
                ):
                    continue
                out.append(f"{path.stem}.{qualified}({p.arg})")
        for qualified, place, field in _named_tuple_defaults(tree):
            uses = [use for n in _subclasses(classes, qualified) for use in calls.get(n, ())]
            if (path.stem, qualified, field) in allowed or any(
                keywords is None or field in keywords or count is None or count > place
                for count, keywords in uses
            ):
                continue
            out.append(f"{path.stem}.{qualified}({field})")
    return out


def _named_tuple_defaults(tree: ast.Module):
    """(class name, place, field) of each field with a default of each
    `NamedTuple` class of the module: its class calls fill it."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and "NamedTuple" in map(_name, node.bases):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for place, item in enumerate(fields):
                if item.value is not None:
                    yield node.name, place, item.target.id


def _subclasses(classes: dict[str, set[str]], name: str) -> set[str]:
    """`name` and every class whose bases reach it, by name."""
    out = {name}
    while True:
        more = {c for c, bases in classes.items() if bases & out} - out
        if not more:
            return out
        out |= more


def unreferenced_slots() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    out = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not (isinstance(item, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)):
                    continue
                inside = range(item.lineno, item.end_lineno + 1)
                for node in ast.walk(item.value):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str) and not _is_dunder(node.value):
                        if not any(p != path or line not in inside for p, line in uses.get(node.value, ())):
                            out.append(f"{path.stem}.{cls.name}.{node.value}")
    return out


def test_every_definition_is_reached_from_the_program():
    assert unreached() == []


def test_every_class_is_constructed_by_the_program():
    assert unconstructed() == []


def test_allowed_names_are_unreached():
    # an allowlist entry for a name the program now reaches would hide nothing
    # today and anything that stops reaching it later
    found = set(unreached(allowed={}))
    assert [entry for entry in ALLOWED if ".".join(entry) not in found] == []


def test_allowed_names_exist():
    # an allowlist entry whose definition is gone would hide nothing
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined |= {(path.stem, q) for q, _, _ in _definitions(ast.parse(path.read_text()))}
    assert [entry for entry in ALLOWED if entry not in defined] == []


def test_every_slot_is_referenced():
    assert unreferenced_slots() == []


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_allowed_parameters_are_unread():
    # an entry for a parameter that is gone or now read would hide nothing
    found = set(unread_parameters(allowed={}))
    assert [e for e in ALLOWED_PARAMS if f"{e[0]}.{e[1]}({e[2]})" not in found] == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults() == []


def test_allowed_defaults_are_unpassed():
    # an entry for a parameter that is gone or now passed would hide nothing
    found = set(unpassed_defaults(allowed={}))
    assert [e for e in ALLOWED_DEFAULTS if f"{e[0]}.{e[1]}({e[2]})" not in found] == []
