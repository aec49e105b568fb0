"""Checks on the library source itself."""

import ast
import inspect
from pathlib import Path

import padiccf

PACKAGE = Path(padiccf.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check the library relies on
    # may be written as one; core._invariant raises instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(SOURCES) >= 9
    assert found == []


def _loaded_names(path):
    """Names a file reads, as bare names or as attributes; an assignment or
    a def does not count, so a name is not its own reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported_names():
    """The names padiccf/__init__.py imports from its modules."""
    init = PACKAGE / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_package_export_has_a_caller():
    # an export that only the tests call is dead weight in the library
    init = PACKAGE / "__init__.py"
    exported = _exported_names()
    used = set()
    for path in SOURCES + PERFBENCH:
        if path != init:
            used |= _loaded_names(path)
    assert len(exported) >= 40 and PERFBENCH
    assert [name for name in exported if name not in used] == []


# methods that write to the dict they are called on
_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _is_instance_dict(node):
    """obj.__dict__ or vars(obj)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars" and len(node.args) == 1)


def test_library_writes_no_instance_dict():
    # a write to obj.__dict__ materializes a real dict per object: filling
    # a stepped QuadIrr by __dict__.update cost ~2.5x its memory, so the
    # engine sets fields one by one (engine._quad, engine._unit_digit)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not _is_instance_dict(node):
                    continue
                stored = not isinstance(getattr(node, "ctx", ast.Load()), ast.Load)
                item_stored = isinstance(parent, ast.Subscript) and not isinstance(parent.ctx, ast.Load)
                mutated = isinstance(parent, ast.Attribute) and parent.attr in _DICT_WRITES
                if stored or item_stored or mutated:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# functions with exactly one library caller: expand, walk(),
# state_at and the replay share one stepping chain, engine._chain, which
# alone runs the dividing step and the kernel, whose rare routes are in
# _wide_step and whose residue blocks end in one _rebuild; delta is lifted
# only where the dividing step needs it. A second caller would be a
# second chain. Likewise the strip of a huge p-power has one entry point,
# split_p_power, and construct's lent power one reader, the top strip.
_SINGLE_CALLERS = {
    "_wide_step": "engine.py:_chain",
    "_rebuild": "engine.py:_chain",
    "_dividing_step": "engine.py:_chain",
    "hensel_digits": "engine.py:_dividing_step",
    "_strip_top": "core.py:split_p_power",
    "_power": "core.py:_strip_top",
}


def test_step_kernel_has_one_call_site():
    found = {name: [] for name in _SINGLE_CALLERS}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in found:
                owners = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                inner = min(owners, key=lambda d: d.end_lineno - d.lineno, default=None)
                found[name].append(f"{path.name}:{getattr(inner, 'name', '<module>')}")
    assert found == {name: [caller] for name, caller in _SINGLE_CALLERS.items()}


def test_no_export_takes_a_private_parameter():
    # a private parameter on a public function selects a second route that
    # its documentation and its callers do not see
    found, checked = [], 0
    for name in _exported_names():
        obj = getattr(padiccf, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a builtin base such as Exception
            continue
        checked += 1
        found += [f"{name}({param})" for param in params if param.startswith("_")]
    assert checked >= 30
    assert found == []


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in paths]


def _declared_surface(trees):
    """(class name, member, is a field) for every dataclass field, public
    method and property of a library class, and {function name: [(positional
    parameters as a call passes them, optional parameters)]} for every
    library function with a default."""
    members, functions, methods = [], {}, set()
    for _, tree in trees:
        for node in ast.walk(tree):  # breadth first: a class before its methods
            if isinstance(node, ast.ClassDef):
                fields = any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                             for d in node.decorator_list)
                for item in node.body:
                    if fields and isinstance(item, ast.AnnAssign):
                        members.append((node.name, item.target.id, True))
                    elif isinstance(item, ast.FunctionDef):
                        methods.add(item)
                        if not item.name.startswith("_"):
                            members.append((node.name, item.name, False))
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            optional = positional[len(positional) - len(args.defaults):]
            optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if optional:
                # a method's call site does not pass self or cls
                functions.setdefault(node.name, []).append(
                    (positional[node in methods:], optional))
    return members, functions


def _import_aliases(tree):
    """{local name: imported name} for every `import x as y` in a file."""
    return {alias.asname: alias.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if alias.asname}


def test_every_member_and_optional_parameter_has_a_reader():
    # a field, method or knob that only the tests touch is dead weight in the
    # library. A member counts as read by an attribute load or a keyword in
    # the library or the benchmark, or by a string constant in the benchmark
    # (which reads some fields through getattr); a method or property also
    # by a bare name load (a class body's `__str__ = text`). A field does
    # not count as read by a bare name: ConstructionResult once carried h,
    # omega0, q1, reexpand_ok and eq12_ok, which nothing read, and
    # construct's locals of those names hid them from a scan that let it.
    library, bench = _trees(SOURCES), _trees(PERFBENCH)
    members, functions = _declared_surface(library)
    readers, names, passed = set(), set(), set()
    for path, tree in library + bench:
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                readers.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                readers.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path in PERFBENCH:
                readers.add(node.value)
            if not isinstance(node, ast.Call):
                continue
            # an optional parameter counts as read when a call passes it,
            # by keyword or by position; **kwargs or *args pass them all
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            name = aliases.get(name, name)
            for positional, optional in functions.get(name, ()):
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                given = set(positional if spread else positional[:len(node.args)])
                given |= {k.arg for k in node.keywords}
                if any(k.arg is None for k in node.keywords):
                    given |= set(optional)
                passed |= {(name, param) for param in optional if param in given}
    unread = [f"{cls}.{member}" for cls, member, field in members
              if member not in readers and (field or member not in names)]
    unpassed = [f"{fn}({param})" for fn, defs in functions.items()
                for _, optional in defs for param in optional if (fn, param) not in passed]
    assert len(members) >= 100 and len(functions) >= 12
    assert unread + unpassed == []
