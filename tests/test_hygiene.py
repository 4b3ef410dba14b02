"""Static checks on the source tree, by `ast` alone: no linter is needed.

Two checks:

* no module in src/ or tests/ imports a name it never uses (a package
  __init__ re-exports, so a name listed in its __all__ counts as used);
* every defaulted parameter of a loopflow function is set by at least
  one call in src/, tests/ or bench/.  A parameter that only its default
  ever reaches is a constant, and belongs in the body or a module
  constant.

Calls are matched to functions by name (a plain name or the last part
of an attribute), so a call to another function of the same name also
counts, and a function called only under another name (as a callback)
is reported.  A call through *args or **kwargs counts as setting every
parameter.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "loopflow"


def _files(*dirs):
    return sorted(path for d in dirs for path in (ROOT / d).rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path):
    """The names path imports and never reads."""
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def _defaulted(func, is_method):
    """(name, positional index or None) of each defaulted parameter of
    func; the index counts from the first argument a call passes."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _definitions():
    """(where, function name, defaulted parameters) of every loopflow function."""
    found = []

    def visit(node, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                params = _defaulted(child, in_class and not static)
                if params and not child.name.startswith("__"):
                    found.append((f"{path.relative_to(ROOT)}:{child.lineno}", child.name, params))
                visit(child, path, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, True)
            else:
                visit(child, path, in_class)

    for path in _files("src/loopflow"):
        visit(_tree(path), path, False)
    return found


def _calls():
    """Every call in src/, tests/ and bench/, by the name it calls."""
    calls = defaultdict(list)
    for path in _files("src", "tests", "bench"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name:
                    calls[name].append(node)
    return calls


def _sets(call, name, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and index < len(call.args)


def unset_defaults():
    """"where: function(parameter)" for each defaulted parameter that no
    call sets."""
    calls = _calls()
    return [f"{where}: {func}({name})" for where, func, params in _definitions()
            for name, index in params
            if not any(_sets(call, name, index) for call in calls[func])]


def test_no_unused_imports_in_src_or_tests():
    assert [line for path in _files("src", "tests") for line in unused_imports(path)] == []


def test_every_defaulted_parameter_is_set_by_some_call():
    assert unset_defaults() == []
