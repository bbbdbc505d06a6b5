"""Every public function of the program has a caller in the program.

A public module-level function or classmethod of `clonelab` that only the
tests name is API kept for the tests alone: it either gets a caller in a
module, the CLI, a suite criterion or the benchmark, or it goes.  Names
exported from `clonelab/__init__.py` are the package's interface and count
as called.  The check reads the source with `ast`.  A function counts as
named by a bare name or through its module (`finite.pol`), a classmethod
through its class or `cls` (`RelationTable.unary`).  Likewise every name a
module of the package imports is read in that module (`__init__.py`, whose
imports are the exports, and `from __future__` aside).

A public class that the tests construct is constructed by the program too:
a class built for the tests alone goes, like a function called only by
them.  Construction is a call by the class name, bare or through its module
(`finite.OpTable(...)`), or `cls(...)` in one of the class's own
classmethods; a class that no file constructs (an abstract base) is skipped.

The same holds one level down: every defaulted parameter of a public
function or method that the program calls is set by some call in the
program, or the default is the only value in use and the option goes.
And every private function or method of the package is named by the
program, so a scan that a shared helper replaced does not stay behind;
likewise every private module-level constant is read by the program.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clonelab"

# name -> why it stays although only the tests call it
ALLOWED = {
    "format_ops": "writes the CLI's op-file format; the tests build CLI input with it",
    "format_relations": "writes the CLI's relation-file format; the tests build CLI input with it",
    "format_coloring_table": "writes the CLI's coloring-table format; the tests round-trip it",
    "SpreadWitness": "exported; callers build it as the argument of witnessed_spread_check",
}


def _public_functions():
    """(qualifiers, name) of each public module-level function and
    classmethod: the names a reference may stand on, None for a bare one."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.append(((None, path.stem), node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and any(isinstance(d, ast.Name) and d.id == "classmethod"
                                    for d in item.decorator_list)):
                        found.append(((node.name, "cls"), item.name))
    return found


def _references(paths, with_imports=False):
    """(qualifier, name) of every name the files read: None for a bare name,
    the object's name for an attribute."""
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add((None, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                refs.add((node.value.id, node.attr))
            elif with_imports and isinstance(node, ast.ImportFrom):
                refs.update((None, alias.name) for alias in node.names)
    return refs


def _program():
    """The program's files: the package without `__init__.py`, and the benchmark."""
    program = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return program + sorted((ROOT / "clonebench").glob("*.py"))


def _test_only():
    called = _references(_program()) | _references([PACKAGE / "__init__.py"], with_imports=True)
    tested = _references(sorted((ROOT / "tests").glob("*.py")), with_imports=True)
    return {name for qualifiers, name in _public_functions()
            if any((q, name) in tested for q in qualifiers)
            and not any((q, name) in called for q in qualifiers)}


def test_every_public_function_has_a_caller_outside_the_tests():
    flagged = _test_only() - set(ALLOWED)
    assert not flagged, f"called only from tests/: {sorted(flagged)}"


def test_every_allowed_name_is_still_test_only():
    assert _test_only() | _test_built() >= set(ALLOWED)


def test_the_scan_sees_functions_and_classmethods():
    public = _public_functions()
    assert ((None, "finite"), "pol") in public
    assert (("RelationTable", "cls"), "unary") in public
    assert not any(name.startswith("_") for _, name in public)


def _public_classes():
    """The name of each public class of the package."""
    return {node.name for path in sorted(PACKAGE.glob("*.py")) for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}


def _called_names(tree):
    """Each name the tree calls, bare or as an attribute."""
    return ({node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            | {node.func.attr for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)})


def _constructed(paths):
    """The classes the files construct: each name they call, and each class
    that calls cls(...) in a classmethod of its own."""
    built = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        built |= _called_names(tree)
        built |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  and any(isinstance(item, ast.FunctionDef) and "cls" in _called_names(item)
                          and any(isinstance(d, ast.Name) and d.id == "classmethod"
                                  for d in item.decorator_list)
                          for item in node.body)}
    return built


def _test_built():
    """The public classes that the tests construct and the program does not."""
    tests = _constructed(sorted((ROOT / "tests").glob("*.py")))
    return (_public_classes() & tests) - _constructed(_program())


def test_every_public_class_the_tests_build_is_built_by_the_program():
    flagged = _test_built() - set(ALLOWED)
    assert not flagged, f"constructed only in tests/: {sorted(flagged)}"


def test_the_class_scan_sees_calls_and_classmethods(tmp_path):
    assert {"OpTable", "Term", "SpreadWitness"} <= _public_classes()
    assert "RelationTable" in _constructed([PACKAGE / "finite.py"])
    assert "Term" not in _constructed(_program() + sorted((ROOT / "tests").glob("*.py")))
    module = tmp_path / "module.py"
    module.write_text(
        "class Made:\n    @classmethod\n    def make(cls):\n        return cls()\n"
        "class Raw:\n    @classmethod\n    def make(cls):\n        return cls.__new__(cls)\n"
        "class Bare:\n    def copy(self):\n        return type(self)()\n"
        "Called()\nmod.Dotted()\n")
    assert _constructed([module]) & {"Made", "Raw", "Bare", "Called", "Dotted"} == {"Made", "Called", "Dotted"}


def _private_functions():
    """(module, name) of each private module-level function and each private
    method of a class of the package, dunders and nested defs aside."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owned = node.body if isinstance(node, ast.ClassDef) else [node]
            found += [(path.stem, fn.name) for fn in owned
                      if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                      and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    return found


def _private_constants():
    """(module, name) of each private name a module of the package assigns
    at its top level, dunders aside."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [(path.stem, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id.startswith("_")
                      and not (t.id.startswith("__") and t.id.endswith("__"))]
    return found


def _names_read(paths):
    """Every name the files read, bare (not as an assignment's target) or as
    an attribute of anything."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_private_function_has_a_caller():
    read = _names_read(_program())
    unused = [f"{module}.{name}" for module, name in _private_functions() if name not in read]
    assert not unused, f"private and named by no program file: {unused}"


def test_the_private_scan_sees_helpers_and_skips_dunders():
    private = _private_functions()
    assert ("almost_unary", "_spreads") in private
    assert ("symbolic", "_runs") in private
    assert not any(name.endswith("__") for _, name in private)
    assert "_spreads" in _names_read(_program())


def test_every_private_constant_is_read():
    read = _names_read(_program())
    unread = [f"{module}.{name}" for module, name in _private_constants() if name not in read]
    assert not unread, f"private constants read by no program file: {unread}"


def test_the_constant_scan_sees_constants_and_skips_dunders(tmp_path):
    constants = _private_constants()
    assert ("symbolic", "_CHUNK") in constants
    assert ("lattice", "_MAX_SLICE") in constants
    assert not any(name.endswith("__") for _, name in constants)
    module = tmp_path / "module.py"
    module.write_text("_UNREAD = 1\n_READ: int = 2\nprint(_READ)\n")
    assert {"_READ", "_UNREAD"} & _names_read([module]) == {"_READ"}


# (function, parameter) -> why it stays although no program call sets it
ALLOWED_OPTIONS = {
    ("cli.main", "argv"): "the tests drive the CLI in-process through main(argv)",
}


def _options():
    """(function, parameter, slot) of each defaulted parameter of a public
    module-level function or public-class method, nested defs aside: the
    function as module.name or module.Class.name, the slot as the
    parameter's index among a call's positional arguments, None for a
    keyword-only one."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                owned = [(path.stem, node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                owned = [(f"{path.stem}.{node.name}", item)
                         for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for owner, fn in owned:
                if fn.name.startswith("_"):
                    continue
                positional = fn.args.posonlyargs + fn.args.args
                if owner != path.stem and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list):
                    positional = positional[1:]  # the call binds self or cls
                first = len(positional) - len(fn.args.defaults)
                found += [(f"{owner}.{fn.name}", p.arg, slot)
                          for slot, p in enumerate(positional) if slot >= first]
                found += [(f"{owner}.{fn.name}", p.arg, None)
                          for p, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if default is not None]
    return found


def _calls():
    """name -> (positional arguments, keywords) of each call in the program
    that names the function, bare or as an attribute.  The benchmark's
    tr.call(layer, fn, *args, **kw) counts as a call of fn."""
    calls = {}
    for path in _program():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            target, args = node.func, node.args
            if isinstance(target, ast.Attribute) and target.attr == "call" and len(args) >= 2:
                target, args = args[1], args[2:]
            if isinstance(target, ast.Name):
                calls.setdefault(target.id, []).append((args, node.keywords))
            elif isinstance(target, ast.Attribute):
                calls.setdefault(target.attr, []).append((args, node.keywords))
    return calls


def _unset_options():
    """(function, parameter) of each option that no program call sets.  A
    call sets a parameter by keyword, by positional arguments up to its
    slot, or by unpacking (*args, **kw).  Functions with no call site are
    the package's interface and are skipped."""
    calls = _calls()

    def sets(args, keywords, param, slot):
        return (any(k.arg in (param, None) for k in keywords)
                or any(isinstance(a, ast.Starred) for a in args)
                or (slot is not None and len(args) > slot))

    return {(fn, param) for fn, param, slot in _options()
            if (sites := calls.get(fn.rsplit(".", 1)[1]))
            and not any(sets(args, keywords, param, slot) for args, keywords in sites)}


def test_every_option_has_a_caller():
    flagged = _unset_options() - set(ALLOWED_OPTIONS)
    assert not flagged, f"defaults no program call changes: {sorted(flagged)}"


def test_every_allowed_option_is_still_unset():
    assert _unset_options() >= set(ALLOWED_OPTIONS)


def test_the_option_scan_sees_keyword_callers():
    seen = {("terms.partial_eval", "probe_budget"), ("finite.clone_closure", "include_all_unary")}
    assert seen <= {(fn, param) for fn, param, _ in _options()}
    assert not seen & _unset_options()


def _unread_imports(source: str) -> list[str]:
    """The names a module imports and never reads; `from __future__` is exempt."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" and (names := _unread_imports(path.read_text()))}
    assert not unread, f"imported and never read: {unread}"


def test_the_import_scan_sees_unread_names():
    source = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
              "from .terms import SubsetSpec, parse_term as parse\nparse(np)\n")
    assert _unread_imports(source) == ["os", "SubsetSpec"]
