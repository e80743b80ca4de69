"""Import layering of the library modules, and no dead code in them.

ridges sits below squeeze: squeeze imports ridges at module top for the
maxima counts and the bisection, so ridges must not import squeeze back. No
module defers an import into a function body, where a cycle would hide.
oracle checks the kernels independently, so it imports only model and errors
from the package, and no library module imports it.
Every undecorated top-level function or class is named somewhere in src/,
tests/ or scripts/ besides its own definition, and a public one that
twotone/__init__ does not export has a caller in src/, scripts/ or bench/:
library code only tests call is dead surface (oracle.py, which the tests
call, is exempt). Every defaulted parameter of a
top-level function, and every defaulted field of a dataclass, is passed
somewhere in src/, scripts/ or bench/: a default that only tests override is
a constant. oracle.py is exempt, since its resolutions are the reference the
tests choose. No module calls np.isscalar, and none but cli calls isinstance:
kernels broadcast and take one input format, so a scalar argument gives a
numpy scalar. cli is exempt from the isinstance rule because it formats
table cells and output kinds by type.
Every parameter of every function and lambda in src/, nested ones included
and self excepted, is read in its body: an input no code reads is dead
surface. Every dataclass field in src/ is read as an attribute somewhere in
src/, tests/, scripts/ or bench/: a result field nobody reads is too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twotone"
MODULES = sorted(SRC.glob("*.py"))


def _imported_modules(tree: ast.AST) -> set[str]:
    """Last dotted component of every imported module and imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_ridges_does_not_import_squeeze():
    tree = ast.parse((SRC / "ridges.py").read_text())
    assert "squeeze" not in _imported_modules(tree)


def test_oracle_imports_only_model_and_errors():
    tree = ast.parse((SRC / "oracle.py").read_text())
    package = {path.stem for path in MODULES}
    assert _imported_modules(tree) & package <= {"model", "errors"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "oracle.py"],
                         ids=lambda p: p.name)
def test_library_does_not_import_oracle(path):
    assert "oracle" not in _imported_modules(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_level_import(path):
    tree = ast.parse(path.read_text())
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                    f"{path.name}:{node.lineno} imports inside {getattr(func, 'name', 'lambda')}")


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name the tree loads, reads as an attribute or imports, and every
    string constant that is a bare identifier (an __all__ entry, say)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_no_isscalar_in_src():
    uses = []
    for path in MODULES:
        banned = {"isscalar"} if path.name == "cli.py" else {"isscalar", "isinstance"}
        names = _referenced_names(ast.parse(path.read_text())) & banned
        uses += [f"{path.name}: {name}" for name in sorted(names)]
    assert not uses, f"scalar or type dispatch in {uses}"


def _caller_files():
    return sorted({*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                   *(ROOT / "scripts").glob("*.py")})


def test_every_top_level_definition_is_used():
    used = set()
    for path in _caller_files():
        used |= _referenced_names(ast.parse(path.read_text()))
    unused = [f"{path.name}:{node.name}" for path in MODULES
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.decorator_list and node.name not in used]
    assert not unused, f"top-level definitions named nowhere: {unused}"


def test_every_unexported_public_definition_has_a_library_caller():
    init = SRC / "__init__.py"
    exported = _referenced_names(ast.parse(init.read_text()))
    used = set()
    for path in sorted({*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                        *(ROOT / "bench").glob("*.py")} - {init}):
        used |= _referenced_names(ast.parse(path.read_text()))
    test_only = [f"{path.name}:{node.name}" for path in MODULES if path.name != "oracle.py"
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not node.decorator_list and not node.name.startswith("_")
                 and node.name not in exported | used]
    assert not test_only, f"public definitions only tests call: {test_only}"


def _defaulted_parameters(func: ast.FunctionDef) -> list:
    """(position, name) of each parameter of func that has a default; a
    keyword-only parameter has position None."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _passed_arguments(tree: ast.AST) -> set:
    """(callee name, keyword) and (callee name, position) of every argument
    a call in the tree passes; the callee is named by its last component."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        passed.update((name, kw.arg) for kw in node.keywords if kw.arg is not None)
        positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
        passed.update((name, i) for i in range(len(positional)))
    return passed


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaulted_fields(cls: ast.ClassDef) -> list:
    """(position, name) of each field of a dataclass that has a default; the
    position is the field's place among the constructor's arguments."""
    fields = [node for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    return [(i, node.target.id) for i, node in enumerate(fields) if node.value is not None]


# defaulted parameters kept without a non-test caller: erf_closed_form(C=)
# gets one from the small-C sweep of ROADMAP item 4
KNOB_ALLOWLIST = {("erf_closed_form", "C")}


def test_every_defaulted_parameter_is_passed():
    """Also each defaulted field of a dataclass: a config object's fields are
    knobs, set by keyword or by position in a constructor call. Only library,
    script and benchmark calls count; a knob only tests set is a constant."""
    passed = set()
    for path in sorted({*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                        *(ROOT / "bench").glob("*.py")}):
        passed |= _passed_arguments(ast.parse(path.read_text()))
    unset = [f"{path.name}:{node.name}({name}=)"
             for path in MODULES if path.name != "oracle.py"
             for node in ast.parse(path.read_text()).body
             for position, name in (
                 _defaulted_parameters(node)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else _defaulted_fields(node)
                 if isinstance(node, ast.ClassDef) and _is_dataclass(node) else ())
             if (node.name, name) not in passed and (node.name, position) not in passed
             and (node.name, name) not in KNOB_ALLOWLIST]
    assert not unset, f"defaulted parameters no caller passes: {unset}"


def _unread_parameters(func) -> list:
    """Parameters of a function or lambda that its body never loads."""
    args = func.args
    params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if arg is not None]
    body = func.body if isinstance(func.body, list) else [func.body]
    read = {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in params if name != "self" and name not in read]


def test_every_parameter_is_read():
    unread = [f"{path.name}:{getattr(func, 'name', 'lambda')}({name})"
              for path in MODULES for func in ast.walk(ast.parse(path.read_text()))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for name in _unread_parameters(func)]
    assert not unread, f"parameters their function never reads: {unread}"


def test_every_dataclass_field_is_read():
    read = set()
    for path in sorted({*_caller_files(), *(ROOT / "bench").glob("*.py")}):
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{node.target.id}"
              for path in MODULES for cls in ast.parse(path.read_text()).body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id not in read]
    assert not unread, f"dataclass fields no code reads: {unread}"
