"""Every name a gkcurv module imports is referenced in that module, every
parameter of its functions is read, every name it defines at module level
is referenced in the engine or the benchmark, every method of its classes
is referenced somewhere, no module-level name holds a mutable value outside
a short allowlist, and every error type it defines is raised somewhere."""

import ast
import collections
import importlib
import importlib.util
import pathlib
import re
import subprocess
import sys

from gkcurv import linalg
from gkcurv.scalars import QQi

SRC = pathlib.Path(linalg.__file__).parent
ROOT = SRC.parent.parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    """In src/gkcurv/ and in tests/ alike."""
    unused = {str(path.relative_to(ROOT)): _unused_imports(ast.parse(path.read_text()))
              for folder in (SRC, ROOT / "tests") for path in sorted(folder.glob("*.py"))}
    assert {k: v for k, v in unused.items() if v} == {}


def test_imports_sit_at_module_level():
    """No import statement in a function body of src/gkcurv/: the modules
    import one another without cycles, so none needs deferring."""
    nested = [f"{path.name}:{node.lineno}"
              for path in sorted(SRC.glob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def _unread_parameters(fn):
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [a.arg for a in params if a.arg not in read | {"self", "cls"}]


def test_no_unused_parameters():
    """Every parameter of a function in src/gkcurv/, other than self and
    cls, is read in its body; reads in a nested function count."""
    unused = [f"{path.stem}.{fn.name}.{name}"
              for path in sorted(SRC.glob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name in _unread_parameters(fn)]
    assert unused == []


def _module_level_names(tree):
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def _words(folders=("src", "tests", "perfbench")):
    return collections.Counter(
        word for folder in folders
        for path in (ROOT / folder).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text()))


def _span_targets():
    """`SPAN_TARGETS` of perfbench/spans.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPAN_TARGETS


def _code_refs(node):
    """Names that the code under node refers to: names read, attribute
    names and imported names.  Strings, comments and definitions do not
    count."""
    refs = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name.rsplit(".", 1)[-1]] += 1
    return refs


# public entry points that no engine code calls; `calibrate`, `gr_complex`
# and `type00_check` are named only in a docstring, a report key or a task op
ENTRY_POINTS = {"type00_gric", "transport_b", "transport_affine", "calibrate",
                "gr_complex", "type00_check"}


def test_no_dead_module_level_names():
    """A module-level def, class or assignment in src/gkcurv/ must be
    referred to by code outside its own definition, in src/ or perfbench/
    (`_code_refs`, plus the attribute paths of the benchmark's
    `SPAN_TARGETS`): src/ holds the engine, and a helper that only tests
    call belongs in tests/.  A docstring, a comment or a dict key naming it
    does not count.  The only exceptions are the ENTRY_POINTS, which must
    exist."""
    trees = {path: ast.parse(path.read_text()) for folder in (SRC, ROOT / "perfbench")
             for path in sorted(folder.rglob("*.py"))}
    refs = sum((_code_refs(tree) for tree in trees.values()), collections.Counter())
    refs.update(part for _, attr in _span_targets() for part in attr.split("."))
    defined, dead = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            own = _code_refs(node)
            for name in _module_level_names(ast.Module(body=[node], type_ignores=[])):
                defined.add(name)
                if refs[name] <= own[name] and name not in ENTRY_POINTS:
                    dead.append(f"{path.name}:{name}")
    assert dead == []
    assert ENTRY_POINTS <= defined


def test_no_dead_methods():
    """A non-dunder method of a class in src/gkcurv/ must be named more
    often in src/, tests/ or perfbench/ than it is defined, so a method
    whose last caller goes is caught like a module-level name."""
    methods = [(cls.name, fn.name) for path in sorted(SRC.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    words = _words()
    defined = collections.Counter(name for _, name in methods)
    dead = [f"{cls}.{name}" for cls, name in methods if words[name] <= defined[name]]
    assert dead == []


def test_no_mutable_module_level_values():
    """No module-level name in src/gkcurv/ is bound to a dict, list or set,
    or to an instance of a gkcurv class other than QQi, except the scene
    catalogue; and no code there rebinds a module-level or enclosing name
    (`global`, `nonlocal`) or memoizes through functools.cache or
    lru_cache, so no global cache can come back through late binding."""
    mutable = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"gkcurv.{path.stem}")
        for name in _module_level_names(ast.parse(path.read_text())):
            value = getattr(module, name)
            cls = type(value)
            if isinstance(value, (dict, list, set)) or (
                    cls.__module__.startswith("gkcurv.") and cls is not QQi):
                mutable.append(f"{path.stem}.{name}")
    assert mutable == ["examples.CATALOG"]
    late = [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Global, ast.Nonlocal))
            or {getattr(node, f, None) for f in ("id", "attr", "name")}
            & {"cache", "lru_cache"}]
    assert late == []


def _mutable_container(node):
    return isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                             ast.SetComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"})


def test_no_class_level_or_default_argument_containers():
    """No class body in src/gkcurv/ binds a mutable container and no function
    takes one as a default value: either outlives a call as a module-level
    value does, so a gcd or factor cache cannot come back that way."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                values = [stmt.value for stmt in node.body
                          if isinstance(stmt, (ast.Assign, ast.AnnAssign))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                values = node.args.defaults + node.args.kw_defaults
            else:
                continue
            found += [f"{path.name}:{v.lineno}" for v in values
                      if v is not None and _mutable_container(v)]
    assert found == []


def test_every_error_type_is_raised():
    """Each GKCurvError subclass in errors.py is raised somewhere in src/."""
    errors = ast.parse((SRC / "errors.py").read_text())
    types = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = {node.exc.func.id
              for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    assert sorted(types - raised - {"GKCurvError"}) == []


def test_span_targets_resolve():
    """Every (module, attribute) that the benchmark's tracer wraps
    (`SPAN_TARGETS` in perfbench/spans.py, loaded by path) exists in gkcurv,
    so a rename fails here and not in a traced benchmark run."""
    targets = _span_targets()
    missing = []
    for module, attr in targets:
        target = importlib.import_module(f"gkcurv.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert len(targets) > 10 and missing == []


def test_import_loads_no_introspection_modules():
    """Importing the engine adds none of dataclasses, inspect, dis or
    tokenize to sys.modules: every cold process pays for what it imports.
    Modules loaded before the import (by `site`) do not count."""
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import gkcurv.curvature, gkcurv.examples, gkcurv.selftest; "
            "print(' '.join(sorted(set(sys.modules) - before)))" % str(SRC.parent))
    added = set(subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                               capture_output=True, text=True).stdout.split())
    assert "gkcurv.selftest" in added
    assert added & {"dataclasses", "inspect", "dis", "tokenize"} == set()
