"""Package-wide guards: what runs import, which dependencies are declared,
and no code that nothing uses."""
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quatperiods

PACKAGE = Path(quatperiods.__file__).resolve().parent


def test_no_run_imports_sympy():
    # characteristic polynomials are factored inside the package, and the
    # L-values are computed in double precision without mpmath
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys\n"
            "from quatperiods.cli import main\n"
            "main(['eigen', '--disc', '13', '--level', '26'])\n"
            "main(['period', '--h1', '11a', '--h2', '11a', '--f1', '11a',"
            " '--f2', '11a'])\n"
            "main(['lvalue', '--h1', '11a', '--f1', '11a', '--f2', '11a'])\n"
            "main(['lvalue', '--sym2', '11a'])\n"
            "assert 'sympy' not in sys.modules\n"
            "assert 'mpmath' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every cold process pays for what `import quatperiods.cli` and one job
    # pull in: dataclasses alone brings inspect, ast, dis and tokenize, and
    # argparse brings gettext, whose first parser imports locale; none of
    # them is loaded by the interpreter's own start-up
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys\n"
            "import quatperiods.cli\n"
            "quatperiods.cli.main(['theta', '--disc', '11', '--prec', '3',"
            " '--match=11a'])\n"
            "for name in ('dataclasses', 'inspect', 'argparse', 'gettext',"
            " 'locale'):\n"
            "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _top_level_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group()
                for dep in tomllib.loads(pyproject.read_text(
                    encoding="utf-8"))["project"]["dependencies"]}
    imported = {name for path in PACKAGE.rglob("*.py")
                for name in _top_level_imports(ast.parse(
                    path.read_text(encoding="utf-8")))}
    assert imported - set(sys.stdlib_module_names) - {"quatperiods"} == \
        declared


def _names(node):
    """Every name read or imported under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.alias):
            yield n.name


def _attributes(node):
    """Every attribute taken under node: the x.name accesses."""
    return (n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_function_and_class_is_used():
    # Only the package's own references count: what only tests/ or bench/
    # reach is a test oracle, which belongs in tests/, or dead code.  A
    # method is used only through an attribute access x.name outside its
    # own body, and a function or class only through its bare name or an
    # import, so that a method, function or local of the same name does
    # not hide it.  A method name defined in k classes needs at least k
    # attribute accesses, so that one used method does not hide another of
    # the same name.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    attrs = Counter(name for tree in trees.values()
                    for name in _attributes(tree))
    methods = {id(node) for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    shared = Counter(node.name for tree in trees.values()
                     for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for node in cls.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    unused = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("__"):
                continue
            refs, counts = (_attributes, attrs) if id(node) in methods \
                else (_names, uses)
            own = sum(1 for name in refs(node) if name == node.name)
            few = id(node) in methods and attrs[node.name] < shared[node.name]
            if counts[node.name] == own or few:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined but unused in src/:\n" + "\n".join(unused)


# In-process CLI jobs that between them run every operator of the package's
# classes: the jobs of test_no_run_imports_sympy, a positive-weight Yoshida
# lift, and an eigenform over the Hecke field Q(sqrt 5).
DUNDER_JOBS = (
    ["eigen", "--disc", "13", "--level", "26"],
    ["period", "--h1", "11a", "--h2", "11a", "--f1", "11a", "--f2", "11a"],
    ["lvalue", "--h1", "11a", "--f1", "11a", "--f2", "11a"],
    ["lvalue", "--sym2", "11a"],
    ["yoshida", "--disc", "3", "--nu1", "2", "--nu2", "2", "--prec", "4",
     "--seed", "1"],
    ["eigen", "--disc", "23"],
)

# Under sys.setprofile, the names "module.py Class.__dunder__" of every
# function called from a frame of the package while the jobs run.
DUNDER_PROBE = """
import contextlib, io, json, os, sys
from quatperiods.cli import main
pkg = os.path.dirname(sys.modules["quatperiods"].__file__) + os.sep
entered = set()

def probe(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name.startswith("__") and \\
            code.co_filename.startswith(pkg) and \\
            frame.f_back.f_code.co_filename.startswith(pkg):
        entered.add(os.path.basename(code.co_filename) + " "
                    + code.co_qualname)

sys.setprofile(probe)
with contextlib.redirect_stdout(io.StringIO()):
    for job in json.loads(sys.argv[1]):
        main(job)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def test_every_operator_dunder_is_entered():
    # The AST guard above cannot see that `a - b` reaches __sub__, so the
    # operator and unary dunders of the package's classes are checked by
    # running code instead: each must be entered from the package itself
    # while the jobs run.  Construction, equality, hashing and repr serve
    # containers and debugging and stay exempt.
    exempt = {"__init__", "__eq__", "__hash__", "__repr__"}
    defined = {f"{path.name} {cls.name}.{node.name}"
               for path in sorted(PACKAGE.rglob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("__") and node.name.endswith("__")
               and node.name not in exempt}
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", DUNDER_PROBE, json.dumps(DUNDER_JOBS)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    never = sorted(defined - set(json.loads(proc.stdout)))
    assert not never, "never entered from src/:\n" + "\n".join(never)


def test_every_module_level_import_is_read():
    # An import counts as a use in the guard above, so an import that its
    # own module never reads would also hide a dead helper.
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, "imported but never read:\n" + "\n".join(unread)


def test_every_module_level_name_is_read():
    # A constant or layout that outlives its last reader is dead code too:
    # every module-level assignment must be read somewhere in the package,
    # as a bare name or as an attribute x.name.  Dunders such as
    # __version__ are read from outside and stay exempt.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    read = {n.id for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {name for tree in trees.values() for name in _attributes(tree)}
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            unread.extend(f"{path.name}:{node.lineno} {n.id}"
                          for target in targets for n in ast.walk(target)
                          if isinstance(n, ast.Name) and n.id not in read
                          and not n.id.startswith("__"))
    assert not unread, "assigned but never read:\n" + "\n".join(unread)
