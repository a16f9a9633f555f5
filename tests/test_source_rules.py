"""Rules on the package source, read with ``ast``.

Only ``_table`` opens files for writing or parses CSV (``csv``,
``loadtxt``, ``genfromtxt``), so the CSV format has one owner.  Only
``cli`` prints; the library reports through the ``wbou`` logger.  Only
``_checks`` tests numbers for NaN or inf and raises
InvalidLambda, so the numeric-input policy has one owner too.  Outside
``drivers`` (the samplers and the dense default of
``sample_weighted_sum``), only ``paths._simulate``, once for the main
window, and ``paths.simulate_compact_kernel`` call ``sample_increments``,
so the half-lines have one route: the driver hook.  Only ``law`` imports
``scipy.integrate``, for its one ``quad`` wrapper.  No module imports
scipy at module level: each function imports the subpackage it calls,
so ``import wbou`` loads no scipy.  No module imports ``scipy.signal``:
the path recursions run on NumPy, so simulation loads no scipy.  Every
option of a CLI subcommand is read by that subcommand's ``cmd_*``
function, so no flag is accepted and then ignored.  No module of the package or of the tests imports a
name it never reads, so an import list says what a module uses.  The
package exports exactly its modules' ``__all__`` names and the error
classes.
"""
import argparse
import ast
import inspect
from pathlib import Path

import pytest

from wbou.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "wbou"
TESTS = Path(__file__).resolve().parent

#: calls that write a file whatever their arguments
WRITE_CALLS = {"write_text", "write_bytes", "save", "savez", "savez_compressed",
               "savetxt", "tofile"}

#: NumPy's text-table readers
CSV_READERS = {"loadtxt", "genfromtxt"}

#: math or numpy tests for NaN and inf
FINITENESS_CALLS = {"isfinite", "isinf", "isnan"}

#: (module, function) allowed a finiteness test outside _checks:
#: read_acf_csv's mask finds the file line of the first bad row, which a
#: check that only accepts or refuses cannot report
FINITENESS_EXEMPT = [("estimation.py", "read_acf_csv")]


def _calls(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield name, node


def _writes(name, call) -> bool:
    """True for a call that may write a file.

    The mode of ``open(file, mode)`` is its second argument, of
    ``path.open(mode)`` its first, or the ``mode=`` keyword.  No mode
    reads; a mode that is not a constant string counts as a write.
    """
    if name in WRITE_CALLS:
        return True
    if name != "open":
        return False
    first = 1 if isinstance(call.func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[first : first + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def _parses_csv(node) -> bool:
    """True for an import of ``csv`` and for any name or attribute
    loadtxt or genfromtxt, imported or used."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "csv" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[0] == "csv"
                or any(a.name in CSV_READERS for a in node.names))
    if isinstance(node, ast.Attribute):
        return node.attr in CSV_READERS
    return isinstance(node, ast.Name) and node.id in CSV_READERS


def _integrate_names(node) -> list[str]:
    """What a node takes from ``scipy.integrate``: ``integrate`` for the
    module, imported or reached as ``scipy.integrate``, else the names
    imported from it."""
    if isinstance(node, ast.Import):
        return ["integrate" for a in node.names if a.name.startswith("scipy.integrate")]
    if isinstance(node, ast.ImportFrom):
        if node.module == "scipy":
            return ["integrate" for a in node.names if a.name == "integrate"]
        if (node.module or "").startswith("scipy.integrate"):
            return [a.name for a in node.names]
    if isinstance(node, ast.Attribute) and node.attr == "integrate":
        return ["integrate"] if getattr(node.value, "id", None) == "scipy" else []
    return []


def _imports_scipy(node) -> bool:
    """True for an import of scipy or of any of its subpackages."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "scipy" for a in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "scipy")


def _imports_scipy_signal(node) -> bool:
    """True for an import of ``scipy.signal`` or of names from it, and
    for ``scipy.signal`` reached as an attribute."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["scipy", "signal"] for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return node.level == 0 and (module[:2] == ["scipy", "signal"] or module == ["scipy"]
                                    and any(a.name == "signal" for a in node.names))
    return (isinstance(node, ast.Attribute) and node.attr == "signal"
            and getattr(node.value, "id", None) == "scipy")


def _checks_numbers(node) -> bool:
    """True for a call of isfinite, isinf or isnan, and for a raise of
    InvalidLambda."""
    if isinstance(node, ast.Call):
        func = node.func
        return (func.id if isinstance(func, ast.Name)
                else getattr(func, "attr", None)) in FINITENESS_CALLS
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == "InvalidLambda"
    return False


def _sites_where(pred, tree):
    """The innermost function (None at module level) holding each node
    for which pred is true, once per node."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if pred(child):
                yield owner
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, child.name if inner else owner)
    return list(walk(tree, None))


def _functions_where(pred, tree):
    """Names of the innermost functions (None at module level) holding
    a node for which pred is true."""
    return set(_sites_where(pred, tree))


def _samples_increments(node) -> bool:
    """True for a call of sample_increments, as a function or a method."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "sample_increments"


def _modules_where(pred):
    return sorted(p.name for p in SRC.glob("*.py")
                  if any(pred(name, call) for name, call in _calls(p)))


@pytest.mark.parametrize("src, writes", [
    ('open("data.csv")', False),
    ('open("w.csv", "r", newline="")', False),
    ('open(p, mode="rb")', False),
    ('open(p, "w")', True),
    ('open(p, mode="a")', True),
    ('open(p, "r+")', True),
    ("open(p, mode)", True),
    ("open(p, mode=m)", True),
    ('p.open("x")', True),
    ("p.open()", False),
    ('p.write_text("1")', True),
])
def test_write_rule_reads_only_the_mode(src, writes):
    call = ast.parse(src, mode="eval").body
    name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
    assert _writes(name, call) == writes


def test_only_table_module_opens_files_for_writing():
    assert _modules_where(_writes) == ["_table.py"]


@pytest.mark.parametrize("src, parses", [
    ("import csv", True),
    ("import csv as c", True),
    ("from csv import reader", True),
    ("np.loadtxt(p, delimiter=',')", True),
    ("numpy.genfromtxt(p)", True),
    ("from numpy import loadtxt", True),
    ("read = loadtxt", True),
    ("import csvlib", False),
    ("read_columns(p, ('x', 't'))", False),
    ("np.savetxt(p, a)", False),
])
def test_csv_rule_finds_the_parsers(src, parses):
    found = _functions_where(_parses_csv, ast.parse(f"def f(p):\n    {src}\n"))
    assert found == ({"f"} if parses else set())


def test_only_table_module_parses_csv():
    assert sorted(p.name for p in SRC.glob("*.py")
                  if _sites_where(_parses_csv, ast.parse(p.read_text()))) == ["_table.py"]


@pytest.mark.parametrize("src, names", [
    ("import scipy.integrate", ["integrate"]),
    ("import scipy.integrate as si", ["integrate"]),
    ("from scipy import integrate, special", ["integrate"]),
    ("from scipy.integrate import quad, trapezoid", ["quad", "trapezoid"]),
    ("from scipy.integrate._quadpack_py import quad", ["quad"]),
    ("scipy.integrate.quad(f, 0, 1)", ["integrate"]),
    ("from scipy import special", []),
    ("integrate(f)", []),
])
def test_integrate_rule_finds_the_imports(src, names):
    tree = ast.parse(src)
    assert [n for node in ast.walk(tree) for n in _integrate_names(node)] == names


def test_only_law_module_imports_scipy_integrate():
    found = {}
    for p in SRC.glob("*.py"):
        names = {n for node in ast.walk(ast.parse(p.read_text())) for n in _integrate_names(node)}
        if names:
            found[p.name] = sorted(names)
    assert found == {"law.py": ["integrate"]}


@pytest.mark.parametrize("src, module_level", [
    ("import scipy", True),
    ("import numpy, scipy.signal as ss", True),
    ("from scipy import special", True),
    ("from scipy.integrate import quad", True),
    ("class C:\n    from scipy import special", True),
    ("if True:\n    import scipy.fft", True),
    ("def f():\n    from scipy import special", False),
    ("def f():\n    import scipy.signal", False),
    ("import scipyx", False),
    ("from .scipy import special", False),
])
def test_scipy_rule_finds_module_level_imports(src, module_level):
    assert (None in _sites_where(_imports_scipy, ast.parse(src))) == module_level


def test_no_module_imports_scipy_at_module_level():
    """A module-level scipy import makes ``import wbou`` load it."""
    assert sorted(p.name for p in SRC.glob("*.py")
                  if None in _sites_where(_imports_scipy, ast.parse(p.read_text()))) == []


@pytest.mark.parametrize("src, imports", [
    ("import scipy.signal", True),
    ("import numpy, scipy.signal as ss", True),
    ("from scipy import special, signal", True),
    ("from scipy.signal import lfilter", True),
    ("from scipy.signal._signaltools import lfilter", True),
    ("scipy.signal.lfilter(b, a, x)", True),
    ("def f():\n    from scipy.signal import lfilter", True),
    ("from scipy import special", False),
    ("import scipy.signalx", False),
    ("from .signal import lfilter", False),
    ("signal.lfilter(b, a, x)", False),
])
def test_signal_rule_finds_the_imports(src, imports):
    assert any(map(_imports_scipy_signal, ast.walk(ast.parse(src)))) == imports


def test_no_module_imports_scipy_signal():
    """The path recursions are the NumPy block scan ``paths._scan``."""
    assert sorted(p.name for p in SRC.glob("*.py")
                  if any(map(_imports_scipy_signal, ast.walk(ast.parse(p.read_text()))))) == []


def test_only_cli_prints():
    assert _modules_where(lambda name, call: name == "print"
                          and isinstance(call.func, ast.Name)) == ["cli.py"]


@pytest.mark.parametrize("src, checks", [
    ("math.isfinite(x)", True),
    ("np.isnan(a).any()", True),
    ("isinf(x)", True),
    ("raise InvalidLambda('lambda must be > 0')", True),
    ("raise errors.InvalidLambda", True),
    ("raise DomainError('x must be finite')", False),
    ("0 < x < math.inf", False),
])
def test_finiteness_rule_finds_the_tests(src, checks):
    found = _functions_where(_checks_numbers, ast.parse(f"def f(x):\n    {src}\n"))
    assert found == ({"f"} if checks else set())


def test_only_checks_module_tests_numbers_for_finiteness():
    found = sorted((p.name, fn) for p in SRC.glob("*.py") if p.name != "_checks.py"
                   for fn in _functions_where(_checks_numbers, ast.parse(p.read_text())))
    assert found == FINITENESS_EXEMPT



@pytest.mark.parametrize("src, sites", [
    ("drv.sample_increments(dt, rng, (1, n))", ["f"]),
    ("sample_increments(dt, rng, 3) + self.sample_increments(dt, rng, 3)", ["f", "f"]),
    ("drv.sample_weighted_sum(dt, lam, m, rng, 1, tol)", []),
])
def test_sampling_rule_counts_each_call(src, sites):
    assert _sites_where(_samples_increments, ast.parse(f"def f():\n    {src}\n")) == sites


def test_only_the_engine_main_window_draws_increments_outside_drivers():
    """A second half-line route through sample_increments fails here."""
    found = sorted((p.name, fn) for p in SRC.glob("*.py") if p.name != "drivers.py"
                   for fn in _sites_where(_samples_increments, ast.parse(p.read_text())))
    assert found == [("paths.py", "_simulate"), ("paths.py", "simulate_compact_kernel")]


def _unread_options(parser, tree):
    """(subcommand, dest) of each option of parser's subcommands that the
    subcommand's function (its ``fn`` default, looked up by name in tree)
    reads neither as ``args.<dest>`` nor as ``getattr(args, "<dest>")``."""
    funcs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, sub in subs.choices.items():
        fn = funcs[sub.get_default("fn").__name__]
        args = fn.args.args[0].arg
        reads = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and getattr(node.value, "id", None) == args):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and getattr(node.args[0], "id", None) == args
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
        unread += [(command, a.dest) for a in sub._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in reads]
    return unread


def _cmd_planted(args):
    """Reads --used and --lambda; only stores to --unused."""
    args.unused = None
    return args.used, getattr(args, "lambda")


def test_option_rule_finds_a_planted_unread_option():
    top = argparse.ArgumentParser()
    demo = top.add_subparsers().add_parser("demo")
    for flag in ("--used", "--lambda", "--unused"):
        demo.add_argument(flag)
    demo.set_defaults(fn=_cmd_planted)
    tree = ast.parse(inspect.getsource(_cmd_planted))
    assert _unread_options(top, tree) == [("demo", "unused")]


def test_every_cli_option_is_read_by_its_subcommand():
    """An option that no cmd_* reads (as --seed once was on four
    subcommands) fails here."""
    assert _unread_options(build_parser(), ast.parse((SRC / "cli.py").read_text())) == []


def _unused_imports(tree):
    """Names that tree's imports bind and its code never reads, sorted.

    ``import a.b`` binds ``a``; ``__future__`` imports bind nothing.  A
    string in a module-level ``__all__`` counts as a read.
    """
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(bound - read)


def test_import_rule_finds_a_planted_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom math import inf, pi as PI, tau\n"
           "__all__ = ['tau']\n"
           "def f(x: np.ndarray):\n    return os.path.join(x), PI\n")
    assert _unused_imports(ast.parse(src)) == ["inf"]


def test_no_module_imports_a_name_it_never_reads():
    """The package's ``__init__`` re-exports what it imports, so it is
    left out."""
    found = {p.name: names for p in [*SRC.glob("*.py"), *TESTS.glob("*.py")]
             if p.name != "__init__.py"
             and (names := _unused_imports(ast.parse(p.read_text())))}
    assert found == {}


def _declared_all(tree) -> set[str]:
    """The names of tree's module-level ``__all__``, or none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_exports_exactly_the_modules_public_names():
    """``wbou`` re-exports each module's ``__all__`` and the error classes,
    and nothing else, so a name a module drops leaves the package too."""
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    exported = {a.asname or a.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    errors = {node.name for node in trees["errors"].body if isinstance(node, ast.ClassDef)}
    assert exported == set().union(*map(_declared_all, trees.values())) | errors
