"""pytest plugin: the ``raise`` statements and functions of chlab that a test
run never executes, and the functions that nothing in chlab or the
benchmark calls.

    PYTHONPATH=src:tools python -m pytest -q -p reach

Every line run in a ``src/chlab`` module is recorded through ``sys.settrace``
(and ``threading.settrace``).  At the end of the session each module's
``raise`` statements and function definitions are read from its syntax tree:
a ``raise`` is reached when its line ran, a function when its body was
entered.  Tests that run chlab in a child interpreter are not traced, so
what only they reach is listed as unreached.  A run that leaves any raise
or function unreached ends with a nonzero exit status, 1 when the tests
themselves passed.

The same summary ends with a static pass, ``unreferenced``: every function
and method defined under ``src/chlab`` must be referenced from ``src/chlab``
or ``perfbench`` outside its own body, or be on the keep list below.  A
reference is a name read, bare (``name``) or as an attribute (``x.name``);
an import, a string and an ``__all__`` entry are not references.  A read
inside the body of a listed function does not count either: the pass drops
what it listed and recounts until nothing new is listed, so a function that
only dead code calls is listed too.  The match is by name alone, so a
function shares its reference with every definition and attribute of the
same name.  Dunder methods are exempt: Python calls them.  The pass also
lists a keep-list entry that has a caller, or that names no definition, and
anything it lists ends the run with a nonzero exit status as an unreached
raise does.  Standard library only.

Keep list, each entry with the reason it stays without a caller:

    keep homology.direct_limit: acceptance criterion 1 checks the direct limit of the levels
    keep orbits.degree_census: acceptance criterion 2 checks the good/bad census per grading
    keep czengine.building_index: acceptance criterion 10 checks the index of the buildings
    keep czengine.SymmetricPath.from_callable: spanned by name in perfbench/tracing.py SPANNED

What the pass does not cover: record fields are not functions, so fields
that only tests read stay, because the pins and the tests read them.  They
are ``FlowLines.upstairs`` and ``trajectories`` (the flow digests pin them),
``OrbifoldComplex.generators`` and ``excluded``,
``CrossingRecord.kernel_dimension`` (the crossing pin hashes it),
``ConjugacyClass.element_order`` and ``trace``, and
``CriticalPoint.hessian_eigenvalues``.
"""

import ast
import re
import sys
import threading
from pathlib import Path

#: qualified name (module.function or module.Class.method) -> reason
KEEP = dict(re.findall(r"^ {4}keep (\S+): (\S.*)$", __doc__, re.MULTILINE))

_executed = {}   # file name -> set of line numbers run
_entered = {}    # file name -> set of first line numbers of the code objects called
_package = None
_session = None


def _local(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_package):
        return None
    _executed.setdefault(name, set())
    _entered.setdefault(name, set()).add(frame.f_code.co_firstlineno)
    return _local(frame, event, arg)


def pytest_sessionstart(session):
    global _session
    _session = session


def pytest_configure(config):
    global _package
    import chlab
    _package = str(Path(chlab.__file__).resolve().parent)
    threading.settrace(_global)
    sys.settrace(_global)


def _unreached(path):
    """(raises, functions, unreached raises, unreached functions) of one module."""
    tree = ast.parse(path.read_text())
    ran, entered = _executed.get(str(path), set()), _entered.get(str(path), set())
    raises, functions, missed = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            raises.append(node)
            if node.lineno not in ran:
                missed.append((node.lineno, "raise"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if first not in entered:
                missed.append((node.lineno, f"def {node.name}"))
    return raises, functions, sorted(missed)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    write("")
    write("reach: raises and functions no traced test executes "
          "(tests in child processes are not traced)")
    total = unreached = missed_functions = 0
    for path in sorted(Path(_package).glob("*.py")):
        raises, functions, missed = _unreached(path)
        n_raise = sum(1 for _, what in missed if what == "raise")
        total, unreached = total + len(raises), unreached + n_raise
        missed_functions += len(missed) - n_raise
        write(f"{path.stem}: {n_raise} of {len(raises)} raises, "
              f"{len(missed) - n_raise} of {len(functions)} functions unreached")
        for line, what in missed:
            write(f"    {path.name}:{line} {what}")
    write(f"total: {unreached} of {total} raises, {missed_functions} functions unreached")
    package = Path(_package)
    listed = unreferenced(package, [package, package.parents[1] / "perfbench"])
    write(f"static: {len(listed)} listed, functions without a caller in src/chlab or "
          f"perfbench and off the keep list, or stale keep entries ({len(KEEP)} kept)")
    for line in listed:
        write(f"    {line}")
    if (unreached or missed_functions or listed) and _session.exitstatus == 0:
        _session.exitstatus = 1


def _definitions(tree, module):
    """(qualified name, node) of every function and method in a module,
    nested ones included, by a walk that carries the enclosing names."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out.append((name, child))
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def _references(tree):
    """(name, line) of every name a module reads, bare or as an attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.end_lineno))
    return out


def unreferenced(package, callers, keep=KEEP):
    """What the static pass lists, one line each: every function of
    ``package`` that no module under ``callers`` reads outside its own body
    and outside the bodies of the functions listed so far (dunders exempt),
    and that ``keep`` does not name; every ``keep`` entry that has such a
    reader; and every one that names no function of ``package``.

    The listing iterates to a fixed point: once a function is listed, what
    only its body reads is listed in the next round."""
    references = {}   # name -> [(file, line)]
    for directory in callers:
        for path in sorted(Path(directory).glob("*.py")):
            for name, line in _references(ast.parse(path.read_text())):
                references.setdefault(name, []).append((path.resolve(), line))
    functions = []    # (file, qualified name, node)
    for path in sorted(Path(package).glob("*.py")):
        for qualified, node in _definitions(ast.parse(path.read_text()), path.stem):
            functions.append((path.resolve(), qualified, node))
    dead = {}         # qualified name -> (file, first line, last line) of its body

    def called(source, node):
        return any((file != source or not node.lineno <= line <= node.end_lineno)
                   and not any(file == f and lo <= line <= hi for f, lo, hi in dead.values())
                   for file, line in references.get(node.name, ()))

    while True:
        found = {qualified: (source, node.lineno, node.end_lineno)
                 for source, qualified, node in functions
                 if qualified not in keep and qualified not in dead
                 and not (node.name.startswith("__") and node.name.endswith("__"))
                 and not called(source, node)}
        if not found:
            break
        dead.update(found)
    listed = []
    for source, qualified, node in functions:
        if qualified in dead:
            listed.append(f"{source.name}:{node.lineno} def {qualified}")
        elif qualified in keep and called(source, node):
            listed.append(f"keep {qualified}: it has a caller, so it needs no entry")
    defined = {qualified for _, qualified, _ in functions}
    listed.extend(f"keep {name}: no such function" for name in sorted(set(keep) - defined))
    return listed
