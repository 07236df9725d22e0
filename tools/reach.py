"""pytest plugin: the ``raise`` statements and functions of chlab that a test
run never executes.

    PYTHONPATH=src:tools python -m pytest -q -p reach

Every line run in a ``src/chlab`` module is recorded through ``sys.settrace``
(and ``threading.settrace``).  At the end of the session each module's
``raise`` statements and function definitions are read from its syntax tree:
a ``raise`` is reached when its line ran, a function when its body was
entered.  Tests that run chlab in a child interpreter are not traced, so
what only they reach is listed as unreached.  A run that leaves any raise
or function unreached ends with a nonzero exit status, 1 when the tests
themselves passed.  Standard library only.
"""

import ast
import sys
import threading
from pathlib import Path

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
    if (unreached or missed_functions) and _session.exitstatus == 0:
        _session.exitstatus = 1
