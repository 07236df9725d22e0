"""Tests for the static pass of ``tools/reach.py``: every function of chlab
is read by the library or the benchmark, or has a reason on the keep list.

The pass runs here over the real sources, so a plain test run catches a
function left without a caller, without loading reach as a plugin."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chlab"


def _load_reach():
    # by path and under its own name: tools/ is not a package, and the
    # plugin of a ``-p reach`` run stays untouched
    spec = importlib.util.spec_from_file_location("reach_static", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

PLANTED = '''__all__ = ["unused"]


def used():
    return 1


def unused():
    return used()


def recursive(n):
    return recursive(n - 1) if n else 0


class Box:
    def __repr__(self):
        return "Box"

    def size(self):
        return 0
'''


def test_every_chlab_function_has_a_caller_or_a_kept_reason():
    assert reach.KEEP, "the keep list is read from reach's docstring"
    assert reach.unreferenced(PACKAGE, [PACKAGE, ROOT / "perfbench"]) == []


def test_static_pass_lists_a_function_without_a_caller(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(PLANTED)
    # neither __all__ nor a call from its own body is a caller, nor a call
    # from the body of a function listed; dunders are exempt
    assert reach.unreferenced(package, [package, bench], keep={}) == [
        "mod.py:4 def mod.used", "mod.py:8 def mod.unused", "mod.py:12 def mod.recursive",
        "mod.py:20 def mod.Box.size"]
    # a caller in any of the caller directories counts
    (bench / "run.py").write_text("import mod\n\nmod.unused()\nmod.Box().size()\n")
    assert reach.unreferenced(package, [package, bench], keep={}) == [
        "mod.py:12 def mod.recursive"]
    assert reach.unreferenced(package, [package, bench], keep={"mod.recursive": "why"}) == []


def test_static_pass_lists_a_stale_keep_entry(tmp_path):
    (tmp_path / "mod.py").write_text(PLANTED)
    keep = {"mod.gone": "deleted long ago", "mod.used": "called by unused",
            "mod.unused": "kept", "mod.recursive": "kept", "mod.Box.size": "kept"}
    assert reach.unreferenced(tmp_path, [tmp_path], keep=keep) == [
        "keep mod.used: it has a caller, so it needs no entry",
        "keep mod.gone: no such function"]


CHAINED = '''def leaf():
    return 0


def middle():
    return leaf() + shared()


def head():
    return middle()


def shared():
    return 1


def live():
    def inner():
        return shared()
    return inner()


live()
'''


def test_static_pass_iterates_to_a_fixed_point(tmp_path):
    (tmp_path / "mod.py").write_text(CHAINED)
    # head has no caller; middle only head calls, and leaf only middle, so
    # each is listed a round later; shared keeps its other caller
    assert reach.unreferenced(tmp_path, [tmp_path], keep={}) == [
        "mod.py:1 def mod.leaf", "mod.py:5 def mod.middle", "mod.py:9 def mod.head"]
    # a kept function is live, so what it calls is too
    assert reach.unreferenced(tmp_path, [tmp_path], keep={"mod.head": "why"}) == []
