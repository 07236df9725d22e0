"""Tests for the command-line interface: table rendering in all three
formats, error handling and exit codes, the verification subcommands, and
byte-for-byte determinism."""

import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chlab
from chlab import cli, czengine, groups, homology, morse, orbits


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# orbit tables
# ---------------------------------------------------------------------------


def test_orbits_markdown_dihedral(capsys):
    code, out, err = run_cli(capsys, "orbits", "-g", "D:3", "-N", "1")
    assert code == 0 and err == ""
    lines = [l for l in out.splitlines() if l.startswith("|")]
    data_rows = lines[2:]  # header + separator
    assert len(data_rows) == 11
    saddle_rows = [row for row in data_rows if "Saddle^2" in row]
    assert len(saddle_rows) == 1 and "no" in saddle_rows[0]
    header = lines[0]
    for column in ("grading", "name", "base", "k", "type", "good",
                   "action/pi", "rotation", "cz", "class", "contractible"):
        assert column in header


def test_orbits_json_tetrahedral(capsys):
    code, out, err = run_cli(capsys, "orbits", "-g", "T", "-N", "1", "-f", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "chlab/v1"
    assert payload["group"] == "T"
    assert payload["command"] == "orbits"
    rows = payload["rows"]
    assert payload["count"] == len(rows) == 13
    names = {f"{r['base']}^{r['k']}" for r in rows}
    assert names == (
        {f"Vertex^{k}" for k in range(1, 6)}
        | {f"Edge^{k}" for k in range(1, 4)}
        | {f"Face^{k}" for k in range(1, 6)}
    )
    for row in rows:
        assert set(row) >= {"base", "k", "cz", "grading", "type", "good",
                            "class", "contractible"}


def test_orbits_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-g", "C:4", "-N", "1", "-f", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert {row["base"] for row in rows} == {"NorthPole", "SouthPole"}


def test_orbits_sorted_by_grading(capsys):
    _, out, _ = run_cli(capsys, "orbits", "-g", "O", "-N", "2", "-f", "json")
    gradings = [row["grading"] for row in json.loads(out)["rows"]]
    assert gradings == sorted(gradings)


# ---------------------------------------------------------------------------
# argument errors
# ---------------------------------------------------------------------------


def test_rejects_trivial_group(capsys):
    code, out, err = run_cli(capsys, "orbits", "-g", "C:1", "-N", "1")
    assert code == 2
    assert "C:1" in err


def test_rejects_unknown_group(capsys):
    code, _, err = run_cli(capsys, "orbits", "-g", "X:3", "-N", "1")
    assert code == 2
    assert err != ""


def test_rejects_nonpositive_level(capsys):
    code, _, err = run_cli(capsys, "homology", "-g", "C:4", "-N", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--fourier-modes", "3"),
    ("verify", "cz-engine", "--tolerance", "0"),
    ("verify", "cz-engine", "--tolerance", "0.5"),
])
def test_verify_rejects_unusable_numeric_options_up_front(capsys, monkeypatch, argv):
    def no_battery(*args):
        raise AssertionError("a battery ran before the options were checked")

    monkeypatch.setattr(cli, "cmd_verify", no_battery)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, flag", [
    (("verify", "all", "--seed", "-1"), "--seed"),
    (("verify", "cz-engine", "--nmax", "0"), "--nmax"),
])
def test_verify_rejects_negative_seed_and_nmax_below_one_up_front(
        capsys, monkeypatch, argv, flag):
    def no_battery(*args):
        raise AssertionError("a battery ran before the options were checked")

    monkeypatch.setattr(cli, "cmd_verify", no_battery)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("argv, head", [
    (("orbits", "-g", "C:3", "-N", "99999999999999999999"), "error: level 99999999999999999999 "),
    (("homology", "-g", "C:2", "-N", "1025"), "error: level 1025 holds 4098 orbits of C:2, "),
], ids=["orbits", "homology"])
def test_level_past_the_orbit_cap_is_unusable(capsys, monkeypatch, argv, head):
    def no_record(*args):
        raise AssertionError("an orbit record was built past the cap")

    monkeypatch.setattr(orbits, "_orbit_record", no_record)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(head)
    assert err.endswith(f"more than the cap of {orbits.MAX_ORBITS}\n")
    assert err.count("\n") == 1


def test_verify_rejects_nmax_past_the_orbit_cap_up_front(capsys, monkeypatch):
    def no_battery(*args):
        raise AssertionError("a battery ran before the options were checked")

    monkeypatch.setattr(cli, "cmd_verify", no_battery)
    code, out, err = run_cli(capsys, "verify", "monotonicity", "--nmax", "9999999")
    assert (code, out) == (2, "")
    assert err == (f"error: --nmax 9999999 holds 39999994 orbits of C:2, "
                   f"more than the cap of {orbits.MAX_ORBITS}\n")
    # with -g only that group's count is checked
    code, _, err = run_cli(capsys, "verify", "monotonicity", "-g", "C:64", "--nmax", "33")
    assert code == 2
    assert err.startswith("error: --nmax 33 holds 4222 orbits of C:64, ")


# ---------------------------------------------------------------------------
# homology reports
# ---------------------------------------------------------------------------


def test_homology_icosahedral_matches(capsys):
    code, out, _ = run_cli(capsys, "homology", "-g", "I", "-N", "2", "-f", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["ranks"] == payload["closed_form"]


def test_homology_cyclic_deep_level(capsys):
    code, out, _ = run_cli(capsys, "homology", "-g", "C:7", "-N", "3", "-f", "json")
    assert code == 0
    assert json.loads(out)["ranks"]["0"] == 6


def test_homology_csv_ranks(capsys):
    code, out, _ = run_cli(capsys, "homology", "-g", "D:4", "-N", "1", "-f", "csv")
    assert code == 0
    ranks = {row["degree"]: int(row["rank"]) for row in csv.DictReader(io.StringIO(out))}
    assert ranks == {"0": 6, "2": 6}


# ---------------------------------------------------------------------------
# verification subcommands
# ---------------------------------------------------------------------------


def test_verify_mckay(capsys):
    code, out, _ = run_cli(capsys, "verify", "mckay")
    assert code == 0
    assert "mckay: PASS" in out
    assert out.rstrip().endswith("OK (seed 2026)")


def test_verify_monotonicity_with_lower_depth(capsys):
    code, out, _ = run_cli(capsys, "verify", "monotonicity", "--nmax", "2")
    assert code == 0
    assert "monotonicity: PASS" in out


def test_verify_morse(capsys):
    code, out, _ = run_cli(capsys, "verify", "morse")
    assert code == 0
    assert "morse: PASS" in out
    assert "(1, 0, 1)" in out


def test_verify_seifert(capsys):
    code, out, _ = run_cli(capsys, "verify", "seifert")
    assert code == 0
    assert "seifert: PASS" in out


def test_verify_validates_group_flag(capsys):
    code, _, _ = run_cli(capsys, "verify", "seifert", "-g", "T")
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "seifert", "-g", "C:1")
    assert code == 2 and "C:1" in err


def test_verify_rejects_unknown_check(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("which", ["axioms", "spectral-flow", "sign-lemma"])
def test_verify_exhausted_random_draw_is_numeric_abort(capsys, monkeypatch, which):
    # every drawn generator is zero, so every solved path ends at the
    # identity and the nondegenerate-path draw runs out of tries
    def zero_generator(rng, n, scale=1.0):
        return czengine._constant_generator(np.zeros((2 * n, 2 * n)), czengine.MIN_SAMPLES)

    monkeypatch.setattr(czengine, "_random_generator", zero_generator)
    code, out, err = run_cli(capsys, "verify", which)
    assert code == 3
    assert "could not draw a nondegenerate random path" in out
    assert f"verify {which}: NUMERIC ABORT" in out
    assert err == ""  # no traceback


def test_verify_out_of_memory_is_numeric_abort(capsys, monkeypatch):
    # a Galerkin assembly too large for the machine's memory
    def no_memory(family, k):
        raise MemoryError("Unable to allocate 116. TiB for an array")

    monkeypatch.setattr(czengine, "_galerkin_ends", no_memory)
    code, out, err = run_cli(capsys, "verify", "spectral-flow")
    assert code == 3
    assert "spectral-flow: ABORT (Unable to allocate 116. TiB for an array)" in out
    assert "verify spectral-flow: NUMERIC ABORT" in out
    assert err == ""  # no traceback


def test_verify_axioms_homotopy_retry_exhaustion_is_numeric_abort(capsys, monkeypatch):
    def irregular_product(*args, **kwargs):
        raise czengine.IrregularCrossing("injected irregular crossing")

    monkeypatch.setattr(czengine, "path_product", irregular_product)
    code, out, err = run_cli(capsys, "verify", "axioms", "-f", "json")
    assert code == 3
    payload = json.loads(out)
    (check,) = payload["checks"]
    assert not payload["ok"] and not check["ok"]
    assert "homotopy perturbation kept hitting irregular crossings" in check["report"]["error"]
    assert err == ""  # no traceback


@pytest.mark.parametrize("fmt", ["markdown", "json"])
def test_verify_sign_lemma_no_crossing_is_numeric_abort(capsys, monkeypatch, fmt):
    # nonzero flow with no located crossing: the search missed one, which is
    # a numeric abort (exit 3), not unusable arguments (exit 2)
    monkeypatch.setattr(czengine, "_locate_crossings", lambda family, order: ([], 1))
    code, out, err = run_cli(capsys, "verify", "sign-lemma", "-f", fmt)
    assert code == 3
    if fmt == "json":
        (check,) = json.loads(out)["checks"]
        assert not check["ok"]
        assert "no crossing could be localized" in check["report"]["error"]
    else:
        assert "verify sign-lemma: NUMERIC ABORT" in out
    assert err == ""  # no traceback


def _library_errors(base):
    """Every subclass of ``base`` defined in a chlab module, by name."""
    found = set()
    for info in pkgutil.iter_modules(chlab.__path__, "chlab."):
        module = importlib.import_module(info.name)
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, base)
                     and obj.__module__ == module.__name__)
    return sorted(found, key=lambda cls: cls.__name__)


# the base class decides the exit code: ArithmeticError is a numeric abort
# (3), AssertionError a violation (1), whatever chlab module raises it; so
# is MemoryError, since whether an allocation fails depends on the machine
LIBRARY_NUMERIC_ERRORS = _library_errors(ArithmeticError) + [ZeroDivisionError, MemoryError]
LIBRARY_ASSERTIONS = _library_errors(AssertionError) + [AssertionError]


def test_library_error_lists_are_complete():
    names = {cls.__name__ for cls in LIBRARY_NUMERIC_ERRORS}
    assert {"DegenerateRotation", "NonClosure", "AmbiguousLabel", "DriftExceeded",
            "SpuriousCriticalPoint", "NonConvergentTrajectory"} <= names
    names = {cls.__name__ for cls in LIBRARY_ASSERTIONS}
    assert {"AxiomViolation", "ParityViolation", "IndexMismatch", "LiftMismatch"} <= names


def _raiser(error):
    def raise_it(*args, **kwargs):
        raise error("injected fault")
    return raise_it


@pytest.mark.parametrize("error", LIBRARY_NUMERIC_ERRORS)
def test_battery_library_error_is_numeric_abort(capsys, monkeypatch, error):
    monkeypatch.setitem(cli._CHECKS, "mckay", _raiser(error))
    code, out, err = run_cli(capsys, "verify", "mckay")
    assert code == 3
    assert "mckay: ABORT (injected fault)" in out
    assert "verify mckay: NUMERIC ABORT" in out
    assert err == ""  # no traceback


@pytest.mark.parametrize("error", LIBRARY_NUMERIC_ERRORS)
def test_verify_all_library_error_is_numeric_abort(capsys, monkeypatch, error):
    # raised by every battery; the report must still be assembled
    for name in cli.CHECK_NAMES:
        monkeypatch.setitem(cli._CHECKS, name, _raiser(error))
    code, out, err = run_cli(capsys, "verify", "all")
    assert code == 3
    assert "verify all: NUMERIC ABORT" in out
    assert err == ""


@pytest.mark.parametrize("error", LIBRARY_NUMERIC_ERRORS)
def test_orbits_library_error_is_numeric_abort(capsys, monkeypatch, error):
    monkeypatch.setattr(cli, "cmd_orbits", _raiser(error))
    code, out, err = run_cli(capsys, "orbits", "-g", "C:3", "-N", "1")
    assert code == 3
    assert out.strip() == "orbits: NUMERIC ABORT (injected fault)"
    assert err == ""


@pytest.mark.parametrize("error", LIBRARY_ASSERTIONS)
def test_battery_library_assertion_is_violation(capsys, monkeypatch, error):
    monkeypatch.setitem(cli._CHECKS, "mckay", _raiser(error))
    code, out, err = run_cli(capsys, "verify", "mckay")
    assert code == 1
    assert "mckay: FAIL (injected fault)" in out
    assert "verify mckay: VIOLATION" in out
    assert err == ""


@pytest.mark.parametrize("error", LIBRARY_ASSERTIONS)
def test_verify_all_library_assertion_is_violation(capsys, monkeypatch, error):
    for name in cli.CHECK_NAMES:
        monkeypatch.setitem(cli._CHECKS, name, _raiser(error))
    code, out, err = run_cli(capsys, "verify", "all")
    assert code == 1
    assert "verify all: VIOLATION" in out
    assert err == ""


@pytest.mark.parametrize("error", LIBRARY_ASSERTIONS)
def test_orbits_library_assertion_is_violation(capsys, monkeypatch, error):
    monkeypatch.setattr(cli, "cmd_orbits", _raiser(error))
    code, out, err = run_cli(capsys, "orbits", "-g", "C:3", "-N", "1")
    assert code == 1
    assert out == "orbits: VIOLATION (injected fault)\n"
    assert err == ""


def test_fixed_point_clustering_failure_is_numeric_abort(capsys, monkeypatch, fresh_groups):
    # with a zero clustering tolerance no rotation is seen to fix any
    # point, so the tetrahedral edge orbit cannot be found
    monkeypatch.setattr(groups, "TOL_POINT", 0.0)
    code, out, err = run_cli(capsys, "orbits", "-g", "T")
    assert code == 3
    assert out == "orbits: NUMERIC ABORT (expected a single order-2 orbit)\n"
    assert err == ""


def test_group_closure_failure_is_numeric_abort(capsys, monkeypatch, fresh_groups):
    # an order-3 generator closes at 3 elements where C:6 has 6
    t = 2.0 * np.pi / 3
    monkeypatch.setattr(groups, "_generators",
                        lambda spec: [groups.Quaternion(np.cos(t), np.sin(t), 0.0, 0.0)])
    code, out, err = run_cli(capsys, "orbits", "-g", "C:6")
    assert code == 3
    assert out == "orbits: NUMERIC ABORT (closure of C:6 stopped at 3, expected 6)\n"
    assert err == ""


def test_verify_morse_largest_dihedral(capsys):
    code, out, err = run_cli(capsys, "verify", "morse", "-g", "D:64")
    assert code == 0 and err == ""
    assert ("  D:64: ranks (1, 0, 1), flows {'Plus->Saddle': (1, [64]), "
            "'Saddle->Minus': (1, [2])}") in out.splitlines()


def _patch_critical_points(monkeypatch, kind, change):
    """Make find_critical_points apply `change` to the first point of `kind`."""
    real = morse.find_critical_points

    def patched(func):
        crits = list(real(func))
        i = next(i for i, c in enumerate(crits) if c.kind.name == kind)
        crits[i] = change(crits[i])
        return tuple(crits)

    monkeypatch.setattr(morse, "find_critical_points", patched)


def test_verify_morse_unpermuted_critical_points_is_numeric_abort(capsys, monkeypatch):
    # a Minus point moved off its fixed point is no longer permuted by the rotations
    _patch_critical_points(monkeypatch, "Minus", lambda c: dataclasses.replace(
        c, point=tuple(np.asarray(c.point) + np.array([0.0, 0.0, 1e-5]))))
    code, out, err = run_cli(capsys, "verify", "morse", "-g", "D:3")
    assert code == 3
    aborts = [line for line in out.splitlines() if line.startswith("morse: ABORT (")]
    assert len(aborts) == 1 and "failed to permute the critical points" in aborts[0]
    assert "verify morse: NUMERIC ABORT" in out
    assert err == ""


def test_verify_morse_unpermuted_trajectory_seeds_is_numeric_abort(capsys, monkeypatch):
    # a saddle's eigen-directions turned by 1e-3 rad no longer match the
    # rotated seeds of the other saddles: a tolerance miss, not a violation
    turn = np.array([[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]])
    _patch_critical_points(monkeypatch, "Saddle", lambda c: dataclasses.replace(
        c, eigenvectors=tuple(tuple(turn @ np.asarray(vec)) for vec in c.eigenvectors)))
    code, out, err = run_cli(capsys, "verify", "morse", "-g", "D:3")
    assert code == 3
    assert out.splitlines()[0] == (
        "morse: ABORT (D:3: rotation did not permute the trajectory seeds)")
    assert "verify morse: NUMERIC ABORT" in out
    assert err == ""


def test_verify_morse_unpermuted_trajectory_endpoints_is_numeric_abort(capsys, monkeypatch):
    # swapping the endpoints of one saddle's two seeds breaks the symmetry:
    # the rotated seeds of the other saddles still end where they did
    real = morse._integrate_batch

    def swapped(*args):
        endpoints = real(*args)
        assert endpoints[0] != endpoints[1]
        endpoints[[0, 1]] = endpoints[[1, 0]]
        return endpoints

    monkeypatch.setattr(morse, "_integrate_batch", swapped)
    code, out, err = run_cli(capsys, "verify", "morse", "-g", "D:3")
    assert code == 3
    aborts = [line for line in out.splitlines() if line.startswith("morse: ABORT (")]
    assert aborts == ["morse: ABORT (D:3: rotation did not permute the trajectory endpoints)"]
    assert "verify morse: NUMERIC ABORT" in out
    assert err == ""


def _rotation_index_off_by_two(monkeypatch):
    real = czengine.rotation_cz_sp2

    def shifted(path):
        theta, mu = real(path)
        return theta, mu + 2

    monkeypatch.setattr(czengine, "rotation_cz_sp2", shifted)


def _spectral_flow_off_by_one(monkeypatch):
    real = czengine.spectral_flow
    monkeypatch.setattr(czengine, "spectral_flow", lambda family, order=None: real(family, order) + 1)


def _return_map_form_doubled(monkeypatch):
    # both crossing forms are quadratic in the kernel vector, so a negated
    # vector leaves them as they are; a doubled one quadruples the
    # return-map form and breaks the magnitude agreement
    real = czengine._eval_loop_at_zero
    monkeypatch.setattr(czengine, "_eval_loop_at_zero", lambda *args: 2.0 * real(*args))


def _orientable_saddle(monkeypatch):
    _patch_critical_points(monkeypatch, "Saddle",
                           lambda c: dataclasses.replace(c, orientable=True))


@pytest.mark.parametrize("argv, inject, reason", [
    (("cz-engine", "-g", "C:3"), _rotation_index_off_by_two, "C:3/SouthPole^1: crossing 1, rotation 3"),
    (("spectral-flow",), _spectral_flow_off_by_one, "canonical: flow 2 (K=32) / 2 (K=64)"),
    (("sign-lemma",), _return_map_form_doubled, "canonical: [{"),
    (("morse", "-g", "D:3"), _orientable_saddle, "D:3: homology ranks (1, 1, 1)"),
], ids=["cz-engine", "spectral-flow", "sign-lemma", "morse"])
def test_battery_fault_is_a_violation(capsys, monkeypatch, argv, inject, reason):
    # each battery's own check fires on an injected fault: exit 1, one FAIL line
    inject(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    fails = [line for line in out.splitlines() if ": FAIL (" in line]
    assert len(fails) == 1 and fails[0].startswith(f"{argv[0]}: FAIL ({reason}"), out
    assert f"verify {argv[0]}: VIOLATION" in out
    assert err == ""  # no traceback


@pytest.mark.parametrize("command", ["orbits", "homology"])
def test_library_assertion_is_violation(capsys, monkeypatch, command):
    # a library check of a mathematical statement (an AssertionError
    # subclass) failing under orbits/homology is a violation: exit 1, one line
    if command == "orbits":
        monkeypatch.setattr(cli, "cmd_orbits", _raiser(homology.ParityViolation))
    else:
        monkeypatch.setattr(homology, "homology_report", _raiser(homology.ParityViolation))
    code, out, err = run_cli(capsys, command, "-g", "D:4", "-N", "2")
    assert code == 1
    assert out == f"{command}: VIOLATION (injected fault)\n"
    assert err == ""


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_orbit_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "orbits", "-g", "T", "-N", "2", "-f", "json")
    _, second, _ = run_cli(capsys, "orbits", "-g", "T", "-N", "2", "-f", "json")
    assert first == second


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "mckay")
    _, second, _ = run_cli(capsys, "verify", "mckay")
    assert first == second


def test_verify_all_prints_the_battery_summaries_in_order(capsys, monkeypatch):
    # the slow batteries are stubbed; verify all prints each battery's
    # summary line as the battery alone prints it, in CHECK_NAMES order,
    # without the details, and then its own verdict
    def stub(name):
        return lambda opts: cli.CheckResult(
            name, True, f"{name}: PASS (stub)", ("  stub detail",), {"check": name})

    for name in ("cz-engine", "spectral-flow", "axioms", "sign-lemma", "morse"):
        monkeypatch.setitem(cli._CHECKS, name, stub(name))
    summaries = []
    for name in cli.CHECK_NAMES:
        code, out, _ = run_cli(capsys, "verify", name, "-g", "C:3")
        assert code == 0
        summaries.append(out.splitlines()[-2])
    code, out, err = run_cli(capsys, "verify", "all", "-g", "C:3")
    assert code == 0 and err == ""
    assert out.splitlines() == summaries + ["verify all: OK (seed 2026)"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_battery_in_order():
    # the first column of the "Verification batteries" table
    text = README.read_text(encoding="utf-8")
    section = text.split("### Verification batteries", 1)[1].split("\n#", 1)[0]
    names = [line.split("|")[1].strip().strip("`") for line in section.splitlines()
             if line.startswith("| `")]
    assert names == list(cli.CHECK_NAMES) + ["all"]


# ---------------------------------------------------------------------------
# formal-scalar rendering and entry point
# ---------------------------------------------------------------------------


def test_format_formal():
    from fractions import Fraction
    from chlab.orbits import FormalScalar

    assert cli.format_formal(FormalScalar(Fraction(5, 3), 0)) == "5/3"
    assert cli.format_formal(FormalScalar(2, Fraction(1, 6))) == "2 + 1/6·eps"
    assert cli.format_formal(FormalScalar(2, Fraction(-1, 6))) == "2 - 1/6·eps"
    assert cli.format_formal(FormalScalar(Fraction(1, 3), 1)) == "1/3 + 1·eps"
    assert cli.format_formal(FormalScalar(Fraction(1, 3), -1)) == "1/3 - 1·eps"
    assert cli.format_formal(FormalScalar(3, 4)) == "3 + 4·eps"
    assert cli.format_formal(FormalScalar(Fraction(-7, 4), Fraction(-2, 5))) == "-7/4 - 2/5·eps"
    assert cli.format_formal(FormalScalar(-3, 0)) == "-3"


# sha256 of the stdout of `chlab orbits`, recorded before the orbit records
# and their rendering were last reworked; any change to a byte shows here
ORBIT_TABLE_DIGESTS = {
    ("D:7", "3", "markdown"): "105ca8527bb99872750beed8762e866e42fb8bacbe87ebc30187021cab88d50d",
    ("D:7", "3", "csv"): "53382afe5c5c36cbeaa85c7cbbc7f1d8524faa933f86d1b86ff531b23d4cfbca",
    ("D:7", "3", "json"): "916e546e60cca264a805475d6f4917b06365e271d461a99cabb67a4d71a1f7cf",
    ("T", "2", "markdown"): "1b57810db6472cbaced8c0a4b7f7862d4fb469fa6b5aeccecf4ce1935363648a",
    ("T", "2", "csv"): "e7a6c4480c5b4605fa421ec499631aebc571f62313b5cf9f83c4344ab9525ba7",
    ("T", "2", "json"): "1144993f8426c37beaf8809df67192c5eb0e6e3a1cb6fac09ef4249aec3a4c1c",
}


def test_orbit_tables_match_pinned_digests(capsys):
    for (group, levels, fmt), digest in ORBIT_TABLE_DIGESTS.items():
        code, out, err = run_cli(capsys, "orbits", "-g", group, "-N", levels, "-f", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (group, levels, fmt)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "chlab" in out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What the wrapper generated for a [project.scripts] entry does: name the
# program, import the target, exit with its return value.
SCRIPT_LAUNCHER = """\
import importlib, sys
module, attr = sys.argv.pop(1), sys.argv.pop(1)
sys.argv[0] = "chlab"
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def declared_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**extra):
    """The environment of a child interpreter that imports the tests' own chlab."""
    package_root = str(Path(chlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    for name in BLAS_THREAD_VARIABLES:
        env.pop(name, None)
    env.update(extra)
    return env


def test_console_script_is_installed():
    scripts = declared_scripts()
    assert "chlab" in scripts
    module, _, attr = scripts["chlab"].partition(":")
    assert module and attr
    # the wrapper runs where chlab is importable, as the tests' own chlab is
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT_LAUNCHER, module, attr, "--help"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage: chlab" in proc.stdout
    for command in ("orbits", "homology", "verify"):
        assert command in proc.stdout


def test_output_does_not_depend_on_the_blas_thread_count():
    outputs = []
    for extra in ({}, {"OMP_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "2"},
                  {"OPENBLAS_NUM_THREADS": "2"}):
        proc = subprocess.run(
            [sys.executable, "-m", "chlab.cli", "verify", "sign-lemma", "-f", "json"],
            capture_output=True, text=True, env=_child_env(**extra))
        assert (proc.returncode, proc.stderr) == (0, ""), extra
        outputs.append(proc.stdout)
    assert outputs == [outputs[0]] * 4


def test_orbit_tables_leave_numpy_ma_unloaded():
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=_child_env(), check=True).stdout.strip()
    if loaded == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    script = ("import sys\n"
              "from chlab import cli\n"
              "cli.main(['orbits', '-g', 'D:5', '-N', '1'])\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.skipif(shutil.which("chlab") is None,
                    reason="chlab console script not on PATH (pip install -e .)")
def test_console_script_on_path():
    proc = subprocess.run(["chlab", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "orbits" in proc.stdout
