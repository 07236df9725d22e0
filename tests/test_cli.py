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


def test_verify_spectral_flow_lost_crossing_is_numeric_abort(capsys, monkeypatch):
    # the first crossing of every family goes missing, so the directions of
    # the canonical family's one crossing no longer sum to its flow
    real = czengine._locate_crossings

    def drop_first(family, order):
        crossings, flow = real(family, order)
        return crossings[1:], flow

    monkeypatch.setattr(czengine, "_locate_crossings", drop_first)
    code, out, err = run_cli(capsys, "verify", "spectral-flow")
    assert code == 3
    aborts = [line for line in out.splitlines() if "ABORT" in line]
    assert aborts == [
        "spectral-flow: ABORT (crossing directions do not telescope to the flow)",
        "verify spectral-flow: NUMERIC ABORT (seed 2026)",
    ]
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
    assert {"UnwrapFailure", "NonClosure", "AmbiguousLabel", "DriftExceeded",
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
                        lambda spec: [(float(np.cos(t)), float(np.sin(t)), 0.0, 0.0)])
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
    # a Minus point moved off its fixed point is no longer permuted by the
    # rotations: the first Saddle->Minus trajectory ends at another Minus
    # point, and a rotation carries that endpoint 1e-5 off the moved one
    _patch_critical_points(monkeypatch, "Minus", lambda c: dataclasses.replace(
        c, point=tuple(np.asarray(c.point) + np.array([0.0, 0.0, 1e-5]))))
    code, out, err = run_cli(capsys, "verify", "morse", "-g", "D:3")
    assert code == 3
    aborts = [line for line in out.splitlines() if line.startswith("morse: ABORT (")]
    assert aborts == [
        "morse: ABORT (D:3: a rotation carried the first endpoint 1.000e-05 off the Minus points)"]
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
        "morse: ABORT (D:3: the rotations did not carry the first seed to every seed)")
    assert "verify morse: NUMERIC ABORT" in out
    assert err == ""


def _unconverged_refinement(monkeypatch):
    real = morse._newton_refine

    def refine(func, starts, iters=60):
        points, _ = real(func, starts, iters)
        return points, np.zeros(len(points), dtype=bool)

    monkeypatch.setattr(morse, "_newton_refine", refine)


def _refinement_off_fix(monkeypatch):
    # every refined point moves 1e-5 along the sphere: within the scan's
    # candidate threshold, past the classification's TOL_CRITICAL_MATCH
    real = morse._newton_refine

    def refine(func, starts, iters=60):
        points, converged = real(func, starts, iters)
        u, _ = morse._tangent_frames(points)
        return morse._normalize(points + 1e-5 * u), converged

    monkeypatch.setattr(morse, "_newton_refine", refine)


def _hessian_eigenvalues(change):
    """A fault that applies `change` to every eigenvalue array of ``eigh``,
    which only the classification of the critical points calls."""
    def inject(monkeypatch):
        real = np.linalg.eigh

        def eigh(a):
            values, vectors = real(a)
            return change(values), vectors

        monkeypatch.setattr(np.linalg, "eigh", eigh)
    return inject


@pytest.mark.parametrize("inject, reason", [
    (_unconverged_refinement, "refinement from ("),
    (_refinement_off_fix, "critical point drifted 1.000e-05 "),
    (_hessian_eigenvalues(lambda values: 1e-9 * values), "degenerate Hessian ("),
], ids=["unconverged", "drift", "degenerate"])
def test_verify_morse_classification_miss_is_numeric_abort(capsys, monkeypatch, inject, reason):
    # the first fixed orbit classified is D:3's Minus
    inject(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "morse", "-g", "D:3")
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"morse: ABORT (D:3/Minus: {reason}"), out
    assert lines[1] == "verify morse: NUMERIC ABORT (seed 2026)"
    assert err == ""


def test_verify_seifert_wrong_cz_is_a_violation(capsys, monkeypatch):
    real = morse.make_orbit

    def shifted(spec, base, k):
        orbit = real(spec, base, k)
        return orbit._replace(cz=orbit.cz + 1) if base == "Plus" else orbit

    monkeypatch.setattr(morse, "make_orbit", shifted)
    code, out, err = run_cli(capsys, "verify", "seifert", "-g", "D:3")
    assert code == 1
    assert out.splitlines() == [
        "seifert: FAIL (D:3: 4 pair(s) violate the index correspondence, first "
        "{'pair': ('Minus', 'Plus'), 'morse_gap': -2, 'cz_gap': -3, 'cz': (3, 6), 'ok': False})",
        "verify seifert: VIOLATION (seed 2026)"]
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
    (("morse", "-g", "D:3"), _hessian_eigenvalues(np.negative),
     "D:3/Minus: Hessian index 2, expected 0 (eigenvalues ("),
], ids=["cz-engine", "spectral-flow", "sign-lemma", "morse", "morse-index"])
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
# table digests and entry point
# ---------------------------------------------------------------------------


# sha256 of the stdout of `chlab orbits` and `chlab homology`, keyed by
# (command, group, level, format) and recorded before the orbit records,
# the group closure and the json writer were last reworked; any change to
# a byte shows here
ORBIT_TABLE_DIGESTS = {
    ("orbits", "D:7", "3", "markdown"): "105ca8527bb99872750beed8762e866e42fb8bacbe87ebc30187021cab88d50d",
    ("orbits", "D:7", "3", "csv"): "53382afe5c5c36cbeaa85c7cbbc7f1d8524faa933f86d1b86ff531b23d4cfbca",
    ("orbits", "D:7", "3", "json"): "916e546e60cca264a805475d6f4917b06365e271d461a99cabb67a4d71a1f7cf",
    ("orbits", "T", "2", "markdown"): "1b57810db6472cbaced8c0a4b7f7862d4fb469fa6b5aeccecf4ce1935363648a",
    ("orbits", "T", "2", "csv"): "e7a6c4480c5b4605fa421ec499631aebc571f62313b5cf9f83c4344ab9525ba7",
    ("orbits", "T", "2", "json"): "1144993f8426c37beaf8809df67192c5eb0e6e3a1cb6fac09ef4249aec3a4c1c",
    ("orbits", "C:7", "1", "markdown"): "5504c3e41ae822f08a55b70a04b3555b6cd606dbc365428f34f9e31123ccc5dd",
    ("orbits", "C:7", "1", "csv"): "ce1cbc1f45baba6f0c1362948b9b3d4053b682bf19b002d872ab3823abe3dd31",
    ("orbits", "C:7", "1", "json"): "d0bf90422454285aef9d5f9a7a8a05081359bee4a959030febbc7a6be5a57044",
    ("orbits", "C:7", "3", "markdown"): "a396f42069caeccd3f366c04b2a67866139595758a80521e5459d67d47645e73",
    ("orbits", "C:7", "3", "csv"): "aad9e0589c442614c177c7371a57ffb10261a45b50e89cc24f6e713ea93126dd",
    ("orbits", "C:7", "3", "json"): "0d0406399d2808e5de33306b9c6d570cc27e51cd11f04392ee17bd8a07234c8f",
    ("orbits", "C:7", "8", "markdown"): "9e6e7e100d5e28c501416a37df2039373473e93547b771bc1dd13f6ec534f179",
    ("orbits", "C:7", "8", "csv"): "acd0cc60aa72679e6ab24e80b7d602b1d9bc0bd2087bef302638c4ae3438ba25",
    ("orbits", "C:7", "8", "json"): "42051bcbae03cf9c6b582bee0a3661b5b831090bb5e7f9b856a4663f9affacf1",
    ("orbits", "C:64", "1", "markdown"): "8354e4b74aca26f1d5d12360322249388ec23226d5082360e3b67d8d71c4cb97",
    ("orbits", "C:64", "1", "csv"): "fe7bc86ad117603437e50f2031f10e893df3d4535bdb824390c4e99245ad44d9",
    ("orbits", "C:64", "1", "json"): "3abc0a3731a71280630d9d5335c9b11a056d5d5b941b2864814b57d0004c1a6c",
    ("orbits", "C:64", "3", "markdown"): "69f0863296f3d99c204a3526da5db9a6162d7df7b813d64e7459d07f69df7d62",
    ("orbits", "C:64", "3", "csv"): "217dafc54376b9035203615b85ad94ffdaf780c346037877e29765e067e02506",
    ("orbits", "C:64", "3", "json"): "4afee909b87a657b17b87537aa762a8e22794d0d28a391ea7720791980509b2b",
    ("orbits", "C:64", "8", "markdown"): "ba26879bfe3f1c3478bbf841143305f8dae7d9b58a2d1f377677f793402dcb28",
    ("orbits", "C:64", "8", "csv"): "4039057de5e8071723c4b21641a465bf6197ddec8d3d0552cdd7ca7b7692b071",
    ("orbits", "C:64", "8", "json"): "44f510902f05c574ce3f6d7f125781ac774360d1b903773ed1ed4eaaa3d6df97",
    ("orbits", "D:5", "1", "markdown"): "f4e8deacfc647e9d43ecd0d4fc1d1864d52588986c5166b25dbcecfaf0c2fadf",
    ("orbits", "D:5", "1", "csv"): "c811383c7a423ff785e81128e7aa89f419b96e36874c08836c2c964fa818c160",
    ("orbits", "D:5", "1", "json"): "d65e4281b55d4d3e81d55e5fe6b53e3af5e73db1fb1c45b88d6c0f40ff8d46ae",
    ("orbits", "D:5", "3", "markdown"): "ed720c1a0cb330b7d5a055328f13d9712e4fd8a84d727f0907c45706467b8b16",
    ("orbits", "D:5", "3", "csv"): "a258a29ff37a5c223361bce838b0bcbddfc6ba7c8c355e131d5fd6b19955f93e",
    ("orbits", "D:5", "3", "json"): "88aedfcb6e5af8b3f9966908281624d907ae8d3d8eb1459ec94df801487479c1",
    ("orbits", "D:5", "8", "markdown"): "b4bc1a09edbf5a15a6e604cd91832c4676c0bb551fc58fec0c166187801f6cb2",
    ("orbits", "D:5", "8", "csv"): "8aa9ae0bbc6bf757e6607257b9dcca5d1a464baedf6b9971d5042b996717033d",
    ("orbits", "D:5", "8", "json"): "da68a0180d85f741b20721253365670248f7e1cf2812b08571201740dd5fba4f",
    ("orbits", "D:64", "1", "markdown"): "d2f3d536a3031736b8c6b819c8e760d6c8815876755bd46113bd12c31538ea42",
    ("orbits", "D:64", "1", "csv"): "fcc396197e4615e25551f3a11685e54229dbac77e0c951a9dd8f4776963e0b60",
    ("orbits", "D:64", "1", "json"): "c5bf763418164944b45764260afd17489762c7b1f080f8e23988b10d858bb8c9",
    ("orbits", "D:64", "3", "markdown"): "1009d5e823ab56f9cc86b321ddc1eb053d13c0f30d38e1d668287077fc6bdaa3",
    ("orbits", "D:64", "3", "csv"): "b7648b8f9a0859faed7e26717d1e4611a0c142c91fe670fff0ceea59252351d5",
    ("orbits", "D:64", "3", "json"): "f84cd5d731e173892727ea07cf75d8228ce3250e241bf9e557cadfea1fd0744e",
    ("orbits", "D:64", "8", "markdown"): "164b32d92d2e62b16a1acfc597acd283f60123bd248cfed1ce25ff207be98b54",
    ("orbits", "D:64", "8", "csv"): "76e7d6fefb97c47c62543daeb30a5db7738e76554e37ac24ffacaffbf5dd3f89",
    ("orbits", "D:64", "8", "json"): "40fef65247d4c940e04b0fd2b9557f5867a27b1e32b05f45caf6850e2873559b",
    ("orbits", "T", "1", "markdown"): "d66a22cbe9ed80227998313c55a4a8a8e0b8608693f85a0a047ddd44c837addf",
    ("orbits", "T", "1", "csv"): "5af329128c619f3c9657789f1e18df541d497e5044f45b42ff864d505b754990",
    ("orbits", "T", "1", "json"): "897e923486ba407feddf40974f4ba63479e47231afa46f8111b770f9958c9892",
    ("orbits", "T", "3", "markdown"): "600e1368d27c0e63970dfe0a685573769fa9e28a8eaf11e40a68cdffd7c2d63e",
    ("orbits", "T", "3", "csv"): "58486ca2cfc386dcdb2fa3e1ed073fdd16b323e9bd2550ef05076215dedc5fef",
    ("orbits", "T", "3", "json"): "3abbd460d84138de0674f37d73fce37c0a831ff285cce49a4efffd6c8f6a8fec",
    ("orbits", "T", "8", "markdown"): "82c0e82344c90a247499f5077c610a97a396c89959ca2d978640a2c192c94057",
    ("orbits", "T", "8", "csv"): "32bbd0fc3e29bb599134112bf526e0722c096f630946153b54eac7c58649b79c",
    ("orbits", "T", "8", "json"): "4db8a45a0276256a9b5a3d3e7d6f93d14992764b346ea23380f8cde96966b24f",
    ("orbits", "O", "1", "markdown"): "c667c6beee5844a1099484cba5f9de9f8cdff9176534ab8caf1f6074fc22edd5",
    ("orbits", "O", "1", "csv"): "0cd899e5da8448947e4027dc57cda5dbe9ba2bdf95b51f2772085fe882c44882",
    ("orbits", "O", "1", "json"): "38bb0de8c356410378fc6c9709d96c9e13cd72bf07c9191f0bc1f6178d70dfb0",
    ("orbits", "O", "3", "markdown"): "40cc385874021abbfb3d72d9eb1bc87e7a8c2570ee9be5f5fb6d295a6bb13e43",
    ("orbits", "O", "3", "csv"): "a3a18b54d69e45523e3df8ddd11609d775d9ff13399b56ea34718b731967dcee",
    ("orbits", "O", "3", "json"): "96c93703eab3167b4edeb5eb14fd2ad2c8fd0da259b372c050cccd1ea88acb4c",
    ("orbits", "O", "8", "markdown"): "f5dd63b3f5f50f8158bfd1bd726abb0febca0890b1a9c5d335cfa6df0dc70e68",
    ("orbits", "O", "8", "csv"): "f6f557bb6f1160f420a5a02b35c9680574e0c8afdf69d1268fda74dedeb9a3b9",
    ("orbits", "O", "8", "json"): "9e3f5d7670c1431c541d76c896ac37a8fce27b6a558d0b322fa27addf55d3bac",
    ("orbits", "I", "1", "markdown"): "4a26c81fe4404911073f3dc481be51b32670f77d72b057eb4762f25198508ae0",
    ("orbits", "I", "1", "csv"): "0035b9f113c836b609894dd979971a05d3dccf106af45827434001ac5bcb6646",
    ("orbits", "I", "1", "json"): "f9be18b739975fe1939fe0d2e1533bc8185120a40ebc814acaf3d564f2b7124c",
    ("orbits", "I", "3", "markdown"): "ffdf7fca3cf2f47b614eba41e66d2d74380917423c3df36a738adfecaeb0ed29",
    ("orbits", "I", "3", "csv"): "ddde667ad60f799c61a4ab4503e982e78a33317ed89b5ef74b906f805c23d525",
    ("orbits", "I", "3", "json"): "95bc472f6fbc8e3111ab7d07aef6735af968ac588ccdf6600aa601699bca533b",
    ("orbits", "I", "8", "markdown"): "8c7435544e3a9970688b75a0bbb206630c8698eb50514d45c2ec43f836f36ad1",
    ("orbits", "I", "8", "csv"): "834dae0a4e72cb2b5b01d3aa082d67ef264c6aef8a57804fd8c79874ee13850f",
    ("orbits", "I", "8", "json"): "e231a866acd560c0dab3bd677159c8b8131647c10f7d3fab7274d83def8a6946",
    ("homology", "C:7", "1", "markdown"): "42a0018475bb7637359b83af4aa2264cb2b4f1138dfc8cd62f950b5cf9fdcad0",
    ("homology", "C:7", "1", "csv"): "15852112efe716b43aeaa2aba17ecc8b28e9165b2712f29281dacdda3c42086d",
    ("homology", "C:7", "1", "json"): "02b2784af0d688ffb2f8ff082c020a8697947c948d6421eacca09b531e8f7a29",
    ("homology", "C:7", "3", "markdown"): "e4ee99741e975d6e65d4fbb23be168f4bbbb57f300fe5d0da136840b6d5b40fc",
    ("homology", "C:7", "3", "csv"): "8f85ed1b62f3196d1ebc1eb1f86e16386f8e0c9c9232687804a84de67ea1bdc5",
    ("homology", "C:7", "3", "json"): "2fec2cef954ceb75b0331c3cac24f21d72d56f51434c98954cc21f98f7726274",
    ("homology", "C:7", "8", "markdown"): "5b51922c45d6d9929b4c11f72a7d4b4db23ee8c28345c110ba23cb237adf58fb",
    ("homology", "C:7", "8", "csv"): "de852b0f1004c3f543ac3e2a2bcfd0f71b484671bbdc56fd3b95212cdbda5a9e",
    ("homology", "C:7", "8", "json"): "4d697226e84526578d4dbd50c1167b3ffeb2a2f118d4ea9046275e70221a7959",
    ("homology", "C:64", "1", "markdown"): "d7df163330dda9e0a94efc693c2c6a8c84cb8316bd979acd4ef26ea8b7d1d176",
    ("homology", "C:64", "1", "csv"): "c4bf1d52f5063b29c6fcac5feaca0cef7e5d7e799cf07c7790f43b0ae7730d7d",
    ("homology", "C:64", "1", "json"): "64274e845666d23c2783b284b0071a6daaec29e05f113b163256596dce49da4a",
    ("homology", "C:64", "3", "markdown"): "c083659b74ef1e3eb29a0d8c37e158093d548ff6de101b1a0c5258fac4000986",
    ("homology", "C:64", "3", "csv"): "ae0bf7892cdbb72bba81c94a83641f7e92e0924bbce343dcd19f585037a4b483",
    ("homology", "C:64", "3", "json"): "a34ae3ac03d23fd183f1fe314a8d9923683f08cb9684a75e4f1b7b85fdf1499a",
    ("homology", "C:64", "8", "markdown"): "f38dacc2a43f4dafa1707e811307b8145ef97c11b885a6fddae74df4e6da67ea",
    ("homology", "C:64", "8", "csv"): "f775ff1627a5ec0b7c18339e384b3d780d39b816d56ba79b439767037ef12940",
    ("homology", "C:64", "8", "json"): "84b1e9790c8b819c0f1da9a12d5c7b3194520f814e28a8091ff7f1fb6de018b8",
    ("homology", "D:5", "1", "markdown"): "aea728a25d8da0e4332eb02d7b7d6c5654d164492397dd368a96c6efcb33d5fe",
    ("homology", "D:5", "1", "csv"): "be11121a78071db82ed13d3a1d2553153780b20f77034a233477e11838af5307",
    ("homology", "D:5", "1", "json"): "8a08a2ad5da3771cc7a9f6f3034340b698c4b2a608caccaff7d63f19bbc60a20",
    ("homology", "D:5", "3", "markdown"): "a407c48722e2820cd4a70d3105eeeed675ae3640fe16cf3bde999343a0ed98c1",
    ("homology", "D:5", "3", "csv"): "2189054515d692961e00cc037543d412befb348858e7cbc2a3620ec09b5e829d",
    ("homology", "D:5", "3", "json"): "8ccfe702d08919dde48a309218ae5e4978fe595be0838ffa776e4bc0377ca9fd",
    ("homology", "D:5", "8", "markdown"): "42e4f9785814a003ae5b9ddf0bfb74176ce8e24a201f63469cc3476b57cd5f86",
    ("homology", "D:5", "8", "csv"): "958598275fac19c37872749c853f2219e999a769ccf751a5f22f6e0b076e1947",
    ("homology", "D:5", "8", "json"): "53d8995474f69d34918097f7d276365a206614a5afaedd725c7e659dc208203c",
    ("homology", "D:64", "1", "markdown"): "9ec3f2bfb05126b79e213c8da74194809c2a322a6840b8428f953016f539fd13",
    ("homology", "D:64", "1", "csv"): "3fb1b81c96e610cbe612ceedcd3151336f90a25f10c71c809a6ce0f1f7b460af",
    ("homology", "D:64", "1", "json"): "4ac80c516c690438388cacbe7d7fd0942079ab39b4a26b91f70c618d420a60e5",
    ("homology", "D:64", "3", "markdown"): "2516360738a9e884f7f356a40a77abcf2c1ad2dff6f7d8169c09706353bb460a",
    ("homology", "D:64", "3", "csv"): "de2149adb6f922616412454b98d75bc75a194a6154ee206ec694c97f8d80b898",
    ("homology", "D:64", "3", "json"): "c5d23d5d20590a4d78112918a8533f4f401e74fd5ef9f1d56bbd7e7b3c6cd9bc",
    ("homology", "D:64", "8", "markdown"): "1e7bd4144209320b0a3515055adfbefbe44e102a92d817b44b14e4c2e3199fc0",
    ("homology", "D:64", "8", "csv"): "70ccda6ba17200c8bbaa24b990eaf5d4cb0a35ef25b4f5acfa5c5af05d7bf86c",
    ("homology", "D:64", "8", "json"): "b75d234725922d8a60457464ff2c21a1c529f9b4c1d5fd73ad9dc41a81d6fbf6",
    ("homology", "T", "1", "markdown"): "4713dd66a9a6ee0876a1a60145ead8ddc9d951cd74fca75af705fc40257b9c98",
    ("homology", "T", "1", "csv"): "15852112efe716b43aeaa2aba17ecc8b28e9165b2712f29281dacdda3c42086d",
    ("homology", "T", "1", "json"): "8fea0a5487efafb8ab2de3d430bd60c2396d1573041f787a90a5276e88bf1cde",
    ("homology", "T", "3", "markdown"): "462ea6a5d91e9c5789f265acd5c92d2d35ce452996097f0bea670336f4bbf23e",
    ("homology", "T", "3", "csv"): "8f85ed1b62f3196d1ebc1eb1f86e16386f8e0c9c9232687804a84de67ea1bdc5",
    ("homology", "T", "3", "json"): "1f5c8114b1bb2d5f4cd0474a2efa39b8701b77927a378ae90eb4d2eb82062249",
    ("homology", "T", "8", "markdown"): "a4fbb12d9d6729e3c84b59395d7e13d5a46c6f798aa1c7fa3c747f81b6ddda38",
    ("homology", "T", "8", "csv"): "de852b0f1004c3f543ac3e2a2bcfd0f71b484671bbdc56fd3b95212cdbda5a9e",
    ("homology", "T", "8", "json"): "15392fc1ef61ac9af5155469278dd0a5e7787bd219f2fae974808b9601476ed9",
    ("homology", "O", "1", "markdown"): "b5386aaada719d5e84495be40b3056801b74025132529eea58233ad1fe039d4b",
    ("homology", "O", "1", "csv"): "be11121a78071db82ed13d3a1d2553153780b20f77034a233477e11838af5307",
    ("homology", "O", "1", "json"): "35f0d6433628de62f5c9ab5926566934dd6e623c68120465064004ab1a6f002c",
    ("homology", "O", "3", "markdown"): "08bff7006a1d22309f89e6314c3f3035ca1d8466f87c0c2dbc767313041c7355",
    ("homology", "O", "3", "csv"): "2189054515d692961e00cc037543d412befb348858e7cbc2a3620ec09b5e829d",
    ("homology", "O", "3", "json"): "2e4d47914999e98b73a080132b1bde40e84b1d3def595b09ac438e155e136124",
    ("homology", "O", "8", "markdown"): "886bcc450f76580697d7d20454107adea8c57eb0568403fc4711321f55e3668a",
    ("homology", "O", "8", "csv"): "958598275fac19c37872749c853f2219e999a769ccf751a5f22f6e0b076e1947",
    ("homology", "O", "8", "json"): "5716ca33f80f04b8e027d423d4d99a982bcfbeb95c54df9ccfe3a9f744f3861e",
    ("homology", "I", "1", "markdown"): "61ab4e3398303a0bd1dc2dbc4e38c246e0e321ec05afa500990321d529a8f6ea",
    ("homology", "I", "1", "csv"): "3bbdbdda29fe65a06917838673ba54064375bcd3a1434717dcc77c4de9324cb1",
    ("homology", "I", "1", "json"): "7716760d1e91bcd001ff83c8250ff57c8182589e16b15220bb1dff0ab56562ab",
    ("homology", "I", "3", "markdown"): "aef647959dffc0d668792834800cf154d7a14b1a33f4f1ff888fc6a862148e89",
    ("homology", "I", "3", "csv"): "50b494f8e5d9f21abc5c0d01e3fea32521d26829c896dec814b42fd1cae6717d",
    ("homology", "I", "3", "json"): "d6e164d6e27147c51c48b75bf721250b3574142eea2d67bc20b9f5216056f554",
    ("homology", "I", "8", "markdown"): "e03b50ea2cc85d0841c88e4b18c6d56175d8c4f648739cbb64651ad21dd1865e",
    ("homology", "I", "8", "csv"): "e8d28b2684f5d9eb7fdfdb03453337dcd2606d82fc2e6c4ec5c4b7f9960c4699",
    ("homology", "I", "8", "json"): "c1ed03176aaa3a3b623ddf4d5572dd8986d8ad609dbf482ecc82899222a3e23e",
}


def test_orbit_tables_match_pinned_digests(capsys):
    for key, digest in ORBIT_TABLE_DIGESTS.items():
        command, group, levels, fmt = key
        code, out, err = run_cli(capsys, command, "-g", group, "-N", levels, "-f", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


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


#: the expected stdout of two ``verify all`` runs, checked in as text; a
#: change that means to alter them regenerates both from the repository root:
#:     PYTHONPATH=src python -m chlab.cli verify all -f json --seed 2026 \
#:         > tests/golden/verify_all_seed2026.json
#:     PYTHONPATH=src python -m chlab.cli verify all --seed 1 \
#:         > tests/golden/verify_all_seed1.md
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("verify_all_seed2026.json", ("-f", "json", "--seed", "2026")),
    ("verify_all_seed1.md", ("--seed", "1")),
], ids=["json-seed2026", "markdown-seed1"])
def test_verify_all_matches_golden_output(name, argv):
    proc = subprocess.run([sys.executable, "-m", "chlab.cli", "verify", "all", *argv],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / name).read_text()


#: the markdown stdout of the two Morse-layer batteries on the default
#: battery, whose detail lines (which ``verify all`` omits) carry each
#: group's flow counts and weights; regenerated from the repository root by
#:     PYTHONPATH=src python -m chlab.cli verify morse > tests/golden/verify_morse.md
#:     PYTHONPATH=src python -m chlab.cli verify seifert > tests/golden/verify_seifert.md
@pytest.mark.parametrize("which", ["morse", "seifert"])
def test_verify_morse_layer_matches_golden_output(capsys, which):
    code, out, err = run_cli(capsys, "verify", which)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"verify_{which}.md").read_text()


#: prints OpenBLAS's thread count after importing chlab.cli first, as the
#: benchmark worker does, read through the library numpy ships, or "none"
BLAS_THREAD_PROBE = """
import chlab.cli
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            print(getattr(lib, symbol)())
            raise SystemExit
print("none")
"""


def test_cli_import_pins_openblas_to_one_thread():
    # the pin must hold against an environment that asks for more threads
    proc = subprocess.run([sys.executable, "-c", BLAS_THREAD_PROBE], capture_output=True,
                          text=True, env=_child_env(OPENBLAS_NUM_THREADS="2"))
    assert (proc.returncode, proc.stderr) == (0, "")
    if proc.stdout.strip() == "none":
        pytest.skip("numpy ships no OpenBLAS library to ask")
    assert proc.stdout.strip() == "1"


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
