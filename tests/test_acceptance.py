"""Acceptance battery.

Each test is one acceptance criterion; `pytest -v` therefore emits one
pass/fail line per criterion, and every test also prints an explicit
verdict line (visible with `pytest -s` and in failure reports).

Criteria:
  01  filtered homology equals the closed form, every group, N = 1..4,
      and so does its direct limit at N_max = 4
  02  orbit tables: generators per grading and bad-orbit placement
  03  conjugacy-class counts and Dynkin vertex counts
  04  exhaustive same-class action/index monotonicity at N_max = 4
  05  three index routes agree on every orbit below the level-3 threshold
  06  spectral flow equals the index difference on randomized families
  07  randomized index-axiom suite
  08  operator/return-map crossing signs are opposite and equal in size
  09  quotient Morse theory: ranks, flow counts, weights, index gaps
  10  index-2 holomorphic buildings for the three exceptional fillings
"""

import functools
import sys
import time

import numpy as np

from chlab import cli, czengine, morse
from chlab.czengine import (
    building_index,
    cz_axiom_suite,
    cz_crossing_form,
    local_model_for,
    rotation_cz_sp2,
    spectral_flow,
    verify_crossing_sign_lemma,
)
from chlab.groups import build_group, conjugacy_classes, dynkin_type, parse_group_spec
from chlab.homology import build_complex, closed_form, direct_limit
from chlab.orbits import (
    covering_multiplicity,
    degree_census,
    enumerate_orbits,
    make_orbit,
    verify_monotonicity,
)

BATTERY = cli.BATTERY
SEED = cli.DEFAULT_SEED


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as err:
                print(f"[acceptance] criterion-{number:02d} FAIL — {title}: "
                      f"{type(err).__name__}: {err}", file=sys.stderr)
                raise
            line = f"[acceptance] criterion-{number:02d} PASS — {title}"
            if detail:
                line += f" ({detail})"
            print(line)
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 01 — homology equals the closed form
# ---------------------------------------------------------------------------


@criterion(1, "filtered homology matches the closed form for all groups, N=1..4, "
              "and so does its direct limit")
def test_criterion_01_homology_matches_closed_form():
    start = time.monotonic()
    checked = 0
    for label in BATTERY:
        for N in range(1, 5):
            ranks = {d: len(gens) for d, gens in build_complex(label, N).items()}
            assert ranks == closed_form(label, N), (
                f"{label} at level {N}"
            )
            checked += 1
        # the ranks stabilized by level 4 are those of the closed form below
        # its top degree 14
        limit, report = direct_limit(label, 4)
        stable = {d: r for d, r in closed_form(label, 4).items() if d <= 12}
        assert limit == stable, label
        assert report["violations"] == 0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    return (f"{checked} (group, level) pairs and {len(BATTERY)} direct limits "
            f"in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 02 — orbit table structure
# ---------------------------------------------------------------------------

DIHEDRAL_THREE_TABLE = {
    0: ["Minus^1", "Minus^2", "Plus^1", "Plus^2", "Saddle^1"],
    1: ["Saddle^2"],
    2: ["Minus^3", "Plus^3", "Plus^4", "Plus^5", "Saddle^3"],
}

TETRAHEDRAL_TABLE = {
    0: ["Edge^1", "Face^1", "Face^2", "Vertex^1", "Vertex^2", "Vertex^3"],
    1: ["Edge^2"],
    2: ["Edge^3", "Face^3", "Face^4", "Face^5", "Vertex^4", "Vertex^5"],
}


@criterion(2, "orbit tables list the right generators per grading")
def test_criterion_02_orbit_tables():
    for label, expected in (("D:3", DIHEDRAL_THREE_TABLE), ("T", TETRAHEDRAL_TABLE)):
        table = {}
        for orbit in enumerate_orbits(label, 1):
            table.setdefault(orbit.grading, []).append(orbit.name)
        assert {g: sorted(v) for g, v in table.items()} == expected, label

    rows = 0
    for label in BATTERY:
        m = parse_group_spec(label).class_count
        for N in (1, 2):
            census = degree_census(label, N)
            by_grading = {}
            for orbit in enumerate_orbits(label, N):
                by_grading.setdefault(orbit.grading, []).append(orbit)
                rows += 1
            for grading, orbits in by_grading.items():
                good = sum(1 for o in orbits if o.good)
                bad = len(orbits) - good
                assert census[grading] == (good, bad)
                # bad orbits appear exactly in the odd gradings
                assert (grading % 2 == 0 and bad == 0) or (grading % 2 == 1 and good == 0)
            assert len(by_grading[0]) == m - 1
            assert len(by_grading[4 * N - 2]) == m - 1
    return f"2 frozen tables, {rows} rows structurally checked"


# ---------------------------------------------------------------------------
# 03 — class counts and Dynkin vertices
# ---------------------------------------------------------------------------


@criterion(3, "conjugacy-class counts and Dynkin vertex counts")
def test_criterion_03_class_counts():
    expected_family = {"C": "A", "D": "D", "T": "E", "O": "E", "I": "E"}
    for label in BATTERY:
        spec = parse_group_spec(label)
        classes = conjugacy_classes(build_group(spec))
        if spec.kind == "cyclic":
            count = spec.n
        elif spec.kind == "binary_dihedral":
            count = spec.n + 3
        else:
            count = {"T": 7, "O": 8, "I": 9}[label]
        assert len(classes) == count == spec.class_count, label
        dynkin = dynkin_type(spec)
        assert dynkin.vertices == count - 1, label
        assert dynkin.family == expected_family[label[0]], label
    return f"{len(BATTERY)} groups"


# ---------------------------------------------------------------------------
# 04 — monotonicity
# ---------------------------------------------------------------------------


@criterion(4, "same-class monotonicity of action and index, exhaustive at N_max=4")
def test_criterion_04_monotonicity():
    start = time.monotonic()
    pairs = 0
    for label in BATTERY:
        report = verify_monotonicity(label, 4)
        assert report["violations"] == 0, label
        pairs += report["pairs"]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    assert pairs > 0
    return f"{pairs} ordered pairs in {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 05 — three index routes agree
# ---------------------------------------------------------------------------


@criterion(5, "crossing form == closed formula == rotation index below level 3")
def test_criterion_05_index_routes_agree():
    start = time.monotonic()
    eps = 1e-3
    orbits_checked = 0
    for label in BATTERY:
        for orbit in enumerate_orbits(label, 3):
            path = local_model_for(orbit, eps=eps)
            crossing = cz_crossing_form(path)
            _theta, rotation = rotation_cz_sp2(path)
            assert crossing == orbit.cz == rotation, (
                f"{label} {orbit.name}: crossing {crossing}, closed {orbit.cz}, "
                f"rotation {rotation}"
            )
            orbits_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    assert orbits_checked >= 900
    return f"{orbits_checked} orbits in {elapsed:.2f}s, eps={eps:g}"


# ---------------------------------------------------------------------------
# 06 — spectral flow equals the index difference
# ---------------------------------------------------------------------------


@criterion(6, "spectral flow equals the index difference on 21 families")
def test_criterion_06_spectral_flow():
    canonical = cli.canonical_flow_family()
    cz0 = cz_crossing_form(czengine.solve_path(canonical.path_at(-1.0)))
    cz1 = cz_crossing_form(czengine.solve_path(canonical.path_at(1.0)))
    families = [(canonical, cz0, cz1)] + cli.seeded_flow_families(SEED, 20)
    assert len(families) >= 21
    for family, cz0, cz1 in families:
        flow = spectral_flow(family)
        assert flow == cz1 - cz0, (
            f"{family.name}: flow {flow} != index difference {cz1 - cz0}"
        )
        refined = spectral_flow(family, order=2 * family.fourier_order)
        assert refined == flow, (
            f"{family.name}: flow changed {flow} -> {refined} under refinement"
        )
    return f"{len(families)} families, truncation 32 -> 64 stable"


# ---------------------------------------------------------------------------
# 07 — index axioms
# ---------------------------------------------------------------------------


@criterion(7, "randomized index-axiom suite on 50 seeded paths")
def test_criterion_07_axioms():
    report = cz_axiom_suite(SEED, instances=50)
    assert report["failures"] == []
    assert report["instances"] >= 50
    assert report["max_residual"] < 1e-8
    return f"{report['instances']} checks, max residual {report['max_residual']:.3e}"


# ---------------------------------------------------------------------------
# 08 — crossing signs
# ---------------------------------------------------------------------------


@criterion(8, "operator and return-map crossing forms have opposite signs")
def test_criterion_08_crossing_signs():
    families = [cli.canonical_flow_family(), cli.resonance_family()]
    families += [fam for fam, _, _ in cli.seeded_flow_families(SEED + 1, 8)]
    assert len(families) >= 10
    crossings = 0
    worst = 0.0
    for fam in families:
        report = verify_crossing_sign_lemma(fam)
        assert report["failures"] == [], fam.name
        crossings += report["instances"]
        worst = max(worst, report["max_residual"])
    assert crossings >= 5, "battery produced too few crossings to be meaningful"
    assert worst < 1e-4
    return f"{len(families)} families, {crossings} crossings, max residual {worst:.3e}"


# ---------------------------------------------------------------------------
# 09 — quotient Morse theory
# ---------------------------------------------------------------------------


@criterion(9, "orbifold Morse data: ranks, flow counts, weights, index gaps")
def test_criterion_09_morse():
    start = time.monotonic()
    for label in BATTERY:
        complex_ = morse.orbifold_complex(label)
        assert complex_.ranks == (1, 0, 1), label
        report = morse.seifert_index_check(label)
        assert report["failures"] == (), label

    func = morse.build_invariant_morse("T")
    down = morse.count_flow_lines(func, "Face", "Edge")
    up = morse.count_flow_lines(func, "Edge", "Vertex")
    assert down.downstairs == 1 and down.weights == (3,)
    assert up.downstairs == 1 and up.weights == (2,)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    return f"{len(BATTERY)} groups in {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 10 — index-2 buildings
# ---------------------------------------------------------------------------


@criterion(10, "two-level buildings over the exceptional fillings have index 2")
def test_criterion_10_building_indices():
    cases = []
    for label in BATTERY:
        if label.startswith("C:"):
            cases.append((label, "SouthPole"))
        elif label.startswith("D:"):
            cases.append((label, "Minus"))
        else:
            cases.append((label, "Vertex"))
    checked = 0
    for label, base in cases:
        d2 = covering_multiplicity(label, base)
        mu_d2 = make_orbit(label, base, d2).cz
        assert mu_d2 == 3  # simple cover of the fiber over a minimum
        for d1 in range(1, 11):
            top = make_orbit(label, base, d1 + d2).cz
            bottoms = [make_orbit(label, base, d1).cz, mu_d2]
            assert building_index(top, bottoms) == 2, (label, base, d1)
            checked += 1
    return f"{checked} buildings across {len(cases)} groups"
