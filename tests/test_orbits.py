"""Tests for the orbit census: action thresholds, enumeration, rotation
numbers, index formulas, type classification, free homotopy classes, and
action monotonicity within a class."""

import dataclasses
import tracemalloc
from fractions import Fraction

import pytest
from conftest import formal_ceil, formal_floor

from chlab import groups, orbits as orbits_module
from chlab.groups import AmbiguousLabel
from chlab.orbits import (
    FormalScalar,
    MonotonicityViolation,
    action_threshold,
    base_table,
    covering_multiplicity,
    degree_census,
    enumerate_orbits,
    format_ratio,
    make_orbit,
    orbit_row,
    verify_monotonicity,
)

BATTERY = tuple(f"C:{n}" for n in range(2, 13)) + tuple(
    f"D:{n}" for n in range(2, 9)
) + ("T", "O", "I")


# ---------------------------------------------------------------------------
# formal scalars
# ---------------------------------------------------------------------------


def test_formal_scalar_is_ordered_lexicographically():
    assert FormalScalar(1, 5) < FormalScalar(2, -5)
    assert FormalScalar(2, -1) < FormalScalar(2, 0) < FormalScalar(2, 1)
    assert FormalScalar(Fraction(1, 3), 0) < FormalScalar(Fraction(1, 2), -100)
    # the derived comparisons
    a, b = FormalScalar(2, -1), FormalScalar(2, 1)
    assert a <= b and a <= a and not b <= a
    assert b > a and not a > a and b >= b and not a >= b
    assert FormalScalar(2) == FormalScalar(Fraction(2), 0)
    assert hash(FormalScalar(2, 1)) == hash(FormalScalar(Fraction(2), Fraction(1)))
    # a formal scalar is compared with formal scalars only
    assert FormalScalar(2) != 2 and FormalScalar(2) != (2, 0)
    with pytest.raises(TypeError):
        FormalScalar(2) < 3


def test_formal_floor_and_ceil():
    assert formal_floor(FormalScalar(Fraction(7, 3), 1)) == 2
    assert formal_ceil(FormalScalar(Fraction(7, 3), 1)) == 3
    # integer first part: the infinitesimal decides
    assert formal_floor(FormalScalar(2, Fraction(1, 6))) == 2
    assert formal_ceil(FormalScalar(2, Fraction(1, 6))) == 3
    assert formal_floor(FormalScalar(2, Fraction(-1, 6))) == 1
    assert formal_ceil(FormalScalar(2, Fraction(-1, 6))) == 2
    assert formal_floor(FormalScalar(2, 0)) == 2
    assert formal_ceil(FormalScalar(2, 0)) == 2


def test_formal_scalar_repr():
    assert repr(FormalScalar(Fraction(1, 3), -1)) == "FormalScalar(1/3, -1)"


def test_format_ratio():
    # the parts of a + b*eps, reduced or not, negative ones included
    assert format_ratio(10, 6) == "5/3"
    assert (format_ratio(12, 6), format_ratio(1, 6), format_ratio(-1, 6)) == ("2", "1/6", "-1/6")
    assert (format_ratio(1, 3), format_ratio(3, 3), format_ratio(-3, 3)) == ("1/3", "1", "-1")
    assert (format_ratio(6, 2), format_ratio(8, 2)) == ("3", "4")
    assert (format_ratio(-35, 20), format_ratio(-8, 20)) == ("-7/4", "-2/5")
    assert (format_ratio(-6, 2), format_ratio(0, 2)) == ("-3", "0")
    # json's action_a/action_b must read as str(Fraction) does
    for p in range(-13, 14):
        for q in range(1, 13):
            assert format_ratio(p, q) == str(Fraction(p, q))


# ---------------------------------------------------------------------------
# the orbit record
# ---------------------------------------------------------------------------


def test_orbit_record_is_an_immutable_value():
    orbit = make_orbit("D:3", "Plus", 2)
    with pytest.raises(AttributeError):
        orbit.k = 3
    twin = make_orbit("D:3", "Plus", 2)
    assert twin is not orbit and twin == orbit and hash(twin) == hash(orbit)
    assert len({orbit, twin, make_orbit("D:3", "Plus", 3)}) == 2
    assert not hasattr(orbit, "__dict__")


def _jet_text(x):
    """Table text of a formal scalar, from its Fractions."""
    return str(x.a) if x.b == 0 else f"{x.a} {'+' if x.b > 0 else '-'} {abs(x.b)}·eps"


@pytest.mark.parametrize("label", ["C:7", "D:7", "T", "O", "I"])
def test_record_action_and_rotation_are_the_fraction_jets(label):
    bases = {b.name: b for b in base_table(label)}
    for orbit in enumerate_orbits(label, 8):
        base = bases[orbit.base.name]
        a = Fraction(2 * orbit.k, base.cov)
        action = FormalScalar(a, a * base.sign)
        rotation = FormalScalar(a, Fraction(orbit.k, base.cov) * base.sign)
        assert (orbit.action, orbit.rotation) == (action, rotation)
        assert orbit.jet_texts == (_jet_text(action), _jet_text(rotation))
    assert {orbit.base.name for orbit in enumerate_orbits(label, 8)} == set(bases)


def test_a_retained_record_is_small():
    # a record holds no per-instance dict and no Fraction: at most 256 bytes
    # each, list slots and the integers past the small-int cache included
    enumerate_orbits("D:64", 1)  # builds the group and checks its lift tables
    orbits_module._orbit_family.cache_clear()
    tracemalloc.start()
    try:
        records = enumerate_orbits("D:64", 8)
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 1085
    assert size / len(records) <= 256


# ---------------------------------------------------------------------------
# thresholds and enumeration
# ---------------------------------------------------------------------------


def test_action_threshold_values():
    t = action_threshold("C:3", 1)
    assert (t.a, t.b) == (Fraction(2) - Fraction(1, 3), 0)
    t = action_threshold("D:3", 1)
    assert (t.a, t.b) == (Fraction(2) - Fraction(1, 6), 0)
    t = action_threshold("T", 2)
    assert (t.a, t.b) == (Fraction(4) - Fraction(1, 10), 0)


def test_enumeration_cyclic():
    names = [o.name for o in enumerate_orbits("C:3", 1)]
    assert sorted(names) == sorted(
        ["SouthPole^1", "SouthPole^2", "NorthPole^1", "NorthPole^2"]
    )


def test_enumeration_dihedral():
    names = sorted(o.name for o in enumerate_orbits("D:3", 1))
    assert names == sorted(
        [f"Minus^{k}" for k in (1, 2, 3)]
        + [f"Saddle^{k}" for k in (1, 2, 3)]
        + [f"Plus^{k}" for k in (1, 2, 3, 4, 5)]
    )


def test_enumeration_tetrahedral():
    names = sorted(o.name for o in enumerate_orbits("T", 1))
    assert names == sorted(
        [f"Vertex^{k}" for k in (1, 2, 3, 4, 5)]
        + [f"Edge^{k}" for k in (1, 2, 3)]
        + [f"Face^{k}" for k in (1, 2, 3, 4, 5)]
    )


@pytest.mark.parametrize("n,N", [(2, 1), (3, 2), (5, 2), (12, 1)])
def test_enumeration_ranges_cyclic(n, N):
    orbits = enumerate_orbits(f"C:{n}", N)
    for base in ("NorthPole", "SouthPole"):
        ks = sorted(o.k for o in orbits if o.base.name == base)
        assert ks == list(range(1, n * N))


@pytest.mark.parametrize("n,N", [(2, 1), (3, 1), (4, 2)])
def test_enumeration_ranges_dihedral(n, N):
    orbits = enumerate_orbits(f"D:{n}", N)
    for base, top in (("Minus", 4 * N - 1), ("Saddle", 4 * N - 1), ("Plus", 2 * n * N - 1)):
        ks = sorted(o.k for o in orbits if o.base.name == base)
        assert ks == list(range(1, top + 1))


@pytest.mark.parametrize("label,iv", [("T", 3), ("O", 4), ("I", 5)])
def test_enumeration_ranges_polyhedral(label, iv):
    for N in (1, 2):
        orbits = enumerate_orbits(label, N)
        for base, top in (("Vertex", 2 * N * iv - 1), ("Edge", 4 * N - 1), ("Face", 6 * N - 1)):
            ks = sorted(o.k for o in orbits if o.base.name == base)
            assert ks == list(range(1, top + 1))


def _single_records(label, N):
    return [make_orbit(label, base, k) for base in base_table(label)
            for k in range(1, orbits_module._max_multiplicity(label, base, N) + 1)]


def test_enumeration_slices_match_single_records_in_any_order():
    labels = ("C:7", "D:5", "T", "O")
    levels = (4, 1, 3, 2)  # the first query grows each family to its end
    orbits_module._orbit_family.cache_clear()
    descending = {(label, N): enumerate_orbits(label, N) for label in labels for N in levels}
    orbits_module._orbit_family.cache_clear()
    for label in labels:
        for N in sorted(levels):
            ascending = enumerate_orbits(label, N)
            assert ascending == descending[label, N] == _single_records(label, N)


def test_record_lists_never_skip_the_lift_check(monkeypatch, fresh_groups):
    enumerate_orbits("T", 2)  # T's record lists now reach past level 1
    groups._closed_group.cache_clear()
    orbits_module._validate_class_tables.cache_clear()
    # with a zero clustering tolerance the tetrahedral edge orbit is not found
    monkeypatch.setattr(groups, "TOL_POINT", 0.0)
    with pytest.raises(AmbiguousLabel, match="single order-2 orbit"):
        enumerate_orbits("T", 1)
    with pytest.raises(AmbiguousLabel, match="single order-2 orbit"):
        make_orbit("T", "Edge", 1)


@pytest.mark.parametrize("label", ["C:2", "C:64", "D:2", "D:64", "T", "O", "I"])
def test_orbit_count_is_the_enumerated_count(label):
    for N in (1, 2, 5):
        assert orbits_module.orbit_count(label, N) == len(enumerate_orbits(label, N))


def test_levels_one_to_eight_of_every_group_are_under_the_cap():
    labels = [f"{kind}:{n}" for kind in "CD" for n in range(2, 65)] + ["T", "O", "I"]
    worst = max(orbits_module.orbit_count(label, N) for label in labels for N in range(1, 9))
    assert worst <= orbits_module.MAX_ORBITS


def test_level_past_the_orbit_cap_is_refused_before_enumerating(monkeypatch):
    assert orbits_module.orbit_count("C:2", 1024) <= orbits_module.MAX_ORBITS
    assert orbits_module.orbit_count("C:2", 1025) > orbits_module.MAX_ORBITS

    def no_record(*args):
        raise AssertionError("an orbit record was built past the cap")

    monkeypatch.setattr(orbits_module, "_orbit_record", no_record)
    with pytest.raises(ValueError, match="level 1025 holds 4098 orbits of C:2, more than the cap"):
        enumerate_orbits("C:2", 1025)
    with pytest.raises(ValueError, match="more than the cap"):
        verify_monotonicity("C:3", 10 ** 20)


def test_all_enumerated_actions_lie_below_threshold():
    for label in ("C:4", "D:3", "O"):
        for N in (1, 2):
            bound = action_threshold(label, N)
            for orbit in enumerate_orbits(label, N):
                assert orbit.action < bound


# ---------------------------------------------------------------------------
# rotation numbers and indices
# ---------------------------------------------------------------------------


def test_rotation_number_dihedral_plus():
    for k in (1, 2, 5):
        rot = make_orbit("D:3", "Plus", k).rotation
        assert (rot.a, rot.b) == (Fraction(k, 3), Fraction(k, 6))


def test_rotation_number_cyclic_north():
    for k in (1, 2, 4):
        rot = make_orbit("C:3", "NorthPole", k).rotation
        assert (rot.a, rot.b) == (Fraction(2 * k, 3), Fraction(k, 3))


def test_rotation_number_saddle_is_exact():
    for k in (1, 2, 3, 4):
        rot = make_orbit("D:5", "Saddle", k).rotation
        assert (rot.a, rot.b) == (Fraction(k, 2), 0)


def test_cz_of_saddle_iterates_is_k():
    for n in (2, 3, 4):
        for k in range(1, 9):
            assert make_orbit(f"D:{n}", "Saddle", k).cz == k


def test_cz_closed_formula_spot_values():
    assert make_orbit("C:3", "SouthPole", 2).cz == 3  # 2*ceil(4/3) - 1
    assert make_orbit("T", "Vertex", 3).cz == 1
    assert make_orbit("T", "Vertex", 4).cz == 3
    assert make_orbit("I", "Face", 1).cz == 1


def test_cz_equals_floor_plus_ceil_of_rotation():
    for label in ("C:5", "D:4", "T", "I"):
        for orbit in enumerate_orbits(label, 2):
            # the record takes floor and ceiling from divmod(2k, cov)
            assert orbit.cz == formal_floor(orbit.rotation) + formal_ceil(orbit.rotation)
            assert orbit.grading == orbit.cz - 1


def test_lifted_multiples_obey_index_formula():
    # at k = cov * j the orbit is a j-fold cover of the fiber; its index is
    # 4j + morse_index(base) - 1
    index_of = {"Minus": 0, "SouthPole": 0, "NorthPole": 2, "Vertex": 0,
                "Saddle": 1, "Edge": 1, "Plus": 2, "Face": 2}
    for label, bases in (
        ("C:4", ("NorthPole", "SouthPole")),
        ("D:3", ("Minus", "Saddle", "Plus")),
        ("O", ("Vertex", "Edge", "Face")),
    ):
        for base in bases:
            cov = covering_multiplicity(label, base)
            for j in (1, 2, 3):
                orbit = make_orbit(label, base, cov * j)
                assert orbit.cz == 4 * j + index_of[base] - 1
                assert orbit.contractible


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_saddle_iterates_alternate_type_and_goodness():
    for k in range(1, 9):
        orbit = make_orbit("D:4", "Saddle", k)
        if k % 2:
            assert orbit.orbit_type == "NegativeHyperbolic" and orbit.good
        else:
            assert orbit.orbit_type == "PositiveHyperbolic" and not orbit.good


def test_elliptic_orbits_are_good():
    for label, base in (("C:3", "SouthPole"), ("T", "Edge"), ("I", "Vertex")):
        for k in (1, 2, 3):
            orbit = make_orbit(label, base, k)
            if orbit.base.name == "Edge" and k % 2 == 0:
                continue  # even edge iterates are the hyperbolic ones
            if base != "Edge":
                assert orbit.orbit_type == "Elliptic"
                assert orbit.good


def test_good_matches_even_grading():
    for label in BATTERY[:6] + ("D:5", "O"):
        for orbit in enumerate_orbits(label, 2):
            assert orbit.good == (orbit.grading % 2 == 0)


# ---------------------------------------------------------------------------
# covering multiplicities and homotopy classes
# ---------------------------------------------------------------------------


def test_covering_multiplicities():
    assert covering_multiplicity("T", "Vertex") == 6
    assert covering_multiplicity("T", "Edge") == 4
    assert covering_multiplicity("T", "Face") == 6
    assert covering_multiplicity("O", "Vertex") == 8
    assert covering_multiplicity("I", "Vertex") == 10
    assert covering_multiplicity("C:5", "NorthPole") == 5
    assert covering_multiplicity("C:6", "NorthPole") == 6
    for n in (2, 3, 4, 5):
        assert covering_multiplicity(f"D:{n}", "Saddle") == 4
        assert covering_multiplicity(f"D:{n}", "Minus") == 4
        assert covering_multiplicity(f"D:{n}", "Plus") == 2 * n


def test_homotopy_class_saddle_even_n():
    for k in (1, 5, 9):
        assert make_orbit("D:4", "Saddle", k).class_label == "B"


def test_homotopy_class_tetrahedral_face():
    for k in (5, 11, 17):
        assert make_orbit("T", "Face", k).class_label == "T_{6,A}"


def test_homotopy_class_periodicity():
    for label, base in (("C:7", "SouthPole"), ("D:3", "Plus"), ("O", "Edge")):
        cov = covering_multiplicity(label, base)
        for k in range(1, cov + 1):
            a = make_orbit(label, base, k).class_label
            b = make_orbit(label, base, k + cov).class_label
            assert a == b


def test_contractible_exactly_at_covering_multiples():
    for label, base in (("C:4", "NorthPole"), ("D:3", "Minus"), ("T", "Face")):
        cov = covering_multiplicity(label, base)
        for k in range(1, 3 * cov + 1):
            orbit = make_orbit(label, base, k)
            assert orbit.contractible == (k % cov == 0)
            if orbit.contractible:
                assert orbit.class_label in ("Id", "T_Id", "O_Id", "I_Id")
                assert orbit.cz >= 3


# ---------------------------------------------------------------------------
# census and monotonicity
# ---------------------------------------------------------------------------


def test_degree_census_dihedral():
    for n, N in ((3, 1), (3, 2), (5, 2)):
        census = degree_census(f"D:{n}", N)
        assert census[0] == (n + 2, 0)
        assert census[4 * N - 2] == (n + 2, 0)
        for deg in range(2, 4 * N - 2, 2):
            assert census[deg] == (n + 3, 0)
        for deg in range(1, 4 * N - 2, 2):
            assert census[deg] == (0, 1)


def test_degree_census_cyclic():
    census = degree_census("C:5", 2)
    assert census[0] == (4, 0)
    assert census[6] == (4, 0)
    assert census[2] == (5, 0) and census[4] == (5, 0)
    assert all(deg % 2 == 0 for deg in census)


def test_degree_census_octahedral():
    assert degree_census("O", 1) == {0: (7, 0), 1: (0, 1), 2: (7, 0)}


@pytest.mark.parametrize("label", ["C:5", "D:3", "T"])
def test_monotonicity_reports_clean(label):
    report = verify_monotonicity(label, 3)
    assert report["violations"] == 0
    assert report["pairs"] > 0
    assert report["orbits"] == len(enumerate_orbits(label, 3))


def test_monotonicity_violation_is_assertion_error():
    assert issubclass(MonotonicityViolation, AssertionError)


def _swap_actions(first, last):
    # a record's action is derived from (k, cov, sign): swap those, keep the cz
    return (first._replace(k=last.k, cov=last.cov, sign=last.sign),
            last._replace(k=first.k, cov=first.cov, sign=first.sign))


def _share_cz(first, last):
    return first, last._replace(cz=first.cz)


@pytest.mark.parametrize("corrupt, reason", [
    (_swap_actions, "has cz"), (_share_cz, "share class"),
], ids=["swapped-actions", "duplicated-cz"])
def test_monotonicity_catches_a_corrupted_class(monkeypatch, corrupt, reason):
    # the lowest- and highest-cz orbits of one class: no neighbour
    # comparison of the unsorted list sees them side by side
    records = list(enumerate_orbits("D:3", 3))
    members = [i for i, o in enumerate(records) if o.class_label == records[0].class_label]
    lo = min(members, key=lambda i: records[i].cz)
    hi = max(members, key=lambda i: records[i].cz)
    assert len(members) > 2 and records[lo].cz < records[hi].cz
    records[lo], records[hi] = corrupt(records[lo], records[hi])
    monkeypatch.setattr(orbits_module, "enumerate_orbits", lambda spec, N: records)
    with pytest.raises(MonotonicityViolation, match=reason):
        verify_monotonicity("D:3", 3)


# ---------------------------------------------------------------------------
# serialization row
# ---------------------------------------------------------------------------


def test_orbit_row_shape():
    row = orbit_row(make_orbit("D:3", "Plus", 2))
    assert row == {
        "base": "Plus",
        "k": 2,
        "action_a": str(Fraction(2, 3)),
        "action_b": str(Fraction(2, 3)),
        "cz": 1,
        "grading": 0,
        "type": "Elliptic",
        "good": True,
        "class": "A^2",
        "contractible": False,
    }


# ---------------------------------------------------------------------------
# guards: library inputs, and faults injected into computed data
# ---------------------------------------------------------------------------


def test_unknown_base_name_is_a_value_error():
    with pytest.raises(ValueError, match="no base named 'Pole' for T"):
        make_orbit("T", "Pole", 1)


def test_multiplicity_below_one_is_refused():
    with pytest.raises(ValueError, match="multiplicity must be >= 1, got 0"):
        make_orbit("D:3", "Plus", 0)


def test_monotonicity_needs_a_level():
    with pytest.raises(ValueError, match="N_max must be >= 1, got 0"):
        verify_monotonicity("C:3", 0)


def _bases_changed(monkeypatch, name, **changes):
    """Make base_table hand out the named base with the given fields changed."""
    real = orbits_module.base_table
    monkeypatch.setattr(orbits_module, "base_table", lambda spec: tuple(
        dataclasses.replace(b, **changes) if b.name == name else b for b in real(spec)))


def test_lift_check_rejects_a_base_off_its_fixed_orbit(monkeypatch, fresh_groups):
    _bases_changed(monkeypatch, "Edge", isotropy=3)
    with pytest.raises(orbits_module.LiftMismatch, match="T: fixed orbit .* does not match base"):
        make_orbit("T", "Edge", 1)


def test_lift_check_rejects_a_covering_off_the_lift_order(monkeypatch, fresh_groups):
    _bases_changed(monkeypatch, "Vertex", cov=3)
    with pytest.raises(orbits_module.LiftMismatch, match="T/Vertex: lift has order 6, expected 3"):
        make_orbit("T", "Vertex", 1)


def test_lift_check_rejects_a_generator_phase_off_2pi_over_cov(monkeypatch, fresh_groups):
    real = orbits_module.fiber_isotropy_generator

    def halved(group, p):
        gi, phase = real(group, p)
        return gi, phase / 2

    monkeypatch.setattr(orbits_module, "fiber_isotropy_generator", halved)
    with pytest.raises(orbits_module.LiftMismatch, match="T/Vertex: generator phase .* is not 2"):
        make_orbit("T", "Vertex", 1)


def test_lift_check_rejects_swapped_class_suffixes(monkeypatch, fresh_groups):
    table = orbits_module._POLY_CLASS_TABLE[("T", "Vertex")]
    swap = {"T_{6,A}": "T_{6,B}", "T_{6,B}": "T_{6,A}"}
    monkeypatch.setitem(orbits_module._POLY_CLASS_TABLE, ("T", "Vertex"),
                        {r: swap.get(label, label) for r, label in table.items()})
    with pytest.raises(orbits_module.LiftMismatch,
                       match=r"T: Vertex\^1 lifts into \[T_\{6,A\}\], table says \[T_\{6,B\}\]"):
        make_orbit("T", "Vertex", 1)


def test_record_rejects_an_index_off_the_closed_formula(monkeypatch):
    real = orbits_module._cz_closed
    monkeypatch.setattr(orbits_module, "_cz_closed", lambda base, k: real(base, k) + 2)
    with pytest.raises(AssertionError, match="D:3 Plus\\^2: floor\\+ceil gives 1, closed formula gives 3"):
        make_orbit("D:3", "Plus", 2)


def test_enumeration_rejects_a_range_past_the_threshold(monkeypatch):
    real = orbits_module._max_multiplicity
    monkeypatch.setattr(orbits_module, "_max_multiplicity",
                        lambda spec, base, N: real(spec, base, N) + 1)
    with pytest.raises(AssertionError, match="C:3/SouthPole: the threshold does not fall between "
                                             "k=3 and k=4"):
        enumerate_orbits("C:3", 1)


def test_stored_covering_off_twice_the_isotropy(monkeypatch):
    _bases_changed(monkeypatch, "Face", cov=3)
    with pytest.raises(AssertionError, match="O/Face: stored covering 3 != 6"):
        covering_multiplicity("O", "Face")
