"""Tests for the filtration levels: generator parity, homology ranks, the
closed-form answer, filtration inclusions, the direct limit, and the
class-count correspondence."""

import pytest

from chlab import homology
from chlab.homology import (
    PairingFailure,
    ParityViolation,
    build_complex,
    closed_form,
    direct_limit,
    homology_report,
    mckay_check,
)
from chlab import groups
from chlab.groups import parse_group_spec
from chlab.orbits import enumerate_orbits

BATTERY = tuple(f"C:{n}" for n in range(2, 13)) + tuple(
    f"D:{n}" for n in range(2, 9)
) + ("T", "O", "I")


def _ranks(label, N):
    """The homology of level N: with zero differential, its graded count."""
    return {d: len(gens) for d, gens in build_complex(label, N).items()}


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


def test_build_complex_dihedral_three():
    cx = build_complex("D:3", 1)
    assert len(cx[0]) == 5
    assert len(cx[2]) == 5
    assert sorted(cx) == [0, 2]
    assert sum(len(gens) for gens in cx.values()) == 10
    # the differential vanishes for parity reasons: ranks are generator counts
    assert homology_report("D:3", 1)["ranks"] == {str(d): len(gens) for d, gens in cx.items()}


def test_build_complex_rejects_adjacent_gradings(monkeypatch):
    # a good generator in odd grading next to an even one is the only way a
    # nonzero differential could arise; build_complex must refuse it
    even, other = [o for o in enumerate_orbits("D:3", 1) if o.good and o.grading == 2][:2]
    odd = other._replace(grading=3)
    monkeypatch.setattr(homology, "enumerate_orbits", lambda spec, N: [even, odd])
    with pytest.raises(ParityViolation, match="adjacent gradings 2 and 3"):
        build_complex("D:3", 1)


def test_build_complex_small_cases():
    assert _ranks("C:2", 1) == {0: 1, 2: 1}
    assert _ranks("I", 1) == {0: 8, 2: 8}


@pytest.mark.parametrize("label", ["C:7", "D:4", "O"])
def test_complex_generators_are_good_and_even(label):
    cx = build_complex(label, 2)
    for degree, gens in cx.items():
        assert degree % 2 == 0
        for orbit in gens:
            assert orbit.good
            assert orbit.grading == degree


# ---------------------------------------------------------------------------
# homology ranks and the closed form
# ---------------------------------------------------------------------------


def test_homology_ranks_examples():
    assert _ranks("D:3", 1) == {0: 5, 2: 5}
    assert _ranks("T", 2) == {0: 6, 2: 7, 4: 7, 6: 6}
    assert _ranks("C:4", 1) == {0: 3, 2: 3}


def test_closed_form_level_one():
    for label in BATTERY:
        m = parse_group_spec(label).class_count
        assert closed_form(label, 1) == {0: m - 1, 2: m - 1}


def test_closed_form_octahedral_level_three():
    assert closed_form("O", 3) == {0: 7, 2: 8, 4: 8, 6: 8, 8: 8, 10: 7}


def test_closed_form_vanishes_off_support():
    ranks = closed_form("D:5", 2)
    assert -2 not in ranks
    assert 1 not in ranks
    assert 4 * 2 - 2 + 2 not in ranks


@pytest.mark.parametrize("label", BATTERY)
def test_homology_matches_closed_form_low_levels(label):
    for N in (1, 2):
        assert _ranks(label, N) == closed_form(label, N)


@pytest.mark.parametrize("label", ["C:5", "D:4", "I"])
def test_homology_matches_closed_form_deep_levels(label):
    for N in (3, 4, 5, 6):
        assert _ranks(label, N) == closed_form(label, N)


def test_ranks_hold_no_zero_or_negative_entry():
    # ranks are compared as plain dicts, which is equality of graded vector
    # spaces only while neither side holds a zero rank
    for label in BATTERY:
        for N in range(1, 5):
            for ranks in (_ranks(label, N), closed_form(label, N)):
                assert all(degree >= 0 and rank >= 1 for degree, rank in ranks.items()), label


# ---------------------------------------------------------------------------
# inclusions of filtration levels
# ---------------------------------------------------------------------------


def test_inclusion_same_level_is_identity():
    spec, cx = parse_group_spec("C:4"), build_complex("C:4", 2)
    pairing = homology._inclusion(spec, 2, cx, 2, cx)
    assert len(pairing) == sum(len(gens) for gens in cx.values())
    assert all(src == dst for src, dst in pairing.items())


def test_inclusion_dihedral_injects_and_preserves_grading():
    spec, source, target = parse_group_spec("D:3"), build_complex("D:3", 1), build_complex("D:3", 2)
    pairing = homology._inclusion(spec, 1, source, 2, target)
    assert len(pairing) == 10
    targets = list(pairing.values())
    assert len(set(targets)) == len(targets)  # injective
    assert sum(len(gens) for gens in target.values()) == 22
    for src, dst in pairing.items():
        assert src.grading == dst.grading


def test_inclusions_compose():
    spec = parse_group_spec("D:3")
    cx1, cx2, cx3 = (build_complex(spec, N) for N in (1, 2, 3))
    first = homology._inclusion(spec, 1, cx1, 2, cx2)
    second = homology._inclusion(spec, 2, cx2, 3, cx3)
    direct = homology._inclusion(spec, 1, cx1, 3, cx3)
    for src, mid in first.items():
        assert direct[src] == second[mid]


def test_inclusion_rejects_decreasing_levels():
    # a level's orbits do not all lie below a lower threshold
    with pytest.raises(PairingFailure, match="C:4: SouthPole\\^4 below L_2 has no match below L_1"):
        homology._inclusion(parse_group_spec("C:4"), 2, build_complex("C:4", 2),
                            1, build_complex("C:4", 1))


def _levels_with(monkeypatch, change):
    """Make each level N hold its good orbits as ``change(N, orbits)`` leaves them."""
    real = homology.enumerate_orbits

    def changed(spec, N):
        return change(N, [o for o in real(spec, N) if o.good])

    monkeypatch.setattr(homology, "enumerate_orbits", changed)


def test_direct_limit_rejects_a_duplicated_orbit(monkeypatch):
    _levels_with(monkeypatch, lambda N, orbits: orbits + orbits[-1:] if N == 3 else orbits)
    with pytest.raises(PairingFailure, match=r"D:3 N=3: duplicate orbit \('Plus', 17\)"):
        direct_limit("D:3", 3)


def test_direct_limit_rejects_an_orbit_lost_by_the_next_level(monkeypatch):
    _levels_with(monkeypatch, lambda N, orbits: orbits[1:] if N == 2 else orbits)
    with pytest.raises(PairingFailure, match="Minus\\^1 below L_1 has no match below L_2"):
        direct_limit("D:3", 3)


def test_direct_limit_rejects_a_grading_change(monkeypatch):
    def shift(N, orbits):
        if N == 2:
            orbits[0] = orbits[0]._replace(grading=orbits[0].grading + 2)
        return orbits

    _levels_with(monkeypatch, shift)
    with pytest.raises(PairingFailure, match="Minus\\^1 changes grading 0 -> 2"):
        direct_limit("D:3", 3)


# ---------------------------------------------------------------------------
# direct limit
# ---------------------------------------------------------------------------


def test_direct_limit_cyclic():
    limit, report = direct_limit("C:4", 3)
    assert limit == {0: 3, 2: 4, 4: 4, 6: 4, 8: 4}
    assert report["violations"] == 0
    assert all(1 <= first <= 3 for first in report["first_stable"].values())


def test_direct_limit_structure():
    for label in ("D:4", "T"):
        m = parse_group_spec(label).class_count
        limit, _ = direct_limit(label, 3)
        assert limit[0] == m - 1
        for degree in range(2, 9, 2):
            assert limit[degree] == m
        assert all(d % 2 == 0 for d in limit)


def test_direct_limit_needs_two_levels():
    with pytest.raises(ValueError):
        direct_limit("C:4", 1)


def test_direct_limit_rejects_a_rank_off_the_closed_form(monkeypatch):
    # one good orbit missing at every level: the levels still include, but
    # degree 2 stabilizes one short
    _levels_with(monkeypatch, lambda N, orbits: [o for o in orbits if o.name != "Plus^3"])
    with pytest.raises(AssertionError, match="D:3: degree 2 stabilizes at 5, closed form says 6"):
        direct_limit("D:3", 3)


# ---------------------------------------------------------------------------
# class-count correspondence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", BATTERY)
def test_mckay_triple(label):
    report = mckay_check(label)
    m = parse_group_spec(label).class_count
    assert report["violations"] == 0
    assert tuple(report["triple"]) == (m - 1, m - 1, m - 1)


def test_mckay_check_rejects_a_wrong_dynkin_rank(monkeypatch):
    monkeypatch.setattr(homology, "dynkin_type", lambda spec: groups.DynkinType("E", 7))
    with pytest.raises(AssertionError, match="T: Dynkin 7, classes-1 6, degree-0 rank 6 disagree"):
        mckay_check("T")


def test_mckay_examples():
    assert tuple(mckay_check("C:5")["triple"]) == (4, 4, 4)
    assert tuple(mckay_check("D:3")["triple"]) == (5, 5, 5)
    assert tuple(mckay_check("I")["triple"]) == (8, 8, 8)


def test_homology_report_shape():
    report = homology_report("T", 2)
    assert report["spec"] == "T"
    assert report["N"] == 2
    assert report["match"] is True
    assert sum(len(gens) for gens in build_complex("T", 2).values()) == 26
    assert report["ranks"] == {"0": 6, "2": 7, "4": 7, "6": 6}
    assert report["closed_form"] == report["ranks"]
