"""Property-based tests for the structural invariants: formal-scalar
order, quaternion projection, orbit index identities, closed-form rank
structure, and the CLI's JSON writer."""

import json
import math
from fractions import Fraction

import numpy as np
from conftest import formal_ceil, formal_floor
from hypothesis import given, settings, strategies as st

from chlab.groups import _product, _so3_stack, hopf
from chlab.homology import closed_form
from chlab.orbits import (
    FormalScalar,
    action_threshold,
    covering_multiplicity,
    enumerate_orbits,
    make_orbit,
)
from chlab import cli
from chlab.czengine import building_index
from chlab.groups import parse_group_spec

SETTINGS = settings(max_examples=40, deadline=None)

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=24
)

specs = st.sampled_from(
    tuple(f"C:{n}" for n in range(2, 13))
    + tuple(f"D:{n}" for n in range(2, 9))
    + ("T", "O", "I")
)

base_names = {
    "C": ("NorthPole", "SouthPole"),
    "D": ("Minus", "Saddle", "Plus"),
    "P": ("Vertex", "Edge", "Face"),
}


def _bases(label):
    if label.startswith("C:"):
        return base_names["C"]
    if label.startswith("D:"):
        return base_names["D"]
    return base_names["P"]


# ---------------------------------------------------------------------------
# formal scalars
# ---------------------------------------------------------------------------


@SETTINGS
@given(fractions, fractions, fractions, fractions)
def test_formal_order_is_lexicographic(a1, b1, a2, b2):
    x, y = FormalScalar(a1, b1), FormalScalar(a2, b2)
    assert (x < y) == ((a1, b1) < (a2, b2))
    assert (x == y) == ((a1, b1) == (a2, b2))


@SETTINGS
@given(fractions, fractions)
def test_formal_floor_ceil_bracket(a, b):
    x = FormalScalar(a, b)
    lo, hi = formal_floor(x), formal_ceil(x)
    assert FormalScalar(lo, 0) <= x <= FormalScalar(hi, 0)
    assert hi - lo in (0, 1)


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------


unit_quaternions = st.builds(
    lambda v: tuple(float(x) for x in np.asarray(v) / np.linalg.norm(v)),
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ).filter(lambda v: np.linalg.norm(v) > 1e-2),
)


@SETTINGS
@given(unit_quaternions, unit_quaternions)
def test_projection_is_multiplicative(q, r):
    p_q, p_r, p_qr = _so3_stack([q, r, _product(q, r)])
    assert np.allclose(p_qr, p_q @ p_r, atol=1e-9)


@SETTINGS
@given(unit_quaternions)
def test_projection_lands_in_rotations(q):
    (m,) = _so3_stack([q])
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(m) - 1.0) < 1e-9


@SETTINGS
@given(unit_quaternions, st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_fiber_projection_kills_the_circle_action(q, phase):
    z = (complex(q[0], q[1]), complex(q[2], q[3]))
    w = complex(math.cos(phase), math.sin(phase))
    assert np.allclose(hopf(z[0] * w, z[1] * w), hopf(*z), atol=1e-9)


# ---------------------------------------------------------------------------
# orbit identities
# ---------------------------------------------------------------------------


@SETTINGS
@given(specs, st.integers(min_value=1, max_value=40), st.data())
def test_orbit_index_identities(label, k, data):
    base = data.draw(st.sampled_from(_bases(label)), label="base")
    orbit = make_orbit(label, base, k)
    assert orbit.cz == formal_floor(orbit.rotation) + formal_ceil(orbit.rotation)
    assert orbit.grading == orbit.cz - 1
    assert orbit.good == (orbit.grading % 2 == 0)
    cov = covering_multiplicity(label, base)
    assert orbit.contractible == (k % cov == 0)
    if orbit.contractible:
        assert orbit.cz >= 3


@SETTINGS
@given(specs, st.integers(min_value=1, max_value=30), st.data())
def test_action_grows_strictly_with_multiplicity(label, k, data):
    base = data.draw(st.sampled_from(_bases(label)), label="base")
    first = make_orbit(label, base, k)
    second = make_orbit(label, base, k + 1)
    assert first.action < second.action


@SETTINGS
@given(specs, st.integers(min_value=1, max_value=3))
def test_enumeration_respects_threshold_and_parity(label, N):
    bound = action_threshold(label, N)
    orbits = enumerate_orbits(label, N)
    assert orbits
    for orbit in orbits:
        assert orbit.action < bound
        assert orbit.good == (orbit.grading % 2 == 0)


# ---------------------------------------------------------------------------
# closed-form rank structure
# ---------------------------------------------------------------------------


@SETTINGS
@given(specs, st.integers(min_value=1, max_value=5))
def test_closed_form_profile(label, N):
    m = parse_group_spec(label).class_count
    ranks = closed_form(label, N)
    assert ranks[0] == m - 1
    assert ranks[4 * N - 2] == m - 1
    for degree in range(2, 4 * N - 2, 2):
        assert ranks[degree] == m
    assert all(degree % 2 == 0 for degree in ranks)
    assert sum(ranks.values()) == 2 * (m - 1) + max(2 * N - 2, 0) * m


# ---------------------------------------------------------------------------
# building indices
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    st.integers(min_value=-20, max_value=20),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5),
)
def test_building_index_formula(top, bottoms):
    assert building_index(top, bottoms) == len(bottoms) - 1 + top - sum(bottoms)


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

# strings (non-ASCII and control characters among them), and some that hold
# the brackets, separators and escapes the writer lays out
texts = st.text(max_size=8) | st.sampled_from(['},{', '"\\', "\n  ", "é\x00\x1f", "[]"])
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10**20, max_value=10**20),
    st.floats() | st.sampled_from([1.349e-11, -0.0, 1e300]), texts)
# rows like the orbit table's: flat dicts of str, int and bool
row_keys = st.sampled_from(["base", "k", "action_a", "cz", "good", "class", "é", "a\tb"])
rows = st.lists(st.dictionaries(row_keys, texts | st.integers() | st.booleans(),
                                min_size=1, max_size=5), max_size=5)
nested = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(texts | st.integers(-5, 5), inner, max_size=4)),
    max_leaves=12)
documents = st.dictionaries(st.sampled_from(["group", "rows", "ranks", "checks", "ö\n", "schema"]),
                            rows | nested, max_size=5)


@settings(max_examples=100, deadline=None)
@given(documents)
def test_json_writer_is_json_dumps_with_indent(fields):
    document = {"schema": cli.SCHEMA, "version": cli.__version__, "command": "orbits", **fields}
    assert cli._json_text("orbits", **fields) == json.dumps(document, indent=2)
