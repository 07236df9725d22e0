"""Tests for the finite-subgroup layer: construction, projection to
rotations, fiber geometry, fixed-point orbits, conjugacy classes, and the
Dynkin labelling."""

import cmath
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from chlab import groups
from chlab.groups import (
    N_MAX,
    N_MIN,
    TOL_POINT,
    NonClosure,
    ParseError,
    build_group,
    conjugacy_classes,
    dynkin_type,
    fiber_isotropy_generator,
    fiber_point,
    fixed_points,
    hopf,
    parse_group_spec,
)
from chlab.orbits import _validate_class_tables, base_table

BATTERY = tuple(f"C:{n}" for n in range(2, 13)) + tuple(
    f"D:{n}" for n in range(2, 9)
) + ("T", "O", "I")


def _su2(q):
    """The SU(2) matrix [[alpha, -conj(beta)], [beta, conj(alpha)]] of the
    components q = (a, b, c, d), with alpha = a + ib and beta = c + id: a
    reference for products, inverses and the action on C^2 that shares no
    code with the engine's arithmetic on component rows."""
    a, b, c, d = q
    alpha, beta = complex(a, b), complex(c, d)
    return np.array([[alpha, -beta.conjugate()], [beta, alpha.conjugate()]])


def _components(m):
    """The components (a, b, c, d) of an SU(2) matrix."""
    return (float(m[0, 0].real), float(m[0, 0].imag), float(m[1, 0].real), float(m[1, 0].imag))


IDENTITY = _su2((1.0, 0.0, 0.0, 0.0))


def _close(p, q):
    """SU(2) matrices whose components differ by at most TOL_EQ each."""
    return max(abs(x - y) for x, y in zip(_components(p), _components(q))) <= groups.TOL_EQ


def _elements(group):
    """The group's elements as SU(2) matrices, in the order of its coords."""
    return [_su2(row) for row in group.coords]


def _so3(q):
    """The rotation of one component row, through the engine's stacked projection."""
    return groups._so3_stack([q])[0]


# ---------------------------------------------------------------------------
# parsing and construction
# ---------------------------------------------------------------------------


def test_parse_group_spec_labels_and_orders():
    assert parse_group_spec("C:5").order == 5
    assert parse_group_spec("D:3").order == 12
    assert parse_group_spec("T").order == 24
    assert parse_group_spec("O").order == 48
    assert parse_group_spec("I").order == 120
    assert parse_group_spec("C:5").label == "C:5"
    assert str(parse_group_spec("D:7")) == "D:7"


@pytest.mark.parametrize("bad", ["C:1", "D:1", "C:65", "X:3", "T:3", "C", "D", ""])
def test_parse_group_spec_rejects_bad_labels(bad):
    with pytest.raises(ParseError):
        parse_group_spec(bad)


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


@pytest.mark.parametrize(
    "label,order", [("C:5", 5), ("C:6", 6), ("D:3", 12), ("T", 24), ("O", 48), ("I", 120)]
)
def test_build_group_orders(label, order):
    group = build_group(label)
    assert group.order == order
    assert group.coords.shape == (order, 4)


def test_group_repr():
    assert repr(build_group("D:3")) == "FiniteSubgroup(D:3, order=12)"


def test_group_closure_inverses_identity():
    for label in ("C:6", "D:4", "T"):
        group = build_group(label)
        elements = _elements(group)
        ident = group.index_of((1.0, 0.0, 0.0, 0.0))
        for q in elements:
            # inverse present
            group.index_of(_components(q.conj().T))
        # spot-check closure on a few products
        rng = np.random.default_rng(3)
        for _ in range(25):
            i, j = rng.integers(group.order, size=2)
            group.index_of(_components(elements[int(i)] @ elements[int(j)]))
        assert _components(elements[ident]) == (1.0, 0.0, 0.0, 0.0)


def test_minus_identity_membership_tracks_parity():
    minus_one = (-1.0, 0.0, 0.0, 0.0)
    for label in ("C:4", "C:6", "D:3", "T", "O", "I"):
        build_group(label).index_of(minus_one)  # must not raise
    odd = build_group("C:5")
    with pytest.raises(Exception):
        odd.index_of(minus_one)


# ---------------------------------------------------------------------------
# projection to SO(3)
# ---------------------------------------------------------------------------


def test_projection_of_center_is_identity():
    assert np.allclose(_so3((1.0, 0.0, 0.0, 0.0)), np.eye(3))
    assert np.allclose(_so3((-1.0, 0.0, 0.0, 0.0)), np.eye(3))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_projection_of_diagonal_generator_is_axis_rotation(n):
    zeta = complex(math.cos(2 * math.pi / n), math.sin(2 * math.pi / n))
    r = _so3((zeta.real, zeta.imag, 0.0, 0.0))
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12
    # fixes the first axis and rotates by 2*pi * (2/n) ... the square of the
    # half-angle representation: trace = 1 + 2 cos(angle)
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    angle = 2.0 * math.pi * 2.0 / n
    assert abs(np.trace(r) - (1.0 + 2.0 * math.cos(angle))) < 1e-12


def test_projection_is_a_homomorphism_with_kernel_pm_one():
    rng = np.random.default_rng(11)
    for _ in range(40):
        v, w = rng.normal(size=4), rng.normal(size=4)
        q, r = v / np.linalg.norm(v), w / np.linalg.norm(w)
        qr = _components(_su2(q) @ _su2(r))
        assert np.allclose(_so3(qr), _so3(q) @ _so3(r), atol=1e-10)
        assert np.allclose(_so3(-q), _so3(q), atol=1e-12)


@pytest.mark.parametrize("label,image_order", [("C:6", 3), ("C:5", 5), ("D:3", 6), ("T", 12)])
def test_rotation_image_order(label, image_order):
    group = build_group(label)
    seen = {
        tuple(np.round(_so3(q), 9).ravel()) for q in group.coords
    }
    assert len(seen) == image_order


# ---------------------------------------------------------------------------
# fiber projection
# ---------------------------------------------------------------------------


def test_fiber_projection_poles():
    assert np.allclose(hopf(1 + 0j, 0j), [1.0, 0.0, 0.0])
    assert np.allclose(hopf(0j, 1 + 0j), [-1.0, 0.0, 0.0])


def test_fiber_projection_lands_on_sphere_and_kills_phase():
    rng = np.random.default_rng(5)
    for _ in range(30):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        z = (complex(v[0], v[1]), complex(v[2], v[3]))
        p = hopf(*z)
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12
        phase = complex(math.cos(1.3), math.sin(1.3))
        assert np.allclose(hopf(z[0] * phase, z[1] * phase), p, atol=1e-12)


def test_fiber_point_inverts_projection():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        z = fiber_point(p)
        assert abs(abs(z[0]) ** 2 + abs(z[1]) ** 2 - 1.0) < 1e-10
        assert np.allclose(hopf(*z), p, atol=1e-9)


@pytest.mark.parametrize("label", ["C:6", "D:5", "T", "O", "I"])
def test_equivariance_battery(label):
    # the fibration is equivariant: hopf(g.z) = P(g) hopf(z), for random
    # points z of S^3 and random elements g
    group = build_group(label)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        z = (complex(v[0], v[1]), complex(v[2], v[3]))
        row = group.coords[int(rng.integers(group.order))]
        lhs = hopf(*(_su2(row) @ np.array(z)))
        rhs = groups._so3_stack([row])[0] @ hopf(*z)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < groups.TOL_EQ


def test_fiber_phase_of_pole_isotropy():
    group = build_group("C:4")
    # the fiber over (1, 0, 0) is fixed by all of C:4; its generator turns
    # it by pi/2, and the powers of the generator by 2 pi k / 4
    gi, phase = fiber_isotropy_generator(group, (1.0, 0.0, 0.0))
    assert abs(phase - math.pi / 2) < 1e-12
    z = fiber_point((1.0, 0.0, 0.0))
    power = group.identity
    for k in range(1, 5):
        power = int(group.mul[power, gi])
        w = _su2(group.coords[power]) @ np.array(z)
        turn = complex(math.cos(2.0 * math.pi * k / 4), math.sin(2.0 * math.pi * k / 4))
        assert np.allclose(w, (turn * z[0], turn * z[1]), atol=1e-12), k
    assert power == group.identity


# ---------------------------------------------------------------------------
# fixed-point orbits on the quotient sphere
# ---------------------------------------------------------------------------


def _orbit_summary(label):
    group = build_group(label)
    return sorted((o.kind.name, o.size, o.kind.isotropy) for o in fixed_points(group))


def test_fixed_points_cyclic():
    assert _orbit_summary("C:6") == [("NorthPole", 1, 3), ("SouthPole", 1, 3)]
    assert _orbit_summary("C:5") == [("NorthPole", 1, 5), ("SouthPole", 1, 5)]


def test_fixed_points_dihedral():
    for n in (2, 3, 4, 5):
        sizes = _orbit_summary(f"D:{n}")
        assert sizes == sorted(
            [("Minus", n, 2), ("Saddle", n, 2), ("Plus", 2, n)]
        )


def test_fixed_points_polyhedral():
    assert _orbit_summary("T") == sorted(
        [("Vertex", 4, 3), ("Edge", 6, 2), ("Face", 4, 3)]
    )
    assert _orbit_summary("O") == sorted(
        [("Vertex", 6, 4), ("Edge", 12, 2), ("Face", 8, 3)]
    )
    assert _orbit_summary("I") == sorted(
        [("Vertex", 12, 5), ("Edge", 30, 2), ("Face", 20, 3)]
    )


@pytest.mark.parametrize("label", ["C:6", "D:4", "T", "O", "I"])
def test_fixed_point_census_matches_rotation_count(label):
    # every non-identity rotation fixes exactly two points of the sphere
    group = build_group(label)
    image_order = group.order // 2 if group.order % 2 == 0 else group.order
    weighted = sum(o.size * (o.kind.isotropy - 1) for o in fixed_points(group))
    assert weighted == 2 * (image_order - 1)


def test_fixed_point_orbits_have_unit_points():
    for orbit in fixed_points(build_group("T")):
        assert len(orbit.points) == orbit.size
        for p in orbit.points:
            assert abs(np.linalg.norm(np.asarray(p)) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------


def test_conjugacy_classes_tetrahedral():
    group = build_group("T")
    classes = conjugacy_classes(group)
    assert len(classes) == 7
    assert sum(c.size for c in classes) == 24
    assert sorted(c.element_order for c in classes) == [1, 2, 3, 3, 4, 6, 6]


def test_conjugacy_classes_dihedral_four():
    classes = conjugacy_classes(build_group("D:4"))
    assert len(classes) == 7
    assert sum(c.size for c in classes) == 16


def test_conjugacy_classes_cyclic_are_singletons():
    classes = conjugacy_classes(build_group("C:6"))
    assert len(classes) == 6
    assert all(c.size == 1 for c in classes)


@pytest.mark.parametrize("label", BATTERY)
def test_class_count_formula(label):
    spec = parse_group_spec(label)
    classes = conjugacy_classes(build_group(spec))
    assert len(classes) == spec.class_count
    if label.startswith("C:"):
        assert spec.class_count == spec.n
    elif label.startswith("D:"):
        assert spec.class_count == spec.n + 3
    else:
        assert spec.class_count == {"T": 7, "O": 8, "I": 9}[label]


@pytest.mark.parametrize("label", ["T", "O", "I"])
def test_polyhedral_class_count_from_isotropies(label):
    group = build_group(label)
    spec = parse_group_spec(label)
    isotropies = sum(o.kind.isotropy for o in fixed_points(group))
    assert isotropies - 1 == spec.class_count


# ---------------------------------------------------------------------------
# Dynkin labels
# ---------------------------------------------------------------------------


def test_dynkin_families():
    assert str(dynkin_type("C:5")) == "A4"
    assert str(dynkin_type("C:2")) == "A1"
    assert str(dynkin_type("D:3")) == "D5"
    assert str(dynkin_type("D:8")) == "D10"
    assert str(dynkin_type("T")) == "E6"
    assert str(dynkin_type("O")) == "E7"
    assert str(dynkin_type("I")) == "E8"


@pytest.mark.parametrize("label", BATTERY)
def test_dynkin_vertices_equal_class_count_minus_one(label):
    spec = parse_group_spec(label)
    assert dynkin_type(spec).vertices == spec.class_count - 1


def _patch_generator(monkeypatch, order):
    """Make every group's generator set one rotation of the given order."""
    t = 2.0 * math.pi / order
    monkeypatch.setattr(groups, "_generators",
                        lambda spec: [(math.cos(t), math.sin(t), 0.0, 0.0)])


def test_closure_past_the_expected_order_is_non_closure(monkeypatch, fresh_groups):
    _patch_generator(monkeypatch, 10)
    with pytest.raises(NonClosure, match="closure of C:5 exceeded expected order 5"):
        build_group("C:5")


def test_closure_short_of_the_expected_order_is_non_closure(monkeypatch, fresh_groups):
    _patch_generator(monkeypatch, 3)
    with pytest.raises(NonClosure, match="closure of C:6 stopped at 3, expected 6"):
        build_group("C:6")


# ---------------------------------------------------------------------------
# every supported group
# ---------------------------------------------------------------------------

SUPPORTED = ("T", "O", "I") + tuple(
    f"{letter}:{n}" for letter in "CD" for n in range(N_MIN, N_MAX + 1))


@pytest.mark.parametrize("label", SUPPORTED)
def test_every_supported_group_has_its_classes_lifts_and_fixed_orbits(label):
    spec = parse_group_spec(label)
    group = build_group(spec)
    assert len(group.classes) == spec.class_count
    assert _validate_class_tables(spec.kind, spec.n) > 0
    orbits = fixed_points(group)
    assert [o.kind.name for o in orbits] == [b.name for b in base_table(spec)]
    # every non-identity rotation fixes exactly two points of the sphere
    image_order = group.order // 2 if group.order % 2 == 0 else group.order
    assert sum(o.size * (o.kind.isotropy - 1) for o in orbits) == 2 * (image_order - 1)
    for o in orbits:
        assert o.size == len(o.points) == len(set(o.points))
        assert o.size * o.kind.isotropy == image_order


#: sha256 of ``coords.tobytes()`` and of ``mul.tobytes()`` for every supported
#: group, recorded before the closure was last reworked
CLOSURE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "closure_digests.json").read_text())


def test_closure_bits_match_pinned_digests():
    assert sorted(CLOSURE_DIGESTS) == sorted(SUPPORTED)
    for label, (coords_digest, mul_digest) in CLOSURE_DIGESTS.items():
        group = build_group(label)
        assert hashlib.sha256(group.coords.tobytes()).hexdigest() == coords_digest, label
        assert hashlib.sha256(group.mul.tobytes()).hexdigest() == mul_digest, label


# ---------------------------------------------------------------------------
# the closure's products and its cell index
# ---------------------------------------------------------------------------


def test_product_matches_the_complex_matrix_product_bit_for_bit():
    rng = np.random.default_rng(7)
    special = (0.0, -0.0, 1.0, -1.0, 0.5, math.sqrt(0.5))
    for _ in range(2000):
        p, q = (tuple(float(special[int(rng.integers(6))] if rng.random() < 0.3 else x)
                      for x in rng.normal(size=4)) for _ in range(2))
        a1, b1, a2, b2 = complex(*p[:2]), complex(*p[2:]), complex(*q[:2]), complex(*q[2:])
        alpha = a1 * a2 - b1.conjugate() * b2
        beta = b1 * a2 + a1.conjugate() * b2
        want = np.array([alpha.real, alpha.imag, beta.real, beta.imag])
        assert np.array(groups._product(p, q)).tobytes() == want.tobytes()


#: a cell boundary: cells are centred on the multiples of CELL
BOUNDARY = 0.2500005
REST = (0.5, 0.0, -0.5)


def _home(x):
    """The one cell an index of the single row x files it in."""
    (key,) = groups._CellIndex([x]).cells
    return key


def test_cell_lookup_finds_a_row_across_a_cell_boundary():
    row = (BOUNDARY - 0.4 * groups.TOL_EQ,) + REST
    query = (BOUNDARY + 0.4 * groups.TOL_EQ,) + REST
    assert _home(row) != _home(query)
    assert groups._CellIndex([row]).find(query) == 0


def test_cell_lookup_rejects_a_row_beyond_tol_eq_in_any_component():
    row = (BOUNDARY - 0.4 * groups.TOL_EQ,) + REST
    index = groups._CellIndex([row])
    near = (BOUNDARY + 0.4 * groups.TOL_EQ,) + REST
    assert _home(row) != _home(near)
    assert index.find(near) == 0
    for c in range(4):
        far = list(near)
        far[c] += (1.5 if c else 0.7) * groups.TOL_EQ   # beyond TOL_EQ in component c alone
        assert index.find(tuple(far)) is None, c


def test_cell_lookup_returns_the_nearest_row_first_on_ties():
    h = 2.0 ** -31   # below TOL_EQ, and exact in every difference below
    query = (BOUNDARY + h / 4,) + REST
    below = (query[0] - h,) + REST           # across the boundary
    above = (query[0] + h,) + REST           # in the query's own cell
    nearer = (query[0] - h / 2,) + REST      # across the boundary, nearer
    assert _home(below) == _home(nearer) != _home(query) == _home(above)
    # of two rows the nearer is found, though the farther shares the query's cell
    assert groups._CellIndex([above, nearer]).find(query) == 1
    # at equal distance the first row is found, wherever it is filed
    assert groups._CellIndex([below, above]).find(query) == 0
    assert groups._CellIndex([above, below]).find(query) == 0


# ---------------------------------------------------------------------------
# table-derived group data against a per-element reference
# ---------------------------------------------------------------------------


class _ReferenceLookup:
    """Element lookup by rounded key, with a linear scan for keys that
    straddle a rounding boundary: the membership test the table replaced."""

    def __init__(self, elements):
        self.elements = elements
        self.by_key = {}
        for i, q in enumerate(elements):
            self.by_key.setdefault(self._key(q), i)

    @staticmethod
    def _key(q):
        return tuple(round(x, 6) for x in _components(q))

    def index(self, q):
        i = self.by_key.get(self._key(q))
        if i is not None and _close(self.elements[i], q):
            return i
        return next(i for i, e in enumerate(self.elements) if _close(e, q))


def _reference_order(q):
    p, k = q, 1
    while not _close(p, IDENTITY):
        p, k = p @ q, k + 1
    return k


def _reference_classes(elements, find):
    assigned, classes = set(), []
    for i, g in enumerate(elements):
        if i not in assigned:
            orbit = tuple(sorted({find.index(x @ g @ x.conj().T) for x in elements}))
            assigned.update(orbit)
            classes.append(orbit)
    return classes


def _reference_rotations(rows):
    """P(q) of every component row, each rotation kept at its first preimage."""
    rots, seen = [], set()
    for q in rows:
        r = _so3(q)
        key = tuple(np.round(r, 6).ravel())
        if key not in seen:
            seen.add(key)
            rots.append(r)
    return rots


def _reference_fixed_orbits(group):
    """Fixed orbits by pairwise loops over per-element rotations."""
    rots = _reference_rotations(group.coords)

    def isotropy(p):
        return sum(1 for r in rots if np.max(np.abs(r @ p - p)) < TOL_POINT)

    if group.spec.kind == "cyclic":
        return [("SouthPole", isotropy(np.array([1.0, 0.0, 0.0])), ((-1.0, -0.0, -0.0),)),
                ("NorthPole", isotropy(np.array([1.0, 0.0, 0.0])), ((1.0, 0.0, 0.0),))]
    pts = []
    for r in rots:
        if np.max(np.abs(r - np.eye(3))) <= 1e-8:
            continue
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / 2.0
        if np.linalg.norm(v) > 1e-6:
            ax = v / np.linalg.norm(v)
        else:
            m = r + np.eye(3)
            col = m[:, int(np.argmax(np.linalg.norm(m, axis=0)))]
            ax = col / np.linalg.norm(col)
        for p in (ax, -ax):
            if all(np.max(np.abs(q - p)) >= TOL_POINT for q in pts):
                pts.append(p)
    orbits, remaining = [], list(range(len(pts)))
    while remaining:
        i0 = remaining[0]
        orbit = sorted({j for r in rots for j in remaining
                        if np.max(np.abs(pts[j] - r @ pts[i0])) < TOL_POINT} | {i0})
        remaining = [j for j in remaining if j not in orbit]
        orbits.append(orbit)

    def containing(point):
        return next(o for o in orbits
                    if any(np.max(np.abs(pts[j] - point)) < TOL_POINT for j in o))

    if group.spec.kind == "binary_dihedral":
        plus = containing(np.array([1.0, 0.0, 0.0]))
        saddle = containing(np.array([0.0, 1.0, 0.0]))
        minus = next(o for o in orbits if o not in (plus, saddle))
        named = [("Minus", minus), ("Saddle", saddle), ("Plus", plus)]
    else:
        by_iso = {}
        for o in orbits:
            by_iso.setdefault(isotropy(pts[o[0]]), []).append(o)
        iv = group.spec.vertex_isotropy
        if iv == 3:
            vertex, face = sorted(by_iso[3], key=lambda o: max(tuple(pts[j]) for j in o),
                                  reverse=True)
        else:
            vertex, face = by_iso[iv][0], by_iso[3][0]
        named = [("Vertex", vertex), ("Edge", by_iso[2][0]), ("Face", face)]
    return [(name, isotropy(pts[o[0]]), tuple(tuple(pts[j]) for j in o)) for name, o in named]


def _reference_labels(group, classes, orders):
    """Class labels from generator powers taken by SU(2) matrix products."""
    elements = _elements(group)
    spec, find = group.spec, _ReferenceLookup(elements)
    class_of = {m: c for c in classes for m in c}

    def powers(q):
        p, out = q, []
        for _ in range(_reference_order(q)):
            out.append(class_of[find.index(p)])
            p = p @ q
        return out

    ident = class_of[find.index(IDENTITY)]
    if spec.kind == "cyclic":
        gen = _su2((math.cos(2 * math.pi / spec.n), math.sin(2 * math.pi / spec.n), 0, 0))
        labels = {}
        for k, c in enumerate(powers(gen), start=1):
            labels.setdefault(c, "Id" if c == ident else f"g^{k}")
        return labels
    neg = class_of[find.index(-IDENTITY)]
    if spec.kind == "binary_dihedral":
        a = _su2((math.cos(math.pi / spec.n), math.sin(math.pi / spec.n), 0, 0))
        b = _su2((0.0, 0.0, 1.0, 0.0))
        labels = {ident: "Id", neg: "-Id",
                  class_of[find.index(b)]: "B", class_of[find.index(a @ b)]: "AB"}
        for k, c in enumerate(powers(a), start=1):
            labels.setdefault(c, f"A^{min(k, 2 * spec.n - k)}")
        return labels
    prefix = spec.label
    labels = {ident: f"{prefix}_Id", neg: f"{prefix}_-Id"}
    vertex = max(_reference_fixed_orbits(group)[0][2])
    z, best = fiber_point(vertex), None
    for q in elements:
        w = q @ np.array(z)
        if np.max(np.abs(hopf(*w) - np.asarray(vertex))) <= TOL_POINT:
            # q.z = e^{i theta} z on the fiber
            theta = cmath.phase(w[0] * z[0].conjugate() + w[1] * z[1].conjugate()) % (2 * math.pi)
            if theta > 1e-9 and (best is None or theta < best[0]):
                best = (theta, q)
    reached = {}
    for k, c in enumerate(powers(best[1]), start=1):
        reached.setdefault(c, k)
    by_order = {}
    for c in classes:
        if c not in labels:
            by_order.setdefault(orders[c[0]], []).append(c)
    for order, shared in by_order.items():
        if len(shared) == 1:
            labels[shared[0]] = f"{prefix}_{order}"
        else:
            first, second = sorted(shared, key=lambda c: reached.get(c, math.inf))
            labels[first], labels[second] = f"{prefix}_{{{order},A}}", f"{prefix}_{{{order},B}}"
    return labels


@pytest.mark.parametrize("label", ["C:64", "D:64", "T", "O", "I"])
def test_table_derived_data_matches_per_element_reference(label):
    group = build_group(label)
    elements = _elements(group)
    find = _ReferenceLookup(elements)

    assert group.mul.tolist() == [[find.index(p @ q) for q in elements] for p in elements]
    assert np.array_equal(group.rotations, np.array(_reference_rotations(group.coords)))
    assert group.inverses.tolist() == [find.index(q.conj().T) for q in elements]
    orders = [_reference_order(q) for q in elements]
    assert [group.element_order(i) for i in range(group.order)] == orders
    rng = np.random.default_rng(0)
    for i, k in zip(rng.integers(group.order, size=20), rng.integers(0, 300, size=20)):
        p, power = IDENTITY, group.identity
        for _ in range(k):
            p, power = p @ elements[i], group.mul[power, i]
        assert power == find.index(p)

    classes = _reference_classes(elements, find)
    table_classes = conjugacy_classes(group)
    assert [c.members for c in table_classes] == classes
    assert [c.element_order for c in table_classes] == [orders[c[0]] for c in classes]
    labels = _reference_labels(group, classes, orders)
    assert {c.members: c.label for c in table_classes} == labels

    reference = _reference_fixed_orbits(group)
    table_orbits = fixed_points(group)
    assert len(table_orbits) == len(reference)
    for orbit, (name, isotropy, points) in zip(table_orbits, reference):
        assert (orbit.kind.name, orbit.kind.isotropy, orbit.size) == (name, isotropy, len(points))
        assert orbit.points.index(orbit.representative) == points.index(max(points))
        assert np.max(np.abs(np.array(orbit.points) - np.array(points))) <= 1e-15


# ---------------------------------------------------------------------------
# guards: library inputs, and faults injected into computed data
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, n, message", [
    (groups.CYCLIC, 1, "cyclic requires 2 <= n <= 64, got 1"),
    (groups.BINARY_DIHEDRAL, None, "binary_dihedral requires 2 <= n <= 64, got None"),
    (groups.BINARY_TETRAHEDRAL, 3, "binary_tetrahedral takes no parameter"),
    ("cubic", None, "unknown group kind 'cubic'"),
])
def test_group_spec_rejects_bad_kinds_and_parameters(kind, n, message):
    with pytest.raises(ValueError, match=message):
        groups.GroupSpec(kind, n)


def test_projection_of_a_non_unit_row_leaves_so3():
    # |q|^2 = 1 + 1e-8 scales the rotation by it: det P = 1 + 3e-8
    with pytest.raises(AssertionError, match="projection left SO"):
        groups._so3_stack([(1.0, 1e-4, 0.0, 0.0)])


def test_fiber_isotropy_needs_a_fixed_fiber():
    # off the axis of C:5 only the identity fixes the fiber (a group of even
    # order holds -1, which fixes every fiber)
    p = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    with pytest.raises(groups.AmbiguousLabel, match="no nontrivial fiber isotropy"):
        fiber_isotropy_generator(build_group("C:5"), p)


def test_fiber_isotropy_rejects_an_element_that_moves_off_the_fiber(monkeypatch):
    # a fiber point 1e-7 off the unit sphere: the images of the fixing
    # elements still land within TOL_POINT of p, but <g.z, z> is no phase
    real = groups.fiber_point
    monkeypatch.setattr(groups, "fiber_point", lambda p: tuple(1.0000001 * z for z in real(p)))
    with pytest.raises(groups.AmbiguousLabel, match="does not preserve the fiber"):
        fiber_isotropy_generator(build_group("C:4"), (1.0, 0.0, 0.0))


def test_dihedral_fixed_points_missing_an_axis_point(monkeypatch, fresh_groups):
    # with a zero clustering tolerance no point is near (1, 0, 0)
    monkeypatch.setattr(groups, "TOL_POINT", 0.0)
    with pytest.raises(groups.AmbiguousLabel, match=r"expected fixed point \[1\. 0\. 0\.\] not found"):
        fixed_points(build_group("D:3"))


def test_tetrahedral_branch_needs_two_order_three_orbits(monkeypatch, fresh_groups):
    # O taken for a group whose vertices have isotropy 3, as T's do: it has
    # one order-3 orbit, not two
    monkeypatch.setattr(groups.GroupSpec, "vertex_isotropy", property(lambda spec: 3))
    with pytest.raises(groups.AmbiguousLabel, match="expected two order-3 orbits"):
        fixed_points(build_group("O"))


def _class_with_order(group, order):
    """The members of the first conjugacy class of elements of the given order."""
    return next(c.members for c in group.classes if c.element_order == order)


def test_class_of_mixed_element_orders(monkeypatch, fresh_groups):
    group = build_group("D:3")
    members = _class_with_order(group, 4)
    orders = group.orders.copy()
    orders[members[-1]] = 2
    monkeypatch.setattr(group, "orders", orders)
    with pytest.raises(groups.AmbiguousLabel, match=r"mixes element orders \[2, 4\]"):
        groups._raw_classes(group)


def test_class_of_mixed_traces(monkeypatch, fresh_groups):
    group = build_group("D:3")
    members = _class_with_order(group, 4)
    coords = group.coords.copy()
    coords[members[-1], 0] += 1e-8
    monkeypatch.setattr(group, "coords", coords)
    with pytest.raises(groups.AmbiguousLabel, match="mixes traces beyond"):
        groups._raw_classes(group)


def test_second_central_order_two_class(monkeypatch, fresh_groups):
    # the class of B relabelled as order 2, a second class beside -1
    group = build_group("D:3")
    orders = group.orders.copy()
    orders[list(_class_with_order(group, 4))] = 2
    monkeypatch.setattr(group, "orders", orders)
    with pytest.raises(groups.AmbiguousLabel, match="single central order-2 class"):
        conjugacy_classes(group)


def test_dihedral_class_outside_the_towers(monkeypatch, fresh_groups):
    monkeypatch.setattr(groups, "_power_tower", lambda group, gen_idx, raw: {})
    with pytest.raises(groups.AmbiguousLabel, match="unlabeled dihedral class"):
        conjugacy_classes(build_group("D:3"))


def test_equal_order_classes_outside_the_vertex_tower(monkeypatch, fresh_groups):
    monkeypatch.setattr(groups, "_power_tower", lambda group, gen_idx, raw: {})
    with pytest.raises(groups.AmbiguousLabel, match="neither order-3 class lies in the vertex tower"):
        conjugacy_classes(build_group("T"))


def test_three_classes_of_one_element_order(monkeypatch, fresh_groups):
    # T's order-4 class relabelled as order 6, a third class beside the two
    group = build_group("T")
    orders = group.orders.copy()
    orders[list(_class_with_order(group, 4))] = 6
    monkeypatch.setattr(group, "orders", orders)
    with pytest.raises(groups.AmbiguousLabel, match="3 classes share element order 6"):
        conjugacy_classes(group)


def test_class_count_off_the_formula(monkeypatch, fresh_groups):
    # the classes of g and g^-1 merged, as in the rotation image of a
    # dihedral group: C:5 then has four classes
    real = groups._raw_classes

    def merged(group):
        raw = real(group)
        (first, order, trace), (last, _, _) = raw[1], raw[-1]
        return [raw[0], (first + last, order, trace)] + raw[2:-1]

    monkeypatch.setattr(groups, "_raw_classes", merged)
    with pytest.raises(groups.AmbiguousLabel, match="C:5: found 4 classes, expected 5"):
        conjugacy_classes(build_group("C:5"))
