"""Finite subgroups of the unit quaternions and their spherical geometry.

Builds the binary cyclic, dihedral, tetrahedral, octahedral and icosahedral
groups by closing hard-coded generator sets under multiplication, computes
their conjugacy classes with stable labels, the 2-to-1 projection to
rotations, the fiber projection S^3 -> S^2, the fixed-point orbits of the
rotation image on S^2, and the ADE type attached to each group.

An element is the row (a, b, c, d) of its components, a + bi + cj + dk, read
as the SU(2) matrix [[alpha, -conj(beta)], [beta, conj(alpha)]] with
alpha = a + ib and beta = c + id; no quaternion type is built.

The closure matches every generator times every element it finds, by a
lookup in an index of cells 1e-6 wide rather than a scan of every element
found so far; those matches (the left Cayley graph) give each group's
multiplication table exactly, with no further product of quaternions.
Inverses, element orders, powers, conjugacy classes and the pairs +-g that
share a rotation are read off the table with array operations.  One group
is built per spec per process (``build_group`` is memoized), and its
classes, rotation image and fixed orbits are cached on it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TOL_EQ = 1e-9       # element equality, max component difference
TOL_POINT = 1e-6    # fixed point clustering on S^2
CELL = 1e-6         # width of the cells of the closure's element index

CYCLIC = "cyclic"
BINARY_DIHEDRAL = "binary_dihedral"
BINARY_TETRAHEDRAL = "binary_tetrahedral"
BINARY_OCTAHEDRAL = "binary_octahedral"
BINARY_ICOSAHEDRAL = "binary_icosahedral"

_POLYHEDRAL = (BINARY_TETRAHEDRAL, BINARY_OCTAHEDRAL, BINARY_ICOSAHEDRAL)

N_MIN, N_MAX = 2, 64


class ParseError(ValueError):
    """Malformed group spec string; carries the offending position."""

    def __init__(self, text, position, message):
        self.text = text
        self.position = position
        super().__init__(f"{message} in {text!r} at position {position}")


class NonClosure(ArithmeticError):
    """Generator closure did not produce the expected group order."""


class AmbiguousLabel(ArithmeticError):
    """Conjugacy classes could not be separated into stable labels."""


@dataclass(frozen=True)
class GroupSpec:
    """Which finite subgroup: kind plus the parameter n where applicable."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind in (CYCLIC, BINARY_DIHEDRAL):
            if self.n is None or not (N_MIN <= self.n <= N_MAX):
                raise ValueError(f"{self.kind} requires {N_MIN} <= n <= {N_MAX}, got {self.n}")
        elif self.kind in _POLYHEDRAL:
            if self.n is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def order(self):
        if self.kind == CYCLIC:
            return self.n
        if self.kind == BINARY_DIHEDRAL:
            return 4 * self.n
        return {BINARY_TETRAHEDRAL: 24, BINARY_OCTAHEDRAL: 48, BINARY_ICOSAHEDRAL: 120}[self.kind]

    @property
    def class_count(self):
        if self.kind == CYCLIC:
            return self.n
        if self.kind == BINARY_DIHEDRAL:
            return self.n + 3
        return {BINARY_TETRAHEDRAL: 7, BINARY_OCTAHEDRAL: 8, BINARY_ICOSAHEDRAL: 9}[self.kind]

    @property
    def vertex_isotropy(self):
        """Rotation order around a vertex axis (polyhedral kinds only)."""
        return {BINARY_TETRAHEDRAL: 3, BINARY_OCTAHEDRAL: 4, BINARY_ICOSAHEDRAL: 5}[self.kind]

    @property
    def label(self):
        if self.kind == CYCLIC:
            return f"C:{self.n}"
        if self.kind == BINARY_DIHEDRAL:
            return f"D:{self.n}"
        return {BINARY_TETRAHEDRAL: "T", BINARY_OCTAHEDRAL: "O", BINARY_ICOSAHEDRAL: "I"}[self.kind]

    def __str__(self):
        return self.label


_SPEC_RE = re.compile(r"^([CDTOI])(?::(\d+))?$")


def parse_group_spec(text):
    """Parse 'C:<n>', 'D:<n>', 'T', 'O', 'I' into a GroupSpec; a GroupSpec
    is returned as it is."""
    if isinstance(text, GroupSpec):
        return text
    m = _SPEC_RE.match(text.strip())
    if m is None:
        bad = next((i for i, ch in enumerate(text) if ch not in "CDTOI:0123456789"), 0)
        raise ParseError(text, bad, "unrecognized group spec")
    letter, num = m.group(1), m.group(2)
    if letter in "CD":
        if num is None:
            raise ParseError(text, len(text), f"{letter} requires a parameter, e.g. {letter}:3")
        n = int(num)
        if not (N_MIN <= n <= N_MAX):
            raise ParseError(text, text.index(":") + 1, f"parameter must satisfy {N_MIN} <= n <= {N_MAX}")
        return GroupSpec(CYCLIC if letter == "C" else BINARY_DIHEDRAL, n)
    if num is not None:
        raise ParseError(text, text.index(":"), f"{letter} takes no parameter")
    return GroupSpec({"T": BINARY_TETRAHEDRAL, "O": BINARY_OCTAHEDRAL, "I": BINARY_ICOSAHEDRAL}[letter])


def _generators(spec):
    """The hard-coded generators, as component 4-tuples."""
    if spec.kind == CYCLIC:
        t = 2.0 * math.pi / spec.n
        return [(math.cos(t), math.sin(t), 0.0, 0.0)]
    if spec.kind == BINARY_DIHEDRAL:
        t = math.pi / spec.n
        return [(math.cos(t), math.sin(t), 0.0, 0.0),   # A
                (0.0, 0.0, 1.0, 0.0)]                   # B
    i = (0.0, 1.0, 0.0, 0.0)
    omega = (0.5, 0.5, 0.5, 0.5)
    if spec.kind == BINARY_TETRAHEDRAL:
        return [i, omega]
    if spec.kind == BINARY_OCTAHEDRAL:
        s = (math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0)  # (1+i)/sqrt(2)
        return [omega, s]
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    t = (phi / 2.0, 1.0 / (2.0 * phi), 0.5, 0.0)
    return [omega, t]


def _product(p, q):
    """Components of p * q for component tuples p and q.

    The matrix product is alpha = a1 a2 - conj(b1) b2 and
    beta = b1 a2 + conj(a1) b2 in alpha = a + ib, beta = c + id; each
    complex product is written out in real arithmetic in the order Python's
    complex multiplication rounds it, so the bits are those of the complex
    route.
    """
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return ((a1 * a2 - b1 * b2) - (c1 * c2 + d1 * d2),
            (a1 * b2 + b1 * a2) - (c1 * d2 - d1 * c2),
            (c1 * a2 - d1 * b2) + (a1 * c2 + b1 * d2),
            (c1 * b2 + d1 * a2) + (a1 * d2 - b1 * c2))


class _CellIndex:
    """Component 4-tuples filed by the cell of width CELL each lies in.

    Cells are centred on the multiples of CELL, so the components 0, 1/2
    and 1 that recur across the groups lie far from any cell boundary.
    ``find(x)`` probes every cell that a row within TOL_EQ of x in every
    component can lie in (the margin doubled, so the rounding of the cell
    bounds cannot drop one) and returns the nearest such row by the largest
    component difference, the first on ties, or None: the answer of a scan
    of every row, from the few rows filed near x.
    """

    __slots__ = ("rows", "cells")

    def __init__(self, rows=()):
        self.rows = []
        self.cells = {}
        for x in rows:
            self.add(x)

    def add(self, x):
        a, b, c, d = x
        key = (math.floor(a / CELL + 0.5), math.floor(b / CELL + 0.5),
               math.floor(c / CELL + 0.5), math.floor(d / CELL + 0.5))
        self.cells.setdefault(key, []).append(len(self.rows))
        self.rows.append(x)

    def find(self, x):
        a, b, c, d = x
        m = 2.0 * TOL_EQ
        lo = (math.floor((a - m) / CELL + 0.5), math.floor((b - m) / CELL + 0.5),
              math.floor((c - m) / CELL + 0.5), math.floor((d - m) / CELL + 0.5))
        hi = (math.floor((a + m) / CELL + 0.5), math.floor((b + m) / CELL + 0.5),
              math.floor((c + m) / CELL + 0.5), math.floor((d + m) / CELL + 0.5))
        if lo == hi:
            hits = self.cells.get(lo, ())
        else:
            spans = [range(low, high + 1) for low, high in zip(lo, hi)]
            hits = [i for key in itertools.product(*spans) for i in self.cells.get(key, ())]
        best = None
        for i in hits:
            r = self.rows[i]
            dist = max(abs(r[0] - a), abs(r[1] - b), abs(r[2] - c), abs(r[3] - d))
            if dist <= TOL_EQ and (best is None or (dist, i) < best):
                best = (dist, i)
        return None if best is None else best[1]


def _element_orders(mul):
    """Order of every element, by walking the powers g^k = g^(k-1) g of all
    elements through the table at once, each dropped when it reaches 1."""
    n = len(mul)
    flat = mul.ravel().astype(np.intp)
    orders = np.ones(n, dtype=np.int64)
    active = power = np.arange(1, n)
    k = 1
    while active.size:
        power, k = flat[power * n + active], k + 1
        done = power == 0
        orders[active[done]] = k
        active, power = active[~done], power[~done]
    return orders


@dataclass(frozen=True)
class ConjugacyClass:
    label: str
    members: tuple          # element indices, rows of FiniteSubgroup.coords
    element_order: int
    trace: float

    @property
    def size(self):
        return len(self.members)


@dataclass(frozen=True)
class OrbifoldPointKind:
    """Kind of exceptional fiber: name plus the rotation isotropy order."""

    name: str
    isotropy: int


@dataclass(frozen=True)
class DynkinType:
    family: str   # "A", "D" or "E"
    rank: int

    @property
    def vertices(self):
        return self.rank

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class FixedOrbit:
    kind: OrbifoldPointKind
    representative: tuple   # point on S^2
    size: int
    points: tuple           # all points of the orbit


class FiniteSubgroup:
    """A finite subgroup of the unit quaternions with its class data.

    ``coords[i]`` holds the components of element i and ``mul[i, j]`` the
    index of the product of elements i and j, the exact table that
    ``_closed_group`` derives from its closure; the identity is element 0,
    and ``inverses`` and ``orders`` are read off the table.  ``index`` is
    the closure's cell index of the components, which ``index_of`` asks.
    """

    identity = 0

    def __init__(self, spec, coords, mul, index):
        self.spec = spec
        self.coords = coords
        self.mul = mul
        self._index = index
        self.inverses = np.argmax(mul == 0, axis=1)
        self.orders = _element_orders(mul)
        self._classes = None
        self._class_of = None
        self._rotations = None
        self._fixed = None

    @property
    def order(self):
        return len(self.coords)

    def index_of(self, q):
        """The index of the element with components q, a 4-tuple."""
        idx = self._index.find(q)
        if idx is None:
            raise NonClosure(f"element {q!r} not in the group {self.spec}")
        return idx

    def element_order(self, idx):
        return int(self.orders[idx])

    @property
    def classes(self):
        if self._classes is None:
            self._classes = conjugacy_classes(self)
        return self._classes

    @property
    def rotations(self):
        """The rotation image as an (m, 3, 3) stack (see ``_rotation_image``)."""
        if self._rotations is None:
            self._rotations = _rotation_image(self)
        return self._rotations

    @property
    def fixed_orbits(self):
        """``fixed_points(self)``, computed once."""
        if self._fixed is None:
            self._fixed = tuple(fixed_points(self))
        return self._fixed

    def class_of(self, idx):
        """The ConjugacyClass containing element index idx."""
        if self._class_of is None:
            lookup = {}
            for c in self.classes:
                for m in c.members:
                    lookup[m] = c
            self._class_of = lookup
        return self._class_of[idx]

    def __repr__(self):
        return f"FiniteSubgroup({self.spec.label}, order={self.order})"


def build_group(spec):
    """The group of `spec`, built once per process (see ``_closed_group``)."""
    return _closed_group(parse_group_spec(spec))


@lru_cache(maxsize=None)
def _closed_group(spec):
    """Close the hard-coded generators under multiplication, breadth first.

    Every generator times every element found, normalized, is matched
    against the elements so far through their cell index; with all of them
    matched and exactly ``spec.order`` elements found, the set is closed.
    The matches form the left Cayley graph ``left[k][x]`` (the index of
    ``gens[k] * elements[x]``), and each new element e is
    ``gens[k] * elements[parent]`` for the pair that found it, so row e of
    the table is row parent sent through ``left[k]``; the parents of one
    breadth-first level all sit in the levels before it, so the rows are
    filled a level at a time.
    """
    gens = _generators(spec)
    expected = spec.order
    index = _CellIndex([(1.0, 0.0, 0.0, 0.0)])
    rows = index.rows
    left = [[0] * expected for _ in gens]
    found_by = []   # (k, parent) of elements 1, 2, ...
    level_ends = []
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:
            for k, g in enumerate(gens):
                a, b, c, d = _product(g, rows[x])
                r = math.sqrt(a * a + b * b + c * c + d * d)
                y = (a / r, b / r, c / r, d / r)
                hit = index.find(y)
                if hit is None:
                    hit = len(rows)
                    index.add(y)
                    found_by.append((k, x))
                    fresh.append(hit)
                    if len(rows) > expected:
                        raise NonClosure(
                            f"closure of {spec.label} exceeded expected order {expected}; "
                            "generator set or tolerance is wrong")
                left[k][x] = hit
        frontier = fresh
        level_ends.append(len(rows))
    if len(rows) != expected:
        raise NonClosure(
            f"closure of {spec.label} stopped at {len(rows)}, expected {expected}")
    left = np.array(left, dtype=np.int16)  # group orders stay far below 2**15
    ks, parents = np.array(found_by, dtype=np.intp).reshape(-1, 2).T
    mul = np.empty((expected, expected), dtype=np.int16)
    mul[0] = np.arange(expected)
    start = 1
    for end in level_ends:
        mul[start:end] = left[ks[start - 1:end - 1, None], mul[parents[start - 1:end - 1]]]
        start = end
    return FiniteSubgroup(spec, np.array(rows), mul, index)


def _so3_stack(coords):
    """P(g) for every row (a, b, c, d) of coords, as an (n, 3, 3) stack.

    With alpha = a + ib and beta = c + id,
    P = [[|alpha|^2 - |beta|^2, 2 Im(alpha beta), 2 Re(alpha beta)],
         [-2 Im(conj(alpha) beta), Re(alpha^2 + beta^2), -Im(alpha^2 + beta^2)],
         [-2 Re(conj(alpha) beta), Im(alpha^2 - beta^2), Re(alpha^2 - beta^2)]],
    each complex product written out in real arithmetic.
    """
    a, b, c, d = np.asarray(coords, dtype=float).T
    ab_re, ab_im = a * c - b * d, a * d + b * c         # alpha * beta
    cab_re, cab_im = a * c + b * d, a * d - b * c       # conj(alpha) * beta
    aa_re, aa_im = a * a - b * b, a * b + b * a         # alpha^2
    bb_re, bb_im = c * c - d * d, c * d + d * c         # beta^2
    r = np.empty((len(a), 3, 3))
    r[:, 0] = np.stack([np.hypot(a, b) ** 2 - np.hypot(c, d) ** 2, 2 * ab_im, 2 * ab_re], axis=1)
    r[:, 1] = np.stack([-2 * cab_im, aa_re + bb_re, -(aa_im + bb_im)], axis=1)
    r[:, 2] = np.stack([-2 * cab_re, aa_im - bb_im, aa_re - bb_re], axis=1)
    if np.any(np.abs(np.linalg.det(r) - 1.0) > 1e-10):
        raise AssertionError("projection left SO(3)")
    return r


def hopf(z1, z2):
    """Fiber projection S^3 -> S^2 of the points (z1, z2), elementwise over
    arrays of them; the coordinates are the last axis of the result."""
    w = np.conj(z1) * z2
    return np.stack([np.abs(z1) ** 2 - np.abs(z2) ** 2, -2.0 * w.imag, -2.0 * w.real], axis=-1)


def fiber_point(p):
    """Some (z1, z2) on S^3 with hopf(z1, z2) = p."""
    x, y, w = float(p[0]), float(p[1]), float(p[2])
    if x < -1.0 + 1e-12:
        return (0j, 1 + 0j)
    al = complex(math.sqrt((1.0 + x) / 2.0), 0.0)
    be = complex(-w / 2.0, -y / 2.0) / al.conjugate()
    return (al, be)


def fiber_isotropy_generator(group, p):
    """The fiber isotropy element over p with smallest positive phase.

    The elements fixing the fiber through p form a cyclic group; the
    returned index generates it, with its phase theta in (0, 2pi):
    g.z = e^{i theta} z for z on the fiber.
    """
    z = fiber_point(p)
    al, be = group.coords.view(np.complex128).T
    w1 = al * z[0] - be.conj() * z[1]
    w2 = be * z[0] + al.conj() * z[1]
    img = hopf(w1, w2)
    fixing = np.flatnonzero(np.max(np.abs(img - np.asarray(p, dtype=float)), axis=1) <= TOL_POINT)
    # g.z = e^{i theta} z, so theta is the phase of <g.z, z>
    inner = w1[fixing] * z[0].conjugate() + w2[fixing] * z[1].conjugate()
    if np.any(np.abs(np.abs(inner) - 1.0) > 1e-8):
        raise AmbiguousLabel("element does not preserve the fiber")
    theta = np.angle(inner) % (2.0 * math.pi)
    moving = np.flatnonzero(theta > 1e-9)
    if moving.size == 0:
        raise AmbiguousLabel(f"no nontrivial fiber isotropy over {p}")
    best = moving[np.argmin(theta[moving])]   # the first of equal phases
    return int(fixing[best]), float(theta[best])


def _rotation_image(group):
    """Unique rotations P(g) as an (m, 3, 3) stack, in the order of their first preimage.

    P(g) = P(h) exactly when h = g or h = -g, and -1 is the one element of
    order 2 (groups of odd order lack it and map one to one), so the first
    preimages are the rows i < index(-g_i).
    """
    neg = np.flatnonzero(group.orders == 2)
    if len(neg) == 0:
        return _so3_stack(group.coords)
    return _so3_stack(group.coords[np.arange(group.order) < group.mul[neg[0]]])


def _row_norms(v):
    """Euclidean norm of each row, through the dot kernel np.linalg.norm uses
    for a single vector (a row sum of squares can differ in the last bit)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _rotation_axes(rots):
    """Unit axis of every rotation in an (m, 3, 3) stack (none the identity)."""
    v = np.stack([rots[:, 2, 1] - rots[:, 1, 2], rots[:, 0, 2] - rots[:, 2, 0],
                  rots[:, 1, 0] - rots[:, 0, 1]], axis=1) / 2.0
    # angle-pi rotation: the longest column of R + I spans the axis
    m = rots + np.eye(3)
    col = m[np.arange(len(m)), :, np.argmax(np.linalg.norm(m, axis=1), axis=1)]
    half_turn = _row_norms(v) <= 1e-6
    v[half_turn] = col[half_turn]
    return v / _row_norms(v)[:, None]


def _within(points, x):
    """Rows of points within TOL_POINT of x in every coordinate (x may broadcast).

    One coordinate at a time, so no broadcast (..., 3) difference is formed.
    """
    out = np.abs(points[..., 0] - x[..., 0]) < TOL_POINT
    for k in (1, 2):
        out &= np.abs(points[..., k] - x[..., k]) < TOL_POINT
    return out


def fixed_points(group):
    """Orbits of fixed points of the rotation image on S^2.

    Returns FixedOrbit entries sorted by their named kind.
    """
    spec = group.spec
    rots = group.rotations

    def _isotropy(p):
        return int(np.count_nonzero(_within(rots @ p, p)))

    if spec.kind == CYCLIC:
        # the rotation image fixes the first axis; for n = 2 it is trivial
        # but the axis endpoints still carry the exceptional fibers
        north = np.array([1.0, 0.0, 0.0])
        south = -north
        iso = _isotropy(north)
        return [
            FixedOrbit(OrbifoldPointKind("SouthPole", iso), tuple(south), 1, (tuple(south),)),
            FixedOrbit(OrbifoldPointKind("NorthPole", iso), tuple(north), 1, (tuple(north),)),
        ]

    # both ends of every nontrivial axis, in the order ax_0, -ax_0, ax_1, ...;
    # a point is registered unless an earlier one lies within TOL_POINT
    axes = _rotation_axes(rots[np.max(np.abs(rots - np.eye(3)), axis=(1, 2)) > 1e-8])
    cand = np.stack([axes, -axes], axis=1).reshape(-1, 3)
    close = np.tril(_within(cand[:, None, :], cand[None, :, :]), -1)
    pts = cand[~close.any(axis=1)]

    # partition into rotation orbits, each seeded by its first point
    orbits = []
    remaining = np.ones(len(pts), dtype=bool)
    while remaining.any():
        i0 = int(np.argmax(remaining))
        members = remaining & np.any(_within(pts[None, :, :], (rots @ pts[i0])[:, None, :]), axis=0)
        members[i0] = True
        remaining &= ~members
        orbits.append(np.flatnonzero(members).tolist())

    def _orbit_entry(name, members):
        iso = _isotropy(pts[members[0]])
        pt_list = tuple(tuple(pts[j]) for j in members)
        rep = max(pt_list)  # deterministic representative
        return FixedOrbit(OrbifoldPointKind(name, iso), rep, len(members), pt_list)

    def _orbit_containing(point):
        for members in orbits:
            if np.any(_within(pts[members], point)):
                return members
        raise AmbiguousLabel(f"expected fixed point {point} not found")

    out = []
    if spec.kind == BINARY_DIHEDRAL:
        plus = _orbit_containing(np.array([1.0, 0.0, 0.0]))
        saddle = _orbit_containing(np.array([0.0, 1.0, 0.0]))
        minus = next(o for o in orbits if o not in (plus, saddle))
        out.append(_orbit_entry("Minus", minus))
        out.append(_orbit_entry("Saddle", saddle))
        out.append(_orbit_entry("Plus", plus))
    else:
        iv = spec.vertex_isotropy
        by_iso = {}
        for members in orbits:
            by_iso.setdefault(_isotropy(pts[members[0]]), []).append(members)
        edge = by_iso.get(2, [])
        if len(edge) != 1:
            raise AmbiguousLabel("expected a single order-2 orbit")
        if iv == 3:
            # tetrahedral: two order-3 orbits, Vertex is the one holding the
            # lexicographically largest point (a labeling convention)
            pair = by_iso.get(3, [])
            if len(pair) != 2:
                raise AmbiguousLabel("expected two order-3 orbits")
            keyed = sorted(pair, key=lambda mem: max(tuple(pts[j]) for j in mem), reverse=True)
            vertex, face = keyed[0], keyed[1]
        else:
            vertex = by_iso[iv][0]
            face = by_iso[3][0]
        out.append(_orbit_entry("Vertex", vertex))
        out.append(_orbit_entry("Edge", edge[0]))
        out.append(_orbit_entry("Face", face))
    return out


def _raw_classes(group):
    """Conjugation orbits as sorted index tuples, ordered by their smallest
    member, each with its element order and mean trace.

    Every class must hold one element order and traces within TOL_EQ of
    each other, or AmbiguousLabel is raised for the first that does not.
    """
    mul = group.mul
    conj = mul[mul, group.inverses[:, None]]   # conj[x, g] = x g x^-1
    smallest = conj.min(axis=0)
    # a stable sort by class minimum lists each class's members in order
    by_class = np.argsort(smallest, kind="stable")
    _, starts = np.unique(smallest[by_class], return_index=True)
    ends = np.append(starts[1:], len(by_class))
    orders = group.orders[by_class]
    traces = 2.0 * group.coords[by_class, 0]
    mixed_orders = np.minimum.reduceat(orders, starts) != np.maximum.reduceat(orders, starts)
    spread = np.maximum.reduceat(traces, starts) - np.minimum.reduceat(traces, starts)
    members = [tuple(by_class[s:e].tolist()) for s, e in zip(starts, ends)]
    bad = np.flatnonzero(mixed_orders | (spread > TOL_EQ))
    if bad.size:
        c = bad[0]
        if mixed_orders[c]:
            found = sorted(set(orders[starts[c]:ends[c]].tolist()))
            raise AmbiguousLabel(f"class {members[c]} mixes element orders {found}")
        raise AmbiguousLabel(f"class {members[c]} mixes traces beyond {TOL_EQ}")
    traces = traces.tolist()
    return [(m, int(orders[s]), sum(traces[s:e]) / (e - s))
            for m, s, e in zip(members, starts, ends)]


def _power_tower(group, gen_idx, raw):
    """Map conjugacy class -> first power of the generator hitting it."""
    class_of = {m: members for members in raw for m in members}
    tower = {}
    idx = gen_idx
    for k in range(1, group.element_order(gen_idx) + 1):
        tower.setdefault(class_of[idx], k)
        idx = int(group.mul[idx, gen_idx])
    return tower


def conjugacy_classes(group):
    """Conjugacy classes with stable labels.

    Labels: cyclic 'Id'/'g^m'; dihedral 'Id'/'-Id'/'A^m'/'B'/'AB';
    polyhedral classes are prefixed by T/O/I with element-order subscripts,
    two classes of equal order separated by the vertex-fiber power tower
    (first one reached gets suffix A).
    """
    spec = group.spec
    meta = {members: (order, trace) for members, order, trace in _raw_classes(group)}
    raw = list(meta)

    labels = {}
    ident = (group.identity,)
    labels[ident] = "Id"

    def _neg_class():
        # -Id is the unique order-2 element of these groups
        neg = [m for m in raw if meta[m][0] == 2]
        if len(neg) != 1 or len(neg[0]) != 1:
            raise AmbiguousLabel("expected a single central order-2 class")
        return neg[0]

    if spec.kind == CYCLIC:
        gen_idx = group.index_of(_generators(spec)[0])
        tower = _power_tower(group, gen_idx, raw)
        for members, first in tower.items():
            if members not in labels:
                labels[members] = f"g^{first}"
    elif spec.kind == BINARY_DIHEDRAL:
        labels[_neg_class()] = "-Id"
        a, b = _generators(spec)
        ia, ib = group.index_of(a), group.index_of(b)
        iab = int(group.mul[ia, ib])
        tower = _power_tower(group, ia, raw)
        for members, first in tower.items():
            if members not in labels:
                m = min(first, 2 * spec.n - first)
                labels[members] = f"A^{m}"
        for members in raw:
            if members in labels:
                continue
            if ib in members:
                labels[members] = "B"
            elif iab in members:
                labels[members] = "AB"
            else:
                raise AmbiguousLabel(f"unlabeled dihedral class {members}")
    else:
        prefix = spec.label
        labels[ident] = f"{prefix}_Id"
        labels[_neg_class()] = f"{prefix}_-Id"
        vertex = next(o for o in group.fixed_orbits if o.kind.name == "Vertex")
        gv, _ = fiber_isotropy_generator(group, vertex.representative)
        tower = _power_tower(group, gv, raw)
        by_order = {}
        for members in raw:
            if members in labels:
                continue
            by_order.setdefault(meta[members][0], []).append(members)
        for order, shared in sorted(by_order.items()):
            if len(shared) == 1:
                labels[shared[0]] = f"{prefix}_{order}"
            elif len(shared) == 2:
                hits = sorted((t, m) for m in shared if (t := tower.get(m)) is not None)
                if not hits:
                    raise AmbiguousLabel(f"neither order-{order} class lies in the vertex tower")
                first = hits[0][1]
                second = next(m for m in shared if m != first)
                labels[first] = f"{prefix}_{{{order},A}}"
                labels[second] = f"{prefix}_{{{order},B}}"
            else:
                raise AmbiguousLabel(f"{len(shared)} classes share element order {order}")

    out = []
    for members in raw:
        order, trace = meta[members]
        out.append(ConjugacyClass(labels[members], members, order, trace))
    if len(out) != spec.class_count:
        raise AmbiguousLabel(
            f"{spec.label}: found {len(out)} classes, expected {spec.class_count}")
    return out


def dynkin_type(spec):
    """ADE type whose diagram has (class count - 1) vertices."""
    spec = parse_group_spec(spec)
    if spec.kind == CYCLIC:
        return DynkinType("A", spec.n - 1)
    if spec.kind == BINARY_DIHEDRAL:
        return DynkinType("D", spec.n + 2)
    return DynkinType("E", {BINARY_TETRAHEDRAL: 6, BINARY_OCTAHEDRAL: 7, BINARY_ICOSAHEDRAL: 8}[spec.kind])
