"""Reeb orbits of the perturbed contact forms below each action threshold.

Every closed Reeb orbit sits over one of the exceptional points of the
quotient sphere (a minimum, saddle or maximum of the invariant perturbing
function) and is an iterate of the embedded orbit there.  For each group
and threshold level this module enumerates those iterates as records of
integers and strings: the multiplicity k, the base's covering multiplicity
cov and sign, the Conley-Zehnder index and grading, the good/bad flag and
the free homotopy class.  The exact action and rotation number, first-order
jets a + b*eps in a formal infinitesimal, follow from (k, cov, sign) and are
built only when read; table text is rendered from the same integers.  Each
record's index is computed twice, once as the floor plus ceiling of the
rotation number and once by the closed family formula, and the homotopy
lookup tables are validated against the group-theoretic lift computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, total_ordering
from typing import NamedTuple

from .groups import (
    BINARY_DIHEDRAL,
    CYCLIC,
    GroupSpec,
    OrbifoldPointKind,
    build_group,
    fiber_isotropy_generator,
    parse_group_spec,
)

ELLIPTIC = "Elliptic"
POSITIVE_HYPERBOLIC = "PositiveHyperbolic"
NEGATIVE_HYPERBOLIC = "NegativeHyperbolic"

#: most orbits one threshold level may hold; a deeper level is refused
#: before enumerating, since every orbit is one row of output and the
#: count grows linearly with the level, without bound
MAX_ORBITS = 4096


class MonotonicityViolation(AssertionError):
    """A same-class orbit pair broke the index/action ordering."""


class LiftMismatch(AssertionError):
    """Homotopy lookup table disagrees with the group-theoretic lift."""


@total_ordering
class FormalScalar:
    """Exact first-order jet a + b*eps, eps a positive formal infinitesimal.

    The total order is lexicographic on (a, b), which is the limit order
    as eps -> 0+.  Formal scalars are ordered and compared with each other
    only and do no arithmetic: the orbit records compute in integers.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        # a Fraction is immutable, so one handed in is kept as it is
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    def __eq__(self, other):
        if not isinstance(other, FormalScalar):
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        if not isinstance(other, FormalScalar):
            return NotImplemented
        return (self.a, self.b) < (other.a, other.b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        op, mag = ("-", -self.b) if self.b < 0 else ("+", self.b)
        return f"{self.a} {op} {mag}*eps"

    def __repr__(self):
        return f"FormalScalar({self.a}, {self.b})"


@dataclass(frozen=True)
class BaseData:
    """One exceptional point under the embedded orbits: the base datum.

    sign is -1 over a minimum, 0 over a saddle, +1 over a maximum of the
    perturbing function; cov is the multiplicity at which iterates of the
    embedded orbit become contractible.
    """

    name: str
    sign: int
    morse_index: int
    isotropy: int
    cov: int


@lru_cache(maxsize=None)
def base_table(spec):
    """The base data in serialization order (minimum, saddle, maximum)."""
    spec = parse_group_spec(spec)
    if spec.kind == CYCLIC:
        n = spec.n
        iso = n if n % 2 else n // 2
        return (BaseData("SouthPole", -1, 0, iso, n),
                BaseData("NorthPole", +1, 2, iso, n))
    if spec.kind == BINARY_DIHEDRAL:
        n = spec.n
        return (BaseData("Minus", -1, 0, 2, 4),
                BaseData("Saddle", 0, 1, 2, 4),
                BaseData("Plus", +1, 2, n, 2 * n))
    iv = spec.vertex_isotropy
    return (BaseData("Vertex", -1, 0, iv, 2 * iv),
            BaseData("Edge", 0, 1, 2, 4),
            BaseData("Face", +1, 2, 3, 6))


def _base_by_name(spec, name):
    for base in base_table(spec):
        if base.name == name:
            return base
    raise ValueError(f"no base named {name!r} for {parse_group_spec(spec).label}")


class ReebOrbit(NamedTuple):
    """The k-th iterate of the embedded Reeb orbit over one base point.

    A tuple of integers and strings, with the group and the base point kind
    shared by every record of one (group, base): cov and sign are the
    base's covering multiplicity and sign, and the action and rotation
    number are derived from (k, cov, sign) when read.
    """

    group: GroupSpec
    base: OrbifoldPointKind
    k: int
    cov: int
    sign: int
    cz: int
    grading: int
    orbit_type: str
    good: bool
    class_label: str
    contractible: bool

    @property
    def name(self):
        return f"{self.base.name}^{self.k}"

    @property
    def action(self):
        """2k/cov + (sign*2k/cov)*eps, in units of pi."""
        return _action_of(self.cov, self.sign, self.k)

    @property
    def rotation(self):
        """2k/cov + (sign*k/cov)*eps."""
        return FormalScalar(Fraction(2 * self.k, self.cov), Fraction(self.sign * self.k, self.cov))

    @property
    def jet_texts(self):
        """The action and the rotation number as table text, each 'a',
        'a + b·eps' or 'a - b·eps'."""
        k, cov, sign = self.k, self.cov, self.sign
        head = format_ratio(2 * k, cov)
        if not sign:
            return head, head
        # the action's eps-part is sign*2k/cov, the rotation's sign*k/cov
        op = " + " if sign > 0 else " - "
        return f"{head}{op}{head}·eps", f"{head}{op}{format_ratio(k, cov)}·eps"


#: a record from the tuple of its fields, in one C-level call
_new_record = partial(tuple.__new__, ReebOrbit)


def action_threshold(spec, N):
    """Threshold L_N in units of pi; the eps-part is zero."""
    spec = parse_group_spec(spec)
    if N < 1:
        raise ValueError(f"threshold level must be >= 1, got {N}")
    if spec.kind == CYCLIC:
        d = spec.n
    elif spec.kind == BINARY_DIHEDRAL:
        d = 2 * spec.n
    else:
        d = 10
    return FormalScalar(2 * N - Fraction(1, d))


def _action_of(cov, sign, k):
    return FormalScalar(Fraction(2 * k, cov), Fraction(2 * sign * k, cov))


def _cz_closed(base, k):
    # 2*ceil(2k/cov) - 1 over a minimum, 2*floor(2k/cov) + 1 over a maximum
    # and 2*(2k/cov) over a saddle, in integer arithmetic
    if base.sign < 0:
        return 2 * -(-2 * k // base.cov) - 1
    if base.sign > 0:
        return 2 * (2 * k // base.cov) + 1
    return 4 * k // base.cov  # every saddle has cov = 4


def _classify(base, k):
    if base.sign != 0:
        return ELLIPTIC, True
    # the embedded saddle orbit is negative hyperbolic; its even iterates
    # are positive hyperbolic and exactly they are bad
    if k % 2:
        return NEGATIVE_HYPERBOLIC, True
    return POSITIVE_HYPERBOLIC, False


# Free homotopy class lookup, keyed by k modulo the covering multiplicity.
# Two equal-order classes carry suffixes A/B tied to the Vertex orbit.
_POLY_CLASS_TABLE = {
    ("T", "Vertex"): {0: "T_Id", 3: "T_-Id", 1: "T_{6,A}", 5: "T_{6,B}",
                      2: "T_{3,A}", 4: "T_{3,B}"},
    ("T", "Edge"): {0: "T_Id", 2: "T_-Id", 1: "T_4", 3: "T_4"},
    ("T", "Face"): {0: "T_Id", 3: "T_-Id", 5: "T_{6,A}", 1: "T_{6,B}",
                    4: "T_{3,A}", 2: "T_{3,B}"},
    ("O", "Vertex"): {0: "O_Id", 4: "O_-Id", 1: "O_{8,A}", 7: "O_{8,A}",
                      3: "O_{8,B}", 5: "O_{8,B}", 2: "O_{4,A}", 6: "O_{4,A}"},
    ("O", "Edge"): {0: "O_Id", 2: "O_-Id", 1: "O_{4,B}", 3: "O_{4,B}"},
    ("O", "Face"): {0: "O_Id", 3: "O_-Id", 1: "O_6", 5: "O_6",
                    2: "O_3", 4: "O_3"},
    ("I", "Vertex"): {0: "I_Id", 5: "I_-Id", 1: "I_{10,A}", 9: "I_{10,A}",
                      3: "I_{10,B}", 7: "I_{10,B}", 2: "I_{5,A}", 8: "I_{5,A}",
                      4: "I_{5,B}", 6: "I_{5,B}"},
    ("I", "Edge"): {0: "I_Id", 2: "I_-Id", 1: "I_4", 3: "I_4"},
    ("I", "Face"): {0: "I_Id", 3: "I_-Id", 1: "I_6", 5: "I_6",
                    2: "I_3", 4: "I_3"},
}


def _class_label(spec, base_name, k):
    spec = parse_group_spec(spec)
    if spec.kind == CYCLIC:
        n = spec.n
        m = k % n if base_name == "NorthPole" else (-k) % n
        return "Id" if m == 0 else f"g^{m}"
    if spec.kind == BINARY_DIHEDRAL:
        n = spec.n
        if base_name == "Plus":
            r = k % (2 * n)
            if r == 0:
                return "Id"
            if r == n:
                return "-Id"
            return f"A^{min(r, 2 * n - r)}"
        r = k % 4
        if r == 0:
            return "Id"
        if r == 2:
            return "-Id"
        # the embedded Minus orbit lifts by AB, the Saddle one by B; the
        # cube of either is conjugate to the other exactly when n is odd
        if base_name == "Minus":
            return "AB" if r == 1 else ("B" if n % 2 else "AB")
        return "B" if r == 1 else ("AB" if n % 2 else "B")
    table = _POLY_CLASS_TABLE[(spec.label, base_name)]
    return table[k % _base_by_name(spec, base_name).cov]


@lru_cache(maxsize=None)
def _validate_class_tables(kind, n):
    """Check the lookup tables against lifts through the fiber geometry.

    The embedded orbit over p lifts to the fiber arc of length 2*pi/cov,
    so its deck transformation is the fiber isotropy generator g_p with
    the smallest positive phase, and iterates lift to powers of g_p.
    """
    spec = GroupSpec(kind, n)
    group = build_group(spec)
    bases = base_table(spec)
    fixed = group.fixed_orbits
    checked = 0
    for fx, base in zip(fixed, bases):
        if fx.kind.name != base.name or fx.kind.isotropy != base.isotropy:
            raise LiftMismatch(
                f"{spec.label}: fixed orbit {fx.kind} does not match base {base}")
        gi, phase = fiber_isotropy_generator(group, fx.representative)
        if group.element_order(gi) != base.cov:
            raise LiftMismatch(
                f"{spec.label}/{base.name}: lift has order "
                f"{group.element_order(gi)}, expected {base.cov}")
        if abs(phase - 2.0 * math.pi / base.cov) > 1e-8:
            raise LiftMismatch(
                f"{spec.label}/{base.name}: generator phase {phase} "
                f"is not 2*pi/{base.cov}")
        power = group.identity
        for k in range(1, base.cov + 1):
            power = int(group.mul[power, gi])   # gi to the k-th power
            want = _class_label(spec, base.name, k)
            got = group.class_of(power).label
            if got != want:
                raise LiftMismatch(
                    f"{spec.label}: {base.name}^{k} lifts into [{got}], "
                    f"table says [{want}]")
            checked += 1
    return checked


def make_orbit(spec, base, k):
    """The orbit record for the k-th iterate over a base, built afresh.

    Validates the lift tables like ``enumerate_orbits`` but keeps no record:
    its callers want a handful of single records, and tables come from the
    per-(group, base) lists that ``enumerate_orbits`` keeps.
    """
    spec = parse_group_spec(spec)
    if isinstance(base, str):
        base = _base_by_name(spec, base)
    if k < 1:
        raise ValueError(f"multiplicity must be >= 1, got {k}")
    _validate_class_tables(spec.kind, spec.n)
    kind, labels, _records = _orbit_family(spec, base)
    return _orbit_record(spec, base, kind, labels, k)


def _orbit_record(spec, base, kind, labels, k):
    """The integer arithmetic of one orbit record.

    kind is the base's point kind and labels[r] the class label of the
    iterates k = r mod cov.  With 2k = q*cov + r the rotation number is
    2k/cov + (sign*k/cov)*eps: off the integers (r > 0) its floor and
    ceiling are q and q + 1, on them the sign of the eps-part moves one of
    the two.
    """
    cov, sign = base.cov, base.sign
    q, r = divmod(2 * k, cov)
    cz = 2 * q + 1 if r else 2 * q + sign
    closed = _cz_closed(base, k)
    if cz != closed:
        raise AssertionError(
            f"{spec.label} {base.name}^{k}: floor+ceil gives {cz}, "
            f"closed formula gives {closed}")
    orbit_type, good = _classify(base, k)
    m = k % cov
    return _new_record((spec, kind, k, cov, sign, cz, cz - 1, orbit_type, good, labels[m], m == 0))


@lru_cache(maxsize=None)
def _orbit_family(spec, base):
    """The base's point kind, its class labels by k mod cov, and its orbit
    records for k = 1, 2, ..., in order.

    One entry per (group, base), kept for the life of the process;
    ``enumerate_orbits`` grows the record list to the largest multiplicity
    asked for so far and hands out copies of its prefixes, so every record
    is built once.
    """
    labels = tuple(_class_label(spec, base.name, r) for r in range(base.cov))
    return OrbifoldPointKind(base.name, base.isotropy), labels, []


def _max_multiplicity(spec, base, N):
    # closed-form largest k with action below L_N, per base family
    spec = parse_group_spec(spec)
    if spec.kind == CYCLIC:
        return spec.n * N - 1
    if spec.kind == BINARY_DIHEDRAL:
        return 2 * spec.n * N - 1 if base.sign > 0 else 4 * N - 1
    if base.sign < 0:
        return 2 * N * spec.vertex_isotropy - 1
    return 4 * N - 1 if base.sign == 0 else 6 * N - 1


def orbit_count(spec, N):
    """The number of orbits below L_N, from the closed-form multiplicities."""
    spec = parse_group_spec(spec)
    return sum(_max_multiplicity(spec, base, N) for base in base_table(spec))


def enumerate_orbits(spec, N):
    """All orbits with action below L_N, ordered by base then multiplicity.

    A level holding more than MAX_ORBITS orbits is refused with a
    ValueError before any is built.  The lift tables are validated on every
    call; the records are slices of the process-lifetime lists of
    ``_orbit_family``.
    """
    spec = parse_group_spec(spec)
    limit = action_threshold(spec, N)
    count = orbit_count(spec, N)
    if count > MAX_ORBITS:
        raise ValueError(f"level {N} holds {count} orbits of {spec.label}, "
                         f"more than the cap of {MAX_ORBITS}")
    _validate_class_tables(spec.kind, spec.n)
    out = []
    for base in base_table(spec):
        k_max = _max_multiplicity(spec, base, N)
        # actions grow with k, so the threshold need only be checked at the
        # closed-form boundary: action(k_max) < L_N <= action(k_max + 1)
        if (not _action_of(base.cov, base.sign, k_max) < limit
                or _action_of(base.cov, base.sign, k_max + 1) < limit):
            raise AssertionError(
                f"{spec.label}/{base.name}: the threshold does not fall between "
                f"k={k_max} and k={k_max + 1}, the closed range's end")
        kind, labels, family = _orbit_family(spec, base)
        family.extend(_orbit_record(spec, base, kind, labels, k)
                      for k in range(len(family) + 1, k_max + 1))
        out.extend(family[:k_max])
    return out


def covering_multiplicity(spec, base):
    """Iteration order at which orbits over the base become contractible."""
    spec = parse_group_spec(spec)
    name = base.name if isinstance(base, OrbifoldPointKind) else base
    data = _base_by_name(spec, name)
    expected = 2 * data.isotropy if spec.order % 2 == 0 else data.isotropy
    if data.cov != expected:
        raise AssertionError(
            f"{spec.label}/{name}: stored covering {data.cov} != {expected}")
    return data.cov


def degree_census(spec, N):
    """Map grading -> (good count, bad count) below L_N."""
    census = {}
    for orbit in enumerate_orbits(spec, N):
        good, bad = census.get(orbit.grading, (0, 0))
        if orbit.good:
            good += 1
        else:
            bad += 1
        census[orbit.grading] = (good, bad)
    return dict(sorted(census.items()))


def verify_monotonicity(spec, N_max):
    """Exhaustive same-class index/action ordering check below L_{N_max}.

    Under the shared formal eps every admissible pair of levels N <= M
    collapses to: for each ordered pair of same-class orbits below
    L_{N_max}, equal cz forces the identical orbit, and strictly smaller
    cz forces strictly smaller action.  Each class is sorted by cz and
    only neighbours are compared: equal cz in two records is two distinct
    orbits, and otherwise the actions must increase along the sorted
    class, which covers every pair by transitivity.  ``pairs`` counts the
    ordered pairs so covered, the squared class sizes.
    """
    spec = parse_group_spec(spec)
    if N_max < 1:
        raise ValueError(f"N_max must be >= 1, got {N_max}")
    orbits = enumerate_orbits(spec, N_max)
    by_class = {}
    for orbit in orbits:
        by_class.setdefault(orbit.class_label, []).append(orbit)
    pairs = 0
    for members in by_class.values():
        pairs += len(members) ** 2
        members.sort(key=lambda orbit: orbit.cz)
        for gp, gm in zip(members, members[1:]):
            if gp.cz == gm.cz:
                raise MonotonicityViolation(
                    f"{spec.label}: distinct orbits {gp.name} and "
                    f"{gm.name} share class [{gp.class_label}] "
                    f"and cz={gp.cz}")
            if not gp.action < gm.action:
                raise MonotonicityViolation(
                    f"{spec.label}: pair ({gp.name}, {gm.name}) in class "
                    f"[{gp.class_label}] has cz {gp.cz} < {gm.cz} but "
                    f"action {gp.action} >= {gm.action}")
    return {"check": "monotonicity", "spec": spec.label, "n_max": N_max,
            "orbits": len(orbits), "pairs": pairs, "violations": 0}


def format_ratio(p, q):
    """The rational p/q, q > 0, as text in lowest terms: 'p/q', or 'p'
    when it is whole."""
    g = math.gcd(p, q)
    return f"{p // g}" if g == q else f"{p // g}/{q // g}"


def orbit_row(orbit):
    """Flat serializable row for the CLI and file outputs."""
    k, cov = orbit.k, orbit.cov
    return {
        "base": orbit.base.name,
        "k": k,
        "action_a": format_ratio(2 * k, cov),
        "action_b": format_ratio(2 * orbit.sign * k, cov),
        "cz": orbit.cz,
        "grading": orbit.grading,
        "type": orbit.orbit_type,
        "good": orbit.good,
        "class": orbit.class_label,
        "contractible": orbit.contractible,
    }
