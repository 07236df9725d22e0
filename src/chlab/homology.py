"""Filtered chain complexes over the rationals and their graded homology.

The generators in each filtration level are the good Reeb orbits below
that level's action threshold.  Their gradings are all even, so the
differential vanishes for parity reasons and homology equals the graded
generator count.  The complex stores no differential: ``build_complex``
raises ``ParityViolation`` if two good generators ever land in adjacent
gradings, the only way a nonzero differential could arise.  The direct
limit checks that each level includes into the next, pairing orbits with
the same base and multiplicity and the same grading, and compares its
ranks degreewise against the closed form; the degree-0 rank is also
compared with the Dynkin diagram of the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import dynkin_type, parse_group_spec
from .orbits import enumerate_orbits


class ParityViolation(AssertionError):
    """Two good generators landed in adjacent gradings."""


class PairingFailure(AssertionError):
    """Inclusion pairing is not a unique same-base same-multiplicity match."""


@dataclass(frozen=True)
class GradedVectorSpace:
    """Finitely supported map degree -> rank."""

    ranks: dict

    def __post_init__(self):
        for degree, rank in self.ranks.items():
            if degree < 0 or rank < 0:
                raise ValueError(f"bad graded rank {rank} in degree {degree}")

    def rank(self, degree):
        return self.ranks.get(degree, 0)

    def __eq__(self, other):
        if not isinstance(other, GradedVectorSpace):
            return NotImplemented
        mine = {d: r for d, r in self.ranks.items() if r}
        theirs = {d: r for d, r in other.ranks.items() if r}
        return mine == theirs


@dataclass
class FilteredComplex:
    """Chain complex of one filtration level, given by its generators.

    generators maps grading -> list of good orbits.  No two occupied
    gradings are adjacent (``build_complex`` checks this), so the
    differential, which lowers the grading by one, is zero and is not
    stored.
    """

    spec: object
    N: int
    generators: dict

    def degree_rank(self, degree):
        return len(self.generators.get(degree, ()))

    @property
    def degrees(self):
        return sorted(self.generators)


def build_complex(spec, N):
    """Good orbits below L_N, grouped by grading, with zero differential."""
    spec = parse_group_spec(spec)
    generators = {}
    for orbit in enumerate_orbits(spec, N):
        if orbit.good:
            generators.setdefault(orbit.grading, []).append(orbit)
    for d in sorted(generators):
        if d + 1 in generators:
            raise ParityViolation(
                f"{spec.label} N={N}: good generators in adjacent gradings "
                f"{d} and {d + 1}")
    return FilteredComplex(spec=spec, N=N, generators=generators)


def homology_ranks(complex):
    """Graded homology ranks: with zero differential, the generator counts."""
    ranks = {d: complex.degree_rank(d) for d in complex.degrees}
    return GradedVectorSpace({d: r for d, r in ranks.items() if r})


def closed_form(spec, N):
    """Predicted homology: m-1 at the extremes, m at even degrees between."""
    spec = parse_group_spec(spec)
    m = spec.class_count
    top = 4 * N - 2
    ranks = {0: m - 1, top: m - 1}
    for degree in range(2, top, 2):
        ranks[degree] = m
    return GradedVectorSpace(ranks)


def _keyed(complex):
    """The good orbits of one level by (base name, multiplicity), each key once."""
    index = {}
    for generators in complex.generators.values():
        for orbit in generators:
            key = (orbit.base.name, orbit.k)
            if key in index:
                raise PairingFailure(f"{complex.spec.label} N={complex.N}: duplicate orbit {key}")
            index[key] = orbit
    return index


def _inclusion(source, target):
    """The inclusion of a level's complex into a higher one's, as a dict
    pairing each good orbit with its twin of the same base and multiplicity.

    Every key occurs once in each level, so distinct orbits have distinct
    twins: the pairing is injective.
    """
    index = _keyed(target)
    pairing = {}
    for key, orbit in _keyed(source).items():
        twin = index.get(key)
        if twin is None:
            raise PairingFailure(
                f"{source.spec.label}: {orbit.name} below L_{source.N} has no match "
                f"below L_{target.N}")
        if twin.grading != orbit.grading:
            raise PairingFailure(
                f"{source.spec.label}: {orbit.name} changes grading "
                f"{orbit.grading} -> {twin.grading} under inclusion")
        pairing[orbit] = twin
    return pairing


def direct_limit(spec, N_max):
    """Stabilized graded ranks up to degree 4*N_max - 4, plus a report.

    Each level's complex must include into the next (``_inclusion``).  For
    each even degree the rank as a function of N is eventually
    constant; the report records the first level at which it reaches its
    final value and the stabilized value is checked against the closed
    form (m - 1 in degree 0, m in even degrees >= 2).
    """
    spec = parse_group_spec(spec)
    if N_max < 2:
        raise ValueError(f"direct limit needs N_max >= 2, got {N_max}")
    m = spec.class_count
    complexes = [build_complex(spec, N) for N in range(1, N_max + 1)]
    for source, target in zip(complexes, complexes[1:]):
        _inclusion(source, target)
    levels = {cx.N: homology_ranks(cx) for cx in complexes}
    top_stable = 4 * N_max - 4
    limit = {}
    first_stable = {}
    for degree in range(0, top_stable + 1, 2):
        values = [levels[N].rank(degree) for N in range(1, N_max + 1)]
        final = values[-1]
        first = next(N for N in range(N_max, 0, -1)
                     if values[N - 1] != final) + 1 if values[0] != final else 1
        expected = m - 1 if degree == 0 else m
        if final != expected:
            raise AssertionError(
                f"{spec.label}: degree {degree} stabilizes at {final}, "
                f"closed form says {expected}")
        limit[degree] = final
        first_stable[degree] = first
    report = {"check": "direct_limit", "spec": spec.label, "n_max": N_max,
              "first_stable": first_stable, "violations": 0}
    return GradedVectorSpace(limit), report


def mckay_check(spec):
    """Dynkin vertex count == class count - 1 == stabilized degree-0 rank."""
    spec = parse_group_spec(spec)
    vertices = dynkin_type(spec).vertices
    m_minus_one = spec.class_count - 1
    rank0 = homology_ranks(build_complex(spec, 1)).rank(0)
    if not (vertices == m_minus_one == rank0):
        raise AssertionError(
            f"{spec.label}: Dynkin {vertices}, classes-1 {m_minus_one}, "
            f"degree-0 rank {rank0} disagree")
    return {"check": "mckay", "spec": spec.label,
            "triple": (vertices, m_minus_one, rank0), "violations": 0}


def homology_report(spec, N):
    """JSON-ready record comparing computed ranks with the closed form."""
    spec = parse_group_spec(spec)
    complex = build_complex(spec, N)
    computed = homology_ranks(complex)
    predicted = closed_form(spec, N)
    return {
        "spec": spec.label,
        "N": N,
        "ranks": {str(d): r for d, r in sorted(computed.ranks.items())},
        "closed_form": {str(d): r for d, r in sorted(predicted.ranks.items())},
        "match": computed == predicted,
    }
