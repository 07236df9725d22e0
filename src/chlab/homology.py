"""Filtered homology over the rationals, as graded counts.

A filtration level is a dict mapping each grading to the good Reeb orbits
below that level's action threshold.  Their gradings are all even, so the
differential, which lowers the grading by one, vanishes for parity reasons
and the homology of a level is its graded count ``{grading: number of good
orbits}``; no differential is stored and no chain-complex type is built.
``build_complex`` raises ``ParityViolation`` if two good generators ever
land in adjacent gradings, the only way a nonzero differential could arise.
The direct limit checks that each level includes into the next, pairing
orbits with the same base and multiplicity and the same grading, and
compares its ranks degreewise against the closed form; the degree-0 rank is
also compared with the Dynkin diagram of the group.

Ranks are compared as plain dicts, and no dict holds a zero rank: a
computed rank counts a list that ``build_complex`` only creates to append
to, and the closed form is m - 1 or m, where m >= 2 is the class count of a
nontrivial group.  So dict equality is equality of graded vector spaces.
"""

from __future__ import annotations

from .groups import dynkin_type, parse_group_spec
from .orbits import enumerate_orbits


class ParityViolation(AssertionError):
    """Two good generators landed in adjacent gradings."""


class PairingFailure(AssertionError):
    """Inclusion pairing is not a unique same-base same-multiplicity match."""


def build_complex(spec, N):
    """The good orbits below L_N by grading: the level's generators, whose
    differential is zero."""
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
    return generators


def closed_form(spec, N):
    """Predicted homology, degree -> rank: m-1 at the extremes, m at even
    degrees between."""
    spec = parse_group_spec(spec)
    m = spec.class_count
    top = 4 * N - 2
    ranks = {0: m - 1, top: m - 1}
    for degree in range(2, top, 2):
        ranks[degree] = m
    return ranks


def _keyed(spec, N, level):
    """The good orbits of level N by (base name, multiplicity), each key once."""
    index = {}
    for generators in level.values():
        for orbit in generators:
            key = (orbit.base.name, orbit.k)
            if key in index:
                raise PairingFailure(f"{spec.label} N={N}: duplicate orbit {key}")
            index[key] = orbit
    return index


def _inclusion(spec, N, source, M, target):
    """The inclusion of level N's generators into level M's, as a dict
    pairing each good orbit with its twin of the same base and multiplicity.

    Every key occurs once in each level, so distinct orbits have distinct
    twins: the pairing is injective.
    """
    index = _keyed(spec, M, target)
    pairing = {}
    for key, orbit in _keyed(spec, N, source).items():
        twin = index.get(key)
        if twin is None:
            raise PairingFailure(
                f"{spec.label}: {orbit.name} below L_{N} has no match below L_{M}")
        if twin.grading != orbit.grading:
            raise PairingFailure(
                f"{spec.label}: {orbit.name} changes grading "
                f"{orbit.grading} -> {twin.grading} under inclusion")
        pairing[orbit] = twin
    return pairing


def direct_limit(spec, N_max):
    """Stabilized graded ranks up to degree 4*N_max - 4, plus a report.

    Each level must include into the next (``_inclusion``).  For
    each even degree the rank as a function of N is eventually
    constant; the report records the first level at which it reaches its
    final value and the stabilized value is checked against the closed
    form (m - 1 in degree 0, m in even degrees >= 2).
    """
    spec = parse_group_spec(spec)
    if N_max < 2:
        raise ValueError(f"direct limit needs N_max >= 2, got {N_max}")
    m = spec.class_count
    levels = [build_complex(spec, N) for N in range(1, N_max + 1)]
    for N in range(1, N_max):
        _inclusion(spec, N, levels[N - 1], N + 1, levels[N])
    top_stable = 4 * N_max - 4
    limit = {}
    first_stable = {}
    for degree in range(0, top_stable + 1, 2):
        values = [len(level.get(degree, ())) for level in levels]
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
    return limit, report


def mckay_check(spec):
    """Dynkin vertex count == class count - 1 == stabilized degree-0 rank."""
    spec = parse_group_spec(spec)
    vertices = dynkin_type(spec).vertices
    m_minus_one = spec.class_count - 1
    rank0 = len(build_complex(spec, 1).get(0, ()))
    if not (vertices == m_minus_one == rank0):
        raise AssertionError(
            f"{spec.label}: Dynkin {vertices}, classes-1 {m_minus_one}, "
            f"degree-0 rank {rank0} disagree")
    return {"check": "mckay", "spec": spec.label,
            "triple": (vertices, m_minus_one, rank0), "violations": 0}


def homology_report(spec, N):
    """JSON-ready record comparing computed ranks with the closed form."""
    spec = parse_group_spec(spec)
    computed = {d: len(generators) for d, generators in build_complex(spec, N).items()}
    predicted = closed_form(spec, N)
    return {
        "spec": spec.label,
        "N": N,
        "ranks": {str(d): r for d, r in sorted(computed.items())},
        "closed_form": {str(d): r for d, r in sorted(predicted.items())},
        "match": computed == predicted,
    }
