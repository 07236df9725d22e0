"""Command-line front end for the contact-homology toolkit.

Three subcommands:

``orbits``
    Render the closed-orbit table of a group below the level-N action
    threshold, sorted by grading, then base point, then multiplicity.

``homology``
    Compute filtered homology ranks, compare them against the closed form,
    and exit nonzero on mismatch.

``verify``
    Run one named verification battery (or ``all`` of them) and print one
    summary line per check.  Exit status 0 means every check passed, 1 means
    a violation or mismatch was found, 2 a parse/usage error, and 3 a
    numeric-tolerance abort (a check could not complete to its tolerance).

The base class of an exception decides its exit code, for every command:
``ArithmeticError`` is a numeric abort (3), ``AssertionError`` a violation
(1) and ``ValueError`` unusable arguments (2).  Every library exception
derives from one of the three.  A ``MemoryError`` is a numeric abort too:
whether an allocation fails depends on the machine, not on the arguments
alone.

Output formats are ``markdown`` (default), ``json``, and ``csv``.  All output
is deterministic: a fixed (command, seed, version) triple yields byte-identical
bytes.  JSON documents carry a versioned ``schema`` tag.  Rational numbers
render as ``p/q``, formal one-sided perturbations as ``a + b·eps``, and the
constant pi is factored out of every action column.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import operator
import os
import sys
from dataclasses import dataclass

# One BLAS thread, whatever the environment says: the thread count changes
# the rounding of BLAS and LAPACK results, and with it printed residuals.
# BLAS reads these variables once, when numpy first loads it.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np

from . import __version__
from . import czengine, homology, morse, orbits
from .groups import parse_group_spec

#: JSON schema tag stamped on every JSON document this tool emits
SCHEMA = "chlab/v1"

#: the group battery exercised when no -g/--group is given to verify
BATTERY = tuple(
    [f"C:{n}" for n in range(2, 13)]
    + [f"D:{n}" for n in range(2, 9)]
    + ["T", "O", "I"]
)

DEFAULT_SEED = 2026
DEFAULT_NMAX = 4
DEFAULT_FOURIER_MODES = 32
DEFAULT_TOLERANCE = 1e-3


# ---------------------------------------------------------------------------
# rendering helpers


def _markdown_table(headers, rows):
    # one format template per table: format(c, "") is str(c) for its cells
    line = "| " + " | ".join(["{}"] * len(headers)) + " |"
    lines = [line.format(*headers), "|" + "|".join(" --- " for _ in headers) + "|"]
    lines.extend(itertools.starmap(line.format, rows))
    return "\n".join(lines)


def _csv_text(headers, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


#: the types json encodes as scalars; a subclass takes the general route
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _row_encoder(level):
    """The C encoder of a list of flat dicts whose fields sit `level` deep:
    its item separator carries the newline and indent of ``indent=2``."""
    return json.JSONEncoder(separators=(",\n" + "  " * level, ": ")).encode


def _json_value(value, level):
    """``json.dumps(value, indent=2)`` for a value nested `level` deep.

    An encoded string never holds a raw newline, so every newline in the
    text is layout.  A non-empty list of non-empty dicts of scalars (the
    rows of a table) is one call of the C encoder, whose separator is the
    newline and indent of the rows' fields; after it only the row
    boundaries ``},{`` are laid out again.  Anything else is
    ``json.dumps(value, indent=2)`` shifted right.
    """
    if (type(value) is list and value and set(map(type, value)) == {dict} and all(value)
            and set(map(type, itertools.chain.from_iterable(map(dict.values, value)))) <= _SCALARS):
        outer, inner, deep = ("\n" + "  " * n for n in (level, level + 1, level + 2))
        text = _row_encoder(level + 2)(value)[2:-2]
        rows = text.replace("}," + deep + "{", inner + "}," + inner + "{" + deep)
        return "[" + inner + "{" + deep + rows + inner + "}" + outer + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _json_text(command, **fields):
    """One JSON document: the schema envelope, then ``fields`` in order.

    The text is ``json.dumps(document, indent=2)``, byte for byte, written
    field by field by ``_json_value``.
    """
    document = {"schema": SCHEMA, "version": __version__, "command": command, **fields}
    items = (f"{json.dumps(key)}: {_json_value(value, 1)}" for key, value in document.items())
    return "{\n  " + ",\n  ".join(items) + "\n}"


# ---------------------------------------------------------------------------
# orbits command


def cmd_orbits(group, levels, fmt):
    """Render the orbit table for one group below the level-N threshold."""
    spec = parse_group_spec(group)
    # enumerate_orbits lists base by base, then by multiplicity, so a stable
    # sort by grading orders the rows by (grading, base, k)
    rows = sorted(orbits.enumerate_orbits(spec, levels), key=operator.attrgetter("grading"))
    if fmt == "json":
        return _json_text("orbits", group=spec.label, levels=levels, count=len(rows),
                          rows=[orbits.orbit_row(o) for o in rows]), 0
    headers = ("grading", "name", "base", "k", "type", "good",
               "action/pi", "rotation", "cz", "class", "contractible")
    table = [
        (o.grading, o.name, o.base.name, o.k, o.orbit_type,
         "yes" if o.good else "no", *o.jet_texts, o.cz, o.class_label,
         "yes" if o.contractible else "no")
        for o in rows
    ]
    if fmt == "csv":
        return _csv_text(headers, table), 0
    title = f"Closed orbits of {spec.label} below the level-{levels} threshold ({len(rows)} rows)"
    return title + "\n\n" + _markdown_table(headers, table), 0


# ---------------------------------------------------------------------------
# homology command


def cmd_homology(group, levels, fmt):
    """Compute filtered homology ranks and compare with the closed form."""
    spec = parse_group_spec(group)
    report = homology.homology_report(spec, levels)
    match = bool(report["match"])
    status = 0 if match else 1
    degrees = sorted(int(d) for d in report["ranks"])
    headers = ("degree", "rank", "closed_form")
    table = [(d, report["ranks"][str(d)], report["closed_form"][str(d)]) for d in degrees]
    if fmt == "json":
        return _json_text("homology", group=spec.label, levels=levels, ranks=report["ranks"],
                          closed_form=report["closed_form"], match=match), status
    if fmt == "csv":
        return _csv_text(headers, table), status
    title = (f"Filtered homology of {spec.label} at level {levels} — "
             f"match: {'true' if match else 'false'}")
    return title + "\n\n" + _markdown_table(headers, table), status


# ---------------------------------------------------------------------------
# verification batteries


@dataclass
class CheckResult:
    name: str
    ok: bool
    summary: str
    details: tuple
    report: dict
    failure_kind: str = ""  # "", "violation", or "numeric"


def _family_from_paths(gen0, gen1):
    """Linear interpolation family between two loop generators."""
    def family(s, t):
        lo = np.asarray(gen0(t), dtype=float)
        hi = np.asarray(gen1(t), dtype=float)
        return 0.5 * (1.0 - s) * lo + 0.5 * (1.0 + s) * hi
    return family


def _constant_family(lo, hi, name):
    return czengine.AsymptoticFamily(
        _family_from_paths(lambda t: lo, lambda t: hi), n=1, name=name)


def canonical_flow_family():
    """The reference family: diag(1, -1) flowing to 2·Id, flow +1."""
    return _constant_family(np.diag([1.0, -1.0]), 2.0 * np.eye(2), "canonical")


def seeded_flow_families(seed, count):
    """Deterministic interpolation families with nondegenerate endpoints;
    the 2·count endpoint paths are drawn ahead and solved in one march."""
    ends = czengine._random_nondegenerate_paths(np.random.default_rng(seed), 1, 2 * count)
    out = []
    for (path0, cz0), (path1, cz1) in zip(ends[0::2], ends[1::2]):
        fam = czengine.AsymptoticFamily(
            _family_from_paths(path0.generator.at, path1.generator.at), n=1)
        out.append((fam, cz0, cz1))
    return out


def resonance_family():
    """Family c(s)·Id sweeping c across 2π: one kernel-dimension-2 crossing."""
    return _constant_family(5.0 * np.eye(2), 7.0 * np.eye(2), "resonance")


def _per_spec(opts, run, describe):
    """Run ``run(label)`` for every spec of the battery, in order.

    Returns the specs, their reports and one detail line per spec, worded
    by ``describe(report)``."""
    specs = (opts.group,) if opts.group else BATTERY
    reports = [run(label) for label in specs]
    details = tuple(f"  {label}: {describe(r)}" for label, r in zip(specs, reports))
    return specs, reports, details


def check_monotonicity(opts):
    specs, reports, details = _per_spec(
        opts, lambda label: orbits.verify_monotonicity(label, opts.nmax),
        lambda r: f"{r['orbits']} orbits, {r['pairs']} pairs, ok")
    total_pairs = sum(r["pairs"] for r in reports)
    summary = (f"monotonicity: PASS ({len(specs)} specs, {total_pairs} same-class pairs, "
               f"N_max={opts.nmax}, 0 violations)")
    report = {"check": "monotonicity", "specs": len(specs),
              "pairs": total_pairs, "n_max": opts.nmax, "violations": 0}
    return CheckResult("monotonicity", True, summary, details, report)


def _cz_routes_agree(label, eps):
    """Crossing form == rotation index == closed form for every orbit of one
    group below the level-3 threshold; returns the orbit count."""
    found = orbits.enumerate_orbits(label, 3)
    for orbit in found:
        path = czengine.local_model_for(orbit, eps=eps)
        crossing = czengine.cz_crossing_form(path)
        _theta, rotation = czengine.rotation_cz_sp2(path)
        if crossing != orbit.cz or rotation != orbit.cz:
            raise czengine.AxiomViolation(
                f"{label}/{orbit.name}: crossing {crossing}, rotation {rotation}, "
                f"closed form {orbit.cz}")
    return len(found)


def check_cz_engine(opts):
    eps = opts.tolerance
    specs, counts, details = _per_spec(
        opts, lambda label: _cz_routes_agree(label, eps),
        lambda count: f"{count} orbits, three routes agree")
    total = sum(counts)
    summary = (f"cz-engine: PASS ({total} orbits below the level-3 threshold, "
               f"crossing form == closed formula == rotation index, eps={eps:g})")
    report = {"check": "cz_engine", "specs": len(specs), "orbits": total,
              "epsilon": eps, "violations": 0}
    return CheckResult("cz-engine", True, summary, details, report)


def check_spectral_flow(opts):
    order = opts.fourier_modes
    cases = [("canonical", canonical_flow_family(), 1)]
    for i, (fam, cz0, cz1) in enumerate(seeded_flow_families(opts.seed, 8)):
        cases.append((f"seeded-{i}", fam, cz1 - cz0))
    details = []
    for name, fam, expected in cases:
        flow = czengine.spectral_flow(fam, order=order)
        flow2 = czengine.spectral_flow(fam, order=2 * order)
        if flow != expected or flow2 != expected:
            raise czengine.AxiomViolation(
                f"{name}: flow {flow} (K={order}) / {flow2} (K={2 * order}), "
                f"expected {expected}")
        details.append(f"  {name}: flow {flow} == cz difference, stable K={order}->{2 * order}")
    summary = (f"spectral-flow: PASS ({len(cases)} families, flow == cz difference, "
               f"stable K={order}->{2 * order})")
    report = {"check": "spectral_flow", "families": len(cases),
              "fourier_modes": order, "violations": 0}
    return CheckResult("spectral-flow", True, summary, tuple(details), report)


def check_axioms(opts):
    report = czengine.cz_axiom_suite(opts.seed, instances=50)
    summary = (f"axioms: PASS ({report['instances']} checks across 50 seeded paths, "
               f"max residual {report['max_residual']:.3e})")
    return CheckResult("axioms", True, summary, (), report)


def check_sign_lemma(opts):
    families = [("canonical", canonical_flow_family()), ("resonance", resonance_family())]
    for i, (fam, _c0, _c1) in enumerate(seeded_flow_families(opts.seed + 1, 8)):
        families.append((f"seeded-{i}", fam))
    details = []
    crossings = 0
    worst = 0.0
    for name, fam in families:
        report = czengine.verify_crossing_sign_lemma(fam)
        if report["failures"]:
            raise czengine.AxiomViolation(f"{name}: {report['failures'][:2]}")
        crossings += report["instances"]
        worst = max(worst, report["max_residual"])
        details.append(f"  {name}: {report['instances']} crossings, opposite signs match")
    summary = (f"sign-lemma: PASS ({len(families)} families, {crossings} crossings, "
               f"max relative residual {worst:.3e})")
    report = {"check": "crossing_sign_lemma", "families": len(families),
              "crossings": crossings, "max_residual": worst, "violations": 0}
    return CheckResult("sign-lemma", True, summary, tuple(details), report)


def _describe_complex(complex_):
    flows = {f"{a}->{b}": (fl.downstairs, list(fl.weights))
             for (a, b), fl in complex_.flow_counts.items()}
    return f"ranks {complex_.ranks}, flows {flows}"


def check_morse(opts):
    specs, _complexes, details = _per_spec(opts, morse.orbifold_complex, _describe_complex)
    summary = f"morse: PASS ({len(specs)} specs, orbifold homology ranks (1, 0, 1))"
    report = {"check": "orbifold_morse", "specs": len(specs),
              "ranks": [1, 0, 1], "violations": 0}
    return CheckResult("morse", True, summary, details, report)


def check_seifert(opts):
    specs, reports, details = _per_spec(
        opts, morse.seifert_index_check, lambda r: f"{r['instances']} ordered pairs, ok")
    pairs = sum(r["instances"] for r in reports)
    summary = f"seifert: PASS ({len(specs)} specs, {pairs} ordered pairs, index gaps agree)"
    report = {"check": "seifert_index", "specs": len(specs),
              "pairs": pairs, "violations": 0}
    return CheckResult("seifert", True, summary, details, report)


def check_mckay(opts):
    specs, _reports, details = _per_spec(
        opts, homology.mckay_check,
        lambda r: f"vertices == classes - 1 == rank {r['triple'][2]}")
    summary = f"mckay: PASS ({len(specs)} specs, Dynkin vertices == class count - 1 == degree-0 rank)"
    report = {"check": "mckay", "specs": len(specs), "violations": 0}
    return CheckResult("mckay", True, summary, details, report)


_CHECKS = {
    "monotonicity": check_monotonicity,
    "cz-engine": check_cz_engine,
    "spectral-flow": check_spectral_flow,
    "axioms": check_axioms,
    "sign-lemma": check_sign_lemma,
    "morse": check_morse,
    "seifert": check_seifert,
    "mckay": check_mckay,
}

#: canonical order of the verification checks
CHECK_NAMES = tuple(_CHECKS)


#: exceptions that end a check, or a command, as a numeric abort (exit 3)
_NUMERIC_ABORTS = (ArithmeticError, MemoryError)


def _run_check(name, opts):
    try:
        return _CHECKS[name](opts)
    except _NUMERIC_ABORTS as err:  # a numeric guard tripped or memory ran out: exit 3
        return CheckResult(name, False, f"{name}: ABORT ({err})", (),
                           {"check": name, "error": str(err)}, "numeric")
    except AssertionError as err:  # a checked statement failed: exit 1
        return CheckResult(name, False, f"{name}: FAIL ({err})", (),
                           {"check": name, "error": str(err)}, "violation")


def cmd_verify(which, opts, fmt):
    """Run one verification battery (or all) and render the report."""
    names = CHECK_NAMES if which == "all" else (which,)
    results = [_run_check(name, opts) for name in names]

    ok = all(r.ok for r in results)
    any_violation = any(r.failure_kind == "violation" for r in results)
    status = 0 if ok else (1 if any_violation else 3)

    if fmt == "json":
        checks = [{"name": r.name, "ok": r.ok, "summary": r.summary, "report": r.report}
                  for r in results]
        return _json_text("verify", which=which, seed=opts.seed, ok=ok, checks=checks), status
    if fmt == "csv":
        headers = ("check", "status", "summary")
        table = [(r.name, "pass" if r.ok else "fail", r.summary) for r in results]
        return _csv_text(headers, table), status
    lines = []
    for r in results:
        if which != "all" or not r.ok:
            lines.extend(r.details)
        lines.append(r.summary)
    verdict = "OK" if ok else ("VIOLATION" if any_violation else "NUMERIC ABORT")
    lines.append(f"verify {which}: {verdict} (seed {opts.seed})")
    return "\n".join(lines), status


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser():
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="chlab",
        description="Filtered contact homology of spherical space forms: "
                    "orbit tables, homology ranks, verification batteries.")
    parser.add_argument("--version", action="version", version=f"chlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_levels=True):
        p.add_argument("-g", "--group", metavar="SPEC",
                       help="group spec: C:<n>, D:<n>, T, O, or I")
        if with_levels:
            p.add_argument("-N", "--levels", type=int, default=1, metavar="N",
                           help="action-threshold level (default 1)")
        p.add_argument("-f", "--format", choices=("markdown", "json", "csv"),
                       default="markdown", help="output format (default markdown)")

    p_orbits = sub.add_parser("orbits", help="render the closed-orbit table")
    add_common(p_orbits)

    p_hom = sub.add_parser("homology", help="filtered homology ranks vs the closed form")
    add_common(p_hom)

    p_ver = sub.add_parser("verify", help="run a verification battery")
    p_ver.add_argument("which", choices=CHECK_NAMES + ("all",),
                       help="which battery to run")
    add_common(p_ver, with_levels=False)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"random seed for the stochastic batteries (default {DEFAULT_SEED})")
    p_ver.add_argument("--nmax", type=int, default=DEFAULT_NMAX,
                       help=f"threshold level for monotonicity (default {DEFAULT_NMAX})")
    p_ver.add_argument("--fourier-modes", type=int, default=DEFAULT_FOURIER_MODES,
                       help=f"truncation order for spectral flow (default {DEFAULT_FOURIER_MODES})")
    p_ver.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help=f"numeric epsilon for local models (default {DEFAULT_TOLERANCE:g})")
    return parser


def _check_verify_args(args):
    """Reject verify options no battery can use, before any battery runs."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.nmax < 1:
        raise ValueError(f"--nmax must be >= 1, got {args.nmax}")
    for label in (args.group,) if args.group else BATTERY:
        count = orbits.orbit_count(label, args.nmax)
        if count > orbits.MAX_ORBITS:
            raise ValueError(f"--nmax {args.nmax} holds {count} orbits of {label}, "
                             f"more than the cap of {orbits.MAX_ORBITS}")
    if args.fourier_modes < 4:
        raise ValueError(f"--fourier-modes must be >= 4, got {args.fourier_modes}")
    if not 0.0 < args.tolerance <= czengine.MAX_EPSILON:
        raise ValueError(
            f"--tolerance must lie in (0, {czengine.MAX_EPSILON:g}], got {args.tolerance:g}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "orbits":
            if not args.group:
                parser.error("orbits requires -g/--group")
            text, status = cmd_orbits(args.group, args.levels, args.format)
        elif args.command == "homology":
            if not args.group:
                parser.error("homology requires -g/--group")
            text, status = cmd_homology(args.group, args.levels, args.format)
        else:
            _check_verify_args(args)
            if args.group:
                parse_group_spec(args.group)  # surface bad specs as exit 2
            text, status = cmd_verify(args.which, args, args.format)
    except ValueError as err:  # groups.ParseError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ABORTS as err:
        print(f"{args.command}: NUMERIC ABORT ({err})")
        return 3
    except AssertionError as err:  # a library check of a statement failed
        print(f"{args.command}: VIOLATION ({err})")
        return 1
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
