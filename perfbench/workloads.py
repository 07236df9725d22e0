"""The benchmark workloads: inputs from a seed, ops, and their checks.

Two workloads, each made of two parts that stress different layers:
``index`` is czengine alone (``spectral``: spectral flow and the crossing
sign lemma; ``paths``: three index routes on local models and one axiom
suite); ``groups`` never touches czengine (``morse``: orbifold Morse
complexes; ``tables``: ``chlab orbits``/``chlab homology`` queries).

An op is the smallest public chlab call that returns a verified answer.  It
returns a short text of its answer and a dict of input properties it
observed (saddle grid sizes), raises ``WrongAnswer`` when chlab's answer
disagrees with a closed form or with a reference that two of chlab's index
routes agree on, raises ``UnverifiedReference`` when those routes disagree
on the reference (then no answer can be verified against it), and lets any
other exception propagate: the worker records every exception as a failed
op with its class, and only ``WrongAnswer`` makes the run incorrect.  Every
call into chlab goes through a module attribute at call time, so the
tracer's rebinding sees it.

A run makes several passes, each in a fresh interpreter; pass p draws its
inputs from (part, seed, p), so a run averages over several draws and the
same seed always gives the same inputs.  ``paths`` and ``tables`` draw their
groups stratified: n in 2..64 is cut into equal bands and one C:n and one
D:n are drawn in every band, plus T, O and I, so every draw gets the same
share of small and large groups.
"""

import contextlib
import csv
import hashlib
import io
import json
import random

from chlab import cli, czengine, morse, orbits

WORKLOADS = {"index": ("spectral", "paths"), "groups": ("morse", "tables")}

# sizes of one pass; "tiny" is for the self-test
SIZES = {
    "spectral": {"full": {"families": 1}, "tiny": {"families": 0}},
    "paths": {"full": {"bands": 3, "orbits": 150, "saddles": 8, "suite": 10},
              "tiny": {"bands": 1, "orbits": 8, "saddles": 2, "suite": 10}},
    "morse": {"full": {}, "tiny": {"groups": ("C:3", "D:27")}},
    "tables": {"full": {"bands": 12, "per_group": 4}, "tiny": {"bands": 1, "per_group": 4}},
}

FLOW_ORDER = 16           # Fourier truncation K; the flow is also checked at 2K
INDEX_LEVEL = 3           # paths: orbits below the level-3 threshold
POLYHEDRAL_VERTEX_ISOTROPY = {"T": 3, "O": 4, "I": 5}
POLYHEDRAL_CLASSES = {"T": 7, "O": 8, "I": 9}


class WrongAnswer(AssertionError):
    """chlab returned an answer that disagrees with the closed form."""


class UnverifiedReference(ArithmeticError):
    """chlab's index routes disagree on the reference an answer is checked
    against, so the answer cannot be verified."""


class Workload:
    def __init__(self, name, ops, inputs, properties, parts=None):
        self.name = name
        self.ops = ops                # [(label, callable)]
        self.inputs = inputs          # canonical text of every generated input
        self.properties = properties  # input properties known before the run
        self.parts = parts or [(name, len(ops))]  # [(part, op count)] in op order

    def digest(self):
        return hashlib.sha256("\n".join(self.inputs).encode()).hexdigest()[:16]


def _rng(workload, seed, pass_index):
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _bands(rng, count, lo=2, hi=64):
    cuts = [lo + round(i * (hi - lo + 1) / count) for i in range(count + 1)]
    return [rng.randrange(cuts[i], cuts[i + 1]) for i in range(count)]


def stratified_groups(rng, bands):
    return ([f"C:{n}" for n in _bands(rng, bands)]
            + [f"D:{n}" for n in _bands(rng, bands)] + ["T", "O", "I"])


def _expect(ok, message):
    if not ok:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# spectral: spectral flow at K and 2K, then the crossing sign lemma


def _family_fingerprint(fam):
    vals = [fam.func(s, t) for s in (-1.0, -0.5, 0.0, 0.5, 1.0) for t in (0.0, 0.25, 0.5, 0.75)]
    return ",".join(f"{float(x):.12e}" for v in vals for x in v.ravel())


def build_spectral(rng, size, pass_index):
    """The canonical and resonance families plus the first ``families``
    seeded families from ``cli.seeded_flow_families`` whose endpoint cz
    indices differ, so every family must cross.  Families with equal
    endpoint indices are left out: whether they hide a pair of crossings
    decides their cost (about 1 s or 4 s), which would make the run time
    depend on the seed more than on chlab.

    The flow's reference is the canonical family's closed form, or the
    seeded family's cz difference by crossing form, confirmed by the
    rotation index at both endpoints."""
    cases = [("canonical", cli.canonical_flow_family(), 1, "")]
    drawn = 0
    while len(cases) <= size["families"]:
        sub_seed = rng.getrandbits(63)
        ((fam, cz0, cz1),) = cli.seeded_flow_families(sub_seed, 1)
        drawn += 1
        if cz1 != cz0:
            cases.append((f"seeded-{sub_seed}", fam, cz1 - cz0, _unconfirmed(fam, cz0, cz1)))
    ops, inputs = [], []
    for name, fam, expected, doubt in cases:
        fam = czengine.AsymptoticFamily(fam.func, fam.n, fourier_order=FLOW_ORDER, name=name)
        inputs.append(f"{name} {expected} {_family_fingerprint(fam)}")
        for order in (FLOW_ORDER, 2 * FLOW_ORDER):
            ops.append((f"flow {name} K={order}", _flow_op(fam, order, expected, doubt)))
        ops.append((f"sign-lemma {name}", _sign_lemma_op(fam, must_cross=not doubt)))
    resonance = czengine.AsymptoticFamily(
        cli.resonance_family().func, 1, fourier_order=FLOW_ORDER, name="resonance")
    inputs.append(f"resonance {_family_fingerprint(resonance)}")
    ops.append(("sign-lemma resonance", _sign_lemma_op(resonance, must_cross=True)))
    properties = {"families": len(cases) + 1, "fourier_order": FLOW_ORDER,
                  "share_drawn_nonzero_flow": (len(cases) - 1) / drawn if drawn else 0.0,
                  "unconfirmed_references": sum(bool(c[3]) for c in cases)}
    return Workload("spectral", ops, inputs, properties)


def _unconfirmed(fam, cz0, cz1):
    """Why the crossing-form indices of the endpoint paths cannot serve as
    the flow's reference, or "" when the rotation index confirms both.
    ``cz_crossing_form`` is off by one on about one random path in 1,500
    (the defect ``cz_axiom_suite`` reports as an AxiomViolation)."""
    try:
        r0, r1 = (czengine.rotation_cz_sp2(czengine.solve_path(fam.path_at(s)))[1]
                  for s in (-1.0, 1.0))
    except ArithmeticError as err:
        return f"rotation index raised {type(err).__name__} at an endpoint"
    if (r0, r1) == (cz0, cz1):
        return ""
    return f"endpoint cz by crossing form {cz0}->{cz1}, by rotation index {r0}->{r1}"


def _flow_op(fam, order, expected, doubt):
    """Flow at truncation ``order`` against the cz difference; when chlab's
    index routes disagree on that difference the flow is computed but cannot
    be verified, and the op fails with ``UnverifiedReference``."""
    def op():
        flow = czengine.spectral_flow(fam, order=order)
        if doubt:
            raise UnverifiedReference(f"flow {flow} at K={order}; {doubt}")
        _expect(flow == expected, f"flow {flow} at K={order}, cz difference {expected}")
        return f"flow={flow}", {}
    return op


def _sign_lemma_op(fam, must_cross):
    """A family whose confirmed cz difference is nonzero must cross, so its
    report without crossings is wrong."""
    def op():
        report = czengine.verify_crossing_sign_lemma(fam)
        _expect(not report["failures"], f"sign lemma failures {report['failures'][:2]}")
        _expect(report["instances"] > 0 or not must_cross, "no crossing where one must be")
        return f"crossings={report['instances']}", {}
    return op


# ---------------------------------------------------------------------------
# paths: index routes on local models, then one randomized axiom suite


def _is_saddle(orbit):
    # local_model_for gives a saddle Hessian exactly when the eps-part is 0
    return orbit.rotation.b == 0


def build_paths(rng, size, pass_index):
    """A sample of the orbits below the level-3 threshold of the stratified
    groups, with a fixed number of saddle orbits (the slow tail), each
    checked three ways; then ``cz_axiom_suite`` on a drawn seed."""
    pool = [o for g in stratified_groups(rng, size["bands"])
            for o in orbits.enumerate_orbits(g, INDEX_LEVEL)]
    saddles = [o for o in pool if _is_saddle(o)]
    others = [o for o in pool if not _is_saddle(o)]
    chosen = rng.sample(saddles, size["saddles"]) + rng.sample(
        others, size["orbits"] - size["saddles"])
    rng.shuffle(chosen)
    ops = [(f"index {o.group.label}/{o.name}", _index_op(o)) for o in chosen]
    suite_seed = rng.getrandbits(32)
    ops.append((f"axiom-suite {suite_seed}", _suite_op(suite_seed, size["suite"])))
    inputs = [f"{o.group.label} {o.name} {o.cz}" for o in chosen] + [f"suite {suite_seed}"]
    properties = {"index_ops": len(chosen), "saddle_share": size["saddles"] / len(chosen),
                  "pool_saddle_share": len(saddles) / len(pool)}
    return Workload("paths", ops, inputs, properties)


def _index_op(orbit):
    def op():
        path = czengine.local_model_for(orbit)
        crossing = czengine.cz_crossing_form(path)
        _theta, rotation = czengine.rotation_cz_sp2(path)
        _expect(crossing == rotation == orbit.cz,
                f"crossing {crossing}, rotation {rotation}, closed form {orbit.cz}")
        return f"cz={crossing}", {"saddle_grid": path.samples} if _is_saddle(orbit) else {}
    return op


def _suite_op(suite_seed, instances):
    def op():
        report = czengine.cz_axiom_suite(suite_seed, instances=instances)
        _expect(not report["failures"] and report["instances"] > 0,
                f"axiom suite failures {report['failures'][:2]}")
        return f"checks={report['instances']}", {}
    return op


# ---------------------------------------------------------------------------
# morse: orbifold Morse complex and index correspondence per group


def build_morse(rng, size, pass_index):
    """``orbifold_complex`` and ``seifert_index_check`` on a C:n, a D:n with
    n in 2..32 and its mirror D:(66-n) (cost grows with n, so the pair costs
    about the same for every draw), and one of T, O, I in turn.  D:34 to
    D:64, and D:27 when drawn, are groups chlab fails on: they stay in the
    draw, about a quarter of the ops, and their failures are counted."""
    groups = size.get("groups")
    if not groups:
        n = rng.randrange(2, 33)
        groups = (f"C:{rng.randrange(2, 65)}", f"D:{n}", f"D:{66 - n}",
                  ("T", "O", "I")[pass_index % 3])
    ops = [(f"morse {g}", _morse_op(g)) for g in groups]
    return Workload("morse", ops, list(groups), {"groups": len(groups)})


def _morse_op(label):
    def op():
        complex_ = morse.orbifold_complex(label)
        _expect(tuple(complex_.ranks) == (1, 0, 1), f"ranks {complex_.ranks}, expected (1, 0, 1)")
        report = morse.seifert_index_check(label)
        _expect(not report["failures"], f"index correspondence failures {report['failures']}")
        return f"ranks={complex_.ranks} pairs={report['instances']}", {}
    return op


# ---------------------------------------------------------------------------
# tables: a stream of `chlab orbits` / `chlab homology` queries


def build_tables(rng, size, pass_index):
    """``per_group`` queries per stratified group, shuffled: half ``orbits``
    and half ``homology``, one level from each of the bands 1-2, 3-4, 5-6
    and 7-8, in a random output format.  The first query on a group is cold:
    it pays for group closure and class-table validation."""
    queries = []
    for g in stratified_groups(rng, size["bands"]):
        levels = [rng.randint(lo, lo + 1) for lo in (1, 3, 5, 7)][: size["per_group"]]
        commands = (["orbits", "homology"] * size["per_group"])[: size["per_group"]]
        rng.shuffle(levels)
        for command, n in zip(commands, levels):
            fmt = rng.choice(("markdown", "json", "csv"))
            queries.append([command, "-g", g, "-N", str(n), "-f", fmt])
    rng.shuffle(queries)
    seen = set()
    cold = 0
    for argv in queries:
        cold += argv[2] not in seen
        seen.add(argv[2])
    ops = [(" ".join(argv), _query_op(argv)) for argv in queries]
    inputs = [" ".join(argv) for argv in queries]
    return Workload("tables", ops, inputs,
                    {"queries": len(queries), "cold_share": cold / len(queries)})


def _class_count(label):
    if label in POLYHEDRAL_CLASSES:
        return POLYHEDRAL_CLASSES[label]
    kind, n = label.split(":")
    return int(n) if kind == "C" else int(n) + 3


def expected_orbit_count(label, levels):
    """Orbits below the level-N threshold: each base contributes iterates up
    to its closed-form largest multiplicity."""
    if label in POLYHEDRAL_VERTEX_ISOTROPY:
        iv = POLYHEDRAL_VERTEX_ISOTROPY[label]
        return (2 * levels * iv - 1) + (4 * levels - 1) + (6 * levels - 1)
    kind, n = label.split(":")
    n = int(n)
    if kind == "C":
        return 2 * (n * levels - 1)
    return 2 * (4 * levels - 1) + (2 * n * levels - 1)


def expected_ranks(label, levels):
    """Closed form: m - 1 at degrees 0 and 4N - 2, m at the even degrees
    between, where m is the conjugacy-class count."""
    m = _class_count(label)
    top = 4 * levels - 2
    ranks = {d: m for d in range(2, top, 2)}
    ranks[0] = ranks[top] = m - 1
    return ranks


def _table_rows(text, fmt):
    if fmt == "json":
        return None
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))[1:]
    lines = [ln for ln in text.splitlines() if ln.startswith("|")][2:]
    return [[c.strip() for c in ln.strip("|").split("|")] for ln in lines]


def _query_op(argv):
    command, label, levels, fmt = argv[0], argv[2], int(argv[4]), argv[6]

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
        text = buf.getvalue()
        _expect(status == 0, f"exit code {status}")
        rows = _table_rows(text, fmt)
        if command == "orbits":
            count = len(json.loads(text)["rows"]) if rows is None else len(rows)
            want = expected_orbit_count(label, levels)
            _expect(count == want, f"{count} orbit rows, closed form {want}")
        else:
            if rows is None:
                ranks = {int(d): r for d, r in json.loads(text)["ranks"].items()}
            else:
                ranks = {int(r[0]): int(r[1]) for r in rows}
            want = expected_ranks(label, levels)
            _expect(ranks == want, f"ranks {ranks}, closed form {want}")
        return hashlib.sha256(text.encode()).hexdigest()[:16], {}
    return op


BUILDERS = {"spectral": build_spectral, "paths": build_paths,
            "morse": build_morse, "tables": build_tables}


def build(name, seed, pass_index, tiny=False):
    """One pass of workload ``name``: its parts' ops in turn."""
    parts = [BUILDERS[part](_rng(part, seed, pass_index),
                            SIZES[part]["tiny" if tiny else "full"], pass_index)
             for part in WORKLOADS[name]]
    return Workload(name, [op for w in parts for op in w.ops],
                    [f"{w.name}: {line}" for w in parts for line in w.inputs],
                    {f"{w.name}.{k}": v for w in parts for k, v in w.properties.items()},
                    [(w.name, len(w.ops)) for w in parts])
