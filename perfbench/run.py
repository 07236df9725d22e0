"""chlab benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``index`` (spectral flow, the crossing sign
lemma, three index routes on local models and one axiom suite; czengine
only) and ``groups`` (orbifold Morse complexes and a stream of ``chlab
orbits``/``chlab homology`` queries; no czengine).  Closed loop: one client,
one op at a time, main thread only, BLAS at its default thread count.

A run is a fixed number of passes, as many as fit in ``--seconds`` at the
workload's nominal pass time.  Every pass runs in a fresh interpreter
(worker.py), because chlab's process-lifetime caches and its import are paid
again by every real invocation, and pass p draws its own inputs from the
seed and p.  The end-to-end metrics are medians over the passes, which
damps both the draw of inputs and the machine's changes of speed.  With
``--trace 1`` every pass runs twice, untraced and then traced, on the same
inputs; the traced twin gives the per-layer metrics and must reproduce every
output of the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An op that raises is failed; an
op that returns a wrong answer is failed and makes the run incorrect.  Exits
2 without a result when chlab's sources are missing and 1 when a pass
crashes or runs out of time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS_DIR = os.path.join(HERE, "out")
NOMINAL_PASS_S = {"index": 17.0, "groups": 8.0}
HARD_LIMIT_S = 170.0   # a run must end well inside 180 s
P90_MIN_OPS = 100      # an op_p90_ms needs at least ten ops beyond it

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class PassFailed(RuntimeError):
    pass


def run_worker(args, deadline, pass_index, traced=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(pass_index)]
    cmd += ["--traced"] * traced + ["--tiny"] * args.tiny
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, f"{args.workload}-seed{args.seed}-pass{pass_index}.spans.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned), check=False, text=True)
    except subprocess.TimeoutExpired as err:
        raise PassFailed(f"pass ran past the {HARD_LIMIT_S:.0f} s limit") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_first_op"] - spawned
    result["traced"] = traced
    return result


def run_passes(args):
    """Untraced passes, each paired with a traced twin when tracing (which
    of the two runs first alternates); a traced run makes half as many pairs
    so that it takes about as long.  Returns untraced, traced, untraced..."""
    count = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        count = max(1, count // 2)
    deadline = now() + HARD_LIMIT_S
    passes = []
    for index in range(count):
        modes = (False, True) if args.trace else (False,)
        done = {traced: run_worker(args, deadline, index, traced)
                for traced in (modes[::-1] if index % 2 else modes)}
        passes += [done[traced] for traced in modes]
    return passes


def check_consistency(passes):
    """Wrong answers, and traced twins whose inputs or outputs differ from
    their untraced pass."""
    problems = [f"wrong answer: {f['op']}: {f['message']}"
                for p in passes for f in p["failures"] if f["wrong"]]
    for plain, traced in zip(passes[0::2], passes[1::2]) if passes[-1]["traced"] else ():
        if plain["input_digest"] != traced["input_digest"]:
            problems.append("a traced pass generated other inputs than its twin")
        for mine, ref in zip(traced["op_outputs"], plain["op_outputs"]):
            if mine != ref:
                problems.append(f"traced output differs: {mine!r} vs {ref!r}")
    return problems


def end_to_end(untraced):
    """The gated metrics: median set-up and pass times over the untraced
    passes, and the largest resident set any of them reached."""
    return {
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": max(p["rss_mb"] for p in untraced),
    }


def part_figures(untraced):
    """Throughput, then time, latency quantiles and failure share of each
    part of the workload (spectral, paths, morse, tables).  Printed, not
    gated: ops_per_s only restates wall_s, a part's figures shift with the
    inputs drawn more than the whole pass does, and failed_frac is 0 on most
    parts."""
    rows = [("ops_per_s",
             statistics.median(len(p["latencies"]) / p["wall_s"] for p in untraced), "1/s",
             f"median of {len(untraced)} passes")]
    start = 0
    for name, count in untraced[0]["parts"]:
        ops = range(start, start + count)
        start += count
        per_pass = [p["latencies"][ops.start:ops.stop] for p in untraced]
        pooled = [x for lat in per_pass for x in lat]
        failed = sum(f["index"] in ops for p in untraced for f in p["failures"])
        rows.append((f"{name}.wall_s", statistics.median(sum(lat) for lat in per_pass), "s",
                     f"median of {len(per_pass)} passes"))
        rows.append((f"{name}.op_p50_ms", 1e3 * statistics.median(pooled), "ms",
                     f"{len(pooled)} ops"))
        if len(pooled) >= P90_MIN_OPS:
            rows.append((f"{name}.op_p90_ms", 1e3 * statistics.quantiles(pooled, n=10)[-1],
                         "ms", f"{len(pooled)} ops"))
        rows.append((f"{name}.failed_frac", failed / len(pooled), "ratio",
                     f"{failed} of {len(pooled)} ops"))
    return rows


def per_layer(untraced, traced):
    """Medians over the traced passes; the overhead compares each traced
    pass with its untraced twin."""
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    metrics["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)) - 1.0
    metrics["trace.unspanned_frac"] = statistics.median(p["unspanned_frac"] for p in traced)
    return metrics


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls") or name in {c for _m, _p, c, _n in tracing.COUNTED}:
        return "count"
    return "ratio"


def run_record(args, passes):
    """What the run ran on, and the input properties as means over passes."""
    record = dict(passes[0]["record"])
    values = {}
    for p in passes:
        for key, value in p["properties"].items():
            values.setdefault(key, []).append(value)
    properties = {key: statistics.fmean(v) for key, v in values.items()}
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "input_digests": [p["input_digest"] for p in passes if not p["traced"]],
        "input_properties": properties,
        "absent_names": next((p["absent"] for p in passes if p["traced"]), []),
        "failures": sorted({f"{f['op']}: {f['error']}" for p in passes for f in p["failures"]}),
    })
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chlab", "__init__.py")):
        print(f"error: chlab sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args)
    except PassFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = check_consistency(passes)
    e2e = end_to_end(untraced)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]}")
    for name, value, unit, note in part_figures(untraced):
        print(f"  {name:<20} {value:12.6g} {unit:<5} ({note})")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(untraced, traced).items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:12.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print("record " + json.dumps(run_record(args, passes), sort_keys=True))
    print(json.dumps({"correct": not problems,
                      "attempted": sum(len(p["latencies"]) for p in passes),
                      "failed": sum(len(p["failures"]) for p in passes), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
