"""One pass of one workload in a fresh interpreter; run by ``run.py``.

Imports chlab from ``src/`` next to this directory, generates the pass's
inputs from the seed and the pass index, runs every op once in order (one
client, one op at a time) and prints one JSON object with the pass's
timings, failures, op outputs, input properties and, when traced, the
per-layer metrics.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def now():
    # system-wide monotonic clock, comparable with the parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def _commit():
    """The checked-out commit when ROOT is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def environment_record():
    """What two runs must share to have run the same code on the same setup."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "chlab", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(), "CHLAB_THREADS": os.environ.get("CHLAB_THREADS"),
        "commit": _commit(), "source_digest": sources.hexdigest()[:16],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import chlab.cli  # noqa: F401  (loads every chlab module before tracing)
    import workloads

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, args.pass_index, tiny=args.tiny)
    result = {"input_digest": workload.digest(), "properties": dict(workload.properties),
              "parts": workload.parts}

    t_first = now()
    result["t_first_op"] = t_first

    latencies, failures, notes, outputs = [], [], [], []
    rung_ops = []
    for op_id, (label, op) in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = op_id
            before = (tracer.counters.get("morse.rungs_tried", 0),
                      tracer.calls.get("morse.build_invariant_morse", 0))
        start = time.perf_counter()
        try:
            text, seen = op()
        except Exception as err:  # a failed op is counted, never fatal to the pass
            text, seen = f"error {type(err).__name__}", {}
            failures.append({"op": label, "index": op_id, "error": type(err).__name__,
                             "wrong": isinstance(err, workloads.WrongAnswer),
                             "message": str(err)[:200]})
        latencies.append(time.perf_counter() - start)
        outputs.append(f"{label} -> {text}")
        notes.append(seen)
        if tracer is not None:
            rungs = tracer.counters.get("morse.rungs_tried", 0) - before[0]
            builds = tracer.calls.get("morse.build_invariant_morse", 0) - before[1]
            if builds:
                rung_ops.append(rungs > builds)
    wall = now() - t_first

    result.update({
        "wall_s": wall,
        "latencies": latencies,
        "failures": failures,
        "op_outputs": outputs,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": environment_record(),
    })
    props = result["properties"]
    grids = sorted(n["saddle_grid"] for n in notes if "saddle_grid" in n)
    if grids:
        props.update({"paths.saddle_grid_min": grids[0], "paths.saddle_grid_max": grids[-1],
                      "paths.saddle_grid_median": grids[len(grids) // 2]})
    if rung_ops:
        props["morse.share_groups_multi_rung"] = sum(rung_ops) / len(rung_ops)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["unspanned_frac"] = max(0.0, 1.0 - tracer.covered_s / wall)
        result["absent"] = tracer.absent
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
