"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` untraced and traced and checks that the
result line has exactly the contract's keys, that every metric named in
BENCHMARK.json is emitted with its unit, that traced layer spans cover at
least 90 % of the timed wall time, that failures are counted (the tiny
``groups`` draw holds D:27, which chlab fails with an AssertionError), that
a seeded flow family whose endpoint index chlab's crossing form gets wrong
is caught before its flow is judged against it, and that a directory
holding only the benchmark makes it exit non-zero without a result.
Exits 1 on the first broken expectation.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("index", "groups")
# cz_crossing_form gives 1 for this family's path at s = +1, the rotation
# index and the determinant parity give 0
UNCONFIRMED_FAMILY_SEED = 564398306419989803


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=180, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def expect(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_result(lines, spec_metrics, label):
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec_metrics}
    expect(units == want, f"{label}: metrics {sorted(set(units) ^ set(want))} differ in name or unit")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"]
        code, lines = run(base + ["--trace", "0"])
        expect(code == 0, f"{workload}: untraced run exited {code}")
        plain = check_result(lines, spec["end_to_end"], f"{workload} untraced")
        code, lines = run(base + ["--trace", "1"])
        expect(code == 0, f"{workload}: traced run exited {code}")
        traced = check_result(lines, spec["per_layer"], f"{workload} traced")
        unspanned = traced["metrics"]["trace.unspanned_frac"]["value"]
        expect(unspanned <= 0.10, f"{workload}: spans cover only {1 - unspanned:.1%} of wall_s")
        expect(plain["correct"] and traced["correct"], f"{workload}: incorrect result")
        if workload == "groups":
            record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
            expect(record["failures"] == ["morse D:27: AssertionError"],
                   f"groups: failures {record['failures']}, expected D:27 alone")
            expect(traced["failed"] == record["passes"], "groups: D:27 not failed in every pass")
        else:
            expect(plain["failed"] == 0, f"{workload}: {plain['failed']} ops failed")
        print(f"ok  {workload}: {plain['attempted']} ops untraced, "
              f"spans cover {1 - unspanned:.1%} of wall_s traced")

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from chlab import cli
    import workloads
    ((fam, cz0, cz1),) = cli.seeded_flow_families(UNCONFIRMED_FAMILY_SEED, 1)
    doubt = workloads._unconfirmed(fam, cz0, cz1)
    expect(doubt.endswith("by rotation index 0->0"), f"unconfirmed reference not caught: {doubt!r}")
    print(f"ok  seeded family {UNCONFIRMED_FAMILY_SEED}: {doubt}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    code, lines = run(["--workload", "groups", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    expect(code != 0 and not any(ln.startswith("{") for ln in lines),
           "a directory without chlab's sources must fail without a result")
    print("ok  bare directory: exit", code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
