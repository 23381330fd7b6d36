#!/usr/bin/env python3
"""Self-test of the repository benchmark, on tiny inputs (rca8, control24).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that every metric it names is
emitted with its unit (end-to-end ones untraced, per-layer ones traced), that
the result line has exactly the expected keys, that a seed reproduces its
inputs, and that tracing does not change the written outputs. Exits non-zero
on the first failed check.
"""

import filecmp
import glob
import json
import os
import re
import shutil
import sys
import tempfile

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition, message):
    if not condition:
        raise SystemExit("selftest FAILED: " + message)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json top-level keys")
    names = [w["name"] for w in spec["workloads"]]
    check(names == run.WORKLOADS, "workloads %s != %s" % (names, run.WORKLOADS))
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              "workload entry %s" % w["name"])
    seen = set()
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        check(NAME.match(m["name"]) is not None, "bad name %r" % m["name"])
        check(m["name"] not in seen, "name used twice: %s" % m["name"])
        seen.add(m["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              "end_to_end entry %s" % m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per_layer entry %s" % m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None and m["better"] in ("lower", "higher"),
              "unit/better of %s" % m["name"])
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "setup_s metric")


def run_quick(workload, seed, trace, work_dir):
    code, out = run.invoke(workload, seed, 1, trace, work_dir=work_dir, quick=True)
    check(code == 0, "%s trace=%d exited %d:\n%s" % (workload, trace, code, out))
    result = run.result_of(out)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result keys of %s" % workload)
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          "%s trace=%d not correct: %s" % (workload, trace, result))
    return result


def check_emitted(result, wanted, label):
    for m in wanted:
        got = result["metrics"].get(m["name"])
        check(got is not None, "%s: metric %s not emitted" % (label, m["name"]))
        check(got["unit"] == m["unit"], "%s: unit of %s is %s" % (label, m["name"], got["unit"]))
        check(isinstance(got["value"], (int, float)), "%s: value of %s" % (label, m["name"]))
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    check(not extra, "%s: metrics not in BENCHMARK.json: %s" % (label, sorted(extra)))


def same_files(dir_a, dir_b, outputs):
    """Whether the two work dirs hold the same output (or input) BLIFs."""
    files = sorted(os.path.basename(p) for p in glob.glob(os.path.join(dir_a, "*.blif"))
                   if p.endswith(".out.blif") == outputs)
    check(files, "no BLIF files in %s" % dir_a)
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, files, shallow=False)
    return not mismatch and not errors


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    run.build()
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.dirname(run.WORK_DIR))
    for workload in run.WORKLOADS:
        plain, traced, other = (os.path.join(scratch, workload, k)
                                for k in ("plain", "traced", "other-seed"))
        check_emitted(run_quick(workload, 3, 0, plain), spec["end_to_end"], workload)
        check_emitted(run_quick(workload, 3, 1, traced), spec["per_layer"], workload + " traced")
        check(same_files(plain, traced, outputs=True),
              "%s: tracing changed the written outputs" % workload)
        check(same_files(plain, traced, outputs=False), "%s: seed 3 inputs differ" % workload)
        check(os.path.isfile(os.path.join(traced, "trace.json")), "%s: no trace file" % workload)
        if workload != "adders_j1":  # adders do not depend on the seed
            run_quick(workload, 4, 0, other)
            check(not same_files(plain, other, outputs=False),
                  "%s: seeds 3 and 4 gave the same inputs" % workload)
        print("selftest ok: %s" % workload)
    shutil.rmtree(scratch)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
