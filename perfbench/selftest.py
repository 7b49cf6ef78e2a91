#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that:
  * the emitted metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists;
  * the outputs match the reference (op_ok_frac = 1) and the traced
    self-time tree adds up with no dropped events;
  * one deliberately corrupted reference entry drives op_ok_frac below 1;
  * the benchmark refuses to run with a FEFET_* override in the environment.
"""
import copy
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

TINY_SECONDS = 1
SEED = 5


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_names(result, spec, what):
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    want = [(m["name"], m["unit"]) for m in spec]
    expect(got == want, f"{what}: metrics {got} differ from BENCHMARK.json "
                        f"{want}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)),
               f"{what}: {name} is not a number")


def corrupt(reference, workload, schedule):
    """Copy of the reference with the first checkable output of the run's
    first op pushed far outside its tolerance."""
    bad = copy.deepcopy(reference)
    if run.WORKLOADS[workload]["kind"] == "array":
        entry = bad["schedules"][str(schedule["id"])]
        for op in entry["ops"]:
            if op[2] is not None:  # polarization of a write or read
                op[2] += 0.1 * entry["window"]
                return bad
        entry["final_p"][0] += 0.1 * entry["window"]
        return bad
    point = bad["pool"][schedule["indices"][0]]
    if point[0]:
        point[2][2] += 0.1 * point[1]  # polarization after the first write
    else:
        point[0] = 1  # the reference now claims the draw could be built
    return bad


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(bench["run_seconds"] == run.NOMINAL_SECONDS,
           "BENCHMARK.json run_seconds differs from run.NOMINAL_SECONDS")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")

    env = dict(os.environ, FEFET_THREADS="1")
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                           "--workload", "array8", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          env=env, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py ran with FEFET_THREADS set")

    run.check_env()
    driver = run.build_driver()
    for workload in run.WORKLOADS:
        reference = run.load_reference(workload)
        for trace in (0, 1):
            raw, schedule = run.run_driver(driver, workload, SEED,
                                           TINY_SECONDS, trace, builds=2,
                                           passes=2)
            result = run.evaluate(raw, schedule, workload, trace, reference)
            what = f"{workload} trace={trace}"
            check_names(result, bench["per_layer" if trace else "end_to_end"],
                        what)
            expect(result["correct"] and result["failed"] == 0,
                   f"{what}: not correct: {json.dumps(result)[:400]}")
            if trace:
                dropped = result["metrics"]["trace.dropped_events"]["value"]
                expect(dropped == 0, f"{what}: {dropped} trace events dropped")
                continue
            frac = result["metrics"]["op_ok_frac"]["value"]
            expect(frac == 1.0, f"{what}: op_ok_frac {frac}")
            broken = run.evaluate(raw, schedule, workload, 0,
                                  corrupt(reference, workload, schedule))
            frac = broken["metrics"]["op_ok_frac"]["value"]
            expect(frac < 1.0 and not broken["correct"],
                   f"{what}: corrupted reference still passes")
        print(f"selftest: {workload} ok ({result['attempted']} ops)")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, run.BenchError) as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
