#!/usr/bin/env python3
"""Capture perfbench/reference/<workload>.json from the current sources.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Runs every schedule of the array workloads in full (one pass each) and every
point of the cell_sweep pool, and stores each op's simulated outputs: read
bit, read current, polarization of the accessed cell, write energy, largest
disturbance, and for the arrays the final polarization map.  run.py compares
later runs against these within the DESIGN.md section 6.7 tolerances.  The
reference is the simulator's own output, not a hardware measurement; rerun
this only when a change is meant to alter simulated results.
"""
import json
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

NOTE = ("Simulated outputs of this repository's own FEFET model, captured by "
        "perfbench/capture_reference.py. The model is not validated against "
        "hardware: the repository holds no measurements.")


def rounded(value):
    """Eight significant digits: far below every tolerance."""
    if isinstance(value, float):
        return float(f"{value:.8g}")
    if isinstance(value, list):
        return [rounded(v) for v in value]
    return value


def require_ok(ops, what):
    bad = [op for op in ops if op["ok"] != 1]
    if bad:
        raise run.BenchError(f"{what}: {len(bad)} ops failed, e.g. {bad[0]}")


def capture_array(driver, workload):
    spec = run.WORKLOADS[workload]
    schedules = {}
    for sid in range(run.SCHEDULES):
        raw, _ = run.run_driver(driver, workload, sid, run.NOMINAL_SECONDS,
                                trace=0, builds=1, passes=1)
        ops = raw["passes"][0]["ops"]
        require_ok(ops, f"{workload} schedule {sid}")
        assert len(ops) == spec["ops"]
        schedules[str(sid)] = {
            "window": rounded(raw["window"]),
            "ops": [rounded(run.compact_op(op)) for op in ops],
            "final_p": rounded(raw["passes"][0]["final_p"]),
        }
        print(f"{workload}: schedule {sid} captured", file=sys.stderr)
    return {"schedules": schedules}


def capture_sweep(driver):
    pool = run.WORKLOADS["cell_sweep"]["pool_size"]
    lines = [f"P {run.pool_seed(i)}" for i in range(pool)]
    raw = run.invoke_driver(driver, "cell_sweep", lines, "capture", trace=0,
                            builds=1, passes=1)
    points = raw["passes"][0]["points"]
    for point in points:
        require_ok(point.get("ops", []), "cell_sweep pool")
    return {"pool": [rounded(run.compact_point(p)) for p in points]}


def main(argv):
    names = argv or sorted(run.WORKLOADS)
    run.check_env()
    driver = run.build_driver()
    for workload in names:
        body = capture_sweep(driver) if workload == "cell_sweep" \
            else capture_array(driver, workload)
        doc = {"workload": workload, "note": NOTE, **body}
        path = run.REFERENCE_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        text = json.dumps(doc, separators=(",", ":"))
        # One schedule or pool point per line keeps diffs readable.
        text = text.replace('},"', '},\n"').replace('],[', '],\n[')
        path.write_text(text + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
