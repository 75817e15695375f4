#!/usr/bin/env python3
"""Fast self-test of the benchmark: schema, names and units, never timings.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the metric and workload tables in run.py, runs
every workload once per trace mode at a tiny smoke scale (a few seconds each)
and checks the result line, then checks that run.py fails without printing a
result in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import run  # pins BLAS threads before NumPy loads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_spec(spec: dict) -> None:
    require(set(spec) == SPEC_KEYS, f"BENCHMARK.json keys {sorted(spec)}")
    require(spec["command"] == ["python3", "perfbench/run.py"], "command")
    require(spec["paths"] == ["perfbench"], "paths")
    require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
            "run_seconds")
    names = [w["name"] for w in spec["workloads"]]
    require(names and set(names) <= set(run.WORKLOADS), f"workloads {names} not in run.py")
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
                and "\n" not in w["why"], f"workload entry {w}")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        require(listed == table, f"{key} names/units differ from run.py")
        require(len(listed) == len(spec[key]), f"{key} repeats a name")
        for m in spec[key]:
            require(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
                    and m["better"] in ("lower", "higher"), f"{key} entry {m}")
            if key == "end_to_end":
                require(set(m) == {"name", "unit", "better", "bound"}
                        and 0 < m["bound"] <= 0.25, f"end_to_end entry {m}")
            else:
                require(set(m) == {"name", "unit", "better"}, f"per_layer entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
            and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
            "setup_s must be in seconds, lower-better, with the largest bound")


def check_result(result: dict, expected: dict, where: str) -> None:
    require(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{where}: failed ops")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"{where}: attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == expected, f"{where}: metric names/units differ from the table")
    for name, m in result["metrics"].items():
        require(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
                and math.isfinite(m["value"]), f"{where}: {name} = {m}")
    json.loads(json.dumps(result))


def check_runs() -> None:
    for name, w in run.WORKLOADS.items():
        result, report = run.run_workload(w, 0, 0.0, False, run.SMOKE)
        check_result(result, run.END_TO_END, f"{name} trace 0")
        require(set(run.REPORT_ONLY) <= set(report["metrics"]), f"{name}: report-only metrics")
        result, report = run.run_workload(w, 0, 0.0, True, run.SMOKE)
        check_result(result, run.PER_LAYER, f"{name} trace 1")
        counts, timings = report["counts"], report["timings"]
        require(not set(counts) & set(timings), f"{name}: counts and timings overlap")
        require(set(run.PER_LAYER_EXTRA) <= set(timings), f"{name}: extra timings missing")
        require(counts["policy.critic_forwards_per_state"] == 2.0,
                f"{name}: critic forwards per E1 state")
        interp = counts["imputer.interpolate_batch.calls"]
        require(interp == 0 if w.dataset == "mnist12" else interp > 0,
                f"{name}: interpolate_batch calls {interp}")
        for key in ("python", "numpy", "blas", "blas_threads", "nproc"):
            require(key in report["environment"], f"{name}: environment lacks {key}")
        print(f"selftest: {name} ok", flush=True)


def check_fails_without_source() -> None:
    bare = os.path.join(run.STATE_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sin90",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        require(proc.returncode != 0, "run.py succeeded without src/")
        require('"correct"' not in proc.stdout, "run.py printed a result without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: fails without src/ ok")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        check_spec(json.load(f))
    print("selftest: BENCHMARK.json ok")
    check_fails_without_source()
    check_runs()
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
