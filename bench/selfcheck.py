"""Fast self-check of the benchmark: tiny inputs, one pass per workload and
mode.  Run from the repository root:

    python3 bench/selfcheck.py

It asserts that every metric is printed with its unit, that the generators
are byte-identical for a given seed, and that fail_ratio is 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import sys

import run
import workloads

SEED = 7


def generated_bytes(name: str, tag: str) -> dict:
    work = run.WORK / f"selfcheck-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paths = workloads.WORKLOADS[name](SEED, work, small=True).write(work)
        return {os.path.basename(p): open(p, "rb").read() for p in paths}
    finally:
        shutil.rmtree(work)


def check_run(name: str, trace: int, declared: dict) -> None:
    buf = io.StringIO()
    args = argparse.Namespace(workload=name, seed=SEED, seconds=0, trace=trace)
    with contextlib.redirect_stdout(buf):
        rc = run.run(args, small=True)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0, (name, trace, result)

    reported = declared["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in reported}
    if not trace:
        wl = workloads.WORKLOADS[name](SEED, run.WORK, small=True)
        for metric in [cmd.metric for cmd in wl.commands] + ["setup_s", "batch_s"]:
            expected[metric] = expected[metric[: -len("_s")] + "_wall_s"] = "s"
    expected["fail_ratio"] = "1"
    for metric, unit in expected.items():
        pattern = rf"^{re.escape(metric)}\s+\S+\s+{re.escape(unit)}\s+\(\w+ of n=\d+"
        assert any(re.match(pattern, ln) for ln in lines), f"{name}: {metric} [{unit}] not printed"
    fail_line = next(ln for ln in lines if ln.startswith("fail_ratio "))
    assert float(fail_line.split()[1]) == 0, fail_line
    assert set(result["metrics"]) == {m["name"] for m in reported}, (name, trace)
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in reported)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    for name in names:
        assert generated_bytes(name, "a") == generated_bytes(name, "b"), name
        for trace in (0, 1):
            check_run(name, trace, declared)
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
