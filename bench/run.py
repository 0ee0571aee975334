"""Benchmark of the multifix CLI: verdict times end to end, or per layer.

Run from the repository root:

    python3 bench/run.py --workload chain-verify --seed 1 --seconds 30 --trace 0

It writes the workload's seeded problem files under ``.bench_work/``, then
either (``--trace 0``) runs the workload's CLI commands as subprocesses in
interleaved rounds for ``--seconds`` seconds, or (``--trace 1``) alternates
untraced and traced in-process rounds of the same commands.  Every verdict is
checked against the workload's oracle.  Every metric is printed by name with
its unit and sample count, then a JSON record with the provenance, and last
one JSON line with the metrics that BENCHMARK.json names for the mode.

End-to-end times come in two forms.  ``X_wall_s`` is the wall time of X.
``X_s`` is that wall time scaled to a reference host speed: it is multiplied
by (``CAL_REF_S`` / c) ** ``HOST_SENSITIVITY``, where c is the mean time of a
fixed calibration loop run just before and just after the subprocess.  A
shared host drifts between slow and fast phases lasting tens of seconds,
which move wall times by up to 40% between runs; the calibration loop slows
down with the program, so the scaled times stay steady.  The factor depends
only on the host, so a change to the program still shows in full.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 60
# calibrate() time on an Intel Xeon (2.1 GHz, 2 vCPUs) in a fast phase of the
# host; scaled times are wall times at that speed.
CAL_REF_S = 0.007
# How strongly command times follow the calibration loop between slow and
# fast host phases, as an exponent.  Fitted on the host above over 20 runs
# per workload: about 1 for chain-verify, 0.7 for orbit-iterate and 0.5 for
# the numpy-bound dense-classify; 0.7 kept every workload's spread lowest.
HOST_SENSITIVITY = 0.7
# What every command pays before its verdict work: start the interpreter,
# import the CLI and load each problem file.
SETUP_CODE = (
    "import sys, multifix.cli\n"
    "from multifix.problemfile import load_problem\n"
    "for path in sys.argv[1:]:\n"
    "    load_problem(path)\n"
)
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
COUNT_SUFFIXES = (".calls", ".iterations", ".rounds")


def summarize(values, unit: str) -> dict:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it (nearest rank), when there are enough."""
    xs = sorted(values)
    out = {"value": statistics.median(xs), "unit": unit, "n": len(xs)}
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            out[f"p{p:g}"] = xs[rank - 1]
            break
    return out


# -- end to end ---------------------------------------------------------------


def run_subprocess(argv: list, work: Path, env: dict) -> tuple:
    """Run the interpreter with ``argv``; return (wall s, exit code, stdout,
    max RSS in KiB) with the child's usage from ``os.wait4``."""
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode()
        if proc.returncode != 0:
            sys.stderr.write(err.read().decode()[-2000:])
    return elapsed, proc.returncode, stdout, usage.ru_maxrss


def calibrate() -> float:
    """Median time of five runs of a fixed pure-Python loop.  The loop shares
    no code with the program, so its time tracks only how fast the host runs
    Python at the moment."""
    times = []
    for _ in range(5):
        begin = perf_counter()
        seen, acc = set(), {}
        for i in range(20_000):
            key = (i % 89, i % 97)
            if key in seen:
                acc[key] = acc.get(key, 0) + max(key)
            seen.add(key)
        times.append(perf_counter() - begin)
    return statistics.median(times)


def measure_end_to_end(wl, files: list, work: Path, seconds: float) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setup = ["-c", SETUP_CODE, *files]
    samples = defaultdict(list)
    last_cal = [calibrate()]

    def timed(argv: list, metrics: list, into: dict) -> tuple:
        """Run one subprocess and add its wall time, scaled by the host speed
        from the calibrations either side, to each metric in ``into``."""
        elapsed, rc, out, kib = run_subprocess(argv, work, env)
        before, last_cal[0] = last_cal[0], calibrate()
        scaled = elapsed * (CAL_REF_S / ((before + last_cal[0]) / 2)) ** HOST_SENSITIVITY
        for metric in metrics:
            into[metric] += scaled
            into[metric[: -len("_s")] + "_wall_s"] += elapsed
        return rc, out, kib

    def run_setup() -> None:
        one = defaultdict(float)
        rc, _, _ = timed(setup, ["setup_s"], one)
        if rc != 0:
            raise RuntimeError(f"set-up subprocess exited with {rc}")
        for metric, value in one.items():
            samples[metric].append(value)

    run_subprocess(setup, work, env)  # warm-up: compiles bytecode, fills the page cache
    peak_kib = 0
    attempted = failed = 0
    start = perf_counter()
    for rnd in itertools.count():
        run_setup()
        # Rotate the command order so that no command always runs first.
        k = rnd % len(wl.commands)
        batch = defaultdict(float)
        results = []
        for cmd in wl.commands[k:] + wl.commands[:k]:
            rc, out, kib = timed(["-m", "multifix.cli", *cmd.args], [cmd.metric, "batch_s"], batch)
            peak_kib = max(peak_kib, kib)
            results.append((cmd, out, rc))
        for metric, value in batch.items():
            samples[metric].append(value)
        run_setup()
        for cmd, out, rc in results:
            attempted += 1
            failed += report_mismatch(cmd, out, rc)
        if perf_counter() - start >= seconds:
            break

    metrics = {name: summarize(values, "s") for name, values in sorted(samples.items())}
    metrics["peak_rss_mb"] = {
        "value": peak_kib / 1024, "unit": "MB", "n": attempted, "stat": "max"
    }
    return metrics, attempted, failed, True


def report_mismatch(cmd, out: str, rc: int) -> int:
    problem = cmd.check(out, rc)
    if problem:
        print(f"MISMATCH {cmd.args[0]} ({cmd.metric}): {problem}", file=sys.stderr)
    return int(problem is not None)


# -- traced -------------------------------------------------------------------


def run_batch_in_process(wl, main, tracer=None) -> tuple:
    """Run every command through ``main(argv)`` with output captured;
    return (wall s, [(command, stdout, exit code)])."""
    results = []
    start = perf_counter()
    for cmd in wl.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = tracer.run_main(main, cmd.args) if tracer else main(cmd.args)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        results.append((cmd, buf.getvalue(), rc))
    return perf_counter() - start, results


def measure_traced(wl, seconds: float) -> tuple:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from multifix.cli import main

    plain, traced, layers = [], [], []
    attempted = failed = 0
    start = perf_counter()
    for rnd in itertools.count():
        elapsed, results = run_batch_in_process(wl, main)
        plain.append(elapsed)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            elapsed, traced_results = run_batch_in_process(wl, main, tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        layers.append(tracer.metrics())
        for cmd, out, rc in results + traced_results:
            attempted += 1
            failed += report_mismatch(cmd, out, rc)
        if rnd >= 1 and perf_counter() - start >= seconds:
            break

    repeatable = True
    for name in layers[0]:
        if name.endswith(COUNT_SUFFIXES) and len({m[name] for m in layers}) > 1:
            print(f"COUNT DIFFERS between traced rounds: {name}", file=sys.stderr)
            repeatable = False
    metrics = {
        name: summarize([m[name] for m in layers], layer_unit(name)) for name in layers[0]
    }
    metrics["trace.overhead_s"] = summarize(
        [statistics.median(traced) - statistics.median(plain)], "s"
    )
    return metrics, attempted, failed, repeatable


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith(("_ratio", "_per_point")):
        return "1"
    return "s"


# -- provenance ---------------------------------------------------------------


def provenance(args) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def git_sha():
    """HEAD of the repository rooted here, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args)


def run(args, small: bool = False) -> int:
    """One benchmark run; ``small`` shrinks every input for the self-check."""
    if not (SRC / "multifix" / "cli.py").is_file():
        print(f"no multifix sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = declared["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, small)
        files = wl.write(work)
        if args.trace:
            metrics, attempted, failed, repeatable = measure_traced(wl, args.seconds)
        else:
            metrics, attempted, failed, repeatable = measure_end_to_end(
                wl, files, work, args.seconds
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics["fail_ratio"] = {
        "value": failed / attempted, "unit": "1", "n": attempted, "stat": "ratio"
    }
    for m in reported:
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {metrics[m['name']]['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        extra = "".join(f", {k}={v:.6g}" for k, v in m.items() if k.startswith("p"))
        stat = m.get("stat", "median")
        print(f"{name:44s} {m['value']:14.6g} {m['unit']:6s} ({stat} of n={m['n']}{extra})")
    print(json.dumps({"provenance": provenance(args), "metrics": metrics}))

    correct = failed == 0 and repeatable
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in reported
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
