#!/usr/bin/env python3
"""End-to-end benchmark of the ncyclepp command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of a workload runs as a fresh ``python -m ncyclepp.cli``
process, as a user runs it, with ``PYTHONPATH=src`` and a clean environment.
Each command's exit code and stdout SHA-256 are compared with the goldens
recorded from the seed commit (``golden.json``); a crash, timeout or
mismatch counts as failed.

With ``--trace 0`` the benchmark runs whole passes (every command of the
workload once) for about ``--seconds`` and prints the end-to-end metrics as
medians over the passes.  With ``--trace 1`` it runs one plain
pass and one pass through ``shim.py``, which wraps each layer's public
functions in timing spans, and prints the per-layer metrics of the traced
pass.  The last stdout line is the JSON result; the line before it is an
environment block.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
SHIM = BENCH / "shim.py"

# The fuzz seed is the benchmark seed modulo FUZZ_SEEDS; goldens exist for
# fuzz seeds 0 .. FUZZ_SEEDS-1.
FUZZ_SEEDS = 16
FUZZ_TRIALS = 500
FUZZ_FAMILIES = ("abc_cor", "additive", "involution_cor", "jieguo", "rs2to3m",
                 "shift", "theta_cor", "trace_theta", "xq_h_alpha")

# Why each workload: see README.md next to this file.
FIXED_COMMANDS = {
    "verify_gf2_20": [
        ["verify", "--p", "2", "--n", "20", "--poly", "x^(q-2)",
         "--cycle", "2"],
    ],
    "oddchar_construct": [
        ["construct", "additive", "--p", "3", "--n", "11", "--variant",
         "trace_g1", "--sub-degree", "1", "--verify"],
        ["construct", "xh_lambda", "--p", "5", "--n", "7", "--variant",
         "involution_cor", "--sub-degree", "1", "--lam", "lambda2",
         "--verify"],
        ["construct", "shift", "--p", "7", "--n", "6", "--variant",
         "trace_g1", "--sub-degree", "1", "--i", "1", "--delta", "1",
         "--verify"],
    ],
    "walsh_cap": [
        ["walsh", "--p", "2", "--n", "12", "--poly", "1*x^(q-2)",
         "--check-involution"],
        ["walsh", "--p", "2", "--n", "12", "--poly", "1*x^2",
         "--check-involution"],
        ["construct", "xh_lambda", "--p", "3", "--n", "6", "--variant",
         "involution_cor", "--sub-degree", "1", "--lam", "lambda2",
         "--verify"],
    ],
}
WORKLOADS = (*FIXED_COMMANDS, "fuzz_sweep")

# Children get one BLAS/OpenMP thread.  With more, numpy's import starts
# helper threads that cost about 65 ms of CPU per process and that compete
# with the machine's other tenants for the second core; the program's own
# parallelism is its --threads option, which no workload uses.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# Set-up probes, run back to back before the passes.  A probe right after a
# command reads up to a third slower than one after another probe, so the
# probes are kept together, where each follows the same thing.
SETUP_PROBES = 11
PROBE = ("import time, ncyclepp.cli; t = time.monotonic(); import sys, numpy; "
         "sys.stdout.write(f'{t!r} {numpy.__version__}')")

# A run must end within 180 s; commands are killed at this deadline.
RUN_DEADLINE_S = 150.0


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's commands for this seed: fuzz takes its seed from it,
    and the seed fixes the order in which a pass runs the commands."""
    if workload == "fuzz_sweep":
        cmds = [["fuzz", fam, "--seed", str(seed % FUZZ_SEEDS),
                 "--trials", str(FUZZ_TRIALS)] for fam in FUZZ_FAMILIES]
    else:
        cmds = [list(c) for c in FIXED_COMMANDS[workload]]
    random.Random(seed).shuffle(cmds)
    return cmds


def operations(argv: list[str]) -> int:
    """Operations one command stands for: its trials for fuzz, else one."""
    return FUZZ_TRIALS if argv[0] == "fuzz" else 1


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k != "NCYC_CAP" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = "src"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv: list[str], env: dict, deadline: float,
              work: Path) -> dict:
    """Run one process to completion; rusage comes from os.wait4."""
    with tempfile.TemporaryFile(dir=work) as out, \
            tempfile.TemporaryFile(dir=work) as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(0.0, deadline - start), kill)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end = time.monotonic()
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "start": start, "end": end,
            "rc": proc.returncode, "killed": state["killed"],
            "stdout": out.read(), "stderr": err.read(),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


def cli_argv(argv: list[str], trace_file: Path | None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "ncyclepp.cli", *argv]
    return [sys.executable, str(SHIM), str(trace_file), *argv]


def run_pass(cmds, env, golden, deadline, work, traced=False) -> dict:
    children, failed, attempted, traces = [], 0, 0, []
    for i, argv in enumerate(cmds):
        trace_file = work / f"trace_{i}.json" if traced else None
        child = run_child(cli_argv(argv, trace_file), env, deadline, work)
        children.append(child)
        ops = operations(argv)
        attempted += ops
        want = golden.get(shlex.join(argv))
        got = {"rc": child["rc"],
               "sha256": hashlib.sha256(child["stdout"]).hexdigest()}
        ok = not child["killed"] and want == got
        if trace_file is not None:
            try:
                traces.append(json.loads(trace_file.read_text()))
            except (OSError, ValueError):
                ok = False
        if not ok:
            failed += ops
            tail = child["stderr"].decode(errors="replace")[-400:]
            print(f"FAILED {shlex.join(argv)}: got {got}, want {want}, "
                  f"killed={child['killed']}\n{tail}", file=sys.stderr)
    wall = children[-1]["end"] - children[0]["start"]
    return {
        "wall_s": wall,
        "cpu_s": sum(c["cpu_s"] for c in children),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
        "attempted": attempted, "failed": failed, "traces": traces,
    }


def probe(env, deadline, work) -> tuple[float, str]:
    child = run_child([sys.executable, "-c", PROBE], env, deadline, work)
    if child["rc"] != 0:
        raise RuntimeError("set-up probe failed: "
                           + child["stderr"].decode(errors="replace")[-400:])
    stamp, numpy_version = child["stdout"].decode().split()
    return float(stamp) - child["start"], numpy_version


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def layer_metrics(traced: dict, plain: dict) -> dict:
    """Sum the traced pass's per-process span totals and derive ratios."""
    # shim.py imports numpy, which only traced runs need
    from shim import PER_LAYER
    totals = dict.fromkeys(PER_LAYER, 0)
    for doc in traced["traces"]:
        for name, value in doc.items():
            totals[name] += value
    out = {name: {"value": totals[name], "unit": unit}
           for name, unit in PER_LAYER.items()}
    field_points = totals["criteria.field_points"]
    cross_exh = totals["oracle.cross_exhaustive_s"]
    out["criteria.domain_frac"] = {
        "value": totals["criteria.domain_points"] / field_points
        if field_points else 0.0, "unit": "ratio"}
    out["oracle.criterion_over_oracle"] = {
        "value": totals["oracle.cross_criterion_s"] / cross_exh
        if cross_exh else 0.0, "unit": "ratio"}
    out["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"],
                               "unit": "s"}
    return out


def end_to_end(passes: list[dict], setups: list[float], cmds) -> dict:
    """Medians over the passes; setup_s is the median probe times the
    number of processes in a pass."""
    def median(key):
        return statistics.median(p[key] for p in passes)

    ops = sum(operations(a) for a in cmds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "setup_s": {"value": len(cmds) * statistics.median(setups),
                    "unit": "s"},
        "cpu_s": {"value": median("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted,
                    "unit": "ratio"},
        "ops_per_s": {"value": statistics.median(
            ops / p["wall_s"] for p in passes), "unit": "1/s"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ncyclepp" / "cli.py").is_file():
        print("error: src/ncyclepp not found; run from a full checkout",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    env = child_env()
    cmds = commands(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp.", dir=ROOT) as tmp:
        work = Path(tmp)
        # The first process in a fresh checkout compiles bytecode; users
        # pay that once, so it stays out of every metric.
        _, numpy_version = probe(env, deadline, work)
        if args.trace:
            plain = run_pass(cmds, env, golden, deadline, work)
            traced = run_pass(cmds, env, golden, deadline, work, traced=True)
            passes = [plain, traced]
            metrics = layer_metrics(traced, plain)
        else:
            setups = [probe(env, deadline, work)[0]
                      for _ in range(SETUP_PROBES)]
            # A pass starts only if one as long as the longest so far still
            # ends within --seconds, so a run measures about --seconds.
            passes, longest = [], 0.0
            while (not passes or time.monotonic() + longest
                   < began + args.seconds):
                passes.append(run_pass(cmds, env, golden, deadline, work))
                longest = max(longest, passes[-1]["wall_s"])
            metrics = end_to_end(passes, setups, cmds)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy_version,
        "commit": git_commit(), "src_lines": src_lines(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
    }}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
