#!/usr/bin/env python3
"""Record golden exit codes and stdout digests for every benchmark command.

Run once from the repository root at the commit whose behaviour is the
reference:

    python3 perfbench/record_golden.py

It runs each fixed command and each fuzz family for every fuzz seed the
benchmark can use, in the benchmark's own child environment, and writes
perfbench/golden.json.
"""
import hashlib
import json
import shlex
import sys
import tempfile
import time
from pathlib import Path

import run


def all_commands() -> list[list[str]]:
    cmds = [list(c) for group in run.FIXED_COMMANDS.values() for c in group]
    for seed in range(run.FUZZ_SEEDS):
        cmds += run.commands("fuzz_sweep", seed)
    return cmds


def main() -> int:
    env = run.child_env()
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp.",
                                     dir=run.ROOT) as tmp:
        for argv in all_commands():
            child = run.run_child(run.cli_argv(argv, None), env,
                                  time.monotonic() + 600, Path(tmp))
            golden[shlex.join(argv)] = {
                "rc": child["rc"],
                "sha256": hashlib.sha256(child["stdout"]).hexdigest()}
            print(f"{child['end'] - child['start']:7.2f}s rc={child['rc']} "
                  f"{shlex.join(argv)}", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
