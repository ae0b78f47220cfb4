"""Write pinned.json: the answers of every command a workload can send.

    python3 perfbench/pin.py

Runs each command of ``workloads.pinned_commands()`` in this process on the
program under ``src/`` and stores its normalised answers.  Run it only on a
commit whose answers are trusted; the benchmark then checks every later
commit against them.  Table values are cross-checked against
``count_types_rank2`` before they are stored, and every table row's modulus
must divide ``workloads.TABLE_MODULUS``.
"""

from __future__ import annotations

import json
import sys

import answers
import workloads
from run import PINNED, load_topotype, run_in_process


def main() -> int:
    load_topotype()
    count_types_rank2 = sys.modules["topotype.counting"].count_types_rank2
    pinned = {}
    for cmd in workloads.pinned_commands():
        stdout, stderr, code, _ = run_in_process(cmd)
        got = answers.observed(cmd, stdout, code)
        if got is None:
            print(f"error: unreadable output of {cmd.argv}: {stderr}", file=sys.stderr)
            return 1
        if cmd.kind == "table":
            moduli = {int(row["modulus"]) for row in json.loads(stdout)["rows"]}
            if any(workloads.TABLE_MODULUS % m for m in moduli):
                print(f"error: table moduli {sorted(moduli)} do not all divide "
                      f"{workloads.TABLE_MODULUS}", file=sys.stderr)
                return 1
            for label, values in got["rows"].items():
                parts = tuple(int(x) for x in label.split(","))
                for q, value in values.items():
                    if value != str(count_types_rank2(parts, int(q)).T):
                        print(f"error: table fit of {{{label}}} disagrees with "
                              f"count_types_rank2 at p={q}", file=sys.stderr)
                        return 1
        pinned[cmd.key] = got
    with open(PINNED, "w") as fh:
        json.dump(pinned, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"pinned {len(pinned)} commands to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
