"""Benchmark of the topotype command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``.
With ``--trace 0`` the workload's commands run one at a time, each in a
fresh interpreter (a closed loop with one client), repeated for ``--seconds``
seconds, and the end-to-end metrics are printed, scaled for machine drift by
a yardstick job timed in the same run.  With ``--trace 1`` the
same commands run once in this process untraced and once under ``Tracer``,
and the per-layer metrics are printed.  Every command's answers are checked
against ``pinned.json``.  The last line of stdout is the JSON result; the
numbers, samples and answer digest are also written to ``perfbench/out/``.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import answers
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINNED = BENCH / "pinned.json"

# Pinned to one thread each so the benchmark never runs more threads than
# the two cores it was sized on.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
GUARD_ENV = "TOPOTYPE_GUARD_STEPS"  # would move the oracle's default guard
ENTRY = "from topotype.cli import entry; entry()"  # what the console script runs
EDGE_PROBES = 3  # set-up and yardstick samples right before and right after the passes
PROBE_GAP_S = 2.0  # and one between commands at most this often
# A fixed job that runs none of the program: a pure-Python loop, then numpy
# fancy indexing and sorting, the two kinds of work the workloads do.  The
# machine this was sized on changes speed by up to 1.7x over minutes, so the
# end-to-end times are scaled by YARDSTICK_NOMINAL_S / (the run's median
# yardstick time): they read as seconds at the yardstick's nominal speed.
YARDSTICK = """
import numpy as np
x = 0
for i in range(600_000):
    x += i * i % 7
rng = np.random.default_rng(0)
rows = rng.integers(0, 48, size=(50_000, 5))
perm = rng.permutation(48)
for _ in range(10):
    np.sort(perm[rows], axis=1)
"""
YARDSTICK_NOMINAL_S = 0.35
IMPORT_RUNS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s; no child outlives this

TRACED_FUNCTIONS = ("oracle.count_orbits", "oracle.classify_partition",
                    "tables.fit_partition_polynomial", "counting.count_types_rank2",
                    "counting.card_A", "residues.part_wz", "residues.block_wz",
                    "exact.is_prime", "exact.interpolate")
SELF_ONLY_FUNCTIONS = ("counting.total_types", "partitions.admissible_partitions",
                       "partitions.marking_count")


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    env.pop(GUARD_ENV, None)
    return env


def run_child(args, deadline: float):
    """Run ``python args...`` in a fresh interpreter.

    Returns (stdout, stderr, exit code, wall seconds, peak RSS in MiB); the
    peak RSS is this child's own, read with ``os.wait4``.  The child is
    killed at ``deadline`` (a ``time.monotonic`` value).
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), os.kill,
                             (proc.pid, signal.SIGKILL))
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    killer.cancel()
    killer.join()  # the pid is not reaped before this, so the kill cannot hit another process
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return out.decode(), err[0].decode(), proc.returncode, wall, usage.ru_maxrss / 1024


def _check(cmd, stdout: str, stderr: str, code: int, pinned: dict):
    """Normalised answers of one command and whether they match the pinned ones."""
    got = answers.observed(cmd, stdout, code)
    ok = got == pinned[cmd.key]
    if not ok:
        print(f"FAILED: topotype {' '.join(cmd.argv)} (exit {code})\n{stderr[-2000:]}",
              file=sys.stderr)
    return got, ok


def end_to_end(cmds, pinned: dict, seconds: int, deadline: float):
    help_args = ["-c", ENTRY, "--help"]
    run_child(help_args, deadline)  # warm-up: byte-compile and fill the page cache
    setup, yardstick = [], []

    def probe():
        _, stderr, code, wall, _ = run_child(help_args, deadline)
        if code != 0:
            raise RuntimeError(f"topotype --help exited {code}: {stderr[-2000:]}")
        setup.append(wall)
        _, stderr, code, wall, _ = run_child(["-c", YARDSTICK], deadline)
        if code != 0:
            raise RuntimeError(f"yardstick exited {code}: {stderr[-2000:]}")
        yardstick.append(wall)

    # The machine's speed drifts within a run, so the yardstick must cover
    # the same stretch of time as the passes it scales: a few samples right
    # before and after them, and one between commands every PROBE_GAP_S.
    for _ in range(EDGE_PROBES):
        probe()
    last_probe = time.monotonic()
    walls, rates, digests = [], [], []
    attempted = failed = 0
    peak = 0.0
    loop_start = time.monotonic()
    while not walls or time.monotonic() - loop_start < seconds:
        wall = 0.0
        done = 0
        got = []
        for cmd in cmds:
            if time.monotonic() - last_probe >= PROBE_GAP_S:
                probe()
                last_probe = time.monotonic()
            stdout, stderr, code, cmd_wall, cmd_peak = run_child(["-c", ENTRY, *cmd.argv],
                                                                 deadline)
            ans, ok = _check(cmd, stdout, stderr, code, pinned)
            attempted += 1
            failed += not ok
            done += answers.items(cmd, pinned) if ok else 0
            wall += cmd_wall
            peak = max(peak, cmd_peak)
            got.append(ans)
        walls.append(wall)
        rates.append(done / wall)
        digests.append(answers.digest(got))
    for _ in range(EDGE_PROBES):
        probe()
    scale = YARDSTICK_NOMINAL_S / statistics.median(yardstick)
    metrics = {"wall_s": statistics.median(walls) * scale,
               "setup_s": statistics.median(setup) * scale,
               "items_per_s": statistics.median(rates) / scale, "peak_rss_mib": peak}
    samples = {"wall_s": walls, "setup_s": setup, "items_per_s": rates,
               "yardstick_s": yardstick}  # all unscaled
    return metrics, samples, attempted, failed, digests


def load_topotype() -> None:
    """Import the package from ``src/`` into this process."""
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    os.environ.pop(GUARD_ENV, None)
    sys.path.insert(0, str(SRC))
    import topotype.cli  # noqa: F401


def run_in_process(cmd):
    """Run one command through ``topotype.cli.main`` in this process.

    Returns (stdout, stderr, exit code, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["topotype.cli"].main(list(cmd.argv))
        except SystemExit as exc:  # argparse exits on a bad command line
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = -1
    return out.getvalue(), err.getvalue(), code, time.perf_counter() - start


def _import_seconds(deadline: float):
    """Median seconds importing numpy, and the topotype package in total,
    from ``python -X importtime -c "import topotype.cli"``."""
    numpy_s, topotype_s = [], []
    for _ in range(IMPORT_RUNS):
        _, stderr, code, _, _ = run_child(["-X", "importtime", "-c", "import topotype.cli"],
                                          deadline)
        if code != 0:
            raise RuntimeError(f"import topotype.cli exited {code}: {stderr[-2000:]}")
        numpy_us = topotype_us = 0
        for line in stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative, name = int(fields[1]), fields[2]
            if name.strip() == "numpy" and not numpy_us:
                numpy_us = cumulative
            if name.startswith(" topotype"):  # top level: one space after the bar
                topotype_us += cumulative
        numpy_s.append(numpy_us / 1e6)
        topotype_s.append(topotype_us / 1e6)
    return statistics.median(numpy_s), statistics.median(topotype_s)


def _reach(oracle) -> tuple:
    """Largest prime with R = 5, and largest R with p = 3, that the default
    guards of ``check_feasible`` admit (rank 2)."""

    def largest(values, args):
        best = 0
        for v in values:
            try:
                oracle.check_feasible(*args(v))
            except oracle.GuardExceeded:
                break
            best = v
        return best

    primes = [q for q in range(3, 200) if workloads.is_prime(q)]
    return largest(primes, lambda p: (p, 2, 5)), largest(range(3, 500), lambda R: (3, 2, R))


def traced(cmds, pinned: dict, deadline: float, spans_path: Path):
    load_topotype()
    oracle = sys.modules["topotype.oracle"]
    attempted = failed = 0
    plain_s = traced_s = 0.0
    got, table_outputs = [], []
    for cmd in cmds:  # untraced pass: the base of trace.overhead_s
        stdout, stderr, code, wall = run_in_process(cmd)
        failed += not _check(cmd, stdout, stderr, code, pinned)[1]
        attempted += 1
        plain_s += wall
    with Tracer() as tracer:
        for i, cmd in enumerate(cmds):
            tracer.command = i
            stdout, stderr, code, wall = run_in_process(cmd)
            ans, ok = _check(cmd, stdout, stderr, code, pinned)
            failed += not ok
            attempted += 1
            traced_s += wall
            got.append(ans)
            if cmd.kind == "table":
                table_outputs.append(stdout)

    absent = sorted(n for n in TRACED_FUNCTIONS + SELF_ONLY_FUNCTIONS if n not in tracer.stats)
    m = {"cli.main.s": sum(s for n, (_, _, s) in tracer.stats.items() if n.startswith("cli."))}
    m["import.numpy_s"], m["import.topotype_s"] = _import_seconds(deadline)
    for name in TRACED_FUNCTIONS:
        m[f"{name}.s"] = tracer.self_s(name)
        m[f"{name}.calls"] = tracer.calls(name)
    for name in SELF_ONLY_FUNCTIONS:
        m[f"{name}.s"] = tracer.self_s(name)

    # Enumeration alone, through the public enumerator, on every (p, k, R)
    # that the verify commands ran; canonicalization is what count_orbits
    # spent beyond it and beyond its traced callees.
    survivors, enumerate_s = 0, 0.0
    enumerate_fn = getattr(oracle, "enumerate_generating_sets", None)
    if enumerate_fn is None:
        absent.append("oracle.enumerate_generating_sets")
    for cmd in cmds:
        if cmd.kind != "verify" or enumerate_fn is None:
            continue
        for p in cmd.primes:
            for R in cmd.ranks:
                try:
                    oracle.check_feasible(p, cmd.k, R)
                except oracle.GuardExceeded:
                    continue
                start = time.perf_counter()
                survivors += sum(1 for _ in enumerate_fn(p, cmd.k, R))
                enumerate_s += time.perf_counter() - start
    orbits = skipped = 0
    for cmd, ans in zip(cmds, got):
        if cmd.kind != "verify" or ans is None:
            continue
        skipped += len(ans["skipped"])
        by_case: dict = {}
        for label, (oracle_count, _) in ans["rows"].items():
            case, partition = label.rsplit("|", 1)
            by_case.setdefault(case, {})[partition] = int(oracle_count)
        for counts in by_case.values():  # rank 2 has a total row per case; rank 1 one row
            orbits += counts.get("total", sum(counts.values()))
    count_orbits_s = tracer.inclusive_s("oracle.count_orbits")
    m["oracle.enumerate.s"] = enumerate_s
    m["oracle.canonicalize.s"] = (tracer.self_s("oracle.count_orbits") - enumerate_s
                                  if count_orbits_s else 0.0)
    m["oracle.survivors"] = survivors
    m["oracle.orbits"] = orbits
    m["oracle.survivors_per_s"] = survivors / count_orbits_s if count_orbits_s else 0.0
    m["oracle.skipped"] = skipped
    m["oracle.reach_p_R5"], m["oracle.reach_R_p3"] = _reach(oracle)

    branches = distinct = 0
    for stdout in table_outputs:
        rows = json.loads(stdout)["rows"]
        branches += len(rows)
        distinct += len({(tuple(r["partition"]), tuple(r["coefficients"])) for r in rows})
    m["tables.branches"] = branches
    m["tables.distinct_per_branch"] = distinct / branches if branches else 0.0
    m["tables.samples"] = sum(k for (parent, child), k in tracer.edges.items()
                              if child == "counting.count_types_rank2"
                              and parent is not None and parent.startswith("tables."))
    m["trace.overhead_s"] = traced_s - plain_s
    if absent:
        print(f"absent from the program (reported as 0): {', '.join(absent)}", file=sys.stderr)
    tracer.write(spans_path, {"commands": [list(c.argv) for c in cmds], "absent": absent,
                              "untraced_s": plain_s, "traced_s": traced_s})
    samples = {"untraced_s": [plain_s], "traced_s": [traced_s]}
    return m, samples, attempted, failed, [answers.digest(got)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "topotype" / "cli.py").is_file():
        print(f"error: no topotype sources under {SRC}", file=sys.stderr)
        return 2
    with open(PINNED) as fh:
        pinned = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    cmds = workloads.commands(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, samples, attempted, failed, digests = traced(
            cmds, pinned, deadline, stem.with_name(stem.name + "-spans.json"))
    else:
        metrics, samples, attempted, failed, digests = end_to_end(
            cmds, pinned, args.seconds, deadline)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "commands": [list(c.argv) for c in cmds], "answers_sha256": sorted(set(digests)),
              "sample_counts": {k: len(v) for k, v in samples.items()}, "samples": samples,
              "metrics": metrics, "attempted": attempted, "failed": failed}
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "answers_sha256",
                                             "sample_counts")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
