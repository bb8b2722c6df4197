"""End-to-end benchmark of the `voaf` command line.

    python3 bench/run.py --workload std_grid|wide_grid|verify_char|all \
        --seed N --seconds S --trace 0|1

Each workload is a seeded list of `voaf` commands (see workloads.py).  Every
command runs as a cold ``python -m voaf.cli`` process against this
checkout's ``src/``, one at a time, and its output is checked against
expectations computed without the engine (oracle.py) and, where recorded,
against the sha256 of its output at the commit that defined the benchmark
(golden.json).

``--trace 0`` measures set-up (cold ``--help`` starts), then repeats whole
passes of the command list until ``--seconds`` have elapsed, and reports the
median pass.  A pass that outlasts ``--seconds`` (std_grid and verify_char at
15 s) makes the run a single pass.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics of tracer.py and the tracing
overhead.  The metrics reported are those BENCHMARK.json lists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import oracle
import tracer
import workloads
from workloads import Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 0
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 9  # before the first pass; one more precedes every command


@dataclass
class Record:
    cmd: Command
    wall: float
    cpu: float
    rss_mb: float
    error: Optional[str]


class Runner:
    """Runs commands in fresh interpreters and checks what they print."""

    def __init__(self, tmp: Path, deadline: float, golden: Dict[str, str]):
        self.tmp = tmp
        self.deadline = deadline
        self.golden = golden
        self.env = dict(os.environ)
        self.env.pop("VOAF_CUTOFF", None)  # changes the characters and zhu cutoffs
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=str(tmp))
        self.records: List[Record] = []
        self.count = 0

    def run(self, cmd: Command, trace_prefix: Optional[str] = None) -> Record:
        self.count += 1
        if trace_prefix is None:
            argv = [sys.executable, "-m", "voaf.cli"] + cmd.argv
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), trace_prefix] + cmd.argv
        out_path = self.tmp / ("out%d" % self.count)
        timeout = self.deadline - time.monotonic()
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(self.tmp / "err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=str(ROOT))

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(max(timeout, 0.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        data = out_path.read_bytes()
        out_path.unlink()
        digest = hashlib.sha256(data).hexdigest()
        if timed_out.is_set():
            error = "timed out"
        else:
            error = check(cmd, proc.returncode, data.decode("utf-8", "replace"))
        key = " ".join(cmd.argv)
        if error is None and key in self.golden and self.golden[key] != digest:
            error = "output differs from the recorded sha256"
        if error is not None:
            tail = (self.tmp / "err").read_text(errors="replace")[-300:]
            print("FAIL %s: %s %s" % (key, error, tail.strip()), file=sys.stderr)
        rec = Record(cmd, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, error)
        self.records.append(rec)
        return rec

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


# ----------------------------------------------------------------------
# output checks


def _check_table(cmd: Command, text: str) -> Optional[str]:
    expected = oracle.table_triples(cmd.grid)
    if "--format" in cmd.argv:
        rows = [(c["m"], c["n"], c["l"], c["verdict"], c) for c in json.loads(text)]
    else:
        lines = text.splitlines()
        if not lines or lines[0] != "m,n,l,verdict":
            return "missing CSV header"
        rows = [tuple(line.split(",")[:3]) + (int(line.split(",")[3]), None) for line in lines[1:]]
    if [r[:3] for r in rows] != expected:
        return "table rows differ from the grid's triples"
    for m, n, l, verdict, cert in rows:
        if verdict != oracle.fusion_verdict(m, n, l):
            return "wrong verdict for (%s, %s, %s)" % (m, n, l)
        if cert is not None and sorted(cert["permutation"]) != ["l", "m", "n"]:
            return "bad permutation for (%s, %s, %s)" % (m, n, l)
    return None


def _check_query(cmd: Command, text: str) -> Optional[str]:
    cert = json.loads(text)
    m, n, l = cmd.argv[2], cmd.argv[4], cmd.argv[6]
    if (cert["m"], cert["n"], cert["l"]) != (m, n, l):
        return "certificate names other labels"
    if cert["verdict"] != oracle.fusion_verdict(m, n, l):
        return "wrong verdict"
    if cmd.ladder_slot and cert["permutation"][0] != cmd.ladder_slot:
        return "decided without the ladder charge's constraint system"
    return None


def _check_char(cmd: Command, text: str) -> Optional[str]:
    got = json.loads(text)
    module, cutoff = cmd.argv[2], int(cmd.argv[4])
    if got["terms"] != oracle.char_terms(module, cutoff):
        return "series differs from the partition counts"
    return None


def check(cmd: Command, rc: int, text: str) -> Optional[str]:
    if rc != 0:
        return "exit code %d" % rc
    if cmd.kind == "help":
        return None if text.startswith("usage: voaf") else "no usage line"
    if cmd.kind == "verify":
        lines = text.splitlines()
        return None if lines and all(x.startswith("ok") for x in lines) else "a check did not print ok"
    try:
        return {"table": _check_table, "query": _check_query, "char": _check_char}[cmd.kind](cmd, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "unreadable output (%s)" % exc


# ----------------------------------------------------------------------
# measurement


HELP = Command(["--help"], "setup", "help")


def run_pass(runner: Runner, wl: Workload, trace_dir: Optional[Path] = None,
             setup: Optional[List[float]] = None):
    """One pass of the workload's commands; returns (records, span prefixes).

    With `setup`, a cold `--help` start is timed before each command, so the
    set-up samples spread over the whole run rather than one moment of it.
    """
    recs, prefixes = [], []
    for i, cmd in enumerate(wl.commands):
        if runner.time_left() <= 0:
            break
        if setup is not None:
            setup.append(runner.run(HELP).wall)
        prefix = None
        if trace_dir is not None:
            prefix = str(trace_dir / ("cmd%d" % i))
            prefixes.append(prefix)
        rec = runner.run(cmd, prefix)
        recs.append(rec)
        if rec.error == "timed out":
            break
    return recs, prefixes


def triples(recs: List[Record]) -> int:
    n = 0
    for r in recs:
        if r.cmd.kind == "table":
            n += len(oracle.table_triples(r.cmd.grid))
        elif r.cmd.kind == "query":
            n += 1
    return n


def pass_metrics(recs: List[Record]) -> Dict[str, float]:
    batch = [r.wall for r in recs if r.cmd.group == "batch"]
    single = [r.wall for r in recs if r.cmd.group == "single"]
    wall = sum(r.wall for r in recs)
    return {
        "wall_s": wall,
        "cpu_s": sum(r.cpu for r in recs),
        "batch_s": sum(batch),
        "single_s": sum(single),
        "triples_per_s": triples(recs) / wall,
    }


def end_to_end(runner: Runner, wl: Workload, seconds: float) -> Dict[str, float]:
    setup = [runner.run(HELP).wall for _ in range(SETUP_REPEATS)]
    passes: List[List[Record]] = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        longest = max((sum(r.wall for r in p) for p in passes), default=0.0)
        if passes and runner.time_left() < 1.5 * longest:
            break
        recs, _ = run_pass(runner, wl, setup=setup)
        if len(recs) < len(wl.commands):
            break
        passes.append(recs)
    if not passes:
        raise RuntimeError("no complete pass within the run's time budget")
    per_pass = [pass_metrics(p) for p in passes]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["setup_s"] = statistics.median(setup)
    out["peak_rss_mb"] = max(r.rss_mb for r in runner.records)
    singles = [r.wall for p in passes for r in p if r.cmd.group == "single"]
    out["single_p50_s"] = statistics.median(singles) if singles else 0.0
    out["passes"] = len(passes)
    out["setup_samples"] = len(setup)
    return out


def per_layer(runner: Runner, wl: Workload, spec: dict) -> Dict[str, float]:
    plain, _ = run_pass(runner, wl)
    trace_dir = runner.tmp / "spans"
    trace_dir.mkdir()
    traced, prefixes = run_pass(runner, wl, trace_dir)
    if len(plain) < len(wl.commands) or len(traced) < len(wl.commands):
        raise RuntimeError("the traced run did not finish within the run's time budget")
    out = tracer.summarize(prefixes, [m["name"] for m in spec["per_layer"]])
    out["trace.overhead_s"] = sum(r.wall for r in traced) - sum(r.wall for r in plain)
    return out


# ----------------------------------------------------------------------
# reporting


# Shown in the summary only: single commands and single groups of commands
# spread too much from run to run on a shared machine to gate a change.
DETAIL = {
    "std_grid": {"table_s": "batch_s", "query_p50_s": "single_p50_s", "queries_s": "single_s",
                 "triples_per_s": "triples_per_s"},
    "wide_grid": {"table_s": "batch_s", "triples_per_s": "triples_per_s"},
    "verify_char": {"verify_s": "batch_s", "char_s": "single_s"},
}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "sympy": sympy,
        "git_sha": sha,
        "seed": seed,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.GENERATORS[name](seed)
    golden = json.loads(GOLDEN.read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=str(ROOT)))
    try:
        runner = Runner(tmp, time.monotonic() + RUN_BUDGET_S, golden)
        runner.run(HELP)  # compiles the package's bytecode once, untimed
        values = per_layer(runner, wl, spec) if trace else end_to_end(runner, wl, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(1 for r in runner.records if r.error)
    attempted = len(runner.records)
    print("env %s" % json.dumps(dict(environment(seed), workload=name, trace=int(trace))))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    shown = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
    if not trace:
        for alias, key in DETAIL[name].items():
            shown[alias] = (values[key], "1/s" if key == "triples_per_s" else "s")
        shown["fail_ratio"] = (failed / attempted, "ratio")
        shown["passes"] = (values["passes"], "count")
        shown["setup_samples"] = (values["setup_samples"], "count")
    for key, (value, unit) in shown.items():
        print("%-44s %14.6g %s" % (key, value, unit))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    # on SIGTERM, unwind like an interrupt so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "voaf" / "cli.py").is_file():
        print("error: no voaf sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
