"""End-to-end benchmark of the ``uqsl2`` command line.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  It compiles the package's bytecode,
then, with ``--trace 0``, times fresh ``python -m uqsl2.cli_report ...
--format json`` processes one at a time, exactly as a user runs them,
checks every report against the known answers in ``workloads.py``, and
prints the end-to-end metrics.  With ``--trace 1`` it runs one untimed
pass and one pass under ``layer_trace.py`` and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The inputs are enumerated, so ``--seed`` selects nothing; it is recorded
with the context.  Every pass runs the same invocations, so the share of
failed operations is the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Fresh interpreters timed per sample of setup_s: a few before the first
# pass and a few after each pass, so the median spans the whole run.
SETUP_BEFORE = 5
SETUP_AFTER_PASS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernel.kmul_calls": "count", "kernel.axpy_calls": "count",
    "kernel.axpy_entries": "count", "kernel.axpy_s": "s",
    "field.mul_calls": "count", "field.inv_calls": "count", "field.inv_s": "s",
    "elim.rows_in": "count", "elim.rank": "count", "elim.pivot_nnz": "count",
    "elim.max_coeff_bits": "bits", "elim.add_row_s": "s",
    "elim.nullspace_calls": "count", "elim.nullspace_s": "s",
    "tensor.compose_calls": "count", "tensor.compose_s": "s",
    "tensor.kron_s": "s", "tensor.op_ef_s": "s",
    "diagram.to_matrix_s": "s", "diagram.rotation_s": "s",
    "diagram.jw_s": "s", "diagram.cupcap_s": "s",
    "gens.make_s": "s", "gens.embed_s": "s", "gens.ptrace_s": "s",
    "relation.checks": "count", "relation.solve_calls": "count",
    "relation.solve_s": "s", "relation.solve_cache_hits": "count",
    "relation.rank_s": "s",
    "rep.hom_solves": "count", "rep.hom_pairs": "count",
    "rep.hom_solve_s": "s", "rep.matmul_s": "s",
    "cli.render_s": "s",
    "trace.wall_s": "s", "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The program could not be built or started; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(argv: list, env: dict) -> tuple[int, bytes, float, float]:
    """Run one process to exit; returns (exit code, stdout, wall s, max RSS MB).

    The child is reaped with wait4, not by Popen, to read its own rusage.
    """
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          cwd=ROOT, env=env) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
        finally:
            killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if wall >= CHILD_TIMEOUT_S:
        raise BenchError(f"{argv[1:4]} did not finish within {CHILD_TIMEOUT_S} s")
    return proc.returncode, out, wall, usage.ru_maxrss / 1024


def build(env: dict) -> dict:
    """Compile bytecode and report what the child interpreters import."""
    if not (SRC / "uqsl2" / "cli_report.py").is_file():
        raise BenchError(f"no uqsl2 sources under {SRC}")
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "uqsl2")],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise BenchError("compiling uqsl2 failed")
    probe = ("import json, uqsl2.cli_report, uqsl2._kernel as k;"
             "print(json.dumps([k.BACKEND, uqsl2.cli_report.__file__]))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("importing uqsl2.cli_report failed:\n" + done.stderr)
    backend, path = json.loads(done.stdout)
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"uqsl2 imported from {path}, not from {SRC}")
    return {"backend": backend}


def git_revision() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "none"


class Runner:
    """Runs passes of one workload and accumulates checks and timings."""

    def __init__(self, name: str, env: dict):
        self.name = name
        self.invocations = WORKLOADS[name]
        self.env = env
        self.tally = Tally()
        self.setup: list = []

    def sample_setup(self, n: int) -> None:
        for _ in range(n):
            code, _, wall, _ = spawn([sys.executable, "-c", "import uqsl2.cli_report"], self.env)
            if code != 0:
                raise BenchError("importing uqsl2.cli_report failed")
            self.setup.append(wall)

    def run_one(self, prefix: list, inv) -> tuple[float, float]:
        """Run and check one invocation; returns (wall s, max-RSS MB)."""
        code, out, wall, rss = spawn(prefix + list(inv.args) + ["--format", "json"], self.env)
        try:
            doc = json.loads(out)
        except ValueError:
            doc = None
            self.tally.errors.append(f"{inv.args[:3]}: report is not JSON (exit {code})")
        self.tally.add(inv.check(code, doc))
        return wall, rss

    def run_pass(self, prefix: list) -> tuple[float, float]:
        """One pass; returns (summed wall s, largest max-RSS MB)."""
        runs = [self.run_one(prefix, inv) for inv in self.invocations]
        return sum(w for w, _ in runs), max(r for _, r in runs)


def timed_run(runner: Runner, seconds: float) -> dict:
    cli = [sys.executable, "-m", "uqsl2.cli_report"]
    start = time.perf_counter()
    runner.sample_setup(SETUP_BEFORE)
    walls, rsses, longest = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        wall, rss = runner.run_pass(cli)
        runner.sample_setup(SETUP_AFTER_PASS)
        walls.append(wall)
        rsses.append(rss)
        longest = max(longest, time.perf_counter() - t0)
        # Start another pass only if it should end within the run length.
        if time.perf_counter() - start + longest > seconds:
            break
    print(f"passes: {len(walls)}  wall_s per pass: {[round(w, 3) for w in walls]}")
    return {
        "setup_s": statistics.median(runner.setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rsses),
    }


def traced_run(runner: Runner) -> dict:
    RESULTS.mkdir(exist_ok=True)
    plain, _ = runner.run_pass([sys.executable, "-m", "uqsl2.cli_report"])
    totals: dict = {}
    pairs = 0
    absent: set = set()
    traced = 0.0
    for i, inv in enumerate(runner.invocations):
        prefix = str(RESULTS / f"{runner.name}-{i}")
        wall, _ = runner.run_one([sys.executable, str(HERE / "layer_trace.py"), prefix, "--"], inv)
        traced += wall
        with open(prefix + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        for key, value in {**summary["counts"], **summary["self_s"]}.items():
            totals[key] = totals.get(key, 0) + value
        for key, value in summary["maxima"].items():
            totals[key] = max(totals.get(key, 0), value)
        pairs += summary["hom_pairs"]
        absent.update(summary["absent"])
    totals["rep.hom_pairs"] = pairs
    totals["trace.wall_s"] = traced
    totals["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    print(f"untraced wall_s: {plain:.3f}  traced wall_s: {traced:.3f}")
    if absent:
        print("absent metrics: " + ", ".join(sorted(absent)))
    # A layer the workload never enters reads 0; a wrapped name that no
    # longer exists leaves its metrics out.
    return {m: totals.get(m, 0) for m in PER_LAYER if m not in absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = child_env()
    try:
        context = build(env)
        context.update(python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
                       git=git_revision(), workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace)
        print("context: " + json.dumps(context, sort_keys=True), flush=True)
        runner = Runner(args.workload, env)
        if args.trace:
            values, units = traced_run(runner), PER_LAYER
        else:
            values, units = timed_run(runner, args.seconds), END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    t = runner.tally
    for line in (t.errors + t.problems)[:20]:
        print("check: " + line)
    result = {
        "correct": not t.errors,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
