"""Benchmark runner for chardeg.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  With --trace 0 the runner spawns
fresh interpreters (PYTHONPATH=src, one process, no worker pool) back to back
for about --seconds, at least one, times each from the outside, checks its
outputs and reports medians of the end-to-end metrics.  With --trace 1 it spawns one such
process, then runs the same workload inside its own process with the layer
boundaries wrapped (see tracer.py) and reports the per-layer metrics.  The
last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

import groups
import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TORUS_TABLE = ROOT / "data" / "torus_orders.json"

WORKLOADS = ("verify-all", "char-tables")
CHECKED_KEYS = ("order", "classes", "degrees")

# The shipped direct cap is 60, where the partition sweep alone takes about
# 110 s; the benchmark's run budget cannot hold that, so verify-all runs the
# sweep to 50 (about 20 s) with every other range at its default.
RHO_MAX_N = 50

CLAIM_IDS = (
    "sec2/hook-sum-squares", "sec2/hook-vs-tableaux", "sec2/branching",
    "thm2.1/rho-direct", "thm2.1/rho-induction", "thm2.1/lie-38",
    "sec5-6/psl2-degree-sums", "lem5.1/extendible-witness", "lem6.2/theta2-stabilizer",
    "thm3.1/epsilon-psl2", "thm3.1/epsilon-an", "lem3.2/euler-tail",
    "lem3.3/srim-table", "sec3/nd-counts", "sec3/seitz-untwisted",
    "sec3/seitz-twisted", "sec3/part3-r-le-3", "sec3/part4-situations",
    "thm7.2/equality-family", "lem7.1/gagola-arithmetic",
    "lem3.5/composition-bound", "user/degree-records",
)

SETUP_SPAWNS = 4          # import-only interpreters before each workload process
RUN_BUDGET_S = 170.0      # every invocation ends well inside 180 s


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


# ---------------------------------------------------------------------------
# inputs

class Inputs:
    """The files one workload process reads and writes, made from the seed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        if workload == "verify-all":
            self.degrees = work / "degrees.jsonl"
            self.degrees.write_text("".join(json.dumps(r) + "\n"
                                            for r in groups.degree_records(seed)))
            self.operations = len(CLAIM_IDS)
        else:
            self.specs = groups.group_specs(groups.CHAR_TABLE_GROUPS, seed)
            self.expected = {name: groups.facts(family, n)
                             for name, family, n in groups.CHAR_TABLE_GROUPS}
            self.spec_path = work / "specs.json"
            self.spec_path.write_text(json.dumps(self.specs))
            self.operations = len(self.specs)

    def output_path(self, tag: str) -> Path:
        return self.work / f"out-{tag}.json"

    def cli_args(self, out: Path) -> list[str]:
        return ["verify-all", "--torus-table", str(TORUS_TABLE), "--degrees",
                str(self.degrees), "--report", str(out), "--jobs", "1",
                "--max-n", str(RHO_MAX_N)]

    def argv(self, out: Path) -> list[str]:
        if self.workload == "verify-all":
            return [sys.executable, "-m", "chardeg.cli"] + self.cli_args(out)
        return [sys.executable, str(HERE / "workload.py"), str(self.spec_path), str(out)]


def count_failed(inputs: Inputs, out: Path) -> int:
    """Operations of one workload process whose output is missing, not a
    pass, or different from the textbook facts in groups.py."""
    try:
        data = json.loads(out.read_text())
    except (OSError, ValueError):
        return inputs.operations
    if inputs.workload == "verify-all":
        status = {entry.get("claim"): entry.get("status") for entry in data}
        if len(data) != len(CLAIM_IDS) or set(status) != set(CLAIM_IDS):
            return inputs.operations
        return sum(status[c] != "pass" for c in CLAIM_IDS)
    if [r.get("name") for r in data] != [s["name"] for s in inputs.specs]:
        return inputs.operations
    return sum("error" in r or any(r.get(k) != inputs.expected[r["name"]][k]
                                   for k in CHECKED_KEYS)
               for r in data)


# ---------------------------------------------------------------------------
# processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], timeout: float, stderr_path: Path) -> dict:
    """Run one process to its end; wall time from spawn to exit, CPU time and
    peak RSS of that process from wait4."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}


def setup_samples(count: int, work: Path, deadline: float) -> list[float]:
    """Times of `count` spawns of an interpreter that imports chardeg.cli
    and exits."""
    argv = [sys.executable, "-c", "import chardeg.cli"]
    times = []
    for _ in range(count):
        sample = spawn(argv, deadline - time.monotonic(), work / "setup.err")
        if sample["returncode"] != 0:
            tail = (work / "setup.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"`import chardeg.cli` failed:\n{tail}")
        times.append(sample["wall_s"])
    return times


def run_process(inputs: Inputs, tag: str, deadline: float) -> dict:
    out = inputs.output_path(tag)
    err = inputs.work / f"{tag}.err"
    sample = spawn(inputs.argv(out), deadline - time.monotonic(), err)
    # a non-zero exit fails every operation; verify-all exits 1 on a failed claim
    failed = inputs.operations
    if sample["returncode"] == 0:
        failed = count_failed(inputs, out)
    if failed:
        tail = err.read_text(errors="replace")[-2000:]
        print(f"{tag}: {failed}/{inputs.operations} operations failed "
              f"(exit {sample['returncode']})\n{tail}", file=sys.stderr)
    sample.update(failed=failed, output=out)
    return sample


# ---------------------------------------------------------------------------
# modes

def timed(inputs: Inputs, seconds: int, work: Path, deadline: float):
    """Rounds of SETUP_SPAWNS import-only spawns and one workload process,
    back to back for about `seconds`, then one more set of import-only
    spawns; the medians cover the whole run."""
    setup_samples(1, work, deadline)  # unmeasured: compiles the bytecode
    setup, samples = [], []
    start = time.monotonic()
    while True:
        setup += setup_samples(SETUP_SPAWNS, work, deadline)
        samples.append(run_process(inputs, f"run{len(samples)}", deadline))
        # start another round only if it should end inside the window
        elapsed = time.monotonic() - start
        typical = elapsed / len(samples)
        if elapsed + typical > seconds or time.monotonic() + 1.5 * typical > deadline:
            break
    setup += setup_samples(SETUP_SPAWNS, work, deadline)
    attempted = inputs.operations * len(samples)
    failed = sum(s["failed"] for s in samples)
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return attempted, failed, metrics, {"process_walls": [s["wall_s"] for s in samples]}


def traced(inputs: Inputs, deadline: float):
    from tracer import Tracer, install

    untraced = run_process(inputs, "untraced", deadline)

    out = inputs.output_path("traced")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from chardeg import cli

    tracer = Tracer()
    install(tracer)
    try:
        if inputs.workload == "verify-all":
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(inputs.cli_args(out)) != 0:  # as for a non-zero exit
                    out.unlink(missing_ok=True)
        else:
            out.write_text(json.dumps(workload.run(inputs.specs)))
    except Exception:  # a crash fails every operation of the traced run
        out.unlink(missing_ok=True)
        traceback.print_exc()
    wall = time.perf_counter() - start
    failed = untraced["failed"] + count_failed(inputs, out)

    claim_s = {}
    if inputs.workload == "verify-all" and untraced["failed"] == 0:
        claim_s = {e["claim"]: e["seconds"] for e in json.loads(untraced["output"].read_text())}
    metrics = layer_metrics(tracer, claim_s, wall, untraced["wall_s"])
    return 2 * inputs.operations, failed, metrics, {}


def layer_metrics(tracer, claim_s: dict, wall: float, untraced_wall: float) -> dict:
    self_s = tracer.self_seconds()
    calls: dict[str, int] = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    counts = tracer.counts

    def layer(prefix: str) -> float:
        return sum((v for k, v in self_s.items() if k.startswith(prefix + ".")), 0.0)

    m = {f"cli.claim_s.{c.replace('/', '.')}": (float(claim_s.get(c, 0.0)), "s")
         for c in CLAIM_IDS}
    m.update({
        "symalt.rho_an.calls": (calls.get("symalt.rho_an", 0), "count"),
        "symalt.rho_an.self_s": (self_s.get("symalt.rho_an", 0.0), "s"),
        "symalt.rho_an.self_share": (self_s.get("symalt.rho_an", 0.0) / wall, "ratio"),
        "partitions.partitions_of.yielded": (counts["partitions_yielded"], "count"),
        "symalt.verify_rho_growth.self_s": (self_s.get("symalt.verify_rho_growth", 0.0), "s"),
        "exactmath.interval.calls": (counts["interval_calls"], "count"),
    })
    for module in ("lie", "psl2", "gf2poly", "bounds", "partitions"):
        m[f"{module}.self_s"] = (layer(module), "s")
    for name in ("close_group", "conjugacy_classes", "dixon_character_table",
                 "orthogonality", "minimal_normal_subgroups", "derived_series"):
        m[f"groupengine.{name}.self_s"] = (self_s.get(f"groupengine.{name}", 0.0), "s")
    dixon = self_s.get("groupengine.dixon_character_table", 0.0)
    mult_calls = counts["mult_calls"]
    m.update({
        "groupengine.dixon_character_table.self_share": (dixon / wall, "ratio"),
        "groupengine.subgroup_generated.calls": (counts["subgroup_generated_calls"], "count"),
        "groupengine.mult.calls": (mult_calls, "count"),
        "groupengine.mult.computed": (counts["mult_computed"], "count"),
        "groupengine.mult.memo_hit_ratio": (
            1 - counts["mult_computed"] / mult_calls if mult_calls else 0.0, "ratio"),
        "groupengine.element_mul.calls": (counts["element_mul_calls"], "count"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.unattributed_s": (wall - sum(self_s.values()), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return m


# ---------------------------------------------------------------------------
# metadata and output

def commit() -> str:
    """HEAD of the checkout's git metadata when present; read, not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(),
        "python": sys.version.split()[0], "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "loadavg_start": list(os.getloadavg()),
        "rho_max_n": RHO_MAX_N if args.workload == "verify-all" else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    meta = run_metadata(args)

    if not (SRC / "chardeg" / "cli.py").is_file() or not TORUS_TABLE.is_file():
        print(f"error: no chardeg source tree under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        inputs = Inputs(args.workload, args.seed, work)
        if args.trace:
            attempted, failed, metrics, notes = traced(inputs, deadline)
        else:
            attempted, failed, metrics, notes = timed(inputs, args.seconds, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("meta " + json.dumps(dict(meta, **notes), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':48s} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
