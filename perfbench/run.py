"""The freecactus benchmark: one run of one workload.

    python3 perfbench/run.py --workload anticom-sweep --seed 1 --seconds 12 --trace 0

Run it from a checkout of the repository; the program is imported from the
checkout's src/.  A run generates the workload's inputs from the seed,
measures set-up in fresh interpreters, then repeats the workload's request
list, one fresh worker process per pass, until --seconds have passed and
at least MIN_PASSES passes have run.  This
is a closed loop with one client.  With --trace 1 one more pass runs under
the span tracer.  Answers are checked after the passes, outside the timed
region.  The last stdout line is the JSON result; the line before it holds
provenance, pass times and any failures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
MIN_PASSES = 3
RUN_BUDGET_S = 170

# Time from a fresh interpreter to a ready CLI: the import plus the parser.
# Prints raw and reference-speed seconds.  The probes run after the import,
# so that the probe's own imports do not shorten it.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import freecactus.cli
freecactus.cli.build_parser()
raw = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import speed
print(raw, raw / speed.slowdown([speed.probe_seconds() for _ in range(20)]))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "max_request_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
}


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


def child(argv: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("the run exceeded its time budget")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("the run exceeded its time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline: float) -> list[list[float]]:
    """[raw, reference-speed] set-up seconds of SETUP_SAMPLES fresh
    interpreters, after a warm-up."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(ROOT / "perfbench")]
    child(argv, deadline)
    return [[float(x) for x in child(argv, deadline).split()] for _ in range(SETUP_SAMPLES)]


def run_pass(argvs, trace: bool, workdir: Path, index: int, deadline: float) -> dict:
    job, result = workdir / f"job-{index}.json", workdir / f"result-{index}.json"
    job.write_text(json.dumps({"root": str(ROOT), "requests": argvs, "trace": trace}))
    child([sys.executable, str(ROOT / "perfbench" / "worker.py"), str(job), str(result)], deadline)
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def judge(request, outcome: dict) -> str | None:
    """Why a request failed, or None when it exited 0 with a correct answer."""
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}: {outcome['stderr'][-500:]}"
    try:
        return request.check(outcome["stdout"])
    except Exception as exc:  # malformed output is a wrong answer
        return f"unreadable answer: {exc!r}"


def score(requests, passes) -> tuple[int, list[str]]:
    failures = []
    for number, result in enumerate(passes):
        for request, outcome in zip(requests, result["requests"]):
            problem = judge(request, outcome)
            if problem:
                failures.append(f"pass {number}: {' '.join(request.argv)[:120]}: {problem[:500]}")
    return sum(len(r["requests"]) for r in passes), failures


def git_revision() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(freecactus) -> dict:
    try:
        from freecactus import _kernel

        kernel = _kernel.ACTIVE
    except ImportError:
        kernel = None
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "freecactus_file": freecactus.__file__,
        "kernel_active": kernel,
        "FREECACTUS_PURE": os.environ.get("FREECACTUS_PURE"),
    }


def end_to_end(setup: list[list[float]], passes: list[dict], attempted: int, failed: int) -> dict:
    # Each request's median over the passes, so one disturbed pass of one
    # request does not move the result.
    per_request = [statistics.median(rs) for rs in zip(*([r["seconds"] for r in p["requests"]] for p in passes))]
    values = {
        "setup_s": statistics.median(s for _raw, s in setup),
        "wall_s": sum(per_request),
        "max_request_s": max(per_request),
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] / 1024 for p in passes),
        "ok_share": (attempted - failed) / attempted,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "freecactus" / "cli.py").is_file():
        print(f"error: no freecactus source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from worker import import_freecactus

    try:
        freecactus = import_freecactus(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            workdir = Path(tmp)
            requests = workloads.build(args.workload, args.seed, workdir)
            argvs = [list(r.argv) for r in requests]
            setup = [] if args.trace else measure_setup(deadline)
            passes = []
            start = time.monotonic()
            while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
                passes.append(run_pass(argvs, False, workdir, len(passes), deadline))
            traced = run_pass(argvs, True, workdir, len(passes), deadline) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checked = passes + ([traced] if traced else [])
    attempted, failures = score(requests, checked)
    notes = traced["notes"] if traced else []
    if args.trace:
        outputs = [(argv, r["stdout"]) for argv, r in zip(argvs, traced["requests"])]
        metrics = spans.layer_metrics(traced["trace"], notes, outputs)
        overhead = traced["wall_s"] / statistics.median(p["wall_s"] for p in passes)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"{args.workload}-seed{args.seed}-trace.json"
        trace_file.write_text(json.dumps({"requests": argvs, **traced["trace"]}))
    else:
        metrics = end_to_end(setup, passes, attempted, len(failures))
        trace_file = None

    info = {
        "provenance": {
            **provenance(freecactus),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "setup_samples_s": setup,
        "failures": failures,
        "notes": notes,
        "trace_file": None if trace_file is None else str(trace_file.relative_to(ROOT)),
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
