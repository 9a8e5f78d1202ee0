"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds the repository root, the request list (one argv list per
request) and whether to trace.  The worker imports freecactus from the
root's ``src/``, refuses any other copy, then issues the requests serially
through ``freecactus.cli.main(argv)`` with stdout captured.  Caches inside
the program persist across the requests of the pass, as in one library
session.  RESULT.json gets each request's exit code, time and output,
the pass's wall time and peak RSS and, when traced, the span report.  Times
are reported raw and at the reference CPU speed of ``speed.Probe``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed


def import_freecactus(root: Path):
    """Import freecactus from root/src, refusing a copy installed elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import freecactus

    location = Path(freecactus.__file__).resolve()
    if not location.is_relative_to(src):
        raise ImportError(f"freecactus was imported from {location}, not from {src}")
    return freecactus


def run_request(cli, argv, probe) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed request, not a failed pass
            code = None
            err.write(traceback.format_exc())
    end = perf_counter()
    return {
        "code": code,
        "raw_s": end - start,
        "seconds": probe.normalize(start, end),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    import_freecactus(Path(job["root"]))
    from freecactus import cli

    tracer, notes = None, []
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        notes = spans.install(tracer)
    results = []
    probe = speed.Probe()
    probe.start()
    try:
        start = perf_counter()
        for index, argv in enumerate(job["requests"]):
            if tracer is not None:
                tracer.request = index
            results.append(run_request(cli, argv, probe))
        end = perf_counter()
    finally:
        probe.stop()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = None
    if tracer is not None:
        report = tracer.report()
        profiles = getattr(sys.modules.get("freecactus.cumulants"), "_profiles", None)
        info = profiles.cache_info() if hasattr(profiles, "cache_info") else None
        report["profiles_cache"] = None if info is None else {"hits": info.hits, "misses": info.misses}
        if info is None:
            notes.append("cumulants.profiles_cache: freecactus.cumulants._profiles not found")
    result = {
        "requests": results,
        "raw_wall_s": end - start,
        "wall_s": probe.normalize(start, end),
        "peak_rss_kib": peak_rss_kib,
        "trace": report,
        "notes": notes,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
