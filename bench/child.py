"""One benchmark round in a fresh interpreter.

Usage: child.py JOB.json RESULT.json TRACE(0|1)

Imports ``revsynth.cli`` from the job's ``src`` directory, then replays the
job's requests one at a time through ``revsynth.cli.main(argv)``, the same
entry point the ``revsynth`` command runs, and then the optional exhaustive
synthesis sweep.  Writes timings, exit codes, captured stdout and output
digests to RESULT.json.  Import cost and the BFS cache start cold because
every round is a new process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import sys
import time


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def run_request(cli, calls: list[list[str]]) -> tuple[int, int, str, str]:
    """Run the request's CLI calls in order; stop at the first non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    rc = 0
    started = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in calls:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an internal failure counts as a failed request
                rc = -1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            if rc != 0:
                break
    return rc, time.perf_counter_ns() - started, out.getvalue(), err.getvalue()


def run_sweep(n: int) -> tuple[list[int], dict]:
    """Synthesize every n-line permutation with mmd and hc-bi, and look up its
    exact distance in both libraries.  Modules are read at call time so the
    traced run's wrappers are seen."""
    from revsynth import cayley, gates, hypercube, mmd
    from revsynth.perm import TruthVector

    gen_i = gates.enumerate_ci(n)
    gen_h = gates.enumerate_ch(n)
    cols = {key: bytearray() for key in ("mmd", "bi", "dist_i", "dist_h")}
    latencies = []
    clock = time.perf_counter_ns
    for entries in itertools.permutations(range(1 << n)):  # lexicographic = rank order
        started = clock()
        tv = TruthVector(entries)
        a = len(mmd.mmd_synthesize(tv))
        b = len(hypercube.hc_bidirectional(tv))
        di = cayley.distance(tv, gen_i)
        dh = cayley.distance(tv, gen_h)
        latencies.append(clock() - started)
        cols["mmd"].append(a)
        cols["bi"].append(b)
        cols["dist_i"].append(di)
        cols["dist_h"].append(dh)
    return latencies, {key: col.hex() for key, col in cols.items()}


def main(argv: list[str]) -> int:
    job_path, result_path, trace_flag = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import revsynth.cli as cli
    import_s = time.perf_counter() - started
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported revsynth from {cli.__file__}, not from {src}")

    tracer = None
    if trace_flag == "1":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    out_dir = job["out_dir"]
    os.makedirs(out_dir)
    records = []
    latencies = []
    wall_start = time.perf_counter_ns()
    for req in job["requests"]:
        calls = [[arg.replace("{out}", out_dir) for arg in call] for call in req["calls"]]
        rc, elapsed, stdout, stderr = run_request(cli, calls)
        latencies.append(elapsed)
        records.append({"id": req["id"], "rc": rc, "stdout": stdout, "stderr": stderr[-2000:]})
    sweep = None
    if job["sweep"]:
        sweep_latencies, sweep = run_sweep(job["sweep"])
        latencies.extend(sweep_latencies)
    wall_s = (time.perf_counter_ns() - wall_start) / 1e9

    for req, rec in zip(job["requests"], records):
        parts = [rec["stdout"].encode()]
        for path in req["outputs"]:
            try:
                with open(path.replace("{out}", out_dir), "rb") as fh:
                    parts.append(fh.read())
            except FileNotFoundError:
                parts.append(b"<missing>")
        rec["digest"] = digest(parts)

    import numpy

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "latency_ns": latencies,
        "requests": records,
        "sweep": sweep,
        "sweep_digest": digest([bytes.fromhex(v) for v in sweep.values()]) if sweep else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.summary(), tracer.counters)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
