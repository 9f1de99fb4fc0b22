"""revsynth benchmark: drives the CLI in process over seeded request lists.

Usage (from the root of a checkout):

    python3 bench/run.py --workload synth-small --seed 1 --seconds 25 --trace 0

Each round is a fresh child interpreter (bench/child.py) that imports
``revsynth.cli`` from ``src/`` and replays the workload's fixed request list
through ``revsynth.cli.main(argv)`` in a closed loop: one request at a time,
each waiting for the previous one.  Rounds repeat until ``--seconds`` would
be exceeded.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
Every output is checked by bench/check.py and compared byte for byte with
the first round and with the digests recorded under bench/digests/.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.  Exits non-zero, printing no result, when ``src/revsynth`` is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGEST_DIR = os.path.join(BENCH_DIR, "digests")
WORK_DIR = ".bench_work"
SETUP_SAMPLES = 7
# At least 100 latency samples per run, so p90 has ten samples beyond it.
MIN_LATENCY_SAMPLES = 100
# No new round starts after this many seconds, whatever --seconds says, so
# a run ends well within three minutes.
HARD_STOP_S = 120.0
PROBLEMS_SHOWN = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "gates_mean": "gates",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def git_sha(root: str) -> str | None:
    """HEAD's commit read straight from .git, or None outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "revsynth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], cwd: str, env: dict, limit: float) -> float:
    """Run a process to its end and return its wall time in seconds.

    Waits in a blocking waitpid: Popen's own timeout would poll the child
    every 50 ms and round every sample to that grid.  A timer kills a process
    that outlives ``limit`` seconds instead.
    """
    started = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, stderr = proc.communicate()
        finally:
            timer.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return time.perf_counter() - started


def measure_setup(root: str, src: str, env: dict) -> list[float]:
    """Wall time for fresh interpreters to start and import revsynth.cli."""
    code = f"import sys; sys.path.insert(0, {src!r}); import revsynth.cli"
    return [run_process([sys.executable, "-c", code], root, env, 60.0) for _ in range(SETUP_SAMPLES)]


def run_round(root: str, work: str, job: dict, index: int, traced: bool, env: dict, limit: float) -> dict:
    job_path = os.path.join(work, f"job-{index}.json")
    result_path = os.path.join(work, f"result-{index}.json")
    out_dir = os.path.join(work, f"round-{index}")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(dict(job, out_dir=out_dir), fh)
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), job_path, result_path, "1" if traced else "0"]
    duration = run_process(argv, root, env, limit)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(index=index, traced=traced, duration=duration, out_dir=out_dir)
    return result


def run_rounds(root: str, work: str, job: dict, seconds: int, trace: bool, env: dict, started: float) -> list[dict]:
    rounds: list[dict] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        remaining = max(10.0, 170.0 - (time.perf_counter() - started))
        rounds.append(run_round(root, work, job, len(rounds), traced, env, remaining))
        elapsed = time.perf_counter() - begin
        if trace:  # per-layer metrics need one round of each kind, no latencies
            enough = any(r["traced"] for r in rounds)
        else:
            enough = sum(len(r["latency_ns"]) for r in rounds) >= MIN_LATENCY_SAMPLES
        if elapsed > HARD_STOP_S or (enough and elapsed + rounds[-1]["duration"] > seconds):
            return rounds


def read_output(out_dir: str, path: str) -> bytes:
    try:
        with open(path.replace("{out}", out_dir), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def check_first_round(job: dict, first: dict, seed: int) -> tuple[dict, int, list[float], list[str]]:
    """Check every output of the first round.

    Returns (failing request ids, failing sweep permutations, gate counts,
    problems).  Later rounds are held to byte equality with this one.
    """
    bad: dict[str, list[str]] = {}
    gates: list[float] = []
    dumps: dict[str, bytes | None] = {}
    out_dir = first["out_dir"]
    for req, rec in zip(job["requests"], first["requests"]):
        spec = req["check"]
        if rec["rc"] != 0:
            bad[req["id"]] = [f"exit {rec['rc']}: {rec['stderr'].strip()[-300:]}"]
            continue
        output = read_output(out_dir, req["outputs"][0])
        if spec["kind"] == "synth":
            problems, count = check.check_synth(spec, output.decode())
        elif spec["kind"] == "decompose":
            problems, count = check.check_decompose(spec, output.decode(), rec["stdout"], f"{seed}:{req['id']}")
        else:
            problems, dumps[spec["label"]] = check.check_bfs(spec, rec["stdout"], output)
            count = None
        if count is not None:
            gates.append(count)
        if problems:
            bad[req["id"]] = problems
    sweep_bad = 0
    if job["sweep"]:
        sweep = first["sweep"]
        problems, sweep_bad = check.check_sweep(job["sweep"], sweep, dumps.get("I"), dumps.get("H"))
        if problems:
            bad["sweep"] = problems
        for key in ("mmd", "bi"):
            gates.extend(bytes.fromhex(sweep[key]))
    lines = [f"{rid}: {p}" for rid, probs in bad.items() for p in probs]
    return bad, sweep_bad, gates, lines


def load_digests(workload: str) -> dict:
    path = os.path.join(DIGEST_DIR, workload + ".json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_digests(workload: str, key: str, digests: dict) -> None:
    table = load_digests(workload)
    table[key] = digests
    os.makedirs(DIGEST_DIR, exist_ok=True)
    with open(os.path.join(DIGEST_DIR, workload + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")


def round_digests(job: dict, rnd: dict) -> dict:
    out = {rec["id"]: rec["digest"] for rec in rnd["requests"]}
    if job["sweep"]:
        out["sweep"] = rnd["sweep_digest"]
    return out


def count_failures(job: dict, rounds: list[dict], bad: dict, sweep_bad: int,
                   recorded: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every request of every round.

    A request fails when it exits non-zero, when its first-round output
    fails a check, or when its output differs from the first round's or from
    the recorded digest.  The sweep counts one attempt per permutation.
    """
    reference = round_digests(job, rounds[0])
    sweep_size = len(bytes.fromhex(rounds[0]["sweep"]["mmd"])) if job["sweep"] else 0
    problems = []
    if recorded is not None and recorded.keys() != reference.keys():
        problems.append("recorded digests name other requests than this run")
    attempted = failed = 0
    for rnd in rounds:
        exit_codes = {rec["id"]: rec["rc"] for rec in rnd["requests"]}
        for rid, digest in round_digests(job, rnd).items():
            size = sweep_size if rid == "sweep" else 1
            attempted += size
            if digest != reference[rid]:
                problems.append(f"round {rnd['index']} {rid}: output differs from round 0")
                failed += size
            elif recorded is not None and recorded.get(rid) != digest:
                if rnd is rounds[0]:
                    problems.append(f"{rid}: output differs from the recorded digest")
                failed += size
            elif rid == "sweep":
                failed += sweep_bad
            elif rid in bad or exit_codes[rid] != 0:
                failed += 1
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="revsynth benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs of every workload, for the self-tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="after a correct run, store its output digests for this seed")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "revsynth", "cli.py")):
        print(f"error: no src/revsynth under {root}; run from the root of a revsynth checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        job = workloads.build(args.workload, args.seed, args.tiny, os.path.join(work, "in"))
        job["src"] = src
        setup = measure_setup(root, src, env)
        rounds = run_rounds(root, work, job, args.seconds, bool(args.trace), env, started)
        bad, sweep_bad, gates, problems = check_first_round(job, rounds[0], args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    digest_key = "any" if args.workload in workloads.SEEDLESS else str(args.seed)
    recorded = None if args.tiny else load_digests(args.workload).get(digest_key)
    attempted, failed, digest_problems = count_failures(job, rounds, bad, sweep_bad, recorded)
    problems += digest_problems

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    latencies_ms = [ns / 1e6 for r in plain for ns in r["latency_ns"]]
    # Mean, not median, over rounds: the host's speed shifts for seconds at a
    # time, and a median over a mix of fast and slow rounds jumps between them.
    wall = statistics.fmean(r["wall_s"] for r in plain)
    if args.trace:
        per_round = [r["layers"] for r in traced]
        values = {name: statistics.median_low(r[name] for r in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = statistics.fmean(r["wall_s"] for r in traced) - wall
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p90_ms": percentile(latencies_ms, 90),
            "gates_mean": statistics.fmean(gates) if gates else 0.0,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(root),
        "src_sha256": src_digest(src),
        "python": rounds[0]["python"],
        "numpy": rounds[0]["numpy"],
        "nproc": os.cpu_count(),
        "rounds_untraced": len(plain),
        "rounds_traced": len(traced),
        "requests_per_round": len(job["requests"]),
        "sweep_permutations_per_round": math.factorial(1 << job["sweep"]) if job["sweep"] else 0,
        "latency_samples": len(latencies_ms),
        "setup_samples": setup,
        "wall_samples": [r["wall_s"] for r in plain],
        "import_s_samples": [r["import_s"] for r in rounds],
        "gate_samples": len(gates),
        "digests": "checked" if recorded is not None else "not recorded for this seed",
        "failed_ratio": failed / attempted,
        "problems": problems[:PROBLEMS_SHOWN],
        "run_s": time.perf_counter() - started,
    }
    correct = failed == 0 and not problems
    if args.record_digests and correct and not args.tiny:
        save_digests(args.workload, digest_key, round_digests(job, rounds[0]))
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
