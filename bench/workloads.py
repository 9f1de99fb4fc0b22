"""Seeded, fixed-work request lists for the four benchmark workloads.

Inputs are generated here from the seed alone, never by revsynth, and are
written as ``.tv`` / ``.tfc`` text before any timing starts.  A request is a
list of CLI calls replayed back to back; its latency is their sum.  Output
paths carry an ``{out}`` prefix that each round replaces with its own
directory, so rounds never overwrite each other's files.
"""

from __future__ import annotations

import os
import random

ALGORITHMS = ("mmd", "hc-right", "hc-left", "hc-bi")
STRATEGIES = ("zeroed", "borrowed", "one-garbage")
LINE_NAMES = "abcdefghijklmnopqrstuvwx"
WORKLOADS = ("synth-small", "synth-wide", "graph-exact", "decompose-verify")
# Workloads whose inputs do not depend on the seed.
SEEDLESS = ("graph-exact",)

# Requests per (line count, algorithm).  synth-wide latencies form one
# cluster per line count; with a third of the requests at each n, the
# median sits in the middle of the n = 9 cluster and p90 among the n = 10
# hc-* requests, away from the cluster edges.  One request per pair keeps a
# round short, so a run holds enough rounds for a steady median.
SYNTH_SMALL = {3: 16, 4: 16, 5: 16, 6: 16}
SYNTH_WIDE = {8: 1, 9: 1, 10: 1}
# Cascades per line count; each cascade is decomposed under all strategies.
DECOMPOSE = {7: 10, 8: 10, 9: 10, 10: 10}
DECOMPOSE_GATES = 24
GRAPH_LINES = 3

# Sizes for the self-test smoke run: every code path, a few seconds in all.
TINY_SYNTH_SMALL = {3: 2, 4: 2}
TINY_SYNTH_WIDE = {8: 1}
TINY_DECOMPOSE = {7: 1}
TINY_DECOMPOSE_GATES = 4
TINY_GRAPH_LINES = 2


def build(workload: str, seed: int, tiny: bool, in_dir: str) -> dict:
    """Generate the workload's inputs under ``in_dir``.

    Returns the job one round replays: ``requests`` plus ``sweep``, the line
    count of the exhaustive synthesis sweep (graph-exact only) or None.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    os.makedirs(in_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "synth-small":
        return dict(requests=_synth(rng, TINY_SYNTH_SMALL if tiny else SYNTH_SMALL, in_dir), sweep=None)
    if workload == "synth-wide":
        return dict(requests=_synth(rng, TINY_SYNTH_WIDE if tiny else SYNTH_WIDE, in_dir), sweep=None)
    if workload == "decompose-verify":
        counts = TINY_DECOMPOSE if tiny else DECOMPOSE
        gates = TINY_DECOMPOSE_GATES if tiny else DECOMPOSE_GATES
        return dict(requests=_decompose(rng, counts, gates, in_dir), sweep=None)
    # graph-exact enumerates every permutation, so it has nothing to draw.
    n = TINY_GRAPH_LINES if tiny else GRAPH_LINES
    return dict(requests=_graph(n), sweep=n)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _synth(rng: random.Random, counts: dict[int, int], in_dir: str) -> list[dict]:
    plan = [(n, algo) for n, k in counts.items() for algo in ALGORITHMS for _ in range(k)]
    rng.shuffle(plan)
    requests = []
    for idx, (n, algo) in enumerate(plan):
        rid = f"s{idx:04d}"
        entries = list(range(1 << n))
        rng.shuffle(entries)
        path = os.path.join(in_dir, rid + ".tv")
        _write(path, " ".join(map(str, entries)) + "\n")
        requests.append({
            "id": rid,
            "calls": [["synth", "--algo", algo, "--in", path, "--out", "{out}/" + rid + ".tfc"]],
            "outputs": ["{out}/" + rid + ".tfc"],
            "check": {"kind": "synth", "algo": algo, "entries": entries},
        })
    return requests


def random_cascade(rng: random.Random, n: int, count: int) -> str:
    """A ``.tfc`` cascade of mixed-polarity gates; the first spans every line."""
    lines = [f".n {n}"]
    for k in range(count):
        target = rng.randrange(n)
        others = [line for line in range(n) if line != target]
        size = n if k == 0 else rng.randint(1, n)
        controls = sorted(rng.sample(others, size - 1))
        ops = [LINE_NAMES[c] + ("'" if rng.random() < 0.5 else "") for c in controls]
        ops.append(LINE_NAMES[target])
        lines.append(f"t{size} {','.join(ops)}")
    return "\n".join(lines) + "\n"


def _decompose(rng: random.Random, counts: dict[int, int], gates: int, in_dir: str) -> list[dict]:
    requests = []
    for n, k in counts.items():
        for _ in range(k):
            text = random_cascade(rng, n, gates)
            path = os.path.join(in_dir, f"c{len(requests) // len(STRATEGIES):04d}.tfc")
            _write(path, text)
            for strategy in STRATEGIES:
                rid = f"d{len(requests):04d}"
                out = "{out}/" + rid + ".tfc"
                requests.append({
                    "id": rid,
                    "calls": [
                        ["decompose", "--circuit", path, "--strategy", strategy, "--verify", "--out", out],
                        ["cost", "--circuit", out, "--garbage", "0"],
                    ],
                    "outputs": [out],
                    "check": {"kind": "decompose", "strategy": strategy, "circuit": text},
                })
    rng.shuffle(requests)
    return requests


def _graph(n: int) -> list[dict]:
    return [
        {
            "id": f"bfs-{label}",
            "calls": [["bfs", "--set", label, "--n", str(n), *extra, "--dump", "{out}/" + label + ".bin"]],
            "outputs": ["{out}/" + label + ".bin"],
            "check": {"kind": "bfs", "label": label, "n": n},
        }
        for label, extra in (("I", []), ("H", ["--audit"]))
    ]
