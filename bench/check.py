"""Independent checker for every output the benchmark's requests produce.

It shares no code with revsynth: circuits are parsed and evaluated here,
costs are recomputed from the published table, and the graph-exact results
are compared with the paper's hand-copied distributions.  Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter, namedtuple

import numpy as np

LINE_NAMES = "abcdefghijklmnopqrstuvwx"
VERIFY_MAX_LINES = 22
SAMPLED_WORDS = 512

# Exhaustive n = 3 gate-count distributions (gate count -> permutations):
# MMD transformation-based synthesis, its bidirectional variant, and the
# optimal all-positive-control circuit sizes (Miller, Maslov and Dueck,
# DAC 2003; Shende, Prasad, Markov and Hayes, IEEE TCAD 2003).
DIST_MMD = {17: 1, 16: 14, 15: 92, 14: 380, 13: 1113, 12: 2468, 11: 4311,
            10: 6083, 9: 7044, 8: 6754, 7: 5379, 6: 3549, 5: 1922, 4: 839,
            3: 286, 2: 72, 1: 12, 0: 1}
DIST_BIDIRECTIONAL = {14: 9, 13: 111, 12: 581, 11: 1946, 10: 4349, 9: 6917,
                      8: 8255, 7: 7662, 6: 5546, 5: 3088, 4: 1329, 3: 424,
                      2: 90, 1: 12, 0: 1}
DIST_OPTIMAL_CI = {8: 577, 7: 10253, 6: 17049, 5: 8921, 4: 2780, 3: 625,
                   2: 102, 1: 12, 0: 1}
# The full-control graph on three lines has diameter 12, reached only by the
# order-reversing permutation [7 6 5 4 3 2 1 0].
CH3_DIAMETER = 12


# cm: control mask; vm: the values the controlled lines need for the gate to fire.
Gate = namedtuple("Gate", "target cm vm size negatives")


def parse_tfc(text: str) -> tuple[int, list[Gate], list[str]]:
    """(line count, gates, comment lines) of a circuit file; raises ValueError."""
    n = None
    gates: list[Gate] = []
    comments: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        if line.startswith(".n"):
            n = int(line[2:])
            continue
        if n is None:
            raise ValueError("gate before .n header")
        head, _, rest = line.partition(" ")
        ops = rest.split(",")
        if head != f"t{len(ops)}":
            raise ValueError(f"bad gate line {line!r}")
        cm = vm = negatives = 0
        for op in ops[:-1]:
            bit = 1 << LINE_NAMES.index(op.rstrip("'"))
            cm |= bit
            if op.endswith("'"):
                negatives += 1
            else:
                vm |= bit
        target = LINE_NAMES.index(ops[-1])
        if target >= n or cm >> n or cm & (1 << target) or bin(cm).count("1") != len(ops) - 1:
            raise ValueError(f"bad operands in {line!r}")
        gates.append(Gate(target, cm, vm, len(ops), negatives))
    if n is None:
        raise ValueError("missing .n header")
    return n, gates, comments


def evaluate(words: np.ndarray, gates: list[Gate]) -> np.ndarray:
    """Apply the gates in order to every word (values, not positions)."""
    words = words.astype(np.int64)
    for g in gates:
        words ^= np.where((words & g.cm) == g.vm, 1 << g.target, 0)
    return words


def zero_garbage_cost(size: int, negatives: int) -> int:
    """Quantum cost with no garbage lines: the tabulated values for s <= 3,
    2^s - 3 + 2m from s = 4 (2 for a negative-control CNOT)."""
    if size == 1:
        return 1
    if size == 2:
        return 1 if negatives == 0 else 2
    if size == 3:
        return 5 if negatives <= 1 else 7
    return (1 << size) - 3 + 2 * negatives


def gate_bound(n: int) -> int:
    return (n - 1) * (1 << n) + 1


def check_synth(spec: dict, circuit_text: str) -> tuple[list[str], int | None]:
    """Cascade maps the input to the identity, within the gate bound, and uses
    only its algorithm's library.  Returns (problems, gate count)."""
    entries = spec["entries"]
    try:
        n, gates, _ = parse_tfc(circuit_text)
    except ValueError as exc:
        return [f"unparsable circuit: {exc}"], None
    problems = []
    if 1 << n != len(entries):
        problems.append(f"circuit has {n} lines for a {len(entries)}-entry input")
        return problems, len(gates)
    if len(gates) > gate_bound(n):
        problems.append(f"{len(gates)} gates exceed the bound {gate_bound(n)}")
    if spec["algo"] == "mmd":
        if any(g.negatives for g in gates):
            problems.append("mmd emitted a negative control")
    elif any(g.size != n for g in gates):
        problems.append(f"{spec['algo']} emitted a gate that is not full-control")
    out = evaluate(np.array(entries), gates)
    if not np.array_equal(out, np.arange(1 << n)):
        problems.append("cascade does not map the input to the identity")
    return problems, len(gates)


_STAMP = re.compile(r"# verified: (\d+) inputs, ancilla=(zeroed|borrowed)$")


def check_decompose(spec: dict, expansion_text: str, cost_text: str, seed: str) -> tuple[list[str], int | None]:
    """Expansion matches the cascade on sampled words, restores its ancilla
    (held at arbitrary values in borrowed mode), keeps gates small, carries a
    correct stamp, and is priced correctly.  Returns (problems, gate count)."""
    n, spec_gates, _ = parse_tfc(spec["circuit"])
    try:
        total, gates, comments = parse_tfc(expansion_text)
    except ValueError as exc:
        return [f"unparsable expansion: {exc}"], None
    problems = []
    ancilla = total - n
    zeroed = spec["strategy"] == "zeroed"
    if not 0 <= ancilla or total > VERIFY_MAX_LINES:
        problems.append(f"expansion spans {total} lines for a {n}-line cascade")
        return problems, len(gates)
    largest = max((g.size for g in gates), default=0)
    if largest > (3 if zeroed else 4):
        problems.append(f"gate of size {largest} left after {spec['strategy']} expansion")
    stamp = _STAMP.match(comments[-1]) if comments else None
    want_inputs = 1 << (n if zeroed else total)
    want_mode = "zeroed" if zeroed else "borrowed"
    if stamp is None or int(stamp.group(1)) != want_inputs or stamp.group(2) != want_mode:
        problems.append(f"stamp {comments[-1:]} != {want_inputs} inputs, ancilla={want_mode}")

    rng = random.Random(seed)
    principal = np.array([rng.randrange(1 << n) for _ in range(SAMPLED_WORDS)], dtype=np.int64)
    helpers = np.zeros(SAMPLED_WORDS, dtype=np.int64)
    if not zeroed:
        helpers = np.array([rng.randrange(1 << ancilla) for _ in range(SAMPLED_WORDS)], dtype=np.int64)
    out = evaluate(principal | (helpers << n), gates)
    if not np.array_equal(out & ((1 << n) - 1), evaluate(principal, spec_gates)):
        problems.append("principal outputs differ from the cascade on sampled words")
    if not np.array_equal(out >> n, helpers):
        problems.append("ancilla not restored on sampled words")

    rows = [tuple(map(int, m.groups())) for m in re.finditer(r"^\s*\d+\s+(\d+)\s+(\d+)\s+(\d+)$", cost_text, re.M)]
    want_rows = [(g.size, g.negatives, zero_garbage_cost(g.size, g.negatives)) for g in gates]
    cost = sum(row[2] for row in want_rows)
    if rows != want_rows:
        problems.append("cost rows differ from the zero-garbage cost table")
    if f"gate count: {len(gates)} (bound {gate_bound(total)})" not in cost_text:
        problems.append("cost report has the wrong gate count or bound")
    if f"quantum cost: {cost} (bound " not in cost_text:
        problems.append(f"cost report total differs from {cost}")
    return problems, len(gates)


# -- graph-exact -----------------------------------------------------------------

def lehmer_rank(entries) -> int:
    k = len(entries)
    r = 0
    for i, v in enumerate(entries):
        r = r * (k - i) + sum(1 for w in entries[i + 1:] if w < v)
    return r


def parity(entries) -> int:
    seen = [False] * len(entries)
    odd = 0
    for start in range(len(entries)):
        length = 0
        while not seen[start]:
            seen[start] = True
            start = entries[start]
            length += 1
        odd ^= max(length - 1, 0) & 1
    return odd


def ci_gate_perms(n: int) -> list[tuple[int, ...]]:
    """Permutations of every all-positive-control gate on n lines."""
    perms = []
    for target in range(n):
        others = [line for line in range(n) if line != target]
        for subset in range(1 << (n - 1)):
            cm = sum(1 << others[i] for i in range(n - 1) if subset >> i & 1)
            perms.append(tuple(v ^ (1 << target) if v & cm == cm else v for v in range(1 << n)))
    return perms


def _histogram(stdout: str) -> dict[int, int]:
    return {int(d): int(c) for d, c in re.findall(r"^distance\s+(\d+): (\d+)$", stdout, re.M)}


def parse_dump(data: bytes, label: str, n: int) -> tuple[bytes | None, list[str]]:
    header = b"RSYNBFS\x00" + bytes([n, ord(label)]) + bytes(6)
    if data[:16] != header:
        return None, ["dump header is wrong"]
    body = data[16:]
    vertices = math.factorial(1 << n)
    if len(body) != vertices:
        return None, [f"dump holds {len(body)} distances, expected {vertices}"]
    return body, []


def check_bfs(spec: dict, stdout: str, dump: bytes) -> tuple[list[str], bytes | None]:
    """BFS report and dump agree with each other and with the paper."""
    label, n = spec["label"], spec["n"]
    body, problems = parse_dump(dump, label, n)
    hist = _histogram(stdout)
    if body is not None and dict(Counter(body)) != hist:
        problems.append("printed histogram differs from the dump")
    diameter = max(hist, default=-1)
    if f"diameter: {diameter}\n" not in stdout:
        problems.append("printed diameter is not the largest distance")
    if label == "I":
        if "bipartite: no\n" not in stdout:
            problems.append("all-positive graph reported bipartite")
        problems += _check_odd_walk(stdout, n)
        if n == 3 and hist != DIST_OPTIMAL_CI:
            problems.append("C_I(3) histogram differs from the optimal distribution")
    else:
        if "bipartite: yes\n" not in stdout:
            problems.append("full-control graph not reported bipartite")
        audit = f"distance sandwich: {math.factorial(1 << n) - 1} vertices, 0 violations, parity consistent"
        if audit not in stdout:
            problems.append("Hamming-distance audit failed")
        if body is not None:
            size = 1 << n
            odd = sum(body[r] & 1 != parity(p) for r, p in enumerate(itertools.permutations(range(size))))
            if odd:
                problems.append(f"{odd} distances disagree with permutation parity")
            if n == 3:
                far = [r for r, d in enumerate(body) if d == CH3_DIAMETER]
                if diameter != CH3_DIAMETER or far != [lehmer_rank(list(range(size - 1, -1, -1)))]:
                    problems.append("C_H(3) diameter 12 is not reached by the reverse permutation alone")
    return problems, body


def _check_odd_walk(stdout: str, n: int) -> list[str]:
    walk = [tuple(map(int, m.split())) for m in re.findall(r"^  \[([\d ]+)\]$", stdout, re.M)]
    if len(walk) < 2 or walk[0] != walk[-1] or (len(walk) - 1) % 2 == 0:
        return ["no odd closed walk printed"]
    gens = ci_gate_perms(n)
    for u, v in zip(walk, walk[1:]):
        if not any(tuple(g[x] for x in u) == v for g in gens):
            return [f"walk step {u} -> {v} is not a library gate"]
    return []


def check_sweep(n: int, sweep: dict, dist_i: bytes | None, dist_h: bytes | None) -> tuple[list[str], int]:
    """Histograms against the paper, and per permutation: no heuristic beats
    the exact distance, and distance() agrees with the dumps.  Returns
    (problems, number of failing permutations)."""
    mmd = bytes.fromhex(sweep["mmd"])
    bi = bytes.fromhex(sweep["bi"])
    di = bytes.fromhex(sweep["dist_i"])
    dh = bytes.fromhex(sweep["dist_h"])
    problems = []
    if n == 3:
        if dict(Counter(mmd)) != DIST_MMD:
            problems.append("mmd histogram differs from the published distribution")
        if dict(Counter(bi)) != DIST_BIDIRECTIONAL:
            problems.append("hc-bi histogram differs from the published distribution")
    if dist_i is None or dist_h is None:
        problems.append("no valid dump to compare distances against")
    if problems:
        return problems, len(mmd)
    bad = sum(
        1
        for r in range(len(mmd))
        if mmd[r] < di[r] or bi[r] < dh[r] or di[r] != dist_i[r] or dh[r] != dist_h[r]
    )
    if bad:
        problems.append(f"{bad} permutations beat their exact distance or disagree with the dump")
    return problems, bad
