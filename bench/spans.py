"""In-memory span tracer wrapped around revsynth's layer entry points.

Only the traced run installs it.  Each wrapped call records a span (layer,
start, end, parent span) in flat arrays; counters that need a call's
arguments or result are added by per-layer hooks.  Nothing inside the
package is edited: the wrappers replace attributes on the package's modules
and classes in the benchmark's own child process.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Sequence

Hook = Callable[[Counter, tuple, object, "str | None"], None]


def self_times(
    keys: Sequence, starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> dict:
    """Per key: [calls, total duration, self duration] over properly nested spans.

    ``parents[i]`` is the index of the span that was open when span ``i``
    began, or -1.  A parent always precedes its children, so one backward
    pass sees every child before its parent.  Self time is a span's duration
    minus the time its direct children cover; children of one span run one
    after another, so their durations simply add.
    """
    covered = [0] * len(keys)
    out: dict = {}
    for i in range(len(keys) - 1, -1, -1):
        duration = ends[i] - starts[i]
        parent = parents[i]
        if parent >= 0:
            covered[parent] += duration
        acc = out.setdefault(keys[i], [0, 0, 0])
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - covered[i]
    return out


class Tracer:
    """Records spans and counters for one round in one process."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        lid = self._layer_id(name)
        layers, layer, start, end, parent = self.layers, self.layer, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            layer.append(lid)
            parent.append(up)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result, layers[layer[up]] if up >= 0 else None)
            return result

        return traced

    def summary(self) -> dict:
        """{layer: [calls, total_ns, self_ns]} for every layer that ran."""
        table = self_times(self.layer, self.start, self.end, self.parent)
        return {self.layers[lid]: acc for lid, acc in table.items()}


# -- counters computed from a call's arguments and result -----------------------

def _apply_entries(c: Counter, args, result, parent) -> None:
    circuit = args[0]
    c["gates.apply_gate_entries"] += len(circuit.gates) << circuit.n


def _mmd(c: Counter, args, result, parent) -> None:
    c["mmd.gates_emitted"] += len(result)


def _hc_side(c: Counter, args, result, parent) -> None:
    if parent == "hypercube.bi":
        c["hypercube.bi_side_gates"] += len(result)


def _hc_bi(c: Counter, args, result, parent) -> None:
    c["hypercube.bi_kept_gates"] += len(result)


def _bfs(c: Counter, args, result, parent) -> None:
    gen_set = args[0]
    c["cayley.bfs_vertices"] += result.histogram.total
    c["cayley.bfs_edges"] += result.histogram.total * len(gen_set)


def _expand(c: Counter, args, result, parent) -> None:
    c["decompose.gates_out"] += len(result.gates)
    c["decompose.ancilla_lines"] += result.ancilla_lines


def _verify(c: Counter, args, result, parent) -> None:
    spec, impl = args
    c["decompose.verify_words"] += result.inputs_checked
    c["decompose.verify_gate_words"] += result.inputs_checked * (len(spec.gates) + len(impl.gates.gates))


# (layer, module, attribute path, hook).  A name that a module pulled in with
# ``from .x import y`` is wrapped in the namespace that looks it up: ``cli``
# for the subcommands, ``hypercube`` for hc_bidirectional's two scans,
# ``perm`` for TruthVector.rank and ``cayley`` for the BFS inner loop.  The
# cold BFS runs only through ``cli.bfs``; warm cache hits inside distance()
# count toward cayley.distance.
LAYERS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("cli.main", "revsynth.cli", "main", None),
    ("perm.parse", "revsynth.perm", "TruthVector.from_text", None),
    ("perm.tv_init", "revsynth.perm", "TruthVector.__init__", None),
    ("perm.rank", "revsynth.perm", "rank_entries", None),
    ("perm.rank", "revsynth.cayley", "rank_entries", None),
    ("gates.gate_init", "revsynth.gates", "Gate.__init__", None),
    ("gates.apply", "revsynth.gates", "Circuit.apply", _apply_entries),
    ("gates.parse_circuit", "revsynth.cli", "parse_circuit", None),
    ("gates.to_text", "revsynth.gates", "Circuit.to_text", None),
    ("mmd", "revsynth.cli", "mmd_synthesize", _mmd),
    ("mmd", "revsynth.mmd", "mmd_synthesize", _mmd),
    ("hypercube.scan", "revsynth.cli", "hc_synthesize", _hc_side),
    ("hypercube.scan", "revsynth.hypercube", "hc_synthesize", _hc_side),
    ("hypercube.bi", "revsynth.cli", "hc_bidirectional", _hc_bi),
    ("hypercube.bi", "revsynth.hypercube", "hc_bidirectional", _hc_bi),
    ("cayley.bfs", "revsynth.cli", "bfs", _bfs),
    ("cayley.audit", "revsynth.cli", "hamming_distance_audit", None),
    ("cayley.distance", "revsynth.cayley", "distance", None),
    ("decompose.expand", "revsynth.cli", "expand_circuit", _expand),
    ("decompose.verify", "revsynth.cli", "verify_circuit_equivalence", _verify),
    ("cost", "revsynth.cli", "cost_report", None),
)


def install(tracer: Tracer) -> None:
    """Replace every entry point in LAYERS with its traced wrapper."""
    for name, module, path, hook in LAYERS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, hook)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw, hook))


def layer_metrics(summary: dict, counters: Counter) -> dict:
    """The per-layer metrics of one traced round, in seconds and counts."""

    def calls(layer: str) -> int:
        return summary.get(layer, (0, 0, 0))[0]

    def total_s(layer: str) -> float:
        return summary.get(layer, (0, 0, 0))[1] / 1e9

    def self_s(layer: str) -> float:
        return summary.get(layer, (0, 0, 0))[2] / 1e9

    sides = counters["hypercube.bi_side_gates"]
    return {
        "cli.self_s": self_s("cli.main"),
        "perm.parse_s": total_s("perm.parse"),
        "perm.parse_calls": calls("perm.parse"),
        "perm.tv_init_s": total_s("perm.tv_init"),
        "perm.tv_init_calls": calls("perm.tv_init"),
        "perm.rank_s": total_s("perm.rank"),
        "perm.rank_calls": calls("perm.rank"),
        "gates.gate_init_s": total_s("gates.gate_init"),
        "gates.gate_init_calls": calls("gates.gate_init"),
        "gates.apply_s": total_s("gates.apply"),
        "gates.apply_calls": calls("gates.apply"),
        "gates.apply_gate_entries": counters["gates.apply_gate_entries"],
        "gates.parse_circuit_s": total_s("gates.parse_circuit"),
        "gates.to_text_s": total_s("gates.to_text"),
        "mmd.self_s": self_s("mmd"),
        "mmd.calls": calls("mmd"),
        "mmd.gates_emitted": counters["mmd.gates_emitted"],
        "hypercube.self_s": self_s("hypercube.scan") + self_s("hypercube.bi"),
        "hypercube.calls": calls("hypercube.scan") + calls("hypercube.bi"),
        "hypercube.bi_kept_ratio": counters["hypercube.bi_kept_gates"] / sides if sides else 0.0,
        "cayley.bfs_s": total_s("cayley.bfs"),
        "cayley.bfs_vertices": counters["cayley.bfs_vertices"],
        "cayley.bfs_edges": counters["cayley.bfs_edges"],
        "cayley.audit_s": total_s("cayley.audit"),
        "cayley.distance_s": total_s("cayley.distance"),
        "cayley.distance_calls": calls("cayley.distance"),
        "decompose.expand_s": total_s("decompose.expand"),
        "decompose.gates_out": counters["decompose.gates_out"],
        "decompose.ancilla_lines": counters["decompose.ancilla_lines"],
        "decompose.verify_s": total_s("decompose.verify"),
        "decompose.verify_words": counters["decompose.verify_words"],
        "decompose.verify_gate_words": counters["decompose.verify_gate_words"],
        "cost.self_s": self_s("cost"),
        "cost.calls": calls("cost"),
    }
