"""Command-line front end for synthesis, costing, decomposition and BFS.

Exit codes: 0 on success, 1 on a domain error (bad permutation file, policy
or size mismatch, line cap), 2 on a usage error, 3 on an internal error (a
result that failed its own re-verification, or running out of memory).  All
output for a given input is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections import Counter

from . import __version__
from .cayley import DistanceHistogram, bfs, check_bfs_lines, hamming_distance_audit
from .cost import GarbagePolicy, cost_report
from .decompose import DECOMPOSE_STRATEGIES, expand_circuit, verify_circuit_equivalence
from .gates import LABELS, GeneratorSet, parse_circuit
from .hypercube import hc_bidirectional, hc_synthesize
from .mmd import mmd_synthesize
from .perm import TruthVector

# Each entry looks its synthesizer up in this module at call time, so replacing
# ``cli.mmd_synthesize`` (a tracer, a test) replaces what synth and enumerate run.
SYNTHESIZERS = {
    "mmd": lambda f: mmd_synthesize(f),
    "hc-right": lambda f: hc_synthesize(f, "right"),
    "hc-left": lambda f: hc_synthesize(f, "left"),
    "hc-bi": lambda f: hc_bidirectional(f),
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_synth(args: argparse.Namespace) -> int:
    f = TruthVector.from_text(_read_text(args.input))
    circuit = SYNTHESIZERS[args.algo](f)
    if not circuit.apply(f).is_identity():
        raise RuntimeError("cascade does not map the input to identity")
    if args.direction == "from-identity":
        circuit = circuit.inverse()
    _write_text(args.output, circuit.to_text())
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    circuit = parse_circuit(_read_text(args.circuit))
    tv = (TruthVector.identity(circuit.n) if args.input is None
          else TruthVector.from_text(_read_text(args.input)))
    print(circuit.apply(tv))
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    circuit = parse_circuit(_read_text(args.circuit))
    policy = GarbagePolicy(args.garbage)
    report = cost_report(circuit, policy)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.to_text())
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    check_bfs_lines(args.n)  # enumeration visits every vertex of the BFS graph
    synthesize = SYNTHESIZERS[args.algo]
    perms = map(TruthVector, itertools.permutations(range(1 << args.n)))  # in rank order
    hist = DistanceHistogram(Counter(len(synthesize(tv)) for tv in perms))
    if args.csv:
        _write_text(args.csv, hist.to_csv("gates"))
    if args.format == "json":
        report = {
            "algorithm": args.algo,
            "n": args.n,
            "histogram": {str(k): c for k, c in hist.counts.items()},
            "average": hist.average,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"algorithm: {args.algo}")
    print(f"permutations: {hist.total}")
    for k in reversed(hist.counts):
        print(f"gates {k:>3}: {hist.counts[k]}")
    print(f"average gates: {hist.average:.2f}")
    return 0


def cmd_bfs(args: argparse.Namespace) -> int:
    check_bfs_lines(args.n)  # first: n >= 11 gets this refusal, not GeneratorSet's range error
    if args.audit and args.set != "H":
        raise ValueError(f"--audit sweeps the full-control graph H; got --set {args.set}")
    result = bfs(GeneratorSet(args.set, args.n))
    hist = result.histogram
    if args.csv:
        _write_text(args.csv, hist.to_csv("distance"))
    if args.dump:
        with open(args.dump, "wb") as fh:
            fh.write(result.dump())
    print(f"generator set: {args.set}, lines: {args.n}")
    print(f"vertices: {hist.total}")
    for d, c in hist.counts.items():
        print(f"distance {d:>3}: {c}")
    print(f"diameter: {hist.diameter}")
    print(f"average distance: {hist.average:.2f}")
    print(f"bipartite: {'yes' if result.bipartite else 'no'}")
    if result.odd_walk is not None:
        print(f"odd closed walk ({len(result.odd_walk) - 1} edges):")
        for v in result.odd_walk:
            print(f"  [{v}]")
    if args.audit:
        audit = hamming_distance_audit(args.n)
        print(
            f"distance sandwich: {audit.vertices_checked} vertices, "
            f"{audit.violations} violations, parity "
            f"{'consistent' if audit.parity_consistent else 'INCONSISTENT'}"
        )
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    circuit = parse_circuit(_read_text(args.circuit))
    expansion = expand_circuit(circuit, args.strategy)
    text = expansion.gates.to_text()
    if args.verify:
        outcome = verify_circuit_equivalence(circuit, expansion)
        if not outcome.equivalent:
            raise RuntimeError(
                f"expansion failed verification at input {outcome.counterexample}"
            )
        text += (f"# verified: {outcome.inputs_checked} inputs, "
                 f"ancilla={expansion.ancilla_mode.value}\n")
    _write_text(args.output, text)
    return 0


def cmd_verify_elementary(args: argparse.Namespace) -> int:
    from .elementary import verify_elementary  # numpy: imported only here

    checks = verify_elementary()
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        print(f"{status} {check.name}: residual {check.residual:.3e} (tol {check.tolerance:.0e})")
    return 0 if all(c.ok for c in checks) else 1


@functools.cache  # built on the first call, reused: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revsynth",
        description=(
            "Synthesize reversible circuits from permutations, price them, "
            "expand wide gates into Toffoli networks, and analyze the gate "
            "libraries' Cayley graphs exactly."
        ),
        epilog=(
            "Truth-vector files hold 2^n whitespace-separated integers "
            "(optionally after # comment lines); circuit files start with "
            "'.n <lines>' followed by 't<size> <controls...,target>' rows, "
            "lines named a, b, c, ... from the least significant bit, with "
            "a trailing apostrophe marking a control that fires on 0."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit for a permutation")
    p.add_argument("--algo", choices=SYNTHESIZERS, required=True)
    p.add_argument("--in", dest="input", default="-", metavar="FILE",
                   help="truth-vector file (default stdin)")
    p.add_argument("--out", dest="output", default="-", metavar="FILE",
                   help="circuit file (default stdout)")
    p.add_argument("--direction", choices=("to-identity", "from-identity"),
                   default="to-identity",
                   help="emit the cascade mapping the function to the identity "
                        "(native order) or the reverse reading realizing it")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("apply", help="apply a circuit to a truth vector")
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--in", dest="input", default=None, metavar="FILE",
                   help="input truth vector (default: identity)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("cost", help="price a circuit under a garbage policy")
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--garbage", choices=[policy.value for policy in GarbagePolicy], default="0")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("enumerate",
                       help="synthesize every permutation on n lines and histogram the gate counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--algo", choices=SYNTHESIZERS, required=True)
    p.add_argument("--csv", metavar="FILE", help="also write 'gates,count' rows")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bfs", help="exact distances over a gate-library graph")
    p.add_argument("--set", choices=LABELS, required=True,
                   help="I: all-positive controls of any arity; H: full-control mixed polarity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", metavar="FILE", help="write 'distance,count' rows")
    p.add_argument("--dump", metavar="FILE",
                   help="write the binary distance table (16-byte header, "
                        "then one byte per permutation in rank order)")
    p.add_argument("--audit", action="store_true",
                   help="also sweep the Hamming-distance sandwich (set H)")
    p.set_defaults(func=cmd_bfs)

    p = sub.add_parser("decompose", help="expand wide gates into size <= 3 networks")
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--strategy", choices=DECOMPOSE_STRATEGIES, required=True)
    p.add_argument("--verify", action="store_true",
                   help="exhaustively check the expansion and stamp the output")
    p.add_argument("--out", dest="output", default="-", metavar="FILE")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-elementary",
                       help="check the five-gate controlled square-root-of-NOT identities")
    p.set_defaults(func=cmd_verify_elementary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: internal: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
