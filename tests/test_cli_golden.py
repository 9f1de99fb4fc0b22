"""Golden hashes of the CLI: stdout plus every file written, per call.

The inputs are generated from a fixed ``random.Random`` seed, so each call's
output is a fixed byte string.  A hash that moves means some subcommand's
output moved, which the byte-identical output contract forbids.  The one
exception is a printed ``residual R (tol T)``: its last digits depend on the
LAPACK/BLAS build, so it is hashed only as whether R is within T.
"""

import hashlib
import random
import re

import pytest

from revsynth.cli import main
from revsynth.gates import LINE_NAMES


def _vector(rng: random.Random, n: int) -> str:
    values = list(range(1 << n))
    rng.shuffle(values)
    return " ".join(map(str, values)) + "\n"


def _circuit(rng: random.Random, n: int, sizes: range, count: int) -> str:
    """``count`` random gates on ``n`` lines with sizes drawn from ``sizes``."""
    rows = [f".n {n}"]
    for _ in range(count):
        lines = rng.sample(range(n), rng.choice(sizes))
        controls = [LINE_NAMES[l] + ("'" if rng.random() < 0.4 else "") for l in lines[1:]]
        rows.append(f"t{len(lines)} " + ",".join(controls + [LINE_NAMES[lines[0]]]))
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rng = random.Random(20121)
    texts = {
        "f3.tv": _vector(rng, 3),
        "f6.tv": _vector(rng, 6),
        "wide.tfc": _circuit(rng, 7, range(5, 8), 12),  # every gate size >= 5: all policies price it
        "mixed.tfc": _circuit(rng, 7, range(1, 7), 14),  # no full-width gate: one-garbage adds no line
        "full.tfc": _circuit(rng, 6, range(1, 7), 10),
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return root


def _case_list():
    cases = []
    for n in (3, 6):
        for algo in ("mmd", "hc-right", "hc-left", "hc-bi"):
            for direction in ("to-identity", "from-identity"):
                cases.append((f"synth-{algo}-{n}-{direction}",
                              ["synth", "--algo", algo, "--in", f"f{n}.tv", "--out", "out.tfc",
                               "--direction", direction], ["out.tfc"]))
    cases.append(("apply-identity", ["apply", "--circuit", "wide.tfc"], []))
    cases.append(("apply-vector", ["apply", "--circuit", "full.tfc", "--in", "f6.tv"], []))
    for policy in ("0", "1", "n-3"):
        for fmt in ("text", "json"):
            cases.append((f"cost-{policy}-{fmt}",
                          ["cost", "--circuit", "wide.tfc", "--garbage", policy, "--format", fmt], []))
    for algo in ("mmd", "hc-right", "hc-left", "hc-bi"):
        for fmt in ("text", "json"):
            cases.append((f"enumerate-{algo}-{fmt}",
                          ["enumerate", "--n", "2", "--algo", algo, "--format", fmt,
                           "--csv", "hist.csv"], ["hist.csv"]))
    cases.append(("enumerate-mmd-3-json",
                  ["enumerate", "--n", "3", "--algo", "mmd", "--format", "json",
                   "--csv", "hist.csv"], ["hist.csv"]))
    for label in ("I", "H"):
        for n in (2, 3):
            argv = ["bfs", "--set", label, "--n", str(n), "--csv", "dist.csv", "--dump", "dist.bin"]
            cases.append((f"bfs-{label}-{n}", argv + ["--audit"] * (label == "H"),
                          ["dist.csv", "dist.bin"]))
    for strategy in ("zeroed", "borrowed", "one-garbage"):
        for circuit in ("wide", "mixed", "full"):
            cases.append((f"decompose-{strategy}-{circuit}",
                          ["decompose", "--circuit", f"{circuit}.tfc", "--strategy", strategy,
                           "--verify", "--out", "out.tfc"], ["out.tfc"]))
    cases.append(("verify-elementary", ["verify-elementary"], []))
    return cases


CASES = _case_list()

# Recorded from the CLI as it stood when this test was written.
GOLDEN = {
    "synth-mmd-3-to-identity": "939b954e589aea418462fc940569bf0ef8820edded33a35e4e780f677bb6abb8",
    "synth-mmd-3-from-identity": "373084d043a3cb3d703753a10094503159c727e771db842c5f361426b95f2081",
    "synth-hc-right-3-to-identity": "fec61321078d38556c30101b92b9c98f57c5d2c75e50160dce41914d9328572c",
    "synth-hc-right-3-from-identity": "4ed7989ede951422b6ff03c6e09f59f4186c555466531e81f3a43fc9a6587f59",
    "synth-hc-left-3-to-identity": "f6dea5f7369c5fe760e1b51542ffce7d2edb1c35119689fad5b293a4368656ad",
    "synth-hc-left-3-from-identity": "6b3c37f740086a8a9d356b42f24045e809e865714008f99c4a4d2ba5e20e9b62",
    "synth-hc-bi-3-to-identity": "f6dea5f7369c5fe760e1b51542ffce7d2edb1c35119689fad5b293a4368656ad",
    "synth-hc-bi-3-from-identity": "6b3c37f740086a8a9d356b42f24045e809e865714008f99c4a4d2ba5e20e9b62",
    "synth-mmd-6-to-identity": "43a1614a17fef57af7715f3165970e11e25a81770b2a31b5049457ed45912534",
    "synth-mmd-6-from-identity": "08dadb64f6affdc07e28614732782eaa0590f18044d8b026562f758a789ce357",
    "synth-hc-right-6-to-identity": "32ff343e7ab04a72120681aaa08cf3453e0e8e2b6ffd8c4374dc4b3245922373",
    "synth-hc-right-6-from-identity": "33f1db478908f080b1ba12a45f041a83e7a2782c8f9335382f950ebddc08724e",
    "synth-hc-left-6-to-identity": "4863f32f14692d2fb921e9c744e717d56cfae8e10da125a5590ef1d86a0e3e14",
    "synth-hc-left-6-from-identity": "dd9e24e7df93c6ad5a29a414b3d1c505d53d83792585423c589348938389897d",
    "synth-hc-bi-6-to-identity": "4863f32f14692d2fb921e9c744e717d56cfae8e10da125a5590ef1d86a0e3e14",
    "synth-hc-bi-6-from-identity": "dd9e24e7df93c6ad5a29a414b3d1c505d53d83792585423c589348938389897d",
    "apply-identity": "6ec536933520c8632b285afb4bc5a8b31a03668c2b9425886e350adce1508862",
    "apply-vector": "a84f8c2c54ca25fd603d88e258a89a99bc0dbe9088fed749bd4d7d3211868ce1",
    "cost-0-text": "641fe54c723a163016ab507399091205523b8dac291f4197829298f98d9f1e33",
    "cost-0-json": "e11bdd4e759535213bc4a87f8c3e1b472df0a6e0f64c22e04ffbccf22bc6067f",
    "cost-1-text": "a13cf56c50f4991dd2ee628b0d107b6a9c65c82704934574af31cc5ad95a15b1",
    "cost-1-json": "87dd2a05c99471208c7bd52f4526b9a9cd8e637078f4b7b4bc74afe4bfc231ce",
    "cost-n-3-text": "93a69b053e70ae2f38f81ba89d385e6f030d0f71d5137f1ed41ff9b4407162e7",
    "cost-n-3-json": "e42b196778129d4cfec9f6f47c3483955dcca736a0525bd41d4560d675332e92",
    "enumerate-mmd-text": "b02939c7998b5efffa4456a8b8b3d7ad46479218f8f5c98e6126c55e365b6b74",
    "enumerate-mmd-json": "c5b847bdc1560693e3f2fc86a75d4e1f36afe130ccbdcc3abf3f5f6997354629",
    "enumerate-hc-right-text": "70cc8ea1b5719602d5eeeaacf83b0f71edfb1f25f980f68f09f4395d605dcfd1",
    "enumerate-hc-right-json": "48cd8d2fa4d150be05928abd3630de5184e866737a72ccbab33558c3ceb67977",
    "enumerate-hc-left-text": "425101f0a3321f2c0866bf16dfdebc96953ff111a8cb4f9d87619e0f61455a70",
    "enumerate-hc-left-json": "356188b4d41d18c5a6d146bdfe212e5179bedd44e75af6768ff615006378e279",
    "enumerate-hc-bi-text": "bf09554cb617f14275548a8ff4d836c0612bfc76f6841074e07fe9158e2dd800",
    "enumerate-hc-bi-json": "e9e0cca1b536e8033c9c4b8db48b49dece9f981499daa2ef3dcdf65554778d02",
    "enumerate-mmd-3-json": "6bea292395f07fde04a7c98a1ffb50bc5bb5ede35bd4f1cc9e7b1480c33190e4",
    "bfs-I-2": "dd9f658b6d62849068ac27f34db658acac905bd78ad41f04c611034999c34766",
    "bfs-I-3": "470baa1bc57f9830e01b625711fd7550cff4e48993bd54c51c316390428997e6",
    "bfs-H-2": "a47e778929a76a93c90de5d9a6db71c47da8156120c124580e3e3491bd491b85",
    "bfs-H-3": "69a636ce347ae9ed9e3453ff4e63719f262ed1a7bf51099ff4d643896df4f74e",
    "decompose-zeroed-wide": "af3bfc7e6aacd3883653c795aa0318832f025ca8f6bf96bd67611570e41671f8",
    "decompose-zeroed-mixed": "e7a9a2dafb40e42f98af206423b63a60baf56d4858f036fa894687b3d294a232",
    "decompose-zeroed-full": "6fdaa3e80b9fcd838b78cefe52f96ab6d7d00e9fbc2a7efd66ae4f75ba4f4721",
    "decompose-borrowed-wide": "9e08bb00c9a64b4e064d6423d7a2c565fa8ab740b4e7146231174e04215a61b2",
    "decompose-borrowed-mixed": "880cc3e5e13c9723478bae9652c469fa2c5ae2aab0cee963425f39c9193dce82",
    "decompose-borrowed-full": "886f11cd63e4375e946dec18cbe34702e77627e83f93ba3678a551c1d75f21f6",
    "decompose-one-garbage-wide": "9821d2ab5179211440e8e576aa1f85997fb5114b50beef2090d3924278e705a7",
    "decompose-one-garbage-mixed": "af55031ce811ccf0bac5edff19f26921680dbb6a510159e704b00ca9d7052e9a",
    "decompose-one-garbage-full": "34abbe9c47cc800fee7dab3dd52324500890ae185d05933fe27ea2fa6f8a8458",
    "verify-elementary": "3fc859f311ffff32302d64f5967d2b30d68facc04d686c1f97ddf55ea2221ccc",
}


_RESIDUAL = re.compile(r"residual (\S+) \(tol (\S+)\)")


def _within_tol(m: re.Match) -> str:
    return "residual within tol" if float(m[1]) <= float(m[2]) else "residual above tol"


def _run(root, capsys, argv, written) -> str:
    for name in written:
        (root / name).unlink(missing_ok=True)
    code = main([str(root / a) if (root / a).suffix in (".tv", ".tfc", ".csv", ".bin") else a
                 for a in argv])
    digest = hashlib.sha256(f"exit {code}\n".encode())
    digest.update(_RESIDUAL.sub(_within_tol, capsys.readouterr().out).encode())
    for name in written:
        digest.update(f"\n--- {name}\n".encode())
        digest.update((root / name).read_bytes())
    return digest.hexdigest()


def test_cli_outputs_match_their_golden_hashes(inputs, capsys):
    got = {name: _run(inputs, capsys, argv, written) for name, argv, written in CASES}
    assert got == GOLDEN
