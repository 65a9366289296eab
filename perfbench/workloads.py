"""Seeded operation lists for the four benchmark workloads.

Every operation is one `ruledstrata ...` argv together with what the
benchmark expects of its output.  The program only ever sees the argv; the
expectations are worked out here, independently of the program, or come
from `references.json`.  A run repeats whole rounds of the same operations,
reshuffled each round, so every run measures the same mix of operations.

Why each workload:

- interactive: a person at the prompt.  About a hundred short invocations
  of all five subcommands, where start-up (interpreter, imports, argparse)
  dominates; one in ten inputs is hostile and must be refused.
- exact_core: homology and plumbing at the sizes where they are slow
  (plumbing chains of hundreds of vertices, strata tables of 5e4 rows).
- strata_enum: stratum enumeration plus large JSON output (27 to 56 MB).
- verify_maps: the numeric projective-model checks, 5000 samples per call,
  each seed run twice so reruns can be compared byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("interactive", "exact_core", "strata_enum", "verify_maps")

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Op:
    """One invocation: its argv, the items it stands for and its expectation.

    `expect["kind"]` names the output check in `checks.py`; the other keys
    are that check's parameters.  A hostile op carries input the CLI must
    refuse.
    """

    argv: tuple[str, ...]
    items: int
    expect: dict = field(compare=False)

    @property
    def hostile(self) -> bool:
        return self.expect["kind"] == "hostile"


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def decomposition_key(n: int, depth: int, pointed: bool) -> str:
    return f"n={n} depth={depth} pointed={int(pointed)}"


def strata_count(lam: Fraction, surface: str) -> int:
    """Rows of `strata`: indices k with positive area 1 + lambda - k.

    The product surface indexes strata from k = 0, the blow-up from k = 1;
    on both the stratum curve class has area 1 + lambda - k.
    """
    below = math.ceil(1 + lam)  # k = 0 .. ceil(1 + lambda) - 1
    return below if surface == "trivial" else below - 1


def _json_or_table(rng: random.Random) -> tuple[str, ...]:
    return ("--json",) if rng.random() < 0.5 else ()


def strata_op(lam: Fraction, surface: str, argv_tail=()) -> Op:
    argv = ("strata", "--lambda", str(lam), "--surface", surface, *argv_tail)
    rows = strata_count(lam, surface)
    return Op(argv, rows, {"kind": "strata", "lam": str(lam),
                           "surface": surface, "rows": rows})


def link_op(m: int, k: int, surface: str, argv_tail=()) -> Op:
    argv = ("links", "--m", str(m), "--k", str(k), "--surface", surface,
            *argv_tail)
    kind = "link20" if (m, k) == (2, 0) else "link_adjacent"
    return Op(argv, 1, {"kind": kind, "k": k, "surface": surface})


def plumb_op(chain: list[int], family: str, argv_tail=()) -> Op:
    argv = ("plumb", "--chain=" + ",".join(map(str, chain)), *argv_tail)
    return Op(argv, len(chain), {"kind": "plumb", "chain": list(chain),
                                 "family": family})


def verify_op(samples: int, seed: int, argv_tail=()) -> Op:
    argv = ("verify-maps", "--samples", str(samples), "--seed", str(seed),
            *argv_tail)
    return Op(argv, samples, {"kind": "verify", "samples": samples,
                              "seed": seed})


def decomposition_op(n: int, depth: int, pointed: bool, refs: dict,
                     argv_tail=()) -> Op:
    argv = ["decompositions", "--n", str(n), "--depth", str(depth)]
    if pointed:
        argv.append("--pointed")
    key = decomposition_key(n, depth, pointed)
    ref = refs["decompositions"][key]
    return Op((*argv, *argv_tail), ref["rows"],
              {"kind": "decompositions", "key": key})


def hostile_op(*argv: str) -> Op:
    return Op(tuple(argv), 1, {"kind": "hostile"})


def collapse_chain(m: int) -> list[int]:
    """(-2, ..., -2, -1): blows down completely, so it bounds the 3-sphere."""
    return [-2] * (m - 1) + [-1]


def _interactive(rng: random.Random, refs: dict, tiny: bool) -> list[Op]:
    scale = 1 if tiny else 5
    ops = []
    for _ in range(2 * scale):
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        surface = rng.choice(("trivial", "nontrivial"))
        ops.append(strata_op(lam, surface, _json_or_table(rng)))
    for _ in range(2 * scale - 1):
        k = rng.randint(1, 20)
        surface = rng.choice(("trivial", "nontrivial"))
        ops.append(link_op(k + 1, k, surface, _json_or_table(rng)))
    ops.append(link_op(2, 0, "trivial", _json_or_table(rng)))
    for i in range(2 * scale):
        m = rng.randint(1, 10)
        family = ("minus_two", "collapse", "random")[i % 3]
        chain = {"minus_two": [-2] * m,
                 "collapse": collapse_chain(m),
                 "random": [rng.randint(-6, -1) for _ in range(m)]}[family]
        ops.append(plumb_op(chain, family, _json_or_table(rng)))
    for _ in range(scale + scale // 3):
        ops.append(verify_op(rng.randint(20, 200), rng.randint(0, 10**6),
                             _json_or_table(rng)))
    for _ in range(scale + 2 * scale // 3):
        n = rng.randint(1, 4)
        depth = rng.choice((-1, 1, 2, 3))
        ops.append(decomposition_op(n, depth, rng.random() < 0.5, refs,
                                    _json_or_table(rng)))
    # about one in ten is hostile and must exit 2 without a traceback; the
    # first three and the last are refused with exit 1 at the seed commit
    # (known CLI defects)
    hostile = [
        hostile_op("strata", "--lambda", "1/0"),
        hostile_op("verify-maps", "--samples", "20", "--tol", "nan", "--json"),
        hostile_op("verify-maps", "--samples", "20", "--tol", "-1"),
        hostile_op("links", "--m", str(rng.randint(4, 9)), "--k", "1"),
        hostile_op("plumb", "--chain=-2,x"),
        hostile_op("strata", "--lambda=7/0", "--surface", "nontrivial", "--json"),
    ]
    # an item here is an invocation, whatever its size
    return [replace(op, items=1) for op in ops] + (hostile[:2] if tiny else hostile)


def _exact_core(rng: random.Random, refs: dict, tiny: bool) -> list[Op]:
    # The mix puts the median op among the 200- to 220-vertex collapses,
    # whose cost is fixed and well apart from their neighbours: five links
    # ops sit below them; the random chain (whose cost varies with its
    # entries), the two strata tables and the 400-vertex collapse sit above
    # them.
    big = 50 if tiny else 50_000
    size = 0.1 if tiny else 1.0
    links = [link_op(k + 1, k, surface, ("--json",))
             for k, surface in ((rng.randint(1, 10**4), "trivial"),
                                (rng.randint(1, 10**4), "trivial"),
                                (rng.randint(1, 10**4), "nontrivial"),
                                (rng.randint(1, 10**4), "nontrivial"))]
    return links + [
        link_op(2, 0, "trivial", ("--json",)),
        plumb_op(collapse_chain(int(200 * size)), "collapse", ("--json",)),
        plumb_op(collapse_chain(int(210 * size)), "collapse", ("--json",)),
        plumb_op(collapse_chain(int(220 * size)), "collapse", ("--json",)),
        plumb_op(collapse_chain(int(400 * size)), "collapse", ("--json",)),
        plumb_op([rng.randint(-6, -1) for _ in range(int(300 * size))],
                 "random", ("--json",)),
        strata_op(big + Fraction(rng.randint(1, 6), 7), "trivial",
                  ("--json",)),
        strata_op(big + Fraction(rng.randint(1, 6), 7), "nontrivial",
                  ("--json",)),
    ]


def _strata_enum(rng: random.Random, refs: dict, tiny: bool) -> list[Op]:
    n = 4 if tiny else 8
    return [
        decomposition_op(n, -1, False, refs, ("--json",)),
        decomposition_op(n, 3, False, refs, ("--json",)),
        decomposition_op(n - 1, -1, True, refs, ("--json",)),
    ]


def _verify_maps(rng: random.Random, refs: dict, tiny: bool) -> list[Op]:
    samples = 50 if tiny else 5000
    seeds = rng.sample(range(10**6), 1 if tiny else 3)
    return [verify_op(samples, s, ("--json",)) for s in seeds for _ in (0, 1)]


_BUILDERS = {
    "interactive": _interactive,
    "exact_core": _exact_core,
    "strata_enum": _strata_enum,
    "verify_maps": _verify_maps,
}


def build_ops(workload: str, seed: int, refs: dict, tiny: bool = False) -> list[Op]:
    """The operations of one round; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, refs, tiny)


def round_orders(ops: list[Op], seed: int):
    """Yield the ops of round 0, 1, ... each in its own seeded order."""
    rng = random.Random(f"order:{seed}")
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order
