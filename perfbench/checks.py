"""Output checks for benchmark operations.

The checks do not rest on the program's own `pass` flag alone: lens spaces
are recomputed here from continuants, strata row counts from the area
condition, and enumeration outputs are compared with seed-derived
references.  Every `--json` output must parse with a strict parser that
rejects NaN and Infinity, and must round-trip.  Within a run, the same argv
must give byte-identical output.

A hostile op passes its check when the CLI does not report success (exit
code other than 0).  Whether it also meets the CLI contract (exit 2, no
traceback, nothing on stdout) is reported separately, as a contract
violation, so that known defects of the CLI stay visible without counting
as wrong results.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

TRACEBACK = b"Traceback (most recent call last)"

VERIFY_MAPS_ROWS = frozenset({
    "h-symmetry", "h-diagonal-on-quadric", "phi32-tau-invariance",
    "phi32-image-on-cone", "phi30-lines-to-quadric", "s5-identification-norm",
    "orbit-map-invariance", "critical-values-round-trip",
    "phi30-generic-preimages", "phi30-line-preimages",
})


class CheckFailure(Exception):
    """An output that is wrong, malformed or not what the op expects."""


@dataclass
class Verdict:
    ok: bool
    contract_ok: bool
    reason: str = ""
    counts: dict = field(default_factory=dict)


def _reject_constant(name: str):
    raise CheckFailure(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN/Infinity, and require that it round-trips."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
        again = json.loads(json.dumps(obj, allow_nan=False))
    except ValueError as exc:  # JSONDecodeError, or a float overflow to inf
        raise CheckFailure(f"not strict JSON: {exc}") from None
    if again != obj:
        raise CheckFailure("JSON does not round-trip")
    return obj


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# lens spaces, computed independently of the program


def continuant_lens(chain: list[int]) -> tuple[int, int]:
    """(p, q) of the lens space bounding a linear plumbing chain.

    p / q is the negative continued fraction [-e1, -e2, ...]; p and q are
    the continuants K(a1..am) and K(a2..am) with a_i = -e_i.  The empty
    chain bounds the 3-sphere, L(1, 0).
    """
    p, p_prev = 1, 0  # K of the empty tail, and the sentinel before it
    for e in reversed(chain):
        p, p_prev = -e * p - p_prev, p
    return p, p_prev


def lens_equivalent(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """L(p, q) ~ L(p, q') iff q' = +-q or +-q^-1 mod p (p up to sign)."""
    (p1, q1), (p2, q2) = a, b
    if abs(p1) != abs(p2):
        return False
    p = abs(p1)
    if p in (0, 1):
        return True
    q1, q2 = q1 % p, q2 % p
    return (q1 - q2) % p == 0 or (q1 + q2) % p == 0 or (q1 * q2) % p in (1, p - 1)


def _lens(space: dict) -> tuple[int, int]:
    _require(space.get("tag") == "lens", f"expected a lens space, got {space}")
    return space["p"], space["q"]


# ---------------------------------------------------------------------------
# decomposition digests


def row_digest(rows: list) -> str:
    """Order-insensitive digest of report rows (sum of per-row hashes)."""
    total = 0
    for row in rows:
        canon = json.dumps(row, sort_keys=True, separators=(",", ":"))
        total += int.from_bytes(
            hashlib.blake2b(canon.encode(), digest_size=8).digest(), "big")
    return f"{total % (1 << 64):016x}"


def summarize_decompositions(rows: list) -> dict:
    """Row count, dimension histogram and digest, as pinned in references."""
    dims = Counter(row["dim"] for row in rows)
    return {"rows": len(rows),
            "dims": {str(d): dims[d] for d in sorted(dims)},
            "digest": row_digest(rows)}


# ---------------------------------------------------------------------------
# table output


def _table_rows(lines: list[str]) -> list[list[str]]:
    """Data rows of a fixed-width table report, split on whitespace."""
    if len(lines) < 4 or set(lines[2]) - {"-", " "}:
        return []
    return [line.split() for line in lines[3:-1]]


def _table_value(lines: list[str], key: str):
    prefix = f"{key}: "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise CheckFailure(f"table output has no {key!r} line")


# ---------------------------------------------------------------------------
# per-subcommand checks; each returns the counts the op stands for


def _check_strata(e, report, lines):
    lam, surface, rows = Fraction(e["lam"]), e["surface"], e["rows"]
    if report is None:
        _require(len(_table_rows(lines)) == rows,
                 f"table has {len(_table_rows(lines))} rows, expected {rows}")
        return {"rows": rows}
    _require(report["params"]["surface"] == surface, "wrong surface")
    got = report["rows"]
    _require(len(got) == rows, f"{len(got)} strata rows, area condition gives {rows}")
    start = 0 if surface == "trivial" else 1
    for i, row in enumerate(got):
        k = start + i
        _require(row["k"] == k, f"row {i} has k={row['k']}, expected {k}")
        _require(Fraction(row["area"]) == 1 + lam - k,
                 f"row k={k} has area {row['area']}, expected {1 + lam - k}")
    return {"rows": rows}


def _check_link_adjacent(e, report, lines):
    k = e["k"]
    # product surface: L(2k, 1); blow-up: the stated value L(4k+1, 1),
    # reported together with its disagreeing diagnostic
    p = 2 * k if e["surface"] == "trivial" else 4 * k + 1
    if report is None:
        display = _table_value(lines, "display")
        _require(display.startswith(f"L({p},1)"), f"display {display}, expected L({p},1)")
        return {}
    _require(lens_equivalent(_lens(report["result"]), (p, 1)),
             f"link {report['result']}, expected L({p},1)")
    if e["surface"] == "nontrivial":
        diag = report["diagnostic"]
        agrees = lens_equivalent(_lens(diag["space"]), (p, 1))
        _require(diag["agrees_with_stated"] == agrees,
                 "diagnostic agreement flag is wrong")
    return {}


def _check_link20(e, report, lines):
    if report is None:
        _require(_table_value(lines, "display") == "S5", "link (2,0) is not S5")
        return {}
    _require(report["result"]["tag"] == "s5", "link (2,0) is not S5")
    _require(lens_equivalent(_lens(report["sublink"]), (2, 1)),
             "sublink over the conic is not RP3")
    return {}


def _check_plumb(e, report, lines):
    chain = e["chain"]
    want = continuant_lens(chain)
    if e["family"] == "minus_two":
        _require(lens_equivalent(want, (len(chain) + 1, len(chain))),
                 "continuant of (-2)^m is not L(m+1, m)")
    elif e["family"] == "collapse":
        _require(abs(want[0]) == 1, "continuant of a collapse chain is not S3")
    if report is None:
        result = ast.literal_eval(_table_value(lines, "result"))
        reduced = ast.literal_eval(_table_value(lines, "blow_down_result"))
        trace = ast.literal_eval(_table_value(lines, "blow_down_trace"))
    else:
        _require(report["params"]["chain"] == chain, "echoed chain differs")
        result, reduced = report["result"], report["blow_down_result"]
        trace = report["blow_down_trace"]
    _require(lens_equivalent(_lens(result), want),
             f"continued-fraction route gives {result}, expected L{want}")
    _require(lens_equivalent(_lens(reduced), want),
             f"blow-down route gives {reduced}, expected L{want}")
    _require(trace[0] == chain, "blow-down trace does not start at the chain")
    _require(all(len(b) == len(a) - 1 for a, b in zip(trace, trace[1:])),
             "blow-down trace steps do not remove one vertex each")
    _require(lens_equivalent(continuant_lens(trace[-1]), want),
             "blow-down trace ends at a different lens space")
    return {"vertices": len(chain), "blow_down_steps": len(trace) - 1}


def _check_verify(e, report, lines):
    samples = e["samples"]
    if report is None:
        rows = _table_rows(lines)
        _require(len(rows) == len(VERIFY_MAPS_ROWS), f"{len(rows)} verify-maps rows")
        col = lines[1].split().index("pass")
        _require({r[0] for r in rows} == VERIFY_MAPS_ROWS, "wrong verify-maps rows")
        _require(all(r[col] == "True" for r in rows), "a verify-maps row fails")
        return {"samples": sum(int(r[1]) for r in rows)}
    _require(report["params"]["samples"] == samples
             and report["params"]["seed"] == e["seed"], "echoed params differ")
    rows = report["rows"]
    _require(len(rows) == len(VERIFY_MAPS_ROWS)
             and {r["check"] for r in rows} == VERIFY_MAPS_ROWS,
             "wrong verify-maps rows")
    for r in rows:
        _require(r["pass"] is True and math.isfinite(r["maxResidual"])
                 and r["maxResidual"] < r["tolerance"],
                 f"verify-maps row {r['check']} fails: {r['maxResidual']}")
    return {"samples": sum(r["samples"] for r in rows)}


def _check_decompositions(e, report, lines, refs):
    ref = refs["decompositions"][e["key"]]
    if report is None:
        rows = len(_table_rows(lines))
        _require(rows == ref["rows"], f"{rows} table rows, reference {ref['rows']}")
        return {"descriptors": rows}
    got = summarize_decompositions(report["rows"])
    for key in ("rows", "dims", "digest"):
        _require(got[key] == ref[key],
                 f"decompositions {e['key']}: {key} {got[key]} != reference {ref[key]}")
    return {"descriptors": got["rows"]}


_CHECKS = {
    "strata": _check_strata,
    "link_adjacent": _check_link_adjacent,
    "link20": _check_link20,
    "plumb": _check_plumb,
    "verify": _check_verify,
}


class Verifier:
    """Checks op outputs; remembers each argv's output to compare reruns."""

    def __init__(self, refs: dict):
        self.refs = refs
        self._seen: dict[tuple, tuple[str, Verdict]] = {}

    def verify(self, op, code: int, out: bytes, err: bytes) -> Verdict:
        traceback = TRACEBACK in err
        if op.hostile:
            contract_ok = code == 2 and not traceback and not out
            if code == 0:
                return Verdict(False, contract_ok, "hostile input accepted")
            return Verdict(True, contract_ok)
        digest = hashlib.sha256(out).hexdigest()
        if op.argv in self._seen:
            first, verdict = self._seen[op.argv]
            if first != digest:
                return Verdict(False, False, "rerun output differs from the first run")
            return verdict
        try:
            _require(code == 0, f"exit code {code}")
            _require(not traceback, "traceback on stderr")
            counts = self._check(op, out)
            verdict = Verdict(True, True, counts=counts)
        except CheckFailure as exc:
            verdict = Verdict(False, False, str(exc))
        except (KeyError, TypeError, IndexError, ValueError, SyntaxError) as exc:
            verdict = Verdict(False, False, f"malformed output: {exc!r}")
        self._seen[op.argv] = (digest, verdict)
        return verdict

    def _check(self, op, out: bytes) -> dict:
        try:
            text = out.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckFailure("output is not UTF-8") from None
        e = op.expect
        subcommand = op.argv[0]
        if "--json" in op.argv:
            report, lines = strict_json(text), None
            _require(report["subcommand"] == subcommand, "wrong subcommand")
            _require(report["pass"] is True, "report does not pass")
        else:
            report, lines = None, text.rstrip("\n").split("\n")
            _require(lines[0].startswith(f"# {subcommand} "), "wrong table header")
            _require(lines[-1] == "pass: True", "report does not pass")
        if e["kind"] == "decompositions":
            return _check_decompositions(e, report, lines, self.refs)
        return _CHECKS[e["kind"]](e, report, lines)
