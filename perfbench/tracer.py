"""Boundary tracer and in-process replay for the per-layer numbers.

The tracer wraps the public functions and public methods of every loaded
`ruledstrata.*` module, in every namespace that holds them (`reports`, for
one, imports `gluing_bundle` directly).  Classes themselves are never
replaced, so `isinstance` keeps working.  A function belongs to the layer
named by its `__module__`.  A span is recorded only when a call crosses
into another layer; a nested call within the same layer, such as the
recursion of `shape_edges`, is only counted, so memory stays bounded by the
number of boundary crossings.  Spans are kept in memory and written out
when the run ends; a layer's self time is the time of its spans minus the
time covered by their child spans.

Run as a script, this file replays one round of a workload in-process
through `ruledstrata.cli.main`, checks every output and prints a JSON
summary as its last line:

    PYTHONPATH=src python3 perfbench/tracer.py --workload exact_core --seed 1 \
        [--spans FILE]

With `--spans` the tracer is installed and its spans are written to FILE;
without it the same round runs untraced, for the overhead ratio.
"""

from __future__ import annotations

import sys
import time

if __name__ == "__main__":
    # Import the program first, before anything else, so that the parent's
    # `-X importtime` log and this wall time cover its imports alone.
    _t0 = time.perf_counter()
    import ruledstrata.cli
    IMPORT_S = time.perf_counter() - _t0
    print("perfbench: imported", file=sys.stderr, flush=True)

import argparse
import contextlib
import functools
import inspect
import io
import json
import traceback
from array import array

import checks
import workloads

PACKAGE = "ruledstrata"


class BoundaryTracer:
    """Spans at layer boundaries of the `ruledstrata` package."""

    def __init__(self):
        self.layers: list[str] = []
        self.functions: list[str] = []
        self.calls: list[int] = []
        self.op = -1
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_layer = array("i")
        self.span_function = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[tuple[int, int]] = []  # (span, layer) of open spans
        self._patches: list[tuple[object, str, object]] = []

    def _layer(self, module_name: str) -> int:
        name = module_name.rpartition(".")[2]
        if name not in self.layers:
            self.layers.append(name)
            self.calls.append(0)
        return self.layers.index(name)

    def _wrap(self, func, module_name: str):
        layer = self._layer(module_name)
        fn_index = len(self.functions)
        self.functions.append(f"{module_name.rpartition('.')[2]}.{func.__qualname__}")
        stack, calls = self._stack, self.calls
        span_op, span_parent = self.span_op, self.span_parent
        span_layer, span_function = self.span_layer, self.span_function
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[layer] += 1
            if stack and stack[-1][1] == layer:
                return func(*args, **kwargs)
            span = len(span_start)
            span_op.append(self.op)
            span_parent.append(stack[-1][0] if stack else -1)
            span_layer.append(layer)
            span_function.append(fn_index)
            span_end.append(0.0)
            stack.append((span, layer))
            span_start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrapped = {}
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, name)
                elif inspect.isclass(obj):
                    for m_attr, m_obj in list(vars(obj).items()):
                        if m_attr.startswith("_"):
                            continue
                        if inspect.isfunction(m_obj):
                            self._patch(obj, m_attr, self._wrap(m_obj, name))
                        elif isinstance(m_obj, classmethod):
                            self._patch(obj, m_attr,
                                        classmethod(self._wrap(m_obj.__func__, name)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: str):
        """Write the spans: a JSON header line, then the raw span arrays.

        The header names the arrays in file order, with their type codes,
        and the layer and function names their indices refer to.  Times are
        `time.perf_counter()` seconds; a parent of -1 marks a root span.
        """
        arrays = {"op": self.span_op, "parent": self.span_parent,
                  "layer": self.span_layer, "function": self.span_function,
                  "start_s": self.span_start, "end_s": self.span_end}
        header = {"spans": len(self.span_start),
                  "arrays": [[name, a.typecode, a.itemsize] for name, a in arrays.items()],
                  "layers": self.layers, "functions": self.functions}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                a.tofile(fh)

    def layer_totals(self) -> dict:
        """Per layer: calls, self time, and total time per function."""
        own = self_times(self.span_parent, self.span_start, self.span_end)
        out = {name: {"calls": self.calls[i], "self_s": 0.0}
               for i, name in enumerate(self.layers)}
        function_s: dict[str, float] = {}
        for i, s in enumerate(own):
            out[self.layers[self.span_layer[i]]]["self_s"] += s
            fn = self.functions[self.span_function[i]]
            function_s[fn] = function_s.get(fn, 0.0) + self.span_end[i] - self.span_start[i]
        return {"layers": out, "function_s": function_s}


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    duration = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[i]
    return [d - c for d, c in zip(duration, covered)]


def call_main(main, argv) -> tuple[int, bytes, bytes]:
    """Run `main(argv)` as the console script would: exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an uncaught error: the interpreter exits 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def replay(ops, main, verifier, tracer: BoundaryTracer | None = None) -> dict:
    """Run ops in-process in order; return per-op results and output counts."""
    results, counts = [], {}
    wall = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        code, out, err = call_main(main, op.argv)
        wall += time.perf_counter() - t0
        verdict = verifier.verify(op, code, out, err)
        for key, value in verdict.counts.items():
            counts[key] = counts.get(key, 0) + value
        results.append({"argv": list(op.argv), "exit": code, "ok": verdict.ok,
                        "contract_ok": verdict.contract_ok,
                        "traceback": checks.TRACEBACK in err,
                        "stdout_bytes": len(out), "reason": verdict.reason})
    return {"wall_s": wall, "ops": results, "counts": counts}


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace, and write the spans here")
    args = parser.parse_args()

    refs = workloads.load_references()
    ops = workloads.build_ops(args.workload, args.seed, refs)
    first_round = next(workloads.round_orders(ops, args.seed))
    tracer = None
    if args.spans:
        tracer = BoundaryTracer()
        tracer.install()
    try:
        result = replay(first_round, ruledstrata.cli.main,
                        checks.Verifier(refs), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["import_s"] = IMPORT_S
    if tracer is not None:
        result.update(tracer.layer_totals())
        result["spans"] = len(tracer.span_start)
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
