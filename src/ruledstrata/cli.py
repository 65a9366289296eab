"""Command-line front end.

Subcommands: strata, links, plumb, verify-maps, decompositions.  Reports
print as fixed-width tables by default or as JSON with --json; exit status
is 0 when every check passed, 1 on a failed check or a closed stdout pipe,
2 on invalid input.  Each subcommand loads only the layers it calls: only
verify-maps loads numpy, after its arguments are checked, and no exact
layer or `reports`; `main` on `sys.argv` freezes every object before exit.

The options are read against one table, COMMANDS, by `parse_args`; this
module writes every report, as a table by `render_table` or with --json by
`json_text`, so a process loads neither argparse nor json: they took about
10 ms of each start-up.  A string that needs escaping goes to json's own
escaper, imported then; no report of the exact subcommands holds one, since
their inputs reach a report as numbers.  An option takes its value as the
next argument or after "=", whatever the value starts with, and a unique
prefix names an option.  A usage error exits 2 with a usage line, as
argparse's did; -h or --help prints the options and exits 0.

Nothing imports `cli`: the limits the layers share live in the package
root, so `python -m ruledstrata.cli` runs this module once.
"""

import gc
import math
import os
import sys

from . import check_verify_maps_args

#: The subcommands: each one's help line and options.  An option is (name,
#: converter, default, help): a converter of None marks a flag, False until
#: given, and a default of None an option that must be given.  Every
#: subcommand also takes JSON_OPTION.  An option's value is stored on
#: `Args` under its name without the dashes, or the name in DEST.
COMMANDS = {
    "strata": ("admissible strata for a given form", (
        ("--lambda", str, None, "form parameter, a rational like 5/2"),
        ("--surface", str, "trivial", "trivial or nontrivial"))),
    "links": ("normal link of one stratum in another", (
        ("--m", int, None, "the stratum whose link is taken"),
        ("--k", int, None, "the stratum in whose closure it lies"),
        ("--surface", str, "trivial", "trivial or nontrivial"))),
    "plumb": ("normal form of a linear plumbing chain", (
        ("--chain", str, None,
         'comma-separated Euler numbers, e.g. "-3,-1"'),)),
    "verify-maps": ("residual checks for the explicit projective models", (
        ("--samples", int, 1000, "draws per sample family"),
        ("--seed", int, 42, "seed of the sample streams"),
        ("--tol", float, 1e-9, "residual tolerance of most rows"))),
    "decompositions": ("stratum descriptors for a total fiber degree", (
        ("--n", int, None, "total fiber degree"),
        ("--depth", int, 3, "max degeneration nodes per branch, negative "
                            "for no bound"),
        ("--pointed", None, False, "carry one marked point over a fixed "
                                   "base point"))),
}
JSON_OPTION = ("--json", None, False, "print the report as JSON")
DEST = {"--lambda": "lam", "--json": "as_json"}
DESCRIPTION = ("stratification calculator for compatible almost complex "
               "structures on the rational ruled surfaces")


class Args:
    """The subcommand and option values read from one argv."""


def parse_args(argv) -> Args:
    """Read argv against COMMANDS.  A value follows its option or an "=" and
    may start with "-"; a unique prefix names an option, the last of a
    repeated option counts.  A usage error prints the usage and an error
    line to stderr and raises SystemExit(2); -h or --help prints the help
    and raises SystemExit(0)."""
    if not argv:
        _usage_error(None, "the following arguments are required: subcommand")
    sub = argv[0]
    if sub not in COMMANDS:
        if _option(None, sub, ["--help"]):
            _print_help(None)
        _usage_error(None, f"argument subcommand: invalid choice: {sub!r} "
                           f"(choose from {', '.join(map(repr, COMMANDS))})")
    options = {spec[0]: spec for spec in _options(sub)}
    names = [*options, "--help"]
    values = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        name, eq, value = token.partition("=")
        name = _option(sub, name, names)
        if name is None:
            _usage_error(sub, f"unrecognized arguments: {token}")
        convert = options[name][1] if name in options else None
        if convert is None:
            if eq:
                _usage_error(sub, f"argument {name}: ignored explicit "
                                  f"argument {value!r}")
            if name == "--help":
                _print_help(sub)
            values[name] = True
            continue
        if not eq:
            if i == len(argv):
                _usage_error(sub, f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        try:
            values[name] = convert(value)
        except ValueError:
            _usage_error(sub, f"argument {name}: invalid {convert.__name__} "
                              f"value: {value!r}")
    missing = [name for name, _, default, _ in options.values()
               if default is None and name not in values]
    if missing:
        _usage_error(sub, "the following arguments are required: "
                          + ", ".join(missing))
    args = Args()
    args.subcommand = sub
    for name, _, default, _ in options.values():
        setattr(args, _dest(name), values.get(name, default))
    return args


def _options(sub: str) -> tuple:
    return COMMANDS[sub][1] + (JSON_OPTION,)


def _dest(name: str) -> str:
    return DEST.get(name, name[2:])


def _form(name: str, convert) -> str:
    """An option as usage shows it: a flag alone, else with its value."""
    return name if convert is None else f"{name} {_dest(name).upper()}"


def _option(sub, token: str, names: list[str]):
    """The option of `names` that token names, exactly or as the one name it
    is a prefix of, or None; an ambiguous prefix is a usage error."""
    if token == "-h":
        return "--help"
    if token in names:
        return token
    if not token.startswith("--") or token == "--":
        return None
    found = [name for name in names if name.startswith(token)]
    if len(found) > 1:
        _usage_error(sub, f"ambiguous option: {token} could match "
                          + ", ".join(found))
    return found[0] if found else None


def _usage(sub) -> str:
    if sub is None:
        return "usage: ruledstrata [-h] {" + ",".join(COMMANDS) + "} ..."
    words = ["usage: ruledstrata", sub, "[-h]"]
    for name, convert, default, _ in _options(sub):
        form = _form(name, convert)
        words.append(form if default is None else f"[{form}]")
    return " ".join(words)


def _usage_error(sub, message: str):
    prog = "ruledstrata" if sub is None else "ruledstrata " + sub
    print(f"{_usage(sub)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _print_help(sub):
    if sub is None:
        about = DESCRIPTION
        heading = "subcommands (ruledstrata <subcommand> -h lists its options)"
        rows = [(name, text) for name, (text, _) in COMMANDS.items()]
    else:
        about, heading = COMMANDS[sub][0], "options"
        rows = [("-h, --help", "show this help and exit")]
        for name, convert, default, text in _options(sub):
            if convert is not None:
                text += " (required)" if default is None else \
                    f" (default {default})"
            rows.append((_form(name, convert), text))
    width = max(len(left) for left, _ in rows) + 2
    print("\n".join([_usage(sub), "", about, "", heading + ":"]
                    + [f"  {left:{width}}{text}" for left, text in rows]))
    raise SystemExit(0)


def run(args) -> dict:
    if args.subcommand == "verify-maps":
        check_verify_maps_args(args.samples, args.seed, args.tol)
        # the checks make no threaded BLAS call, but OpenBLAS starts a worker
        # per core when numpy loads and it spins: one thread cuts a 5000-sample
        # run from 0.52 to 0.40 s of CPU at the same wall time (2-vCPU VM).
        # OpenBLAS reads the variable only as it loads, so it is unset again
        # and an in-process caller's later children inherit no setting.
        user_set = "OPENBLAS_NUM_THREADS" in os.environ
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        from .projective_maps import verify_maps_report
        if not user_set:
            del os.environ["OPENBLAS_NUM_THREADS"]
        return verify_maps_report(args.samples, args.seed, args.tol)
    from . import reports
    if args.subcommand == "strata":
        return reports.strata_report(reports.parse_lambda(args.lam),
                                     reports.surface_by_name(args.surface))
    if args.subcommand == "links":
        return reports.links_report(args.m, args.k,
                                    reports.surface_by_name(args.surface))
    if args.subcommand == "plumb":
        return reports.plumb_report(reports.parse_chain(args.chain))
    if args.subcommand == "decompositions":
        depth = None if args.depth < 0 else args.depth
        return reports.decompositions_report(args.n, depth, args.pointed)
    raise ValueError(f"unknown subcommand {args.subcommand}")


def json_text(value) -> str:
    """A plain JSON value (dicts with string keys, lists, strings, ints,
    floats, bools and None) written as `json.dumps(value, indent=2,
    allow_nan=False)` writes it, byte for byte; a NaN or infinite float
    raises ValueError, as there, and any other type TypeError.  Each
    container joins the text of its items, so the writer holds the text of
    one container's items and the joined text at a time."""
    return _json(value, "\n")


def _json(value, newline: str) -> str:
    """`json_text` of a value that starts on a line opened by `newline`,
    the line break and that line's indent."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = newline + "  "
        if kind is dict:
            parts = [_quote(k) + ": " + _json(v, inner)
                     for k, v in value.items()]
            brackets = "{}"
        else:
            parts = [_json(v, inner) for v in value]
            brackets = "[]"
        parts[0] = brackets[0] + inner + parts[0]
        parts[-1] += newline + brackets[1]
        return ("," + inner).join(parts)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a JSON number")
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"{kind.__name__} is not a plain JSON type")


def _quote(text: str) -> str:
    """A JSON string as json's ensure_ascii writes it: printable ASCII but
    quote and backslash as is, the rest escaped by json's own escaper."""
    if text.isascii() and text.isprintable() and '"' not in text \
            and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(text)


def render_table(report: dict) -> str:
    """Fixed-width text rendering of a report's rows."""
    lines = [f"# {report['subcommand']}  {report['params']}"]
    rows = report.get("rows")
    if rows:
        keys = []
        for row in rows:
            for key in row:
                if key not in keys:
                    keys.append(key)
        widths = {}
        rendered = []
        for row in rows:
            cells = {k: _cell(row.get(k, "")) for k in keys}
            rendered.append(cells)
            for k in keys:
                widths[k] = max(widths.get(k, len(k)), len(cells[k]))
        lines.append("  ".join(k.ljust(widths[k]) for k in keys))
        lines.append("  ".join("-" * widths[k] for k in keys))
        for cells in rendered:
            lines.append("  ".join(cells[k].ljust(widths[k]) for k in keys))
    for key in ("trace", "l_z", "result", "display", "sublink_display",
                "diagnostic", "blow_down_trace", "blow_down_result"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    lines.append(f"pass: {report['pass']}")
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    if isinstance(value, (dict, list)):
        return repr(value)
    return str(value)


def main(argv=None) -> int:
    if argv is None:
        # exact builders make no reference cycles, so collecting their growing
        # heap is waste (numpy's import leaves cycles).  Frozen objects skip
        # the shutdown collection, which gc.disable() does not stop: 50.9 ->
        # 10.7 ms for verify-maps, 18.8 -> 4.9 for links --json, 21.1 -> 5.2
        # for decompositions --n 4 --pointed (medians of 12 spawns, 2-vCPU VM)
        if sys.argv[1:2] != ["verify-maps"]:
            gc.disable()
        try:
            return main(sys.argv[1:])
        finally:
            gc.freeze()
    args = parse_args(list(argv))
    try:
        report = run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        try:
            text = json_text(report)
        except ValueError:
            # only a failed check yields a non-finite value, such as a
            # NaN residual, and strict JSON has no way to write it
            print("error: the report holds a non-finite value; the check "
                  "failed", file=sys.stderr)
            return 1
    else:
        text = render_table(report)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; fd 1 goes to devnull so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
