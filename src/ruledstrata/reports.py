"""Report builders for strata, links, plumb and decompositions; verify-maps
is built in `projective_maps`, and `cli` writes every report.

Each builder returns a plain-JSON dictionary, so reports parse back to
themselves, and only this module turns the layers' records and tuples into
JSON values.  Strata rows, link steps and the plumb result name the rule
that produced them; exact rationals are fraction strings.  Each builder
imports the layers it calls, so a process loads only those.
"""

from . import MAX_DIGITS


def surface_by_name(name: str):
    """The `homology.RuledSurface` named `name`."""
    from .homology import SURFACES
    try:
        return SURFACES[name]
    except KeyError:
        raise ValueError(f"unknown surface {name!r}; "
                         f"use {' or '.join(SURFACES)}")


def _space(space) -> dict:
    """A `plumbing.Space` normal form as a JSON object."""
    return {"tag": space.tag, "p": space.p, "q": space.q,
            "notes": list(space.notes)}


# ---------------------------------------------------------------------------
# strata

#: The most rows `strata_report` builds (10^5 take 1.4-2.3 s and 134-232 MB,
#: table or --json, either surface; 2-vCPU VM); a lambda giving more raises.
MAX_STRATA_ROWS = 10**5


def parse_lambda(text: str):
    """The form parameter as a `Fraction`.  A number of more than `MAX_DIGITS`
    digits or an exponent beyond it raises before `Fraction` reads the text,
    and so does a numerator or denominator of more digits after it."""
    import re
    from fractions import Fraction
    plain = text.replace("_", "")
    digits = max(map(len, re.findall(r"\d+", plain)), default=0)
    if digits > MAX_DIGITS:
        raise ValueError(f"lambda number of {digits} digits is above the "
                         f"limit {MAX_DIGITS}")
    exponent = re.search(r"e([-+]?\d+)", plain, re.IGNORECASE)
    if exponent and abs(int(exponent[1])) > MAX_DIGITS:
        raise ValueError(f"lambda exponent {exponent[1]} is beyond the limit "
                         f"+/-{MAX_DIGITS}")
    try:
        lam = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"lambda {text} has a zero denominator") from None
    if max(abs(lam.numerator), lam.denominator) >= 10**MAX_DIGITS:
        raise ValueError(f"lambda has a numerator or denominator of more than "
                         f"{MAX_DIGITS} digits, the limit")
    return lam


def strata_report(lam, surface) -> dict:
    """Admissible strata with areas, codimensions and next-link dimensions.

    A row's codimension is `homology.normal_codim` of its curve class, and
    its link dimension is the next row's codimension less its own, less 1.
    Where the surface states another codimension (the blow-up's 4k), `codim`
    is the stated value and `codim_adjunction` the derived one.
    """
    from . import homology
    form = homology.SymplecticForm(surface, lam)
    count = homology.admissible_count(form)
    if count > MAX_STRATA_ROWS:
        raise ValueError("the number of strata for this lambda is above "
                         f"the limit {MAX_STRATA_ROWS}")
    stated = surface.stated_codim_per_k
    cls = homology.stratum_curve_class(surface, surface.first)
    codim = homology.normal_codim(cls)
    rows = []
    for k in range(surface.first, surface.first + count):
        next_cls = homology.stratum_curve_class(surface, k + 1)
        next_codim = homology.normal_codim(next_cls)
        row = {
            "k": k,
            "class": repr(cls),
            "area": str(homology.area(form, cls)),
            "codim": codim if stated is None else stated * k,
            "link_dim": next_codim - codim - 1,
            "rule": "area-positivity/stratum-codimension",
        }
        if k == 0:
            row["note"] = "pointed link dimension 4m-3 (inferred)"
        if stated is not None:
            row["codim_adjunction"] = codim
            row["codim_consistent"] = stated * k == codim
        rows.append(row)
        cls, codim = next_cls, next_codim
    return {
        "subcommand": "strata",
        "params": {"lambda": str(form.lam), "surface": surface.name},
        "rows": rows,
        "pass": True,
    }


# ---------------------------------------------------------------------------
# links

SUPPORTED_LINKS = ("m=k+1 with k>=1 (either surface)",
                   "m=2, k=0 (trivial surface)")


def links_report(m: int, k: int, surface) -> dict:
    """Normal form of the link of stratum m in the closure of stratum k: each
    case gives its `(rule, state)` steps, ending at the link, and the fields
    written before and after the link."""
    from . import plumbing
    from .bundles import gluing_bundle
    from .homology import NONTRIVIAL, TRIVIAL
    if m <= k or k < 0:
        raise ValueError("need m > k >= 0")
    if m >= 10**MAX_DIGITS:
        raise ValueError(f"m or k has more than {MAX_DIGITS} digits, the limit")
    before, after = {}, {}
    if surface is TRIVIAL and m == k + 1 and k >= 1:
        steps = [("gluing-bundle-degree", gluing_bundle(k)),
                 ("circle-bundle-recognition", plumbing.link_adjacent(k))]
    elif surface is TRIVIAL and (m, k) == (2, 0):
        run = plumbing.link20_pipeline()
        steps = run.steps
        before["l_z"] = _space(run.l_z)
        after["sublink"] = _space(run.sublink)
        after["sublink_display"] = run.sublink.display()
    elif surface is NONTRIVIAL and m == k + 1 and k >= 1:
        run = plumbing.link_nontrivial(k)
        steps = [("adjacent-link-stated-value", run.space)]
        after["diagnostic"] = {
            "rule": "self-intersection-plus-two-gluing-degree",
            "degree": run.derived_degree,
            "space": _space(run.derived),
            "agrees_with_stated": run.agrees,
        }
    else:
        raise ValueError(f"link for m={m}, k={k} on the {surface.name} "
                         "surface is not derived here; supported cases: "
                         + "; ".join(SUPPORTED_LINKS))
    # a state is a `Space` (a tuple itself) or a bundle: an int or a pair
    trace = [{"rule": rule, "space": _space(state)}
             if isinstance(state, plumbing.Space) else
             {"rule": rule,
              "bundle": state if isinstance(state, int) else list(state)}
             for rule, state in steps]
    link = steps[-1][1]
    return {
        "subcommand": "links",
        "params": {"m": m, "k": k, "surface": surface.name},
        "pass": True,
        "trace": trace,
        **before,
        "result": _space(link),
        "display": link.display(),
        **after,
    }


# ---------------------------------------------------------------------------
# plumb

#: The longest chain `plumb_report` takes: the blow-down trace is quadratic,
#: and 1,000 vertices take 0.54 s and 5 MB, 4,000 take 8.5 s (2-vCPU VM).
MAX_CHAIN_LENGTH = 1000


def parse_chain(text: str) -> list[int]:
    """The Euler numbers of a comma-separated chain; an entry of more than
    `MAX_DIGITS` digits raises before `int` reads it."""
    entries = [x for x in text.split(",") if x.strip()]
    digits = max(len(x.strip().lstrip("+-")) for x in entries) if entries else 0
    if digits > MAX_DIGITS:
        raise ValueError(f"chain entry of {digits} digits is above the limit "
                         f"{MAX_DIGITS}")
    return [int(x) for x in entries]


def plumb_report(chain: list[int]) -> dict:
    """Normal form of a linear plumbing chain, with the blow-down trace."""
    from . import plumbing
    if not chain:
        raise ValueError("need a nonempty chain")
    if len(chain) > MAX_CHAIN_LENGTH:
        raise ValueError(f"chain of {len(chain)} vertices is above the "
                         f"limit {MAX_CHAIN_LENGTH}")
    space = plumbing.chain_to_lens(chain)
    # a chain of 1,000 entries of -100000 has a p of 5,000 digits
    if space.p >= 10**MAX_DIGITS:
        raise ValueError(f"lens parameter p of this chain has more than "
                         f"{MAX_DIGITS} digits, the limit")
    trace = plumbing.blow_down_fully(chain)
    reduced = plumbing.chain_to_lens(trace[-1])
    return {
        "subcommand": "plumb",
        "params": {"chain": list(chain)},
        "result": _space(space),
        "display": space.display(),
        "rule": "negative-continued-fraction",
        "blow_down_trace": [list(c) for c in trace],
        "blow_down_result": _space(reduced),
        "pass": bool(plumbing.lens_equivalent(space, reduced)),
    }


# ---------------------------------------------------------------------------
# decompositions


#: The largest total fiber degree `decompositions_report` enumerates: at 8,
#: `--pointed --depth -1 --json` takes 25 s and 1.9 GB (2-vCPU VM) and grows
#: sixfold a degree; a bounded `--depth` costs about its row count.
MAX_FIBER_DEGREE = 8


def _shape(shape) -> list:
    """A branch shape, nested tuples whose last entry holds the children,
    as nested lists."""
    return [*shape[:-1], [_shape(c) for c in shape[-1]]]


def _stratum_row(d) -> dict:
    """A `stable_trees.StratumDescriptor` as a row with fields

        parts     list of fiber degrees of the branches (a partition)
        shape     one entry per unpointed branch: nested [degree, [children...]]
        dim       real dimension of the stratum
        isotropy  order of the combinatorial automorphism group

    A pointed descriptor adds "pointed": {"part", "tree"}, the degree and
    shape of the branch with the marked point, whose nodes are [degree,
    marked, [children...]], and "inferred": true.
    """
    row = {"parts": list(d.parts), "shape": [_shape(s) for s in d.shapes],
           "dim": d.dimension, "isotropy": d.isotropy}
    if d.pointed_part is not None:
        row["pointed"] = {"part": d.pointed_part,
                          "tree": _shape(d.pointed_shape)}
        row["inferred"] = True
    return row


def decompositions_report(n: int, depth: int | None, pointed: bool) -> dict:
    if n < 0:
        raise ValueError(f"total fiber degree must be >= 0, got {n}")
    if n > MAX_FIBER_DEGREE:
        raise ValueError(f"total fiber degree {n} is above the limit "
                         f"{MAX_FIBER_DEGREE}")
    from . import stable_trees
    descriptors = stable_trees.enumerate_strata(n, depth, pointed=pointed)
    return {
        "subcommand": "decompositions",
        "params": {"n": n, "depth": depth, "pointed": pointed},
        "rows": [_stratum_row(d) for d in descriptors],
        "pass": True,
    }
