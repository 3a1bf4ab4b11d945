"""Command-line interface.

Subcommands mirror the library layout: ``bazaikin`` (parameter checks and
catalog enumeration), ``group`` (build/analyze multiplication tables),
``fixedpoint`` (profile census, exact-sequence solver, divisibility
obstruction), ``ss`` (spectral-sequence verdict) and ``theorem-a`` (the
full case engine).  Exit code 0 on success, 2 on invalid input.  The
``bazaikin`` commands only format the rows that ``bazaikin.row`` builds.

The nine leaf commands sit in one table.  A well-formed call is parsed
straight from its command's table entry and builds no parser; argparse runs
only for help and errors, so help texts, error messages and exit codes are
argparse's own.  A reader that closes standard output early (``| head``)
ends the call with exit code 1 and nothing on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction

from . import bazaikin, cohomology, gates, groups, pipeline, spectral


def _emit(data) -> None:
    """Write data as one indented JSON document in one piece: if it cannot
    be encoded, nothing is written."""
    sys.stdout.write(json.dumps(data, indent=2) + "\n")


# ---------------------------------------------------------------------------
# bazaikin


def cmd_bazaikin_check(args) -> int:
    row = bazaikin.row(args.q)
    if args.json:
        _emit(row)
        return 0
    print(f"q (canonical): {tuple(row['q'])}")
    if row["free"]:
        print("free action: yes (all entries odd, all 15 pair gcds equal 2)")
    else:
        print("free action: NO")
        if not row["all_odd"]:
            print("  some entry is even")
        for ij, kl, g in row["failing_pairs"]:
            print(f"  pair sums at indices {ij} and {kl} have gcd {g}")
    print(f"curvature pair-sums: {row['curvature']}")
    integral = "integral" if row["m_integral"] else "NOT integral"
    print(f"torsion order m = {row['m']} = {Fraction(row['e3'], 8)} ({integral})")
    print(f"mod-3 cohomology type: {row['mod3_type']}")
    return 0


def cmd_bazaikin_enumerate(args) -> int:
    rows = [bazaikin.row(q) for q in bazaikin.enumerate_spaces(args.bound)]
    if args.format == "json":
        _emit({"bound": args.bound, "count": len(rows), "spaces": rows})
    else:
        print("q1\tq2\tq3\tq4\tq5\te3\tm\tm_integral\tmod3_type")
        for row in rows:
            fields = [*row["q"], row["e3"], row["m"], str(row["m_integral"]).lower(),
                      row["mod3_type"]]
            print("\t".join(map(str, fields)))
    return 0


# ---------------------------------------------------------------------------
# group


def cmd_group_build(args) -> int:
    if args.burnside and args.name:
        raise ValueError("give either --burnside or --name, not both")
    if args.burnside:
        m, n, r = args.burnside
        G = groups.build_burnside(groups.BurnsideParams(m, n, r))
    elif args.name:
        G = groups.build_standard(args.name)
    else:
        raise ValueError("one of --burnside m n r or --name NAME is required")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                groups.write_group_file(G, fh)
        except OSError as exc:
            raise ValueError(f"cannot write group table: {exc}")
        print(f"wrote order-{G.order} table to {args.out}")
    else:
        groups.write_group_file(G, sys.stdout)
    return 0


def cmd_group_analyze(args) -> int:
    try:
        G = groups.read_group_file(args.infile)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read group table: {exc}")
    primes = groups.prime_divisors(G.order)
    is_p_group = len(primes) == 1
    davis = groups.davis_decomposition(G)
    payload = {
        "order": G.order,
        "abelian": G.is_abelian,
        "exponent": G.exponent,
        "sylow": {str(p): groups.sylow_is_cyclic(G, p) for p in primes},
        "p2": {str(p): groups.p2_condition(G, p) for p in primes},
        "two_p": groups.two_p_condition(G),
        "min_cyclic_index": groups.min_cyclic_index(G),
        "normal_rank": (
            groups.normal_rank(G, primes[0]) if is_p_group else None
        ),
        "davis": (
            None
            if davis is None
            else {
                "a": davis[0].bit_length() - 1,
                "two_part": davis[0],
                "odd_order": davis[1].order,
            }
        ),
    }
    if args.json:
        _emit(payload)
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0


# ---------------------------------------------------------------------------
# fixedpoint


def cmd_fixedpoint_profiles(args) -> int:
    profiles = cohomology.enumerate_profiles(args.budget, args.dim)
    payload = {"profiles": [list(p) for p in profiles]}
    if args.json:
        _emit(payload)
    else:
        for p in profiles:
            print(" + ".join(p))
    return 0


def _parse_space(label: str) -> tuple[int, ...]:
    if label in cohomology.COMPONENT_BETTI:
        return cohomology.COMPONENT_BETTI[label]
    raise ValueError(
        f"unknown space {label!r}; choose from {sorted(cohomology.COMPONENT_BETTI)}"
    )


def cmd_fixedpoint_gysin(args) -> int:
    bX = _parse_space(args.space)
    dim = len(bX) - 1
    if args.fixed == "empty":
        bF = None
    else:
        labels = [s.strip() for s in args.fixed.split(",") if s.strip()]
        if not labels:
            raise ValueError("--fixed wants 'empty' or at least one component")
        parts = [_parse_space(s) for s in labels]
        acc = [0] * (dim + 1)
        for label, b in zip(labels, parts):
            if len(b) > len(acc):
                raise ValueError(
                    f"fixed component {label!r} has dimension {len(b) - 1},"
                    f" above the dimension {dim} of {args.space!r}"
                )
            for i, x in enumerate(b):
                acc[i] += x
        bF = tuple(acc)
    sols = cohomology.smith_gysin_solve(bX, bF, dim)
    payload = {
        "space": args.space,
        "fixed": args.fixed,
        "solutions": [{"R": list(R), "chi_bar": cohomology.euler_char(R)} for R in sols],
    }
    if len(sols) == 1:
        payload.update(payload["solutions"][0])
    _emit(payload)
    return 0


def cmd_fixedpoint_obstruct(args) -> int:
    try:
        group = cohomology.QuotientIndex.parse(args.group)
    except ValueError as exc:
        raise ValueError(f"bad --group (want cd:D or zpxzp:P): {exc}")
    try:
        lef = [int(x) for x in args.lef.split(",") if x.strip()]
    except ValueError:
        raise ValueError("--lef wants a comma-separated integer list")
    if not lef:
        raise ValueError("--lef wants at least one integer")
    surviving = cohomology.divisibility_obstruction(group, lef)
    _emit(
        {
            "group": {"kind": group.kind, "value": group.value},
            "lef_values": lef,
            "excluded": not surviving,
            "surviving": sorted(surviving),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# ss / theorem-a


def cmd_ss_verify(args) -> int:
    report = spectral.exhaustive_verdict(args.p)
    payload = {
        "p": report.p,
        "choices": report.choices_examined,
        "min_deg6_survivors": report.min_deg6_survivors,
        "free_action_possible": not report.verdict,
    }
    if args.trace:
        # self-check: the page engine, independent of the sweep's factored
        # minimum, must leave the same number of degree-6 survivors
        pages = spectral.run_choice_pages(args.p, report.minimizing_choice)
        gates._gate(
            pages[-1].total_degree(6) == report.min_deg6_survivors,
            f"the page engine leaves {pages[-1].total_degree(6)} degree-6 "
            f"survivors for the minimizing choice; the sweep reports "
            f"{report.min_deg6_survivors}",
        )
        payload["minimizing_choice"] = dataclasses.asdict(report.minimizing_choice)
        payload["pages"] = [
            {
                "r": pg.r if pg.r is not None else "inf",
                "dims": {f"{m},{n}": d for (m, n), d in sorted(pg.dims.items())},
                "total_degree_6": pg.total_degree(6),
            }
            for pg in pages
        ]
    if args.stats:
        st = report.stats
        payload["stats"] = {
            "frames": st.frames,
            "frame_orbits": st.frame_orbits,
            "zero_frame_d4x_orbits": st.zero_frame_d4x_orbits,
            "d4x_lines": st.d4x_lines,
            "d4xy_lines": st.d4xy_lines,
            "d6_lines": st.d6_lines,
            "choices": report.choices_examined,
            "orbit_build_s": st.orbit_build_s,
            "frame_sweep_s": st.frame_sweep_s,
        }
    _emit(payload)
    return 0


def cmd_theorem_a(args) -> int:
    if args.json and args.explain:
        raise ValueError("give --json or --explain, not both")
    scenario = pipeline.ScenarioInput(args.rank, args.cohomology)
    report = pipeline.theorem_a_report(scenario)
    if args.explain:
        print(report.explain())
    elif args.json:
        _emit(report.to_json())
    else:
        print(
            f"rank-{args.rank} torus, {args.cohomology} type: admissible "
            "cyclic-subgroup indices "
            + ", ".join(str(d) for d in sorted(report.index_bound_set))
        )
    return 0


# ---------------------------------------------------------------------------


_GROUP_HELP = {
    "bazaikin": "parameter admissibility and catalog",
    "group": "finite group tables",
    "fixedpoint": "fixed-point bookkeeping",
    "ss": "spectral-sequence engine",
}

# every leaf command: its path, its help, its arguments as (flags, keyword
# arguments) pairs and its handler; a group's leaves sit together, in the
# order that help lists them
_LEAVES = (
    (
        ("bazaikin", "check"), "check one weight tuple",
        [(("q",), dict(nargs=5, type=int, metavar="qi")),
         (("--json",), dict(action="store_true"))],
        cmd_bazaikin_check,
    ),
    (
        ("bazaikin", "enumerate"), "catalog admissible tuples",
        [(("--bound",), dict(type=int, required=True)),
         (("--format",), dict(choices=("json", "tsv"), default="json"))],
        cmd_bazaikin_enumerate,
    ),
    (
        ("group", "build"), "emit a multiplication table",
        [(("--burnside",), dict(nargs=3, type=int, metavar=("M", "N", "R"))),
         (("--name",), dict(type=str)),
         (("--out",), dict(type=str))],
        cmd_group_build,
    ),
    (
        ("group", "analyze"), "analyze a table file",
        [(("--in",), dict(dest="infile", required=True)),
         (("--json",), dict(action="store_true"))],
        cmd_group_analyze,
    ),
    (
        ("fixedpoint", "profiles"), "census of fixed-set profiles",
        [(("--budget",), dict(type=int, default=6)),
         (("--dim",), dict(type=int, default=5)),
         (("--json",), dict(action="store_true"))],
        cmd_fixedpoint_profiles,
    ),
    (
        ("fixedpoint", "gysin"), "solve the circle-quotient sequence",
        [(("--space",), dict(required=True)),
         (("--fixed",), dict(default="empty"))],
        cmd_fixedpoint_gysin,
    ),
    (
        ("fixedpoint", "obstruct"), "divisibility obstruction",
        [(("--group",), dict(required=True, help="cd:D or zpxzp:P")),
         (("--lef",), dict(required=True, help="comma-separated integers"))],
        cmd_fixedpoint_obstruct,
    ),
    (
        ("ss", "verify"), "exhaustive differential sweep",
        [(("--p",), dict(type=int, required=True)),
         (("--trace",), dict(action="store_true")),
         (("--stats",), dict(
             action="store_true",
             help="add frame, orbit and line counts and the time of each stage",
         ))],
        cmd_ss_verify,
    ),
    (
        ("theorem-a",), "full case engine",
        [(("--rank",), dict(type=int, choices=(2, 3), required=True)),
         (("--cohomology",), dict(
             choices=(pipeline.RATIONAL, pipeline.MOD3), default=pipeline.RATIONAL,
         )),
         (("--json",), dict(action="store_true")),
         (("--explain",), dict(action="store_true"))],
        cmd_theorem_a,
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every leaf command under its group's parser."""
    ap = argparse.ArgumentParser(
        prog="pcurv13",
        description=(
            "obstruction calculus for fundamental groups of positively "
            "curved 13-manifolds with torus symmetry"
        ),
    )
    top = ap.add_subparsers(dest="cmd", required=True)
    subparsers = {(): top}
    for path, help_text, arguments, func in _LEAVES:
        group = path[:-1]
        if group not in subparsers:
            gp = top.add_parser(group[0], help=_GROUP_HELP[group[0]])
            subparsers[group] = gp.add_subparsers(dest="sub", required=True)
        leaf = subparsers[group].add_parser(path[-1], help=help_text)
        for flags, kwargs in arguments:
            leaf.add_argument(*flags, **kwargs)
        leaf.set_defaults(func=func)
    return ap


# a word that starts with '-' and is no negative number by argparse's
# pattern (^-\d+$|^-\d*\.\d+$): no option of any leaf looks like one
_OPTION = re.compile(r"-(?!\d+$|\d*\.\d+$)")


def _parse_leaf(argv) -> argparse.Namespace | None:
    """The namespace the full parser returns for argv, read off the entry
    of the command argv names, or None for anything but a plain well-formed
    call (help, an unknown, abbreviated, repeated or --opt=value option, a
    value starting with '-' but no negative number, a missing required
    argument, a bad int or choice, positional values that are not one run
    of the right length)."""
    for path, _, arguments, func in _LEAVES:
        if tuple(argv[: len(path)]) == path:
            break
    else:
        return None
    values = dict(zip(("cmd", "sub"), path), func=func)
    spec = {}  # flag, or None for the positional: (dest, keyword arguments)
    for flags, kwargs in arguments:
        name = flags[0]
        dest = kwargs.get("dest", name.lstrip("-").replace("-", "_"))
        spec[name if name.startswith("-") else None] = dest, kwargs
        values[dest] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
    seen, rest = set(), list(argv[len(path):])
    while rest:
        key = rest.pop(0) if _OPTION.match(rest[0]) else None
        if key not in spec or key in seen:  # a second positional run repeats None
            return None
        seen.add(key)
        dest, kwargs = spec[key]
        if kwargs.get("action") == "store_true":
            values[dest] = True
            continue
        n = kwargs.get("nargs") or 1
        words, rest = rest[:n], rest[n:]
        if len(words) < n or any(map(_OPTION.match, words)):
            return None
        try:
            converted = [kwargs.get("type", str)(w) for w in words]
        except ValueError:
            return None
        if "choices" in kwargs and any(v not in kwargs["choices"] for v in converted):
            return None
        values[dest] = converted if "nargs" in kwargs else converted[0]
    if any((key is None or kw.get("required")) and key not in seen for key, (_, kw) in spec.items()):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_leaf(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed standard output: point it at devnull, so that
        # the flush at exit does not fail again, and exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
