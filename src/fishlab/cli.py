"""Command-line front end: enumeration of the families of hat.FAMILIES,
verification suites, the count table, and exploratory conjecture reports.

Exit codes: 0 all checks pass, 1 check failure, 2 usage error.
Output is deterministic: fixed sort orders, no timestamps in data rows.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import series, verify
from .hat import FAMILIES
from .sequences import level_sizes

# bound on enumerate_cost: admits every family at n <= 8 for every d (at
# most 84057 objects, modinv at n = 8), refuses modinv at n = 9 and every
# family past n = 10, so it also bounds n
ENUMERATE_MAX_COST = 100_000

# bound on table_cost: table_cost(500, 5), the --n-max 500 --d-max 5 table
TABLE_MAX_COST = 4_500_000

REPORT_KEYS = ("check", "n", "d", "expected", "actual", "pass")


class UsageError(Exception):
    """A bad invocation: the command prints the message and exits 2."""


def _require_nonnegative(**values) -> None:
    for name, value in values.items():
        if value is not None and value < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be nonnegative")


def _usage_errors(cmd):
    """Run cmd, turning a UsageError into one line on stderr and exit 2."""
    def run(args, out) -> int:
        try:
            return cmd(args, out)
        except UsageError as exc:
            print(exc, file=sys.stderr)
            return 2
    return run


def _line_format(n: int) -> str:
    """The %-format of one output line for a word of length n >= 10, whose
    entries can have two digits: its entries comma-separated."""
    return ",".join(["%d"] * n) + "\n"


# bytes.translate table from a word of one byte per entry, its words joined
# by 0, to its lines: 0 -> newline, v -> the digit of v for v <= 9
_DIGIT_LINES = bytes.maketrans(bytes(range(10)), b"\n123456789")


def enumerate_cost(family: str, n: int, d: int) -> int:
    """Objects `enumerate` examines, the depth-n leaves of the family's tree
    in FAMILIES, cut short past ENUMERATE_MAX_COST; ValueError if unknown."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    # every node has a child, so the sizes only grow with the depth
    sizes = enumerate(level_sizes(*FAMILIES[family][1](n, d)))
    return next(size for m, size in sizes if m == n or size > ENUMERATE_MAX_COST)


@_usage_errors
def cmd_enumerate(args, out) -> int:
    """Write the members of a family, one line each, in the order its
    generator gives them: the entries run together for n <= 9, as bytes
    one per entry, translated to digits a chunk at a time; comma-separated,
    by a %-format per line, from n = 10 on."""
    _require_nonnegative(n=args.n, d=args.d)
    takes_d, tree, fold = FAMILIES[args.family]
    if takes_d != (args.d is not None):
        need = "required for" if takes_d else "not taken by"
        raise UsageError(f"--d is {need} family {args.family}")
    cost = enumerate_cost(args.family, args.n, args.d or 0)
    if cost > ENUMERATE_MAX_COST:
        raise UsageError(
            f"--n {args.n} too large for family {args.family}: it would examine "
            f"{cost} or more objects, the limit is {ENUMERATE_MAX_COST}"
        )
    words = fold(args.n, *tree(args.n, args.d or 0))
    # one write, of text made 4096 words at a time, so that the lines never
    # all exist as separate objects
    starts = range(0, len(words), 4096)
    if args.n <= 9:
        # bytes(w) is w itself for a byte leaf; each chunk is one translate
        text = [
            (b"\0".join(map(bytes, words[i : i + 4096])) + b"\0")
            .translate(_DIGIT_LINES).decode()
            for i in starts
        ]
    else:
        # tuple(w) is w itself for a tuple leaf
        line = _line_format(args.n).__mod__
        text = ["".join(map(line, map(tuple, words[i : i + 4096]))) for i in starts]
    out.write("".join(text))
    return 0


def _json_default(value):
    """Reports hold sets only as digests, so the one type json lacks is the
    Fraction of a series coefficient."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def _print_reports(reports, out):
    failed = False
    for r in reports:
        row = {k: r[k] for k in REPORT_KEYS}
        if r.get("exploratory"):
            row["exploratory"] = True
        print(json.dumps(row, default=_json_default), file=out)
        failed = failed or not r["pass"]
    return failed


@_usage_errors
def cmd_verify(args, out) -> int:
    _require_nonnegative(n_max=args.n_max, d_max=args.d_max)
    sizes = f"--n-max {args.n_max} --d-max {args.d_max}"
    failed, checked = False, set()
    for claim in verify.claims_of(args.suite):
        # each row is printed as soon as it is made
        for report in verify.run_claim(claim, args.n_max, args.d_max):
            failed = _print_reports([report], out) or failed
            checked.add(report["check"])
        # each claim's grid caps n and d at what its check can afford; a
        # claim that its grid leaves out, or that a raising check cut off,
        # has no row, so stderr names it
        for name in claim.names:
            if name not in checked:
                print(f"verify: {name} has no row at {sizes}", file=sys.stderr)
    # a run with no rows checks nothing, so it does not pass
    return 1 if failed or not checked else 0


def table_cost(n_max: int, d_max: int) -> int:
    """Coefficient products the series engine spends on a table: the sum
    over d <= d_max of max(2, d) * n_max^2, in closed form."""
    per_square = 2 * (d_max + 1) if d_max < 3 else d_max * (d_max + 1) // 2 + 3
    return per_square * n_max**2


@_usage_errors
def cmd_table(args, out) -> int:
    _require_nonnegative(n_max=args.n_max, d_max=args.d_max)
    cost = table_cost(args.n_max, args.d_max)
    if cost > TABLE_MAX_COST:
        raise UsageError(
            f"--n-max and --d-max too large: the table would cost {cost} "
            f"coefficient products, the limit is {TABLE_MAX_COST}"
        )
    csv = args.format == "csv"
    lines = ["d,n,count"] if csv else []
    for d in range(args.d_max + 1):
        for n, count in enumerate(series.series_Q(d, -1, args.n_max).coeffs):
            if count.denominator != 1:
                print(f"table: the count at d = {d}, n = {n} is {count}, "
                      "not an integer", file=sys.stderr)
                return 1
            lines.append(f"{d},{n},{count}" if csv
                         else json.dumps({"d": d, "n": n, "count": int(count)}))
    print("\n".join(lines), file=out)
    return 0


@_usage_errors
def cmd_explore(args, out) -> int:
    _require_nonnegative(n_max=args.n_max)
    if args.n_max > 8:
        raise UsageError("--n-max too large for conjecture exploration")
    _print_reports(verify.explore_conjectures(args.n_max), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fishlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the members of a family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite", required=True, choices=sorted(verify.SUITES) + ["all"]
    )
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--d-max", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="counts of 213-avoiding d-Fishburn permutations")
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--d-max", type=int, default=5)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "explore-conjectures", help="exploratory image-equality reports"
    )
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
