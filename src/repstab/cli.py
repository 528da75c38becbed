"""Command-line interface: one subcommand per library surface, TSV output.

Exit codes: 0 success, 1 verification failure (with a witness file path on
stdout), 2 usage or input error.  Identical inputs produce byte-identical
stdout; every table is emitted in a fixed sorted order.
"""

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .arnold import arnold_report, format_polynomial
from .characters import format_table
from .e2 import DEFAULT_BUDGET, BudgetExceeded, MissingDiagonal, page_rows
from .configspaces import (
    NotComputable,
    betti_unordered,
    colored_betti,
    colored_pattern_bound,
    e2_page,
    load_manifold,
    stable_range_report,
)
from .manifolds import DescriptorError
from .partitions import format_partition, parse_partition
from .specht import (
    check_claims_level,
    monotonicity_witness,
    specht_module,
    tabloid_module_dim,
    verify_claims,
)
from .stability import (
    InducedSpechtSequence,
    InsufficientWindow,
    RangeParams,
    check_monotone,
    check_uniform_stability,
    propagate_ranges,
)

def _budget() -> int:
    raw = os.environ.get("REPSTAB_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"REPSTAB_BUDGET must be an integer, got {raw!r}") from None


def _check_module_budget(lam, n: int) -> None:
    """Refuse before building anything when I_n(M^lam), the tabloid module
    that the largest level a command builds lives in, exceeds the budget."""
    budget = _budget()
    size = tabloid_module_dim(lam, n)
    if size > budget:
        raise BudgetExceeded(
            f"I_n(M^lambda) for lambda = {format_partition(lam)}, n = {n} has {size} tabloids, "
            f"over the {budget}-element budget"
        )


def _emit(rows: list[list[str]], fmt: str) -> str:
    if fmt == "pretty" and rows:
        widths = [max(len(str(r[i])) for r in rows if i < len(r)) for i in range(max(map(len, rows)))]
        lines = [
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows
        ]
    else:
        lines = ["\t".join(str(cell) for cell in row) for row in rows]
    return "\n".join(lines)


def _write_witness(lines: list[str]) -> str:
    import tempfile  # only a failed verification writes a witness

    fd, path = tempfile.mkstemp(prefix="repstab-witness-", suffix=".txt")
    with os.fdopen(fd, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cmd_chartable(args) -> tuple[int, str]:
    if args.n < 1 or args.n > 10:
        return 2, "chartable: need 1 <= n <= 10"
    return 0, format_table(args.n)


def cmd_branch(args) -> tuple[int, str]:
    lam = parse_partition(getattr(args, "lambda"))
    n = args.n
    if args.verify:
        check_claims_level(n)  # monotonicity_witness has the same cap (MAX_VERIFY_N)
    # --verify runs monotonicity_witness, which builds level n + 1
    _check_module_budget(lam, n + 1 if args.verify else n)
    sub = specht_module(lam, n)
    counts = sub.decompose()
    rows = [[format_partition(mu), str(c)] for mu, c in counts.items()]
    out = _emit(rows, args.format)
    if not args.verify:
        return 0, out
    claims = verify_claims(lam, n)
    witness_lines = []
    if not claims.ok:
        witness_lines += [f"claims failure: {f!r}" for f in claims.failures]
    mono = monotonicity_witness(lam, n)
    if not mono.ok:
        witness_lines += [f"monotonicity failure: {f!r}" for f in mono.failures]
    if witness_lines:
        path = _write_witness(witness_lines)
        return 1, out + f"\nverify\tFAIL\t{path}"
    return 0, out + "\nverify\tPASS"


def cmd_monotone(args) -> tuple[int, str]:
    lam = parse_partition(getattr(args, "lambda"))
    seq = InducedSpechtSequence(lam)
    start = max(sum(lam), 1)
    if args.n_max < start + 1:
        raise InsufficientWindow(f"window [{start}, {args.n_max}] has no map to check")
    _check_module_budget(lam, args.n_max)
    report = check_monotone(seq, start, args.n_max)
    rows = [[str(n), "ok" if flag else "FAIL"] for n, flag in sorted(report.monotone.items())]
    out = _emit(rows, args.format)
    if not report.ok:
        path = _write_witness([repr(w) for w in report.witnesses])
        return 1, out + f"\nwitness\t{path}"
    return 0, out


def cmd_stable(args) -> tuple[int, str]:
    lam = parse_partition(getattr(args, "lambda"))
    seq = InducedSpechtSequence(lam)
    start = max(sum(lam), 1)
    _check_module_budget(lam, args.n_max)
    report = check_uniform_stability(seq, start, args.n_max)
    rows = []
    for n in sorted(report.multiplicities):
        mults = ";".join(
            f"{format_partition(label)}:{count}"
            for label, count in sorted(report.multiplicities[n].items())
        )
        inj = report.injectivity.get(n, "-")
        surj = report.surjectivity.get(n, "-")
        rows.append([str(n), str(inj), str(surj), mults])
    rows.append(["stable_from", str(report.multiplicity_stable_from()), "", ""])
    out = _emit(rows, args.format)
    structural = [w for w in report.witnesses if w[1] in ("injectivity", "surjectivity")]
    if structural:
        path = _write_witness([repr(w) for w in structural])
        return 1, out + f"\nwitness\t{path}"
    return 0, out


# every page from 2 on has page 2's bounds (propagate_ranges), so a longer
# table only repeats a row; the cap keeps the table's size bounded
MAX_PAGES = 1000


def cmd_ranges(args) -> tuple[int, str]:
    if args.pages < 2:
        return 2, f"ranges: need pages >= 2, got {args.pages}"
    if args.pages > MAX_PAGES:
        return 2, f"ranges: need pages <= {MAX_PAGES}, got {args.pages}"
    try:
        m = Fraction(args.m)
    except (ValueError, ZeroDivisionError):
        return 2, f"ranges: cannot parse m = {args.m!r}"
    try:
        params = RangeParams(m, args.ell)
    except ValueError as exc:
        return 2, f"ranges: {exc}"
    rows = [[str(r), stable, mono] for r, stable, mono in propagate_ranges(params, args.pages)]
    return 0, _emit(rows, args.format)


def cmd_arnold(args) -> tuple[int, str]:
    if args.m < 1 or args.m > 8 or args.d < 2:
        return 2, "arnold: need 1 <= m <= 8 and d >= 2"
    report = arnold_report(args.m, args.d)
    rows = [["poincare", format_polynomial(report["poincare"])]]
    chi = report["top_character"]
    for rho, value in zip(chi.classes, chi.values):
        rows.append(["top_character", format_partition(rho), str(value)])
    for mu, c in sorted(report["top_decomposition"].items(), reverse=True):
        rows.append(["top_irrep", format_partition(mu), str(c)])
    return 0, _emit(rows, args.format)


def cmd_e2(args) -> tuple[int, str]:
    n = args.n
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    desc = load_manifold(args.manifold)
    d = desc.d
    rows = [
        [str(p), str(q * (d - 1)), str(dim)]
        for q, row in enumerate(page_rows(desc, n)[: n // 2 + 1])
        for p, dim in sorted(row.items())
        if dim
    ]
    out = [["p", "q", "dim"]] + rows
    if args.explicit:
        page = e2_page(desc, n, budget=_budget())
        explicit = page.cell_dims()
        for row in rows:
            p, qd1 = int(row[0]), int(row[1])
            if explicit.get((p, qd1), 0) != int(row[2]):
                return 1, _emit(out, args.format) + "\nexplicit\tMISMATCH"
        top = max(p + qd1 for (p, qd1) in explicit)
        betti = [["betti_ordered", str(i), str(page.betti(i))] for i in range(top + 1)]
        out += [["explicit", "agree", str(page.total_dim)]] + betti
    return 0, _emit(out, args.format)


def cmd_betti(args) -> tuple[int, str]:
    desc = load_manifold(args.manifold)
    value = betti_unordered(desc, args.n, args.i)
    return 0, str(value)


def cmd_color_betti(args) -> tuple[int, str]:
    desc = load_manifold(args.manifold)
    mu = parse_partition(args.mu)
    budget = _budget()
    # mu = () is the unordered case, whose block spaces have one key each
    size = colored_pattern_bound(desc, args.n, args.i)
    if mu and size > budget:
        raise BudgetExceeded(
            f"colored block spaces for n = {args.n}, i = {args.i} reach {size} keys, "
            f"over the {budget}-element budget"
        )
    value = colored_betti(desc, args.n, args.i, mu)
    return 0, str(value)


def cmd_ranges_for(args) -> tuple[int, str]:
    if args.i < 0:
        raise ValueError(f"need i >= 0, got {args.i}")
    desc = load_manifold(args.manifold)
    rows = [[name, text] for name, text in stable_range_report(desc, args.i)]
    return 0, _emit(rows, args.format)


_INT = {"type": int, "required": True}
_STR = {"required": True}
_FLAG = {"action": "store_true"}

# name -> (function, help, options), in the order --help lists them
_COMMANDS = {
    "chartable": (cmd_chartable, "character table of S_n", {"--n": _INT}),
    "branch": (
        cmd_branch, "decomposition of I_n(V_lambda)",
        {"--lambda": _STR, "--n": _INT, "--verify": _FLAG},
    ),
    "monotone": (
        cmd_monotone, "monotonicity of the induced sequence", {"--lambda": _STR, "--n-max": _INT},
    ),
    "stable": (
        cmd_stable, "uniform stability of the induced sequence", {"--lambda": _STR, "--n-max": _INT},
    ),
    "ranges": (
        cmd_ranges, "stable/monotone range propagation table",
        {"--m": _STR, "--ell": _INT, "--pages": {"type": int, "default": 5}},
    ),
    "arnold": (cmd_arnold, "Euclidean configuration algebra summary", {"--m": _INT, "--d": _INT}),
    "e2": (
        cmd_e2, "E2 page dimensions", {"--manifold": _STR, "--n": _INT, "--explicit": _FLAG},
    ),
    "betti": (
        cmd_betti, "unordered configuration Betti number",
        {"--manifold": _STR, "--n": _INT, "--i": _INT},
    ),
    "color-betti": (
        cmd_color_betti, "colored configuration Betti number",
        {"--manifold": _STR, "--mu": _STR, "--n": _INT, "--i": _INT},
    ),
    "ranges-for": (
        cmd_ranges_for, "theoretical stable ranges for a manifold", {"--manifold": _STR, "--i": _INT},
    ),
}


_FORMATS = ("tsv", "pretty")


def build_parser():
    """The argparse parser of every subcommand, which answers help and
    usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repstab",
        description="Exact symmetric-group stability and configuration-space Betti numbers",
    )
    parser.add_argument("--format", choices=_FORMATS, default="tsv")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, read from _COMMANDS,
    for an argv of the shape every query has: an optional --format tsv|pretty,
    one subcommand, then each of its options at most once, as `--flag value`
    or a bare store_true flag, each value converted by the option's type.
    None for any other argv, which is the full parser's to answer."""
    fmt = "tsv"
    if argv[:1] == ["--format"]:
        if len(argv) < 2 or argv[1] not in _FORMATS:
            return None
        fmt, argv = argv[1], argv[2:]
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            given[flag] = kwargs.get("type", str)(value)
        except ValueError:
            return None
    values = {}
    for flag, kwargs in options.items():
        if flag not in given and kwargs.get("required"):
            return None
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(format=fmt, command=argv[0], **values, func=func)


def _parse(argv: list[str]):
    """The namespace of argv: read from the command table, or parsed by the
    full parser when _read declines it, as it does every help request and
    usage error, which exit there."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def dispatch(argv: list[str]) -> tuple[int, str]:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return (0, "") if exc.code == 0 else (2, "usage error")
    try:
        return args.func(args)
    except (DescriptorError, MissingDiagonal, NotComputable, InsufficientWindow, ValueError) as exc:
        return 2, f"error: {exc}"
    except BudgetExceeded as exc:
        return 2, f"error: {exc} (raise REPSTAB_BUDGET to override)"


def main(argv: list[str] | None = None) -> int:
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed early (`repstab e2 ... | head -1`): the rest
            # of the answer goes to devnull, so the interpreter's own flush
            # at exit raises nothing either
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
