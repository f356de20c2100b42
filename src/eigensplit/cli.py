"""Command line front end.

Every subcommand prints one deterministic report to stdout in json, csv,
or text form.  Exit codes: 0 for success, 2 when a verification report
contains failing cells, 1 for usage and precision problems (argparse
errors included).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from math import factorial

# the layers are reached through their modules, so that a subcommand runs
# only the layers it reads from (see the package docstring)
from . import cyclotomic, homotopy, kummer, lfunctions
from .errors import (
    EigensplitError,
    PrecisionError,
    UsageError,
    VerificationError,
)
from .padic import PadicCtx, check_odd_prime, check_precision


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default, which would collide with
    # the verification-failure code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(fmt: str, payload: dict, header, rows, lines):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        import csv  # only a csv run pays for it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _resolve_window(args) -> tuple:
    # the library entry checks the window itself
    if args.lo is None or args.hi is None:
        raise UsageError("this subcommand needs --from and --to")
    return args.lo, args.hi


def _graded(M: homotopy.GradedModule, dense: bool):
    """The json cells, csv rows and text lines of a graded module."""
    cells, rows, lines = [], [], []
    for n in range(M.lo, M.hi + 1) if dense else M.degrees():
        m = M.entry(n)
        cells.append({"degree": n, "rank": m.rank,
                      "torsion": list(m.torsion)})
        rows.extend([n, "free", ""] for _ in range(m.rank))
        rows.extend([n, "torsion", e] for e in m.torsion)
        if m.is_zero():
            rows.append([n, "zero", ""])
        lines.append(f"pi_{n} = {m!r}")
    return cells, rows, lines


def _unit_ring(args):
    """The level-0 ring of `units` and `kummer`, with --pi-precision
    refused by its flag name when outside what --precision holds."""
    p = check_odd_prime(args.prime)
    check_precision(args.precision)
    top = (p - 1) * args.precision
    if args.pi_precision is not None and not 1 <= args.pi_precision <= top:
        raise UsageError(
            f"--pi-precision must be in 1..{top} at --precision "
            f"{args.precision}, got {args.pi_precision}"
        )
    return cyclotomic.cyc_ring(p, 0, args.precision, args.pi_precision)


def _pick_unit(args, ring):
    if args.unit == "lang":
        if args.lam is None:
            raise UsageError("--unit lang needs --lambda")
        return kummer.lang_unit(ring, args.lam)
    return kummer.cw_unit(ring)


# Each handler returns its exit code, then the json payload, the csv
# header and rows, and the text lines.

def _cmd_teich(args) -> tuple:
    p = check_odd_prime(args.prime)
    ctx = PadicCtx(p, args.precision)
    values = [
        {"a": a, "omega": ctx.teichmuller(a).lift()} for a in range(1, p)
    ]
    return (
        0,
        {"prime": p, "precision": args.precision, "values": values},
        ["a", "omega"],
        [[v["a"], v["omega"]] for v in values],
        [f"omega({v['a']}) = {v['omega']} mod {p}^{args.precision}"
         for v in values],
    )


def _cmd_units(args) -> tuple:
    ring = _unit_ring(args)
    p = ring.ctx.p
    if args.unit == "coates-wiles" and args.precision < 2:
        # its level-1 norm check acts by 1 + kp mod p^2
        raise UsageError(
            "--unit coates-wiles needs --precision >= 2 for its level-1 "
            f"norm check, got {args.precision}"
        )
    u = _pick_unit(args, ring)
    digits = [c.lift() for c in u.coeffs]
    payload = {"prime": p, "unit": args.unit, "digits": digits}
    if args.unit == "lang":
        payload["lambda"] = args.lam
    else:
        ring1 = cyclotomic.cyc_ring(p, 1, args.precision, ring.pi_prec)
        kummer.cw_unit_pair(ring1)  # raises VerificationError if the norm fails
        payload["norm_compatible"] = True
    ev = cyclotomic.eigen_valuation(ring.zeta() - 1)
    payload["uniformizer_eigen_valuation"] = str(ev)
    lines = [f"{args.unit} unit at level 0, prime {p}"]
    lines.extend(f"  pi^{k} digit: {d}" for k, d in enumerate(digits))
    return 0, payload, ["position", "digit"], enumerate(digits), lines


def _cmd_kummer(args) -> tuple:
    ring = _unit_ring(args)
    p = ring.ctx.p
    u = _pick_unit(args, ring)
    cw = args.unit == "coates-wiles"
    values, lines = [], []
    failed = False
    for i, phi in enumerate(kummer.kummer_phis(u), start=1):
        row = {"i": i, "phi": phi}
        tail = ""
        if cw:
            ref = (-factorial(i - 1)) % p
            row.update(reference=ref, match=phi == ref)
            failed = failed or phi != ref
            tail = f"  (expected {ref}: {'ok' if phi == ref else 'MISMATCH'})"
        values.append(row)
        lines.append(f"phi_{i} = {phi}{tail}")
    payload = {"prime": p, "unit": args.unit, "values": values}
    if not cw:
        payload["lambda"] = args.lam
    rows = [list(row.values()) for row in values]
    header = ["i", "phi", "reference", "match"] if cw else ["i", "phi"]
    return 2 if failed else 0, payload, header, rows, lines


def _cmd_lvalues(args) -> tuple:
    p = check_odd_prime(args.prime)
    if args.char is None or args.at is None:
        raise UsageError("lvalues needs --char and --at")
    val = lfunctions.lp_value(p, args.char, args.at, M=args.precision)
    try:
        v = val.certified_valuation()
    except PrecisionError:
        v = None
    payload = {
        "prime": p,
        "char": args.char % (p - 1),
        "s": args.at,
        "value": val.value.lift(),
        "modulus": p ** val.value.prec,
        "valuation": v,
        "rational": str(val.rational) if val.rational is not None else None,
    }
    line = (
        f"L_p(s={args.at}, omega^{payload['char']}) = {payload['value']} "
        f"mod {payload['modulus']}  (valuation {v}, "
        f"rational {payload['rational']})"
    )
    return 0, payload, ["field", "value"], payload.items(), [line]


def _cmd_irregular(args) -> tuple:
    p = check_odd_prime(args.prime)
    pairs = lfunctions.irregular_pairs(p)
    body = ", ".join(str(k) for k in pairs) if pairs else "none found"
    return (
        0,
        {"prime": p, "irregular_pairs": pairs},
        ["k"],
        [[k] for k in pairs],
        [f"irregular pairs for {p}: {body}"],
    )


def _cmd_homotopy(args) -> tuple:
    p = check_odd_prime(args.prime)
    lo, hi = _resolve_window(args)
    sid = homotopy.SpectrumId.parse(args.spectrum, p, kv_assume=args.kv_assume)
    cells, rows, lines = _graded(homotopy.homotopy_of(sid, (lo, hi)),
                                 args.dense)
    payload = {"prime": p, "spectrum": args.spectrum, "window": [lo, hi],
               "groups": cells}
    return 0, payload, ["degree", "kind", "exponent"], rows, lines


def _cmd_duality(args) -> tuple:
    p = check_odd_prime(args.prime)
    lo, hi = _resolve_window(args)
    report = homotopy.verify_main_duality(p, (lo, hi),
                                          kv_assume=args.kv_assume)
    rows = [[cell["i"], cell["degree"], cell["status"]]
            for cell in report.cells + report.notes]
    lines = [f"duality check p={p} window [{lo}, {hi}]"]
    for cell in report.cells:
        if cell["status"] == "PASS":
            m = cell["module"]
            lines.append(
                f"  i={cell['i']} n={cell['degree']} PASS "
                f"rank={m['rank']} torsion={m['torsion']}"
            )
        else:
            lines.append(
                f"  i={cell['i']} n={cell['degree']} FAIL "
                f"fiber={cell['fiber_route']} dual={cell['dual_route']}"
            )
    for cell in report.notes:
        lines.append(
            f"  i={cell['i']} n={cell['degree']} note "
            "(cover convention sensitive)"
        )
    lines.append("PASS" if report.passed else "FAIL")
    rc = 0 if report.passed else 2
    return rc, report.to_dict(), ["i", "degree", "status"], rows, lines


def _cmd_les(args) -> tuple:
    p = check_odd_prime(args.prime)
    lo, hi = _resolve_window(args)
    if args.char is None:
        raise UsageError("les needs --char")
    i = args.char % (p - 1)
    window = (lo, hi)
    report = homotopy.les_consistency(*(
        homotopy.homotopy_of(homotopy.SpectrumId(v, p, i, args.kv_assume),
                             window)
        for v in "xyz"))
    payload = {"prime": p, "char": i, "window": [lo, hi]}
    payload.update(report.to_dict())
    rows = [
        [k, seg["status"], " ".join(seg["slots"])]
        for k, seg in enumerate(report.segments)
    ]
    lines = [f"fiber sequence check p={p} i={i}"]
    for seg in report.segments:
        lines.append(f"  [{' '.join(seg['slots'])}] {seg['status']}")
    lines.append("PASS" if report.passed else "FAIL")
    rc = 0 if report.passed else 2
    return rc, payload, ["segment", "status", "slots"], rows, lines


_OPTIONS = {
    "spectrum": dict(metavar="SPECTRUM"),
    "--precision": dict(type=int, default=4),
    "--pi-precision": dict(type=int),
    "--unit": dict(choices=("coates-wiles", "lang"), default="coates-wiles"),
    "--lambda": dict(type=int, dest="lam"),
    "--char": dict(type=int),
    "--at": dict(type=int),
    "--from": dict(type=int, dest="lo"),
    "--to": dict(type=int, dest="hi"),
    "--dense": dict(action="store_true"),
    "--kv-assume": dict(action="store_true"),
}

# every subcommand also takes --prime, --format and --cache-dir
_COMMANDS = (
    ("teich", _cmd_teich, ("--precision",)),
    ("units", _cmd_units,
     ("--precision", "--pi-precision", "--unit", "--lambda")),
    ("kummer", _cmd_kummer,
     ("--precision", "--pi-precision", "--unit", "--lambda")),
    ("lvalues", _cmd_lvalues, ("--precision", "--char", "--at")),
    ("irregular", _cmd_irregular, ()),
    ("homotopy", _cmd_homotopy,
     ("spectrum", "--from", "--to", "--dense", "--kv-assume")),
    ("duality", _cmd_duality, ("--from", "--to", "--kv-assume")),
    ("les", _cmd_les, ("--from", "--to", "--kv-assume", "--char")),
)

# the subcommands whose answers read Bernoulli numbers; the others leave
# the cache, and the lfunctions layer, unloaded
_READS_BERNOULLI = ("lvalues", "irregular", "homotopy", "duality", "les")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigensplit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, func, options in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--prime", type=int, required=True)
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
        sp.add_argument("--cache-dir")
        for option in options:
            sp.add_argument(option, **_OPTIONS[option])
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = args.cache_dir or os.environ.get("EIGENSPLIT_CACHE")
    try:
        if cache and args.command in _READS_BERNOULLI:
            lfunctions.configure_cache(cache)
        rc, *renderings = args.func(args)
    except (UsageError, PrecisionError) as err:
        print(f"eigensplit: error: {err}", file=sys.stderr)
        return 1
    except VerificationError as err:
        print(f"eigensplit: verification failed: {err}", file=sys.stderr)
        return 2
    except EigensplitError as err:
        print(f"eigensplit: internal inconsistency: {err}", file=sys.stderr)
        return 2
    _emit(args.format, *renderings)
    return rc


if __name__ == "__main__":
    sys.exit(main())
