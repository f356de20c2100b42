"""Command line front end.

Every subcommand prints one deterministic report to stdout in json, csv,
or text form.  Exit codes: 0 for success, 2 when a verification report
contains failing cells, 1 for usage and precision problems (argparse
errors included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from math import factorial

from .cyclotomic import cyc_ring, eigen_unit, eigen_valuation
from .errors import (
    EigensplitError,
    PrecisionError,
    UsageError,
    VerificationError,
)
from .homotopy import (
    GradedModule,
    SpectrumId,
    check_window,
    homotopy_of,
    les_consistency,
    verify_main_duality,
)
from .kummer import cw_unit, cw_unit_pair, kummer_phi, lang_unit
from .lfunctions import configure_cache, irregular_pairs, lp_value
from .padic import PadicCtx, check_odd_prime


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default, which would collide with
    # the verification-failure code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit_json(payload: dict):
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _emit_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _emit_text(lines):
    for line in lines:
        sys.stdout.write(line + "\n")


def _resolve_window(args) -> tuple:
    if args.lo is None or args.hi is None:
        raise UsageError("this subcommand needs --from and --to")
    check_window(args.prime, args.lo, args.hi)
    if args.lo > args.hi:
        raise UsageError("--from must not exceed --to")
    return args.lo, args.hi


def _graded_payload(M: GradedModule, dense: bool) -> list:
    degrees = range(M.lo, M.hi + 1) if dense else M.degrees()
    return [
        {
            "degree": n,
            "rank": M.entry(n).rank,
            "torsion": list(M.entry(n).torsion),
        }
        for n in degrees
    ]


def _graded_rows(M: GradedModule, dense: bool) -> list:
    rows = []
    degrees = range(M.lo, M.hi + 1) if dense else M.degrees()
    for n in degrees:
        m = M.entry(n)
        for _ in range(m.rank):
            rows.append([n, "free", ""])
        for e in m.torsion:
            rows.append([n, "torsion", e])
        if dense and m.is_zero():
            rows.append([n, "zero", ""])
    return rows


def _graded_lines(M: GradedModule, dense: bool) -> list:
    lines = []
    degrees = range(M.lo, M.hi + 1) if dense else M.degrees()
    for n in degrees:
        lines.append(f"pi_{n} = {M.entry(n)!r}")
    return lines


def _pick_unit(args, ring):
    if args.unit == "lang":
        if args.lam is None:
            raise UsageError("--unit lang needs --lambda")
        lam = (
            ring.ctx.of(-1)
            if args.lam == -1
            else ring.ctx.teichmuller(args.lam)
        )
        return lang_unit(ring, lam)
    return cw_unit(ring)


def _cmd_teich(args) -> int:
    p = check_odd_prime(args.prime)
    ctx = PadicCtx(p, args.precision)
    values = [
        {"a": a, "omega": ctx.teichmuller(a).lift()} for a in range(1, p)
    ]
    if args.format == "json":
        _emit_json({"prime": p, "precision": args.precision, "values": values})
    elif args.format == "csv":
        _emit_csv(["a", "omega"], [[v["a"], v["omega"]] for v in values])
    else:
        _emit_text(
            [f"omega({v['a']}) = {v['omega']} mod {p}^{args.precision}"
             for v in values]
        )
    return 0


def _cmd_units(args) -> int:
    p = check_odd_prime(args.prime)
    pi_prec = args.pi_precision or p + 3
    ring = cyc_ring(p, 0, prec=args.precision, pi_prec=pi_prec)
    u = _pick_unit(args, ring)
    payload = {
        "prime": p,
        "unit": args.unit,
        "digits": [c.lift() for c in u.coeffs],
    }
    if args.unit == "lang":
        payload["lambda"] = args.lam
    else:
        ring1 = cyc_ring(p, 1, prec=args.precision, pi_prec=pi_prec)
        cw_unit_pair(ring1)  # raises VerificationError if the norm fails
        payload["norm_compatible"] = True
    ev = eigen_valuation(ring.zeta() - 1)
    payload["uniformizer_eigen_valuation"] = str(ev)
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ["position", "digit"],
            list(enumerate(payload["digits"])),
        )
    else:
        lines = [f"{args.unit} unit at level 0, prime {p}"]
        lines.extend(
            f"  pi^{k} digit: {d}" for k, d in enumerate(payload["digits"])
        )
        _emit_text(lines)
    return 0


def _cmd_kummer(args) -> int:
    p = check_odd_prime(args.prime)
    pi_prec = args.pi_precision or p + 3
    ring = cyc_ring(p, 0, prec=args.precision, pi_prec=pi_prec)
    u = _pick_unit(args, ring)
    rows = []
    failed = False
    for i in range(1, p - 1):
        phi = kummer_phi(i, u)
        row = {"i": i, "phi": phi}
        if args.unit == "coates-wiles":
            row["reference"] = (-factorial(i - 1)) % p
            row["match"] = phi == row["reference"]
            failed = failed or not row["match"]
        rows.append(row)
    payload = {"prime": p, "unit": args.unit, "values": rows}
    if args.unit == "lang":
        payload["lambda"] = args.lam
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        if args.unit == "coates-wiles":
            _emit_csv(
                ["i", "phi", "reference", "match"],
                [[r["i"], r["phi"], r["reference"], r["match"]] for r in rows],
            )
        else:
            _emit_csv(["i", "phi"], [[r["i"], r["phi"]] for r in rows])
    else:
        lines = []
        for r in rows:
            tail = ""
            if "reference" in r:
                tail = f"  (expected {r['reference']}: " \
                       f"{'ok' if r['match'] else 'MISMATCH'})"
            lines.append(f"phi_{r['i']} = {r['phi']}{tail}")
        _emit_text(lines)
    return 2 if failed else 0


def _cmd_lvalues(args) -> int:
    p = check_odd_prime(args.prime)
    if args.char is None or args.at is None:
        raise UsageError("lvalues needs --char and --at")
    val = lp_value(p, args.char, args.at, M=args.precision)
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
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ["field", "value"],
            [[k, payload[k]] for k in
             ("prime", "char", "s", "value", "modulus", "valuation",
              "rational")],
        )
    else:
        _emit_text([
            f"L_p(s={args.at}, omega^{payload['char']}) = {payload['value']} "
            f"mod {payload['modulus']}  (valuation {v}, "
            f"rational {payload['rational']})"
        ])
    return 0


def _cmd_irregular(args) -> int:
    p = check_odd_prime(args.prime)
    pairs = irregular_pairs(p)
    if args.format == "json":
        _emit_json({"prime": p, "irregular_pairs": pairs})
    elif args.format == "csv":
        _emit_csv(["k"], [[k] for k in pairs])
    else:
        body = ", ".join(str(k) for k in pairs) if pairs else "none found"
        _emit_text([f"irregular pairs for {p}: {body}"])
    return 0


def _cmd_homotopy(args) -> int:
    p = check_odd_prime(args.prime)
    lo, hi = _resolve_window(args)
    sid = SpectrumId.parse(args.spectrum, p, kv_assume=args.kv_assume)
    M = homotopy_of(sid, (lo, hi))
    if args.format == "json":
        _emit_json({
            "prime": p,
            "spectrum": args.spectrum,
            "window": [lo, hi],
            "groups": _graded_payload(M, args.dense),
        })
    elif args.format == "csv":
        _emit_csv(["degree", "kind", "exponent"], _graded_rows(M, args.dense))
    else:
        _emit_text(_graded_lines(M, args.dense))
    return 0


def _cmd_duality(args) -> int:
    p = check_odd_prime(args.prime)
    lo, hi = _resolve_window(args)
    report = verify_main_duality(p, (lo, hi), kv_assume=args.kv_assume)
    if args.format == "json":
        _emit_json(report.to_dict())
    elif args.format == "csv":
        rows = []
        for cell in report.cells + report.notes:
            rows.append([cell["i"], cell["degree"], cell["status"]])
        _emit_csv(["i", "degree", "status"], rows)
    else:
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
        _emit_text(lines)
    return 0 if report.passed else 2


def _cmd_les(args) -> int:
    p = check_odd_prime(args.prime)
    lo, hi = _resolve_window(args)
    if args.char is None:
        raise UsageError("les needs --char")
    i = args.char % (p - 1)
    window = (lo, hi)
    x = homotopy_of(SpectrumId("x", p, i, args.kv_assume), window)
    y = homotopy_of(SpectrumId("y", p, i, args.kv_assume), window)
    z = homotopy_of(SpectrumId("z", p, i, args.kv_assume), window)
    report = les_consistency(x, y, z)
    payload = {"prime": p, "char": i, "window": [lo, hi]}
    payload.update(report.to_dict())
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        rows = [
            [k, seg["status"], " ".join(seg["slots"])]
            for k, seg in enumerate(report.segments)
        ]
        _emit_csv(["segment", "status", "slots"], rows)
    else:
        lines = [f"fiber sequence check p={p} i={i}"]
        for seg in report.segments:
            lines.append(f"  [{' '.join(seg['slots'])}] {seg['status']}")
        lines.append("PASS" if report.passed else "FAIL")
        _emit_text(lines)
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigensplit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(sp, window=False, kv=False, unit=False, char=False):
        sp.add_argument("--prime", type=int, required=True)
        sp.add_argument("--precision", type=int, default=4)
        sp.add_argument("--pi-precision", type=int, default=None,
                        dest="pi_precision")
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
        sp.add_argument("--cache-dir", default=None, dest="cache_dir")
        if window:
            sp.add_argument("--from", type=int, default=None, dest="lo")
            sp.add_argument("--to", type=int, default=None, dest="hi")
            sp.add_argument("--dense", action="store_true")
        if kv:
            sp.add_argument("--kv-assume", action="store_true",
                            dest="kv_assume")
        if unit:
            sp.add_argument("--unit", choices=("coates-wiles", "lang"),
                            default="coates-wiles")
            sp.add_argument("--lambda", type=int, default=None, dest="lam")
        if char:
            sp.add_argument("--char", type=int, default=None)

    sp = sub.add_parser("teich")
    common(sp)
    sp.set_defaults(func=_cmd_teich)

    sp = sub.add_parser("units")
    common(sp, unit=True)
    sp.set_defaults(func=_cmd_units)

    sp = sub.add_parser("kummer")
    common(sp, unit=True)
    sp.set_defaults(func=_cmd_kummer)

    sp = sub.add_parser("lvalues")
    common(sp, char=True)
    sp.add_argument("--at", type=int, default=None)
    sp.set_defaults(func=_cmd_lvalues)

    sp = sub.add_parser("irregular")
    common(sp)
    sp.set_defaults(func=_cmd_irregular)

    sp = sub.add_parser("homotopy")
    sp.add_argument("spectrum", metavar="SPECTRUM")
    common(sp, window=True, kv=True)
    sp.set_defaults(func=_cmd_homotopy)

    sp = sub.add_parser("duality")
    common(sp, window=True, kv=True)
    sp.set_defaults(func=_cmd_duality)

    sp = sub.add_parser("les")
    common(sp, window=True, kv=True, char=True)
    sp.set_defaults(func=_cmd_les)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = args.cache_dir or os.environ.get("EIGENSPLIT_CACHE")
    if cache:
        configure_cache(cache)
    try:
        return args.func(args)
    except (UsageError, PrecisionError) as err:
        print(f"eigensplit: error: {err}", file=sys.stderr)
        return 1
    except VerificationError as err:
        print(f"eigensplit: verification failed: {err}", file=sys.stderr)
        return 2
    except EigensplitError as err:
        print(f"eigensplit: internal inconsistency: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
