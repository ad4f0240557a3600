"""Command-line surface: verify | steane | table1 | family | bounds.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bch import FAMILIES, FamilySpec, build_family_code, family_params
from .bounds import emit_curve, write_curve_csv
from .distances import min_distance, second_gdw
from .enumerators import CertificateError
from .gf2 import DEFAULT_ENUM_CAP, MAX_LENGTH, CodeConstructionError, LinearCode, is_dual_containing, parse_matrix
from .steane import QuantumCode, certified_enlarge, find_self_dual_subcode
from .table1 import check_all_rows

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2


def _load_code(path: str) -> LinearCode:
    with open(path) as fh:
        return LinearCode(*parse_matrix(fh.read()))


def cmd_verify(args) -> int:
    C = _load_code(args.matrix_file)
    parts = [f"n={C.n}", f"k={C.k}"]
    if C.k >= 1 and C.k <= args.cap:
        parts.append(f"d={min_distance(C, cap=args.cap).value}")
    if C.k >= 2 and C.k <= args.cap:
        parts.append(f"d2={second_gdw(C, cap=args.cap).value}")
    contains_dual = is_dual_containing(C)
    parts.append(f"dual_containing={'yes' if contains_dual else 'no'}")
    print(" ".join(parts))
    return EXIT_OK


def _verdict(Q: QuantumCode, exact: str) -> tuple[str, int]:
    """Q's [[n,K,d]] line and exit code: "exact d=D FAIL" for a known
    exact distance below the bound and "distance bound unverified" for a
    bound neither proven nor certified, both exit 1.  Else the line
    passes with `exact` filled in with d when d is known, and with
    " bound holds by construction" when it is not; an empty `exact`
    adds nothing."""
    line = f"[[{Q.n},{Q.K},{Q.d_lower}]]"
    if Q.d_exact is not None and Q.d_exact < Q.d_lower:
        return f"{line} exact d={Q.d_exact} FAIL", EXIT_VERIFY_FAIL
    if Q.d_exact is None and not Q.bound_proven:
        return f"{line} distance bound unverified", EXIT_VERIFY_FAIL
    if exact and Q.d_exact is None:
        return line + " bound holds by construction", EXIT_OK
    return line + exact.format(Q.d_exact), EXIT_OK


def cmd_steane(args) -> int:
    if args.auto and args.c_file:
        raise CodeConstructionError("give a C matrix file or --auto, not both")
    Cp = _load_code(args.cp_file)
    if args.auto:
        C = find_self_dual_subcode(Cp, cap=args.cap)
    elif args.c_file:
        C = _load_code(args.c_file)
    else:
        raise CodeConstructionError("provide a C matrix file or --auto")
    Q = certified_enlarge(C, Cp, cap=args.cap)
    line, code = _verdict(Q, " exact d={}" if args.exact else "")
    print(line)
    return code


def cmd_table1(args) -> int:
    checks = check_all_rows(cap=args.cap)
    all_ok = True
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        all_ok &= c.ok
        built = f"[[{c.quantum.n},{c.quantum.K},{c.quantum.d_exact}]] " if c.quantum else ""
        remark = f" {c.row.remark}" if c.row.remark else ""
        print(
            f"n={c.row.n} k={c.row.k} k'={c.row.kprime}: "
            f"{built}{status} ({c.details}){remark}"
        )
    print("table1: PASS" if all_ok else "table1: FAIL")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_family(args) -> int:
    """One member's line, or with none given every valid member's for
    m = 2 .. log2(MAX_LENGTH), labelled "F m=M ell=L: ".  The worst line
    sets the exit code.  F5 prints its parameters-only line, with or
    without `--build`; with it every other member is built."""
    member = (args.family, args.m, args.ell)
    listing = member == (None, None, None)
    if listing:
        every = (FamilySpec(f, m, ell) for m in range(2, MAX_LENGTH.bit_length()) for f in FAMILIES for ell in range(1 << m))
        specs = [spec for spec in every if spec.condition()]
    elif None in member:
        args.error("give the family, m and ell, or none of them")
    else:
        specs = [FamilySpec(*member)]
    worst = EXIT_OK
    for spec in specs:
        n, K, d = family_params(spec)
        line, code = f"[[{n},{K},{d}]]", EXIT_OK
        if spec.family == "F5":
            line += " (params only)"
        elif args.build:
            line, code = _verdict(build_family_code(spec, cap=args.cap), " exact d={} verified")
        print(f"{spec.family} m={spec.m} ell={spec.ell}: " * listing + line)
        worst = max(worst, code)
    return worst


def cmd_bounds(args) -> int:
    points = emit_curve(args.delta_min, args.delta_max, args.step)
    with open(args.out, "w") as fh:
        write_curve_csv(points, fh)
    print(f"wrote {len(points)} points to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: callers
    parse with it and never modify it."""
    parser = argparse.ArgumentParser(
        prog="qsteane",
        description="Quantum codes from binary codes: enlargement "
        "construction, exact distance verification, BCH families, rate bounds.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="enumeration cap: refuse scans over more than 2^CAP words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="report n, k, d, d2 and dual containment")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("steane", help="build the enlargement quantum code")
    p.add_argument("c_file", nargs="?", help="generator matrix of the inner code C")
    p.add_argument("cp_file", help="generator matrix of the enlargement C'")
    p.add_argument("--auto", action="store_true", help="recover C from C' by search")
    p.add_argument("--exact", action="store_true", help="also print the exact distance")
    p.set_defaults(func=cmd_steane)

    p = sub.add_parser("table1", help="recompute every published table row")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("family", help="family parameters, optionally built and verified; all members if none given")
    p.add_argument("family", nargs="?", type=str.upper, choices=FAMILIES)
    p.add_argument("m", nargs="?", type=int)
    p.add_argument("ell", nargs="?", type=int)
    p.add_argument("--build", action="store_true")
    p.set_defaults(func=cmd_family, error=p.error)

    p = sub.add_parser("bounds", help="emit the four rate-bound curves as CSV")
    p.add_argument("delta_min", type=float)
    p.add_argument("delta_max", type=float)
    p.add_argument("step", type=float)
    p.add_argument("out")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap < 0:
        parser.error(f"argument --cap: must be >= 0, got {args.cap}")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
