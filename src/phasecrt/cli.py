"""Command-line surface: factor, splits, crt, basis, map, suite, classify.

Exit codes: 0 = success (a NotVN classification is still an answer),
1 = a suite check failed, 2 = usage, parse or file error; main maps every
package error (a dimension below 2, a non-coprime or trivial split, a bad state
file, a tolerance or support threshold out of range) and every OSError (an unwritable --out)
to 2 in one place.
PHASECRT_TOLERANCE overrides suite's comparison tolerance (default 1e-9*sqrt(M));
no other command reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# map shares lattice's private threshold rule on purpose: one rule for the
# classifier and the commands, without a second public name for it
from .lattice import VNLattice, _support_threshold, classify_vn_state, mixed_element_matrix
from .numtheory import (
    chi,
    crt_compose,
    crt_decompose,
    enumerate_splits,
    factorize,
    make_split,
)
from .reps import BasisKind, build_basis, build_pls, conjugate_basis
from .statefile import load_state, save_basis
from .suite import format_table, reports_to_dict, run_suites

import numpy as np


def _factor_string(M: int) -> str:
    parts = []
    for p, e in factorize(M).factors:
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "·".join(parts)


def cmd_factor(args) -> int:
    print(f"{args.M} = {_factor_string(args.M)}, chi = {chi(args.M)}")
    return 0


def cmd_splits(args) -> int:
    splits = enumerate_splits(args.M)
    if not splits:
        print(f"no coprime splits: {args.M} is a prime power")
        return 0
    for s in splits:
        print(f"M1={s.M1} M2={s.M2} L1={s.L1} L2={s.L2} N1={s.N1} N2={s.N2}")
    return 0


def cmd_crt(args) -> int:
    split = make_split(args.M, args.M1)
    if args.compose is not None:
        q1, q2 = args.compose
        print(crt_compose(split, q1, q2))
    else:
        q1, q2 = crt_decompose(split, args.decompose)
        print(f"{q1} {q2}")
    return 0


def cmd_basis(args) -> int:
    kind = BasisKind(args.kind)
    basis = build_basis(kind, args.M, args.M1)
    if args.conjugate:
        basis = conjugate_basis(basis)
    out = Path(args.out) if args.out else Path(
        f"basis_M{args.M}_M1{args.M1}_{kind.value}{'_conj' if args.conjugate else ''}.json")
    save_basis(out, basis)
    print(f"wrote {basis.M} states to {out}")
    print(f"gram residual = {basis.gram_residual():.11e}")
    return 0


def _map_grid(mm, threshold):
    M = mm.shape[0]
    lines = []
    for k in range(M - 1, -1, -1):
        row = "".join("#" if mm[q, k] > threshold else "." for q in range(M))
        lines.append(f"k={k:>4d} {row}")
    lines.append(f"{'':>7}q = 0..{M - 1}, left to right")
    lines.append(f"cell area = 2*pi/{M}")
    return "\n".join(lines)


def _map_csv(mm):
    M = mm.shape[0]
    rows = (f"{q},{k},{mm[q, k]:.11e}\n" for q in range(M) for k in range(M))
    return "q,k,magnitude\n" + "".join(rows)


def cmd_map(args) -> int:
    split = make_split(args.M, args.M1)  # the dimension rule before the threshold reads M
    threshold = _support_threshold(args.M, args.threshold)
    state = build_pls(split, args.q01, args.k02)
    mm = np.abs(mixed_element_matrix(state))
    csv = _map_csv(mm) if args.format == "csv" or args.out else None
    if args.format == "csv":
        print(csv, end="")
    else:
        print(f"phase-space map  M={args.M}  M1={args.M1}  "
              f"shift=({args.q01},{args.k02})  threshold={threshold:.5e}")
        print(_map_grid(mm, threshold))
    if args.out:
        Path(args.out).write_text(csv)
        print(f"wrote magnitudes to {args.out}")
    return 0


def cmd_suite(args) -> int:
    env = os.environ.get("PHASECRT_TOLERANCE")
    try:
        tolerance = float(env) if env else None
    except ValueError:
        raise ValueError(f"PHASECRT_TOLERANCE={env!r} is not a number") from None
    Ms = [int(tok) for tok in args.M_list.split(",") if tok]
    if not Ms:
        raise ValueError(f"need a comma-separated list of dimensions, got {args.M_list!r}")
    reports = run_suites(Ms, tolerance=tolerance)
    if args.format == "json":
        text = json.dumps(reports_to_dict(reports), indent=2) + "\n"
    else:
        text = format_table(reports)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return 0 if all(r.passed for r in reports) else 1


def cmd_classify(args) -> int:
    state, _meta = load_state(args.file)
    split = make_split(state.dim, args.M1)
    verdict = classify_vn_state(state, split, threshold=args.threshold)
    if isinstance(verdict, VNLattice):
        print(f"vN lattice, shift ({verdict.shift_q},{verdict.shift_k})")
    else:
        detail = f" ({verdict.detail})" if verdict.detail else ""
        print(f"NotVN: {verdict.reason}{detail}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasecrt",
        description="Coprime-split phase-space toolkit for finite Hilbert spaces.",
        epilog="PHASECRT_TOLERANCE overrides suite's comparison tolerance "
               "(default 1e-9*sqrt(M)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="prime factorization and representation count")
    p.add_argument("M", type=int)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("splits", help="list the coprime bipartitions of M")
    p.add_argument("M", type=int)
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("crt", help="compose or decompose labels for one split")
    p.add_argument("M", type=int)
    p.add_argument("M1", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--compose", nargs=2, type=int, metavar=("Q1", "Q2"))
    group.add_argument("--decompose", type=int, metavar="Q")
    p.set_defaults(func=cmd_crt)

    p = sub.add_parser("basis", help="build a labeled basis and write it as JSON")
    p.add_argument("M", type=int)
    p.add_argument("M1", type=int)
    p.add_argument("kind", choices=[k.value for k in BasisKind])
    p.add_argument("--conjugate", action="store_true",
                   help="swap position/momentum roles and relabel")
    p.add_argument("--out", help="output path (default basis_M*_M1*_KIND.json)")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("map", help="ASCII phase-space map of a partially localized state")
    p.add_argument("M", type=int)
    p.add_argument("M1", type=int)
    p.add_argument("q01", type=int)
    p.add_argument("k02", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--format", choices=["ascii", "csv"], default="ascii")
    p.add_argument("--out", help="also write the magnitude CSV here")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("suite", help="run the verification suite for a list of dimensions")
    p.add_argument("M_list", help="comma-separated dimensions, e.g. 6,10,12,15,21,35")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("classify", help="classify a state file against one split")
    p.add_argument("file")
    p.add_argument("M1", type=int)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
