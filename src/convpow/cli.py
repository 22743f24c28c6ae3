"""Command-line front end.

Subcommands expose the main computations and the verification suites:

    convpow amatrix 6 --check --det
    convpow qcoeff 3 12
    convpow beta 4
    convpow eval 2 1.5 --lam -0.25 --a 1
    convpow eval --conv 2 1 --lambda 0 --a 1
    convpow verify dualpath --nmax 8 --smax 40
    convpow verify all

Each subcommand takes only the settings it reads: ``--format`` on all,
``-N/--order`` and ``--prec`` on ``beta`` and ``eval``, ``--tol`` and
``--compare-tol`` on ``eval``; the JSON ``config`` lists exactly those.
Output is a single JSON document by default (``--format csv`` emits the
tabular part).  Exit status: 0 when every reported check passed, 1 when
any failed, 2 for usage or domain errors.  A reader that closes the pipe
early (``| head -1``) cuts the output short without a traceback; the exit
status still reports the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import verify as verify_mod
from .amatrix import a_determinant, check_special_values, compute_a_matrix
from .convolution import (
    DEFAULT_MAX_DEPTH,
    ConvParams,
    _normal_form,
    conv_power_quadrature,
    f_from_conv,
    f_quadrature_oracle,
    reconstruct_from_f,
)
from .fdecomp import beta_table, f_eval
from .qcoeff import q_closed_form, q_via_recurrence
from .quadrature import TOL, QuadratureError
from .series import DEFAULT_ORDER, DEFAULT_PREC


#: The settings a subcommand may take, in the order JSON ``config`` lists them.
_SETTINGS = ("order", "precision", "quad_tol", "compare_tol", "fmt")


def _add_series_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", "-N", type=int, default=DEFAULT_ORDER, help="series truncation order")
    parser.add_argument("--prec", dest="precision", type=int, default=DEFAULT_PREC, help="evaluation precision in bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convpow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amatrix", help="build a triangular matrix, optionally checking its identities")
    p.add_argument("s", type=int, help="matrix size parameter")
    p.add_argument("--check", action="store_true", help="verify the closed-form slices")
    p.add_argument("--det", action="store_true", help="include the determinant")

    p = sub.add_parser("qcoeff", help="coefficients of one Q-series by both computation paths")
    p.add_argument("n", type=int, help="series level (>= 2 enables the closed-form path)")
    p.add_argument("smax", type=int, help="highest coefficient index")

    p = sub.add_parser("beta", help="decomposition constants beta_0..beta_nmax")
    p.add_argument("nmax", type=int)
    _add_series_flags(p)

    p = sub.add_parser("eval", help="evaluate f_n(y), or a convolution power with --conv, by every available path")
    p.add_argument("n", type=int)
    p.add_argument("y", type=float, help="evaluation point: y for the normal form, x when --conv is given")
    p.add_argument("--conv", action="store_true", help="evaluate the n-fold convolution power at x instead of f_n(y)")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.0, help="kernel cutoff for the convolution path")
    p.add_argument("--a", dest="a", type=float, default=1.0, help="kernel shift for the convolution path")
    p.add_argument("--skip-oracles", action="store_true", help="series value only")
    _add_series_flags(p)
    p.add_argument("--tol", dest="quad_tol", type=float, default=TOL, help="quadrature tolerance")
    p.add_argument("--compare-tol", type=float, default=verify_mod.AGREEMENT_TOL, help="tolerance for cross-path comparisons")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(verify_mod.SUITES) + ["all"])
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--smax", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--y", type=float, default=None)

    for p in sub.choices.values():
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json", help="output format")
    return parser


def _config_from(args: argparse.Namespace) -> dict:
    """The settings the subcommand took, with the CLI's own tolerances range-checked."""
    cfg = {key: getattr(args, key) for key in _SETTINGS if hasattr(args, key)}
    for key, flag in (("quad_tol", "--tol"), ("compare_tol", "--compare-tol")):
        if key in cfg and not cfg[key] > 0:
            raise ValueError(f"{flag} must be positive, got {cfg[key]}")
    return cfg


def cmd_amatrix(args):
    rows = compute_a_matrix(args.s)
    results: dict = {"s": args.s, "rows": [list(r) for r in rows]}
    checks: list[verify_mod.Check] = []
    if args.det:
        results["determinant"] = a_determinant(rows)
    if args.check:
        report = check_special_values(rows)
        results["special_values"] = report
        for identity, ok in report["identities"].items():
            checks.append(verify_mod.Check(f"{identity} s={args.s}", ok))
    return results, checks


def cmd_qcoeff(args):
    if args.smax < 1:
        raise ValueError(f"smax must be >= 1, got {args.smax}")
    rec = q_via_recurrence(args.n, args.smax)[args.n].coeffs
    rows = []
    agree = True
    for s in range(args.smax + 1):
        row = {"s": s, "recurrence": str(rec[s])}
        if args.n >= 2:
            cf = q_closed_form(args.n, s)
            row["closed_form"] = str(cf)
            row["agree"] = cf == rec[s]
            agree = agree and row["agree"]
        rows.append(row)
    results = {"n": args.n, "coefficients": rows, "paths_agree": agree if args.n >= 2 else None}
    checks = []
    if args.n >= 2:
        checks.append(verify_mod.Check(f"dualpath n={args.n} s<={args.smax}", agree))
    return results, checks


def cmd_beta(args):
    if args.nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {args.nmax}")
    table = beta_table(args.nmax, args.order, args.precision)
    rows = [
        {
            "n": k,
            "value": float(table.values[k]),
            "tail": float(table.tails[k]),
        }
        for k in range(len(table))
    ]
    checks = [verify_mod.Check("beta1-exact", table.values[1] == 0)] if args.nmax >= 1 else []
    return {"betas": rows}, checks


def _spread_check(results: dict, compare_tol: float, label: str) -> list[verify_mod.Check]:
    values = [results[k] for k in ("series", "quadrature", "reconstruction") if isinstance(results[k], float)]
    diff = max(abs(u - v) for u in values for v in values) if len(values) > 1 else 0.0
    results["max_pairwise_diff"] = diff
    if len(values) < 2:
        return []
    return [verify_mod.within(label, "max pairwise diff", diff, compare_tol)]


def cmd_eval(args):
    params = ConvParams(args.lam, args.a)
    paths = {}  # the oracle paths, by result key, run unless --skip-oracles
    if args.conv:
        # phi*n(x) three ways: transform of the exact series, direct nested
        # quadrature, transform of the iterated-integral oracle.
        n, x = args.n, args.y
        results = {
            "n": n,
            "x": x,
            "lam": params.lam,
            "a": params.a,
            "series": reconstruct_from_f(params, n, x, args.order, args.precision),
            "quadrature": None,
            "reconstruction": None,
        }
        if n <= DEFAULT_MAX_DEPTH:
            paths["quadrature"] = lambda: conv_power_quadrature(params, n, x, args.quad_tol)
        y, factor = _normal_form(params, n, x)
        paths["reconstruction"] = lambda: factor * f_quadrature_oracle(n - 1, y, args.quad_tol)
        label = f"conv-paths-agree n={n} x={x}"
    else:
        r = f_eval(args.n, args.y, args.order, args.precision)
        results = {
            "n": args.n,
            "y": args.y,
            "series": float(r.value),
            "series_tail": float(r.tail_estimate),
            "tail_reliable": r.tail_reliable,
            "quadrature": None,
            "reconstruction": None,
        }
        paths["quadrature"] = lambda: f_quadrature_oracle(args.n, args.y, args.quad_tol)
        if args.n + 1 <= DEFAULT_MAX_DEPTH:
            paths["reconstruction"] = lambda: f_from_conv(params, args.n + 1, args.y, args.quad_tol)
        label = f"paths-agree n={args.n} y={args.y}"
    checks = []
    for key, path in () if args.skip_oracles else paths.items():
        try:
            results[key] = path()
        except QuadratureError as exc:  # a stalled path reads null, and its check fails with why
            checks.append(verify_mod.Check(f"{key}-oracle", False, str(exc)))
    return results, checks + _spread_check(results, args.compare_tol, label)


#: The flags each verify suite takes, and the suite keyword each one sets;
#: --n and --y narrow the suite's points to one.  A suite not listed, and
#: ``all``, take none.
_VERIFY_FLAGS = {
    "dualpath": {"nmax": "n_max", "smax": "s_max"},
    "specials": {"smax": "s_max"},
    "stirling": {"nmax": "n_max"},
    "beta": {"nmax": "n_max"},
    "reflection": {"n": "ns", "y": "ys"},
    "derivative": {"n": "ns", "y": "ys"},
    "elimination": {"n": "ns", "y": "ys"},
}


def cmd_verify(args):
    takes = _VERIFY_FLAGS.get(args.suite, {})
    kwargs: dict = {}
    for flag in ("nmax", "smax", "n", "y"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in takes:
            raise ValueError(f"verify {args.suite} does not take --{flag}")
        kwargs[takes[flag]] = (value,) if flag in ("n", "y") else value
    checks = verify_mod.run_suite(args.suite, **kwargs)
    if not checks:
        raise ValueError(f"verify {args.suite} ran no checks with these flags")
    passed = sum(1 for c in checks if c.ok)
    return {"suite": args.suite, "passed": passed, "total": len(checks)}, checks


_HANDLERS = {
    "amatrix": cmd_amatrix,
    "qcoeff": cmd_qcoeff,
    "beta": cmd_beta,
    "eval": cmd_eval,
    "verify": cmd_verify,
}


def _emit_csv(results, checks, stream) -> None:
    """CSV output: the most tabular part of the results, else the checks."""
    import csv

    rows = None
    if isinstance(results, dict):
        for value in results.values():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                rows = value
                break
    if rows is None and checks:
        rows = [c._asdict() for c in checks]
    if rows is None:
        rows = [{"key": k, "value": v} for k, v in (results or {}).items()]
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _config_from(args)
        results, checks = _HANDLERS[args.command](args)
    except (ValueError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    try:
        if args.fmt == "csv":
            # eval's and amatrix's tables are their values; the exit status reports their checks
            _emit_csv(results, () if args.command in ("eval", "amatrix") else checks, sys.stdout)
        else:
            payload = {
                "command": args.command,
                "config": cfg,
                "results": results,
                "checks": [c._asdict() for c in checks],
                "elapsed_ms": round(elapsed_ms, 3),
            }
            json.dump(payload, sys.stdout, indent=2)
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(c.ok for c in checks) else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
