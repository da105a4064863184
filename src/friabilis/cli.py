"""Command-line front end.

Subcommands mirror the library layers: `rho` (Dickman), `saddle` (counting
estimates), `divdist` (one n's law summary), `tail` (one (n, z) tail
report), and the batch drivers `clt`, `average`, `concentration`,
`arcsine`.  Exit codes: 0 success, 1 interrupted output pipe, 2
configuration or domain error, 3 resource-limit error.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import functools
import json
import os
import sys

from friabilis.arith import factorize, psi_exact
from friabilis.dickman import dickman_rho, psi_dickman_estimate
from friabilis.divdist import exact_law, moments
from friabilis.errors import ConfigError, DomainError, ResourceLimitError
from friabilis.experiments import (
    SCHEMA_VERSION,
    AverageRunConfig,
    CltRunConfig,
    ConcentrationRunConfig,
    RunResult,
    arcsine_check,
    run_average,
    run_clt,
    run_concentration,
)
from friabilis.perron import tail_report
from friabilis.saddle import make_context, psi_saddle_estimate

_PSI_EXACT_BUDGET = 5_000_000  # enumeration nodes the saddle view will spend


def _int_arg(text: str) -> int:
    # accept 10**k shorthand like 1e8 on the command line, read through
    # Decimal, which keeps the digits that float rounds away past 2**53
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        return int(text, 0)  # 0x, 0o and 0b literals
    # 4300 digits is Python's default cap on int(text); a far larger exponent
    # would have int(value) build an integer of that many digits
    if not (value.is_finite() and value.adjusted() < 4300 and value == int(value)):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int_arg(part) for part in text.split(",") if part != "")
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _perron_arg(text: str) -> float:
    # the contour is taken in closed form and reads T alone; a trailing
    # STEPS, the old panel count that the benchmark harness still sends, is
    # checked and dropped
    T, *steps = text.split(",")
    if len(steps) > 1:
        raise argparse.ArgumentTypeError("expected T or T,STEPS")
    if steps and _int_arg(steps[0]) < 1:
        raise argparse.ArgumentTypeError(f"STEPS must be >= 1: {steps[0]!r}")
    return float(T)


def _print_aligned(pairs) -> None:
    width = max(len(name) for name, _ in pairs)
    for name, value in pairs:
        text = f"{value:.12g}" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {text}")


def _emit_result(result: RunResult, args) -> int:
    if args.out:
        result.write_csv(args.out)
    if args.json:
        print(result.to_json())
    if not args.out and not args.json:
        result.dump_csv(sys.stdout)
    return 0


def _cmd_rho(args) -> int:
    print(f"{dickman_rho(args.u):.12g}")
    return 0


def _cmd_saddle(args) -> int:
    ctx = make_context(args.x, args.y)
    # u past the rho table is refused before psi_exact spends its budget
    dickman = psi_dickman_estimate(args.x, args.y)
    try:
        exact = psi_exact(args.x, args.y, limit=_PSI_EXACT_BUDGET)
    except ResourceLimitError:
        exact = None
    pairs = [
        ("alpha", ctx.alpha),
        ("log_zeta", ctx.log_zeta),
        ("sigma2_star", ctx.sigma2_star),
        ("sigma_bar_sq", ctx.sigma_bar_sq),
        ("u", ctx.u),
        ("u_bar", ctx.u_bar),
        ("psi_saddle", psi_saddle_estimate(ctx)),
        ("psi_dickman", dickman),
        ("psi_exact", exact if exact is not None else "-"),
    ]
    if args.json:
        payload = {name: value for name, value in pairs if value != "-"}
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_aligned(pairs)
    return 0


def _cmd_divdist(args) -> int:
    f = factorize(args.n)
    mom = moments(f)
    if args.atoms:
        law = exact_law(f)
        print(f"# schema={SCHEMA_VERSION}")
        print("value,mass_num,mass_den")
        for value, mass in law.atoms():
            print(f"{value!r},{mass.numerator},{mass.denominator}")
        return 0
    _print_aligned(
        [
            ("n", f.n),
            ("tau", mom.tau),
            ("sigma_sq", mom.m2),
            ("m4", mom.m4),
            ("w", mom.w),
            ("t_max", mom.t_max),
        ]
    )
    return 0


def _cmd_tail(args) -> int:
    report = tail_report(args.n, args.z, perron=args.perron)
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    print(json.dumps(fields, sort_keys=True))  # asdict would deep-copy each field
    return 0


def _cmd_clt(args) -> int:
    return _emit_result(run_clt(_config(CltRunConfig, args)), args)


def _cmd_average(args) -> int:
    return _emit_result(run_average(_config(AverageRunConfig, args)), args)


def _cmd_concentration(args) -> int:
    return _emit_result(run_concentration(_config(ConcentrationRunConfig, args)), args)


def _cmd_arcsine(args) -> int:
    return _emit_result(arcsine_check(args.x, args.vs), args)


_FIELD_PARSERS = {
    "int": _int_arg,
    "float": float,
    "tuple[float, ...]": _float_list,
    "tuple[int, ...]": _int_list,
}


def _add_config_flags(sub, config_type, helps=None) -> None:
    """One --flag per field of a run config, named after the field, with
    its text from helps, by field name.  A field without a default is a
    required flag; an optional flag left out sets nothing, so the config's
    own default applies."""
    for field in dataclasses.fields(config_type):
        sub.add_argument(
            "--" + field.name.replace("_", "-"),
            type=_FIELD_PARSERS[field.type],
            required=field.default is dataclasses.MISSING,
            default=argparse.SUPPRESS,
            help=(helps or {}).get(field.name),
        )


def _config(config_type, args):
    names = {field.name for field in dataclasses.fields(config_type)}
    return config_type(**{k: v for k, v in vars(args).items() if k in names})


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", help="write rows as CSV to this path")
    sub.add_argument("--json", action="store_true", help="print rows and metadata as JSON")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friabilis",
        description="exact divisor laws on smooth integers and their tail approximations",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    rho = subs.add_parser("rho", help="Dickman rho at a point")
    rho.add_argument("--u", type=float, required=True)
    rho.set_defaults(handler=_cmd_rho)

    sad = subs.add_parser("saddle", help="saddle-point counting estimates for (x, y)")
    sad.add_argument("--x", type=_int_arg, required=True)
    sad.add_argument("--y", type=_int_arg, required=True)
    sad.add_argument("--json", action="store_true")
    sad.set_defaults(handler=_cmd_saddle)

    dd = subs.add_parser("divdist", help="divisor-law summary for one n")
    dd.add_argument("--n", type=_int_arg, required=True)
    dd.add_argument(
        "--atoms", action="store_true", help="emit the full atom list as CSV"
    )
    dd.set_defaults(handler=_cmd_divdist)

    tail = subs.add_parser("tail", help="tail report for one (n, z) as JSON")
    tail.add_argument("--n", type=_int_arg, required=True)
    tail.add_argument("--z", type=float, required=True)
    tail.add_argument(
        "--perron",
        type=_perron_arg,
        default=None,
        metavar="T[,STEPS]",
        help="also evaluate the contour integral truncated at |Im s| <= T, "
        "which alone is read; a trailing ,STEPS is accepted for the benchmark "
        "harness and ignored",
    )
    tail.set_defaults(handler=_cmd_tail)

    clt = subs.add_parser("clt", help="per-n Gaussian tail error sweep over S(x, y)")
    _add_config_flags(clt, CltRunConfig)
    _add_output_flags(clt)
    clt.set_defaults(handler=_cmd_clt)

    avg = subs.add_parser("average", help="ensemble-averaged tails over S(x, y)")
    _add_config_flags(
        avg,
        AverageRunConfig,
        {
            # argparse reads a value that starts with "-" and is not one
            # number as a flag
            "z_grid": "comma-separated z values; a list that starts with a "
            "negative one takes the = form: --z-grid=-0.5,0,0.5",
        },
    )
    _add_output_flags(avg)
    avg.set_defaults(handler=_cmd_average)

    conc = subs.add_parser(
        "concentration", help="concentration of additive statistics over S(x, y)"
    )
    _add_config_flags(conc, ConcentrationRunConfig)
    _add_output_flags(conc)
    conc.set_defaults(handler=_cmd_concentration)

    arc = subs.add_parser("arcsine", help="arcsine profile of divisor counts up to x")
    arc.add_argument("--x", type=_int_arg, required=True)
    arc.add_argument("--vs", type=_float_list, default=(0.25, 0.5))
    _add_output_flags(arc)
    arc.set_defaults(handler=_cmd_arcsine)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `... | head`); the interpreter
        # would raise again while flushing stdout at shutdown, so point the
        # descriptor at devnull and exit quietly like any other filter
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
