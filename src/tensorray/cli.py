"""Command-line interface.

Subcommands
-----------
``generate``    write a test tensor field to a ``tf2d`` file
``forward``     ray-transform a field file into a ``sino2d`` sinogram file
``check``       run a verification (``reshetnyak``, ``slice``, ``invert``,
                ``moments``) and print a JSON report
``export-csv``  convert either container format to CSV

Exit codes: 0 success / check passed, 1 check failed (tolerance exceeded),
2 validation error, 3 I/O or container-format error.  JSON reports include
the effective configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .fields import (
    gaussian_test_field,
    random_solenoidal_field,
    relative_divergence_residual,
)
from .grids import CartesianGrid
from .inversion import check_moment_conditions, roundtrip_report
from .io import FileFormatError, export_csv, read_field, read_sinogram, write_field, write_sinogram
from .norms import SobolevParams, reshetnyak_check
from .ray import forward, parity_residual
from .slices import CONVENTIONS, _convention_constant, slice_pair

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

# resolution used by the field-based checks (offset count follows the grid)
CHECK_NTHETA = 128
CHECK_NQ = 512


def _emit(report: dict) -> None:
    # strict JSON: a NaN or infinity in a report is a ValueError (exit 2), never printed
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))


def _tolerance(text: str) -> float:
    """Argparse type of every ``--tol``: a positive, finite float."""
    value = float(text)  # argparse reports a ValueError as a usage error
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _cmd_generate(args) -> int:
    grid = CartesianGrid(n=args.n, radius=args.radius)
    if args.seed is not None:
        if args.kind != "solenoidal":
            raise ValueError("--seed randomizes the amplitude and needs --kind solenoidal")
        field = random_solenoidal_field(args.m, grid, seed=args.seed, width=args.width)
    else:
        field = gaussian_test_field(args.m, args.kind, grid, width=args.width)
    write_field(args.output, field)
    report = {
        "path": args.output,
        "divergence_residual": (
            relative_divergence_residual(field) if field.m >= 1 else 0.0
        ),
        "config": {
            "m": args.m, "kind": args.kind, "n": args.n, "radius": args.radius,
            "width": args.width, "seed": args.seed,
        },
    }
    _emit(report)
    return EXIT_OK


def _cmd_forward(args) -> int:
    field = read_field(args.input)
    psi = forward(field, num_p=args.np_samples, ntheta=args.ntheta, pmax=args.pmax)
    write_sinogram(args.output, psi)
    report = {
        "path": args.output,
        "parity_residual": parity_residual(psi),
        "max_abs": float(np.abs(psi.samples).max()),
        "config": {
            "input": args.input, "np": args.np_samples, "ntheta": args.ntheta,
            "pmax": psi.pmax, "m": psi.m,
        },
    }
    _emit(report)
    return EXIT_OK


def _check_config(args, field=None, psi=None) -> dict:
    config = {"tol": args.tol}
    if field is not None:
        # effective internal resolution used by the field-based checks
        config.update({
            "m": field.m, "n": field.grid.n, "radius": field.grid.radius,
            "np": field.grid.n + 1, "ntheta": CHECK_NTHETA, "nq": CHECK_NQ,
            "qmax": field.grid.radius,
        })
    if psi is not None:
        config.update({"m": psi.m, "np": psi.num_p, "ntheta": psi.ntheta, "pmax": psi.pmax})
    return config


def _cmd_check_reshetnyak(args) -> int:
    field = read_field(args.input)
    params = SobolevParams(args.r, args.s, args.t)
    ratio = reshetnyak_check(field, params, args.convention,
                             ntheta=CHECK_NTHETA, nq=CHECK_NQ)
    expected = _convention_constant(args.convention)
    passed = abs(ratio - expected) <= args.tol * expected
    _emit({
        "check": "reshetnyak",
        "reshetnyak_ratio": ratio,
        "expected_ratio": expected,
        "pass": passed,
        "params": {"r": args.r, "s": args.s, "t": args.t},
        "config": {**_check_config(args, field=field), "convention": args.convention},
    })
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_check_slice(args) -> int:
    field = read_field(args.input)
    pair = slice_pair(field, ntheta=CHECK_NTHETA, nq=CHECK_NQ)
    residuals = {
        "solenoidal_residual": pair.solenoidal_residual(),
        "coefficient_residual": pair.coefficient_residual(),
    }
    passed = all(v < args.tol for v in residuals.values())
    _emit({
        "check": "slice",
        **residuals,
        "pass": passed,
        "config": _check_config(args, field=field),
    })
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_check_invert(args) -> int:
    field = read_field(args.input)
    params = SobolevParams(args.r, args.s, args.t)
    report = roundtrip_report(field, params, ntheta=CHECK_NTHETA, nq=CHECK_NQ)
    if report.get("degenerate"):
        _emit({"check": "invert", **report, "pass": True,
               "config": _check_config(args, field=field)})
        return EXIT_OK
    passed = (
        report["roundtrip_l2_rel"] < args.tol
        and abs(report["reshetnyak_ratio"] - 1.0) <= 1e-2
        and all(entry["pass"] for entry in report["moments"])
    )
    _emit({"check": "invert", **report, "pass": passed,
           "config": _check_config(args, field=field)})
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_check_moments(args) -> int:
    psi = read_sinogram(args.input)
    report = check_moment_conditions(psi, rmax=args.rmax, tol=args.tol)
    _emit({
        "check": "moments",
        "moments": report.to_dict(),
        "pass": report.passed,
        "config": {**_check_config(args, psi=psi), "rmax": args.rmax},
    })
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_export_csv(args) -> int:
    rows = export_csv(args.input, args.output)
    _emit({"path": args.output, "rows": rows})
    return EXIT_OK


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, default=0.0, help="angular smoothness index")
    parser.add_argument("--s", type=float, default=0.0, help="spatial smoothness index")
    parser.add_argument("--t", type=float, default=0.0, help="weight index")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorray",
        description="Ray transform of 2D symmetric tensor fields: generation, "
        "forward projection, norm/isometry checks, inversion, moment conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a test tensor field")
    gen.add_argument("--m", type=int, default=0, help="tensor rank")
    gen.add_argument("--kind", choices=("solenoidal", "potential", "generic"),
                     default="generic")
    gen.add_argument("--n", type=int, default=256, help="samples per axis (even)")
    gen.add_argument("--radius", type=float, default=8.0, help="grid half-width")
    gen.add_argument("--width", type=float, default=1.0, help="Gaussian width")
    gen.add_argument("--seed", type=int, default=None,
                     help="randomize the solenoidal amplitude with this seed")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(handler=_cmd_generate)

    fwd = sub.add_parser("forward", help="ray-transform a field file")
    fwd.add_argument("input", help="tf2d field file")
    fwd.add_argument("--np", dest="np_samples", type=int, default=257,
                     help="offset sample count")
    fwd.add_argument("--ntheta", type=int, default=128, help="angle sample count (even)")
    fwd.add_argument("--pmax", type=float, default=None,
                     help="offset bound (default: grid radius)")
    fwd.add_argument("-o", "--output", required=True)
    fwd.set_defaults(handler=_cmd_forward)

    chk = sub.add_parser("check", help="verification checks with JSON reports")
    chk_sub = chk.add_subparsers(dest="check_command", required=True)

    res = chk_sub.add_parser("reshetnyak", help="norm-isometry ratio")
    res.add_argument("input", help="tf2d field file")
    _add_params(res)
    res.add_argument("--convention", choices=CONVENTIONS, default="lemma",
                     help="p-transform normalization (default: %(default)s)")
    res.add_argument("--tol", type=_tolerance, default=1e-2,
                     help="relative tolerance on the ratio (default: %(default)s)")
    res.set_defaults(handler=_cmd_check_reshetnyak)

    slc = chk_sub.add_parser("slice", help="slice-identity residuals")
    slc.add_argument("input", help="tf2d field file")
    slc.add_argument("--tol", type=_tolerance, default=1e-3)
    slc.set_defaults(handler=_cmd_check_slice)

    inv = chk_sub.add_parser("invert", help="forward/inverse round trip report")
    inv.add_argument("input", help="tf2d field file")
    _add_params(inv)
    inv.add_argument("--tol", type=_tolerance, default=2e-2,
                     help="round-trip relative L2 bound (default: %(default)s)")
    inv.set_defaults(handler=_cmd_check_invert)

    mom = chk_sub.add_parser("moments", help="moment conditions on a sinogram")
    mom.add_argument("input", help="sino2d file")
    mom.add_argument("--rmax", type=int, default=4)
    mom.add_argument("--tol", type=_tolerance, default=1e-5)
    mom.set_defaults(handler=_cmd_check_moments)

    csv = sub.add_parser("export-csv", help="convert a container file to CSV")
    csv.add_argument("input")
    csv.add_argument("output")
    csv.set_defaults(handler=_cmd_export_csv)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads arguments with, built once per process.

    Parsing leaves a parser as it was, so one serves every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
