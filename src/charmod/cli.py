"""Command-line front end: registry verification, class expansion, lattice
file processing, the rank-248 character comparison, and numeric checks.

Exit codes: 0 all requested checks pass, 1 at least one fails, 2 usage
error, 3 internal error, 4 numeric precision infeasible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from .anomaly import CLASS_KINDS, REGISTRY_IDS, build_twisted_class, run_registry
from .charring import ArgumentError, default_ring, multiplicative_class
from .cubiclattice import (
    HypothesisWarning,
    NoSolution,
    check_cubic_relations,
    is_characteristic,
    load_lattice_json,
    solve_bhat,
)
from .exactmath import GRID
from .thetamod import (
    NUMERIC_KINDS,
    PrecisionError,
    e8_character,
    e8_lattice_theta,
    eisenstein,
    numeric_transform_check,
    theta_eighth_sum,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PRECISION = 4

EXPANDABLE = ("Ahat", "Lhat") + CLASS_KINDS


def _emit(text, args):
    if args.output:
        _write_output(args.output, "w", text + "\n")
    else:
        print(text)


def _write_output(path, mode, text):
    try:
        with open(path, mode) as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError("--output: cannot write %s: %s" % (path, exc.strerror))


def _parse_complex(raw, flag):
    try:
        return complex(raw.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise UsageError("%s: cannot parse %r as a complex number" % (flag, raw))


class UsageError(Exception):
    pass


def _cmd_verify(args):
    ids = args.id or ["all"]
    if "all" in ids:
        ids = list(REGISTRY_IDS)
    reports = run_registry(ids, order=args.order, cap=args.cap)
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in reports], indent=2), args)
    else:
        lines = []
        for r in reports:
            line = "%-16s %s (order %d, %.1f ms)" % (r.id, r.status, r.order, r.millis)
            if r.witness:
                line += "  witness: " + r.witness
            for note in r.findings:
                line += "\n    finding: " + note
            for note in r.assumptions:
                line += "\n    assumes: " + note
            lines.append(line)
        lines.append(
            "%d/%d pass" % (sum(1 for r in reports if r.passed), len(reports))
        )
        _emit("\n".join(lines), args)
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def _series_lines(series):
    lines = []
    for grid_key in sorted(series.terms):
        exp = Fraction(grid_key, GRID)
        label = "q^%s" % (exp if exp.denominator == 1 else "(%s)" % exp)
        lines.append("%-8s %s" % (label + ":", series.terms[grid_key]))
    return lines


def _cmd_expand(args):
    ring = default_ring(args.cap)
    name = args.class_name
    if name in ("Ahat", "Lhat"):
        poly = multiplicative_class(name, 12, ring)
        _emit(str(poly), args)
        return EXIT_PASS
    series = build_twisted_class(name, args.order, ring)
    _emit("\n".join(_series_lines(series)), args)
    return EXIT_PASS


def _cmd_lattice(args):
    try:
        data = load_lattice_json(args.file)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise UsageError("cannot load %s: %s" % (args.file, exc))
    lattice, spec = data["lattice"], data["spec"]
    modulus = data["modulus"]

    # the relations decide whether a is characteristic; the key keeps its place
    report = {"file": args.file, "rank": lattice.rank, "modulus": modulus, "characteristic": None}
    caught = []
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always", HypothesisWarning)
        try:
            report["bhat"] = solve_bhat(lattice, spec.a, modulus)
        except NoSolution as exc:
            report["characteristic"] = is_characteristic(lattice, spec.a)
            report["bhat"] = None
            report["no_solution"] = str(exc)
        caught = [str(w.message) for w in log]
    if caught:
        report["warnings"] = caught
    if report["bhat"] is not None:
        try:
            relations = check_cubic_relations(lattice, spec)
        except ValueError:
            raise UsageError(
                "%s: a = %s is not characteristic, so the file must give b"
                % (args.file, list(spec.a))
            ) from None
        report["characteristic"] = relations["characteristic"]
        report["relations"] = relations
        passed = relations["passed"]
    else:
        passed = False
    report["passed"] = passed

    if args.format == "json":
        _emit(json.dumps(report, indent=2), args)
    else:
        lines = ["file: %s (rank %d, modulus %d)" % (args.file, lattice.rank, modulus)]
        lines.append("characteristic: %s" % report["characteristic"])
        if report["bhat"] is not None:
            lines.append("bhat: %s" % report["bhat"])
            rel = report["relations"]
            lines.append("half-sum relation: %s" % rel["half_sum"]["passed"])
            lines.append(
                "integrality /48: %s   /24: %s"
                % (rel["refine48"]["passed"], rel["refine24"]["passed"])
            )
        else:
            lines.append("no solution: %s" % report["no_solution"])
        for note in caught:
            lines.append("warning: %s" % note)
        lines.append("passed: %s" % passed)
        _emit("\n".join(lines), args)
    return EXIT_PASS if passed else EXIT_FAIL


def _cmd_e8(args):
    order = args.order
    lattice_side = e8_lattice_theta(order)
    sum_side = theta_eighth_sum(order)
    e4 = eisenstein(4, order)
    ring = default_ring(4)
    zero = ring.zero()
    char = e8_character((zero, zero, zero), order)
    char_coeffs = [int(char.coefficient(n).constant_term()) for n in range(order + 1)]
    equal = lattice_side == sum_side and lattice_side == e4

    lines = [
        "lattice theta:    %s" % [int(lattice_side.coefficient(n)) for n in range(order + 1)],
        "eighth-power sum: %s" % [int(sum_side.coefficient(n)) for n in range(order + 1)],
        "weight-4 form:    %s" % [int(e4.coefficient(n)) for n in range(order + 1)],
        "character:        %s" % char_coeffs,
        "equal: %s" % ("true" if equal else "false"),
    ]
    _emit("\n".join(lines), args)
    return EXIT_PASS if equal else EXIT_FAIL


def _cmd_theta_check(args):
    tau = _parse_complex(args.tau, "--tau")
    v = _parse_complex(args.v, "--v")
    result = numeric_transform_check(args.kind, v, tau, terms=args.terms, tol=args.tol)
    if args.format == "json":
        payload = dict(result, tau=str(result["tau"]), v=str(result["v"]))
        _emit(json.dumps(payload, indent=2), args)
    else:
        lines = [
            "kind: %s  tau: %s  v: %s" % (result["kind"], result["tau"], result["v"]),
            "shift residual:     %.3e" % result["shift_residual"],
            "inversion residual: %.3e" % result["inversion_residual"],
            "tail bound:         %.3e" % result["tail_bound"],
            "passed: %s" % result["passed"],
        ]
        _emit("\n".join(lines), args)
    return EXIT_PASS if result["passed"] else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="charmod",
        description="Exact verification of a family of degree-12 identities, "
        "their modular factorizations, and the cubic-form lattice layer.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", help="run registry identities")
    p_verify.add_argument("--id", action="append", help="registry id or 'all'")
    p_verify.add_argument("--order", type=int, default=6)
    p_verify.add_argument("--cap", type=int, default=12)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--output")

    p_expand = sub.add_parser("expand", help="print a characteristic class")
    p_expand.add_argument(
        "--class", dest="class_name", required=True, choices=EXPANDABLE
    )
    p_expand.add_argument("--order", type=int, default=6)
    p_expand.add_argument("--cap", type=int, default=12)
    p_expand.add_argument("--output")

    p_lattice = sub.add_parser("lattice", help="process a lattice JSON file")
    p_lattice.add_argument("--file", required=True)
    p_lattice.add_argument("--format", choices=("text", "json"), default="text")
    p_lattice.add_argument("--output")

    p_e8 = sub.add_parser("e8", help="compare the lattice theta series")
    p_e8.add_argument("--order", type=int, default=5)
    p_e8.add_argument("--output")

    p_theta = sub.add_parser("theta-check", help="numeric transformation laws")
    p_theta.add_argument("--kind", required=True, choices=NUMERIC_KINDS)
    p_theta.add_argument("--tau", required=True, help="complex, e.g. '0.3+1.2i'")
    p_theta.add_argument("--v", default="0", help="complex elliptic variable")
    p_theta.add_argument("--terms", type=int, default=40)
    p_theta.add_argument("--tol", type=float, default=1e-8)
    p_theta.add_argument("--format", choices=("text", "json"), default="text")
    p_theta.add_argument("--output")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    created = bool(args.output) and not os.path.lexists(args.output)
    code = _run(args)
    if created and code >= EXIT_USAGE and os.path.isfile(args.output):
        os.remove(args.output)  # the --output check made it; a failed run leaves no file
    return code


def _run(args):
    commands = {
        "verify": _cmd_verify,
        "expand": _cmd_expand,
        "lattice": _cmd_lattice,
        "e8": _cmd_e8,
        "theta-check": _cmd_theta_check,
    }
    try:
        if args.output:  # fail before any work; appending truncates nothing
            _write_output(args.output, "a", "")
        return commands[args.subcommand](args)
    except (UsageError, ArgumentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print("precision: %s" % exc, file=sys.stderr)
        return EXIT_PRECISION
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
