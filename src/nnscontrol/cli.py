"""Command-line front end.

Commands: check, min-sparsity, oracle, decompose, verify-cert, gen.
``run_command`` is the one front door: a parser built once per process
reads argv, and for every command but gen it loads and digests the system
file and wraps the command's result in the report envelope. Every command
writes a JSON report to stdout (gen writes the generated system file
itself) and, with --pretty, a human summary to stderr. Exit codes: 0 for
a completed analysis regardless of verdict, 1 for input and usage errors
and unreadable paths (stdout empty, one "error:" line on stderr), 2 for
numeric failures. Reports embed the tolerance policy and, except for the
wall-time field, are byte-identical across repeated runs with the same
inputs and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .controllability import (
    Certificate,
    check_nonneg,
    check_nonneg_sparse,
    check_sparse,
    min_sparsity,
    verify_certificate,
)
from .errors import InputError, NoFeasibleSparsityError, NumericError
from .generators import KINDS, generate_system
from .jordan import build_decomposition, verify_decomposition
from .matrixcore import DEFAULT_TOL, Tolerances, rank
from .oracle import OracleConfig, coverage_probe
from .systemio import dump_system_file, parse_system_file, read_text

__all__ = ["main", "run_command", "console_main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is an input error: exit 1, not 2
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nnscontrol",
        description=(
            "Controllability of x_k = A x_{k-1} + B u_k under nonnegative "
            "s-sparse inputs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="system file (JSON with keys A, B, optional s, name)")
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="override eig_imag_tol and ineq_tol (rank_rtol stays at its default)",
        )
        p.add_argument("--rank-rtol", type=float, default=None, help="override rank_rtol")
        p.add_argument("--pretty", action="store_true", help="human summary on stderr")

    p_check = sub.add_parser("check", help="run the controllability test")
    add_common(p_check)
    p_check.add_argument("--s", type=int, default=None, help="sparsity level (overrides the file)")
    p_check.add_argument(
        "--variant",
        choices=["auto", "nonneg-sparse", "nonneg", "sparse"],
        default="auto",
        help="auto runs the full test when s is known, otherwise the nonnegative-input test",
    )

    p_min = sub.add_parser("min-sparsity", help="smallest workable sparsity level")
    add_common(p_min)

    p_oracle = sub.add_parser("oracle", help="brute-force coverage probe")
    add_common(p_oracle)
    p_oracle.add_argument("--s", type=int, default=None, help="sparsity level (overrides the file)")
    p_oracle.add_argument("--kmax", type=int, default=6, help="horizon bound")
    p_oracle.add_argument("--samples", type=int, default=64, help="random probe directions")
    p_oracle.add_argument("--seed", type=int, default=0, help="probe RNG seed")
    p_oracle.add_argument(
        "--no-axes", action="store_true", help="do not add the signed axes to the probes"
    )

    p_dec = sub.add_parser("decompose", help="zero-eigenvalue structure and row split")
    add_common(p_dec)

    p_ver = sub.add_parser("verify-cert", help="re-check a certificate against a system")
    add_common(p_ver)
    p_ver.add_argument("--cert", required=True, help="certificate JSON file")

    p_gen = sub.add_parser("gen", help="generate a planted test system")
    add_common(p_gen, needs_file=False)
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--n", type=int, required=True, help="state dimension")
    p_gen.add_argument("--m", type=int, required=True, help="input dimension")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument(
        "--deficiency", type=int, default=None, help="rank deficiency of A (planted_rank_deficient)"
    )
    return parser


def _tolerances(args) -> Tolerances:
    kwargs = {}
    if args.tol is not None:
        kwargs["eig_imag_tol"] = args.tol
        kwargs["ineq_tol"] = args.tol
    if args.rank_rtol is not None:
        kwargs["rank_rtol"] = args.rank_rtol
    return Tolerances(**kwargs) if kwargs else DEFAULT_TOL


_PARSER = _build_parser()


def _cmd_check(args, parsed, tol: Tolerances) -> dict:
    s = args.s if args.s is not None else parsed.s
    variant = args.variant
    if variant == "auto":
        variant = "nonneg-sparse" if s is not None else "nonneg"
    if variant == "nonneg":
        report = check_nonneg(parsed.system, tol)
    elif s is None:
        raise InputError(f"variant {variant!r} needs a sparsity level (--s or the file)")
    elif variant == "sparse":
        report = check_sparse(parsed.system, s, tol)
    else:
        report = check_nonneg_sparse(parsed.system, s, tol)
    return report.to_dict()


def _cmd_min_sparsity(args, parsed, tol: Tolerances) -> dict:
    sys_pair = parsed.system
    try:
        level = min_sparsity(sys_pair, tol)
    except NoFeasibleSparsityError as exc:
        result = {
            "min_sparsity": None,
            "feasible": False,
            "nonneg_controllable": True,
            "reason": str(exc),
        }
    else:
        if level is None:
            result = {
                "min_sparsity": None,
                "feasible": False,
                "nonneg_controllable": False,
                "reason": "system is not controllable with nonnegative inputs",
            }
        else:
            result = {
                "min_sparsity": level,
                "feasible": True,
                "nonneg_controllable": True,
                "required": sys_pair.n - rank(sys_pair.A, tol),
            }
    return result


def _cmd_oracle(args, parsed, tol: Tolerances) -> dict:
    s = args.s if args.s is not None else parsed.s
    if s is None:
        raise InputError("the oracle needs a sparsity level (--s or the file)")
    cfg = OracleConfig(
        k_max=args.kmax,
        n_directions=args.samples,
        seed=args.seed,
        include_axes=not args.no_axes,
    )
    verdict = coverage_probe(parsed.system, s, cfg, tol)
    result = verdict.to_dict()
    result["s"] = s
    result["config"] = cfg.to_dict()
    return result


def _cmd_decompose(args, parsed, tol: Tolerances) -> dict:
    dec = build_decomposition(parsed.system.A, tol)
    report = verify_decomposition(parsed.system.A, dec, tol)
    return {
        "structure": dec.structure.to_dict(),
        "P": dec.P.tolist(),
        "J": dec.J.tolist(),
        "P0": dec.P0.tolist(),
        "parts": [part.tolist() for part in dec.parts],
        "verification": report.to_dict(),
    }


def _cmd_verify_cert(args, parsed, tol: Tolerances) -> dict:
    try:
        cert_data = json.loads(read_text(args.cert, "certificate"))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from exc
    cert = Certificate.from_dict(cert_data)
    check = verify_certificate(parsed.system, cert, tol)
    return {"certificate": cert.to_dict(), "check": check.to_dict()}


_FILE_COMMANDS = {
    "check": _cmd_check,
    "min-sparsity": _cmd_min_sparsity,
    "oracle": _cmd_oracle,
    "decompose": _cmd_decompose,
    "verify-cert": _cmd_verify_cert,
}


def run_command(argv: list[str]) -> tuple[dict, int]:
    """Parse argv, run the command, and return (report, exit code).

    gen returns {"system_file": ...}. Any other command's result comes in the
    envelope the CLI prints, whose wall_time_s includes loading the file.
    """
    return _run(_PARSER.parse_args(argv))


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    tol = _tolerances(args)
    if args.command == "gen":
        generated = generate_system(args.kind, args.n, args.m, args.seed, args.deficiency)
        return {"system_file": generated.to_file_dict()}, 0
    started = time.perf_counter()
    parsed = parse_system_file(Path(args.file))  # a path, even when it starts with "{"
    digest = hashlib.sha256(Path(args.file).read_bytes()).hexdigest()
    result = _FILE_COMMANDS[args.command](args, parsed, tol)
    report = {
        "tool": "nnscontrol",
        "version": __version__,
        "command": args.command,
        "input_digest": digest,
        "name": parsed.name,
        "tolerances": tol.to_dict(),
        "result": result,
        "wall_time_s": time.perf_counter() - started,
    }
    return report, 0


def _pretty(report: dict, command: str) -> str:
    lines = [f"nnscontrol {command}"]
    result = report.get("result", {})
    if command == "check":
        lines.append(f"  verdict: {result['verdict']} (mode {result['mode']}, s={result['s']})")
        for label in ("condition_i", "condition_ii", "condition_iii"):
            cond = result.get(label)
            if cond is None:
                continue
            lines.append(f"  {label}: {'pass' if cond['passed'] else 'FAIL'}")
        cert = (result.get("condition_i") or {}).get("certificate") or (
            result.get("condition_ii") or {}
        ).get("certificate")
        if cert:
            lam = cert["lambda"]
            lines.append(
                f"  certificate: {cert['kind']} at lambda = {lam['re']:+.6g}{lam['im']:+.6g}j, "
                f"z = {[round(v, 6) for v in cert['z']['re']]}"
            )
    elif command == "min-sparsity":
        lines.append(f"  min sparsity: {result['min_sparsity']} (feasible: {result['feasible']})")
    elif command == "oracle":
        lines.append(
            f"  outcome: {result['outcome']} at K = {result['k_used']} "
            f"({result['lp_count']} LPs, {len(result['uncovered_directions'])} uncovered)"
        )
    elif command == "decompose":
        st = result["structure"]
        lines.append(
            f"  largest zero block n = {st['n']}, nonsingular part q = {st['q']}, "
            f"block counts {st['q_sizes']}"
        )
        lines.append(f"  verification: {'pass' if result['verification']['all_passed'] else 'FAIL'}")
    elif command == "verify-cert":
        lines.append(f"  certificate valid: {result['check']['valid']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)  # None reads sys.argv
        report, code = _run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    if "system_file" in report:
        sys.stdout.write(dump_system_file(report["system_file"]))
        return code
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if args.pretty:
        print(_pretty(report, report.get("command", "")), file=sys.stderr)
    return code


def console_main() -> None:
    raise SystemExit(main())
