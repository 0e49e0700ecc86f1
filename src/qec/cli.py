"""Command-line surface.

Thin wrappers only: every subcommand parses its inputs, delegates to the
library, and prints either a stable text rendering or JSON (sorted keys).
Exit codes: 0 success, 1 computational failure (search exhausted, a failed
certificate, suite failures, or under --strict an uncertified cohomology
report or a suite case skipped as unknown), 2 usage and parse errors.
rank_S, h1, chi and the Euler form are always exact, so `mod info` and
`euler` do not exit 1 under --strict.  The ambient q comes from --q, else the
QEC_Q environment variable, else the caller's q (2 by default); a q given
either way holds for that one command only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import aq
from .cohomology import cohomology, euler_form
from .errors import (
    CertificateFailure,
    NonSplitSpectrum,
    ParseError,
    PreconditionViolation,
    SearchExhausted,
    UnknownSuite,
    ZeroInput,
)
from .ideals import SearchBounds
from .laurent import laurent_to_str
from .modules import (
    Good,
    LineBundle,
    Torsion,
    dual,
    hom,
    module_from_json,
    module_to_json,
    pic_class,
    pic_eq,
    pic_inv,
    pic_mul,
    rank_A,
    rank_S,
    tensor,
)
from .scalars import QParam, get_qparam, scalar_from_str, scalar_to_str, using_q
from .suites import suite_names, verify_suite


def _module_arg(text: str):
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad module descriptor: {e}", e.pos)
    if not isinstance(desc, dict):
        raise ParseError("module descriptor must be a JSON object", 0)
    return module_from_json(desc)


def _emit(args, payload, text_lines=None) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    elif text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True))


def cmd_eval(args) -> int:
    x = aq.parse(args.expr)
    _emit(args, {"result": aq.to_str(x)}, [aq.to_str(x)])
    return 0


def cmd_div(args) -> int:
    r = aq.parse(args.r)
    w = aq.parse(args.w)
    if args.mode == "sigma":
        g, h, rem = aq.sigma_divide(r, w, bottom=args.bottom)
        gs = laurent_to_str(g)
    else:
        g, h, rem = aq.z_divide(r, w, bottom=args.bottom)
        gs = laurent_to_str(g, var="s")
    payload = {
        "g": gs,
        "h": aq.to_str(h),
        "rem": aq.to_str(rem),
        "g_unit": g.is_unit(),
    }
    _emit(
        args,
        payload,
        [f"g = {gs}", f"h = {aq.to_str(h)}", f"rem = {aq.to_str(rem)}"],
    )
    return 0


def _info_payload(M) -> dict:
    payload = dict(module_to_json(M))
    payload["rank_A"] = rank_A(M)
    payload["rank_S"] = rank_S(M)
    if isinstance(M, LineBundle):
        cls = pic_class(M)
        payload["pic"] = {"c": scalar_to_str(cls.c), "m": cls.m}
        payload["degree"] = M.m
    if isinstance(M, Torsion):
        payload["dim"] = M.dim
    if isinstance(M, Good):
        d = aq.degrees(M.p)
        payload["sigma_good"] = d.sigma_good
        payload["z_good"] = d.z_good
    return payload


def cmd_mod(args) -> int:
    M = _module_arg(args.descriptor)
    payload = _info_payload(M)
    lines = [f"{k} = {json.dumps(payload[k], sort_keys=True)}" for k in sorted(payload)]
    _emit(args, payload, lines)
    return 0


def cmd_dual(args) -> int:
    M = _module_arg(args.descriptor)
    _emit(args, module_to_json(dual(M)))
    return 0


def cmd_tensor(args) -> int:
    M = _module_arg(args.a)
    N = _module_arg(args.b)
    _emit(args, module_to_json(tensor(M, N)))
    return 0


def cmd_hom(args) -> int:
    M = _module_arg(args.a)
    N = _module_arg(args.b)
    _emit(args, module_to_json(hom(M, N)))
    return 0


def cmd_coh(args) -> int:
    M = _module_arg(args.descriptor)
    rep = cohomology(M)
    payload = rep.to_json()
    _emit(
        args,
        payload,
        [
            "h0 = {h0}  h1 = {h1}  chi = {chi}  certified = {certified}  "
            "window = {window_used}".format(**payload)
        ],
    )
    if args.strict and not rep.certified:
        return 1
    return 0


def cmd_euler(args) -> int:
    M = _module_arg(args.a)
    N = _module_arg(args.b)
    chi = euler_form(M, N)
    _emit(args, {"chi": chi}, [str(chi)])
    return 0


def cmd_pic(args) -> int:
    def cls_payload(cls):
        return {"c": scalar_to_str(cls.c), "m": cls.m}

    if args.op == "eq":
        a = pic_class(_module_arg(args.a))
        b = pic_class(_module_arg(args.b))
        equal = pic_eq(a, b)
        _emit(args, {"equal": equal}, ["true" if equal else "false"])
        return 0
    if args.op == "inv":
        cls = pic_inv(pic_class(_module_arg(args.a)))
    elif args.op == "mul":
        cls = pic_mul(pic_class(_module_arg(args.a)), pic_class(_module_arg(args.b)))
    else:  # class
        cls = pic_class(_module_arg(args.a))
    payload = cls_payload(cls)
    _emit(args, payload, [f"c = {payload['c']}", f"m = {payload['m']}"])
    return 0


def cmd_verify(args) -> int:
    report = verify_suite(args.suite, cases=args.cases, seed=args.seed,
                          bounds=args.bounds)
    lines = [
        "suite {suite}: {cases} cases, {passed} passed, "
        "{skipped_unknown} skipped (unknown), {nfail} failed".format(
            nfail=len(report["failures"]), **report
        )
    ]
    lines.extend(f"  FAIL {msg}" for msg in report["failures"])
    _emit(args, report, lines)
    if report["failures"]:
        return 1
    if args.strict and report["skipped_unknown"]:
        return 1
    return 0


def _add_common(parser, after_command: bool) -> None:
    # The same flags are valid before and after the subcommand; the
    # subcommand copies default to SUPPRESS so they never clobber values
    # parsed at the top level.
    d = (lambda v: argparse.SUPPRESS) if after_command else (lambda v: v)
    parser.add_argument(
        "--q",
        default=d(None),
        help="deformation parameter, a rational outside {0,1,-1}",
    )
    parser.add_argument(
        "--output",
        choices=("text", "json"),
        default=d("text"),
        help="output format",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        default=d(False),
        help="exit 1 when a cohomology report is uncertified or a suite "
        "skips a case as unknown",
    )
    parser.add_argument(
        "--bound-sigma", type=int, default=d(6), help="s-width bound of verify's search"
    )
    parser.add_argument(
        "--bound-z", type=int, default=d(8), help="z-width bound of verify's search"
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qec",
        description="Exact computations over the quantum torus and its modules.",
    )
    _add_common(top, after_command=False)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="normalize an expression in z, s, q")
    _add_common(p, after_command=True)
    p.add_argument("expr")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("div", help="division with remainder and unit cofactor")
    _add_common(p, after_command=True)
    p.add_argument("--mode", choices=("sigma", "z"), default="sigma")
    p.add_argument("--bottom", action="store_true", help="eliminate from the bottom")
    p.add_argument("r")
    p.add_argument("w")
    p.set_defaults(func=cmd_div)

    p = sub.add_parser("mod", help="module reports")
    modsub = p.add_subparsers(dest="modcmd", required=True)
    pi = modsub.add_parser("info", help="ranks, class, and goodness data")
    _add_common(pi, after_command=True)
    pi.add_argument("descriptor")
    pi.set_defaults(func=cmd_mod)

    p = sub.add_parser("dual", help="dual module descriptor")
    _add_common(p, after_command=True)
    p.add_argument("descriptor")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("tensor", help="tensor product descriptor")
    _add_common(p, after_command=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("hom", help="internal hom descriptor")
    _add_common(p, after_command=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("coh", help="cohomology report")
    _add_common(p, after_command=True)
    p.add_argument("descriptor")
    p.set_defaults(func=cmd_coh)

    p = sub.add_parser("euler", help="Euler form chi(M, N)")
    _add_common(p, after_command=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("pic", help="Picard group arithmetic on line bundles")
    _add_common(p, after_command=True)
    p.add_argument("op", choices=("mul", "inv", "eq", "class"))
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.set_defaults(func=cmd_pic)

    p = sub.add_parser("verify", help="run a named verification suite")
    _add_common(p, after_command=True)
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    qtext = args.q if args.q is not None else os.environ.get("QEC_Q")
    try:
        q = get_qparam() if qtext is None else QParam(scalar_from_str(qtext))
    except (ValueError, ZeroDivisionError, PreconditionViolation) as e:
        print(f"error: invalid q: {e}", file=sys.stderr)
        return 2
    if args.command == "pic" and args.op in ("mul", "eq") and args.b is None:
        print("error: pic {mul,eq} needs two arguments", file=sys.stderr)
        return 2
    try:
        args.bounds = SearchBounds(args.bound_sigma, args.bound_z)
        # q scopes to this command: the caller's q is back when main returns
        with using_q(q):
            return args.func(args)
    except (ParseError, ZeroInput, PreconditionViolation, UnknownSuite) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SearchExhausted, NonSplitSpectrum, CertificateFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
