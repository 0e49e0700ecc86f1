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

The five common flags (--q, --output, --strict, --bound-sigma, --bound-z)
are valid before and after the subcommand, and one given after it overrides
one given before.  The parser is built once per process, on the first call
of `build_parser`; `main` only reads it, so it is safe to call from threads.
"""

from __future__ import annotations

import argparse
import functools
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
    if args.output == "json" or text_lines is None:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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


def cmd_module_op(args) -> int:
    """dual, tensor and hom: the result's descriptor, always as JSON."""
    texts = [args.descriptor] if args.command == "dual" else [args.a, args.b]
    op = {"dual": dual, "tensor": tensor, "hom": hom}[args.command]
    _emit(args, module_to_json(op(*map(_module_arg, texts))))
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
    if args.op in ("mul", "eq") and args.b is None:
        raise PreconditionViolation("pic {mul,eq} needs two arguments")
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
    payload = {"c": scalar_to_str(cls.c), "m": cls.m}
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # The common flags are declared once, in a parent parser shared by the
    # top level and every leaf subcommand.  Their actions default to
    # SUPPRESS, so a flag the leaf does not see leaves the top level's value
    # alone, and one it does see overrides it; main supplies the defaults.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--q", help="deformation parameter, a rational outside {0,1,-1}")
    common.add_argument("--output", choices=("text", "json"), help="output format")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when a cohomology report is uncertified or a suite "
        "skips a case as unknown",
    )
    common.add_argument("--bound-sigma", type=int, help="s-width bound of verify's search")
    common.add_argument("--bound-z", type=int, help="z-width bound of verify's search")

    top = argparse.ArgumentParser(
        prog="qec",
        description="Exact computations over the quantum torus and its modules.",
        parents=[common],
    )
    # (command, help, handler, *arguments): an argument is a positional name
    # or a (name or flag, add_argument keywords) pair; a command with no
    # handler holds subcommands, written "command subcommand"
    table = (
        ("eval", "normalize an expression in z, s, q", cmd_eval, "expr"),
        ("div", "division with remainder and unit cofactor", cmd_div,
         ("--mode", {"choices": ("sigma", "z"), "default": "sigma"}),
         ("--bottom", {"action": "store_true", "help": "eliminate from the bottom"}),
         "r", "w"),
        ("mod", "module reports", None),
        ("mod info", "ranks, class, and goodness data", cmd_mod, "descriptor"),
        ("dual", "dual module descriptor", cmd_module_op, "descriptor"),
        ("tensor", "tensor product descriptor", cmd_module_op, "a", "b"),
        ("hom", "internal hom descriptor", cmd_module_op, "a", "b"),
        ("coh", "cohomology report", cmd_coh, "descriptor"),
        ("euler", "Euler form chi(M, N)", cmd_euler, "a", "b"),
        ("pic", "Picard group arithmetic on line bundles", cmd_pic,
         ("op", {"choices": ("mul", "inv", "eq", "class")}), "a", ("b", {"nargs": "?"})),
        ("verify", "run a named verification suite", cmd_verify,
         ("suite", {"choices": suite_names()}),
         ("--cases", {"type": int, "default": 100}),
         ("--seed", {"type": int, "default": 0})),
    )
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for command, help_text, handler, *arguments in table:
        group, _, name = command.rpartition(" ")
        if handler is None:
            p = groups[group].add_parser(name, help=help_text)
            groups[command] = p.add_subparsers(dest=name + "cmd", required=True)
            continue
        p = groups[group].add_parser(name, help=help_text, parents=[common])
        for arg in arguments:
            flag, kwargs = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return top


def main(argv=None) -> int:
    defaults = argparse.Namespace(q=None, output="text", strict=False, bound_sigma=6, bound_z=8)
    args = build_parser().parse_args(argv, defaults)
    qtext = args.q if args.q is not None else os.environ.get("QEC_Q")
    try:
        q = get_qparam() if qtext is None else QParam(scalar_from_str(qtext))
    except (ValueError, ZeroDivisionError, PreconditionViolation) as e:
        print(f"error: invalid q: {e}", file=sys.stderr)
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
