"""Command-line surface.

Thin wrappers only: every subcommand `cmd_*` parses its inputs, delegates to
the library, and returns (JSON payload, text lines or None, exit code).
`main` is the one place that prints: the payload as JSON (sorted keys) under
--output json or when there are no text lines, else the text lines; or, when
the library raises, one `error:` line on stderr.  Exit codes: 0 success, 1
computational failure (search exhausted, a failed certificate, suite
failures, or under --strict an uncertified cohomology report or a suite case
skipped as unknown), 2 usage and parse errors.
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
    QecError,
    SearchExhausted,
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


def cmd_eval(args):
    text = aq.to_str(aq.parse(args.expr))
    return {"result": text}, [text], 0


def cmd_div(args):
    r = aq.parse(args.r)
    w = aq.parse(args.w)
    if args.mode == "sigma":
        g, h, rem = aq.sigma_divide(r, w, bottom=args.bottom)
        gs = laurent_to_str(g)
    else:
        g, h, rem = aq.z_divide(r, w, bottom=args.bottom)
        gs = laurent_to_str(g, var="s")
    hs, rems = aq.to_str(h), aq.to_str(rem)
    payload = {"g": gs, "h": hs, "rem": rems, "g_unit": g.is_unit()}
    return payload, [f"g = {gs}", f"h = {hs}", f"rem = {rems}"], 0


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


def cmd_mod(args):
    payload = _info_payload(_module_arg(args.descriptor))
    lines = [f"{k} = {json.dumps(payload[k], sort_keys=True)}" for k in sorted(payload)]
    return payload, lines, 0


def cmd_module_op(args):
    """dual, tensor and hom: the result's descriptor, always as JSON."""
    texts = [args.descriptor] if args.command == "dual" else [args.a, args.b]
    op = {"dual": dual, "tensor": tensor, "hom": hom}[args.command]
    return module_to_json(op(*map(_module_arg, texts))), None, 0


def cmd_coh(args):
    rep = cohomology(_module_arg(args.descriptor))
    payload = rep.to_json()
    line = (
        "h0 = {h0}  h1 = {h1}  chi = {chi}  certified = {certified}  "
        "window = {window_used}".format(**payload)
    )
    return payload, [line], 1 if args.strict and not rep.certified else 0


def cmd_euler(args):
    chi = euler_form(_module_arg(args.a), _module_arg(args.b))
    return {"chi": chi}, [str(chi)], 0


def cmd_pic(args):
    if args.op in ("mul", "eq") and args.b is None:
        raise PreconditionViolation("pic {mul,eq} needs two arguments")
    if args.op == "eq":
        a = pic_class(_module_arg(args.a))
        b = pic_class(_module_arg(args.b))
        equal = pic_eq(a, b)
        return {"equal": equal}, ["true" if equal else "false"], 0
    if args.op == "inv":
        cls = pic_inv(pic_class(_module_arg(args.a)))
    elif args.op == "mul":
        cls = pic_mul(pic_class(_module_arg(args.a)), pic_class(_module_arg(args.b)))
    else:  # class
        cls = pic_class(_module_arg(args.a))
    payload = {"c": scalar_to_str(cls.c), "m": cls.m}
    return payload, [f"c = {payload['c']}", f"m = {payload['m']}"], 0


def cmd_verify(args):
    report = verify_suite(args.suite, cases=args.cases, seed=args.seed, bounds=args.bounds)
    lines = [
        "suite {suite}: {cases} cases, {passed} passed, "
        "{skipped_unknown} skipped (unknown), {nfail} failed".format(
            nfail=len(report["failures"]), **report
        )
    ]
    lines.extend(f"  FAIL {msg}" for msg in report["failures"])
    failed = report["failures"] or args.strict and report["skipped_unknown"]
    return report, lines, 1 if failed else 0


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
        try:
            q = get_qparam() if qtext is None else QParam(scalar_from_str(qtext))
        except (ValueError, ZeroDivisionError, PreconditionViolation) as e:
            raise PreconditionViolation(f"invalid q: {e}") from None
        args.bounds = SearchBounds(args.bound_sigma, args.bound_z)
        # q scopes to this command: the caller's q is back when main returns
        with using_q(q):
            payload, lines, code = args.func(args)
    except QecError as e:
        print(f"error: {e}", file=sys.stderr)
        # a search, spectrum or certificate failure is computational; every
        # other error is one of usage or parsing
        return 1 if isinstance(e, (SearchExhausted, NonSplitSpectrum, CertificateFailure)) else 2
    if args.output == "json" or lines is None:
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
