"""Mutation check for one function: apply one AST mutation at a time to a
temporary copy of the source tree, run a pytest selection against the copy,
and print the mutants that the selection does not kill.

    python tools/mutate.py src/qec/ideals.py _first_sigma_good tests/test_ideals.py
    python tools/mutate.py src/qec/aq.py _Parser.term -- tests/test_cli.py -k product

Pytest options go after `--`.  The function is named by its qualified name
(`name` or `Class.name`).  The mutations are: a comparison operator swapped
(for its negation, and `<` and `<=`, `>` and `>=` for each other), an
arithmetic operator swapped, and an integer constant changed by +1 and by
-1.  Mutants run one after another, each with `-x` under a timeout of ten
times the unmutated run plus five seconds; a mutant that times out counts
as killed.  A surviving mutant is a test gap, or an equivalent mutant: read
it before adding a test, and never weaken a check to kill one.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

COMPARE_SWAPS = {
    ast.Eq: (ast.NotEq,),
    ast.NotEq: (ast.Eq,),
    ast.Lt: (ast.GtE, ast.LtE),
    ast.LtE: (ast.Gt, ast.Lt),
    ast.Gt: (ast.LtE, ast.GtE),
    ast.GtE: (ast.Lt, ast.Gt),
    ast.Is: (ast.IsNot,),
    ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,),
    ast.NotIn: (ast.In,),
}
ARITH_SWAPS = {
    ast.Add: (ast.Sub,),
    ast.Sub: (ast.Add,),
    ast.Mult: (ast.Div,),
    ast.Div: (ast.Mult,),
    ast.FloorDiv: (ast.Mult,),
    ast.Mod: (ast.FloorDiv,),
    ast.Pow: (ast.Mult,),
}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
    ast.GtE: ">=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
}


def find_function(tree, qualname):
    node = tree
    for part in qualname.split("."):
        node = next(
            (
                child
                for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and child.name == part
            ),
            None,
        )
        if node is None:
            sys.exit(f"error: no function {qualname!r}")
    return node


def mutations(func):
    """(node, description, attribute, new value) for every mutation site of
    func, in ast.walk order."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                for new in COMPARE_SWAPS.get(type(op), ()):
                    ops = node.ops[:k] + [new()] + node.ops[k + 1:]
                    out.append((node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}", "ops", ops))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            for new in ARITH_SWAPS.get(type(node.op), ()):
                out.append((node, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", "op", new()))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
        ):
            for value in (node.value + 1, node.value - 1):
                out.append((node, f"{node.value} -> {value}", "value", value))
    return out


def mutant_source(source, qualname, index):
    """(source with mutation `index` applied to the function, line, text)."""
    tree = ast.parse(source)
    func = find_function(tree, qualname)
    node, text, attr, value = mutations(func)[index]
    setattr(node, attr, value)
    lines = source.splitlines(keepends=True)
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    body = textwrap.indent(ast.unparse(func), " " * func.col_offset) + "\n"
    return "".join(lines[:start]) + body + "".join(lines[func.end_lineno:]), node.lineno, text


def run_tests(tree, selection, timeout):
    """'passed', 'failed' or 'timeout' for pytest on the copied tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    proc = subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("file", help="source file, relative to the repository root")
    ap.add_argument("function", help="qualified name of the function to mutate")
    ap.add_argument("selection", nargs="+", help="pytest arguments, such as a test file")
    ap.add_argument("--scratch", help="directory for the copy (default: a temporary one)")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    source = (root / args.file).read_text()
    count = len(mutations(find_function(ast.parse(source), args.function)))
    work = Path(tempfile.mkdtemp(prefix="mutate-", dir=args.scratch))
    try:
        tree = work / "tree"
        shutil.copytree(
            root, tree,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        target = tree / args.file
        start = time.perf_counter()
        if run_tests(tree, args.selection, None) != "passed":
            sys.exit("error: the selection does not pass on the unmutated copy")
        timeout = 10 * (time.perf_counter() - start) + 5
        survivors = []
        for index in range(count):
            mutated, line, text = mutant_source(source, args.function, index)
            target.write_text(mutated)
            outcome = run_tests(tree, args.selection, timeout)
            target.write_text(source)
            verdict = "SURVIVED" if outcome == "passed" else outcome
            print(f"{index + 1}/{count} {args.file}:{line} {text}: {verdict}", flush=True)
            if outcome == "passed":
                survivors.append(f"{args.file}:{line} {text}")
    finally:
        shutil.rmtree(work)
    print(f"{len(survivors)} of {count} mutants of {args.function} survived")
    for s in survivors:
        print(f"  {s}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
