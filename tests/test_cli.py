"""End-to-end tests for the command-line interface.

Every test drives `qec.cli.main` in-process and checks stdout/stderr text,
JSON payloads, and exit codes (0 success, 1 computational failure under
--strict, 2 usage/parse errors).
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qec.cli
import qec.modules
import qec.suites
from qec.aq import POWER_BITS_LIMIT, POWER_WIDTH_LIMIT, SPAN_LIMIT, AqElement, to_str
from qec.cli import main
from qec.errors import CertificateFailure
from qec.ideals import SearchBounds
from qec.modules import (
    LineBundle,
    Torsion,
    dual,
    hom,
    module_from_json,
    module_to_json,
    pic_class,
    pic_inv,
    pic_mul,
    tensor,
)
from qec.scalars import get_q, scalar_to_str, using_q
from qec.suites import verify_suite

O_DESC = '{"kind":"line","c":"1","m":0}'
L32_DESC = '{"kind":"line","c":"3","m":2}'
L13_DESC = '{"kind":"line","c":"1","m":3}'
TORSION_DESC = '{"kind":"torsion","blocks":[{"lambda":"1","size":2}]}'
GOOD_BAD_DESC = '{"kind":"good","p":"z - s - s^-1"}'
MATRIX_DESC = '{"kind":"matrix","entries":[["z","1"],["0","1"]]}'
TIGHT = ["--bound-sigma", "1", "--bound-z", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--output", "json", *argv)
    return code, json.loads(out), err


def test_eval_text(capsys):
    code, out, err = run(capsys, "eval", "s*z")
    assert code == 0
    assert out == "2*z*s\n"
    assert err == ""


def test_eval_json(capsys):
    code, out, _ = run(capsys, "--output", "json", "eval", "s*z")
    assert code == 0
    assert out == json.dumps({"result": "2*z*s"}, sort_keys=True) + "\n"


def test_q_flag_before_and_after_subcommand(capsys):
    code1, out1, _ = run(capsys, "--q", "3", "eval", "s*z")
    code2, out2, _ = run(capsys, "eval", "--q", "3", "s*z")
    assert code1 == code2 == 0
    assert out1 == out2 == "3*z*s\n"


def test_env_q_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("QEC_Q", "3")
    code, out, _ = run(capsys, "eval", "s*z")
    assert code == 0
    assert out == "3*z*s\n"
    code, out, _ = run(capsys, "--q", "5", "eval", "s*z")
    assert code == 0
    assert out == "5*z*s\n"


def test_negative_q_is_written_with_an_equals_sign(capsys):
    assert run(capsys, "--q=-1/2", "eval", "s*z") == (0, "-1/2*z*s\n", "")


def test_invalid_q_is_usage_error(capsys):
    code, out, err = run(capsys, "--q", "1", "eval", "1")
    assert code == 2
    assert out == ""
    assert "invalid q" in err


def test_q_flag_does_not_leak_into_the_caller(capsys, monkeypatch):
    with using_q(Fraction(7)):
        assert run(capsys, "--q", "3", "eval", "q")[:2] == (0, "3\n")
        assert get_q() == 7
        monkeypatch.setenv("QEC_Q", "5")
        assert run(capsys, "eval", "q")[:2] == (0, "5\n")
        assert get_q() == 7
        monkeypatch.delenv("QEC_Q")
        # without --q or QEC_Q the command runs at the caller's q
        assert run(capsys, "eval", "q")[:2] == (0, "7\n")
    assert get_q() == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mod", "info", MATRIX_DESC, "--bound-sigma", "-1"],
        ["coh", MATRIX_DESC, "--bound-z", "-1"],
        ["--bound-sigma", "-5", "--bound-z", "-5", "mod", "info", MATRIX_DESC],
    ],
)
def test_negative_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bound ") and err.count("\n") == 1


@pytest.mark.parametrize("expr", ["(1+z+s)^200", "((1+z)^8)^5", "(1+s)^33"])
def test_large_powers_of_non_monomials_are_parse_errors(capsys, expr):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", expr)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error: power of a non-monomial") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr",
    ["(1+z+s)^16*(1+z+s)^16*(1+z+s)^16", "(1+z)^16*(1+z)^17", "(1+z+s)^16*(1+s)"],
)
def test_wide_products_of_non_monomials_are_parse_errors(capsys, expr):
    # x^e is a product of e copies, so a product has the power's width cap
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", expr)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: product of non-monomials") and err.count("\n") == 1


def test_products_up_to_the_width_limit_expand(capsys):
    n = POWER_WIDTH_LIMIT
    power = (AqElement.one() + AqElement.monomial(1, zexp=1)) ** n
    code, out, _ = run(capsys, "eval", f"(1 + z)^{n // 2}*(1 + z)^{n // 2}")
    assert (code, out) == (0, to_str(power) + "\n")
    # a monomial factor adds no width
    code, out, _ = run(capsys, "eval", f"3*z*(1 + z)^{n}*s")
    want = AqElement.monomial(3, zexp=1) * power * AqElement.sigma(1)
    assert (code, out) == (0, to_str(want) + "\n")


def test_powers_up_to_the_width_limit_and_monomial_powers_expand(capsys):
    n = POWER_WIDTH_LIMIT
    code, out, _ = run(capsys, "eval", f"(1 + z)^{n}")
    assert (code, out) == (0, to_str((AqElement.one() + AqElement.monomial(1, zexp=1)) ** n) + "\n")
    assert run(capsys, "eval", f"(1 + z)^{n + 1}")[0] == 2
    assert run(capsys, "eval", "z^100000000000000")[:2] == (0, "z^100000000000000\n")


def test_a_sum_past_the_span_limit_is_a_parse_error_under_a_memory_cap():
    # a coefficient is stored densely, so without the cap "1 + z^N" asks for
    # N cells; the child runs under a 1 GB address space so a regression
    # fails with MemoryError instead of taking the machine's memory, and it
    # exits 3 in place of the CLI's code if the answer took a second or more
    code = textwrap.dedent(
        """
        import resource, sys, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from qec.cli import main
        start = time.perf_counter()
        rc = main(["eval", "1 + z^1000000000"])
        sys.exit(rc if time.perf_counter() - start < 1.0 else 3)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == (
        f"error: sum reaches z-span 1000000001, past the limit {SPAN_LIMIT} (at position 16)\n"
    )


def test_sums_up_to_the_span_limit_expand(capsys):
    for n in (40, 100000, SPAN_LIMIT - 1):
        want = AqElement.one() + AqElement.monomial(1, zexp=n)
        assert run(capsys, "eval", f"1 + z^{n}")[:2] == (0, to_str(want) + "\n")
    code, out, err = run(capsys, "eval", f"1 - z^{SPAN_LIMIT}")
    assert (code, out) == (2, "")
    assert err.startswith("error: sum reaches z-span") and err.count("\n") == 1
    # at different s-exponents no coefficient spans the gap
    assert run(capsys, "eval", "z^1000000000*s + 1")[:2] == (0, "1 + z^1000000000*s\n")


def test_a_product_forming_a_huge_power_of_q_is_refused_at_once():
    # s^60000 * z^60000 = q^(60000 * 60000) z^60000 s^60000: the power of q
    # is bounded before the product forms it, so the refusal takes no time;
    # the child exits 3 in place of the CLI's code if it took a second or more
    code = textwrap.dedent(
        """
        import sys, time
        from qec.cli import main
        start = time.perf_counter()
        rc = main(["eval", "s^60000*z^60000"])
        sys.exit(rc if time.perf_counter() - start < 1.0 else 3)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: product forms a power of q")
    assert proc.stderr.count("\n") == 1


def test_products_inside_the_bit_limit_expand(capsys):
    # q^(90 * 90) has 8,100 bits at q = 2, inside the limit; q^(100 * 100)
    # has 10,000, past it, as (z*s)^129 is
    assert run(capsys, "--q", "2", "eval", "s^90*z^90")[:2] == (
        0, f"{2 ** 8100}*z^90*s^90\n",
    )
    assert run(capsys, "--q", "2", "eval", "z^90*s^90")[:2] == (0, "z^90*s^90\n")
    # a zero factor forms no power of q
    for expr in ("0*z^9000", "s^9000*0"):
        assert run(capsys, "--q", "2", "eval", expr)[:2] == (0, "0\n")
    for expr in ("s^100*z^100", "s^-100*(1 + z^-100)"):
        code, out, err = run(capsys, "--q", "2", "eval", expr)
        assert (code, out) == (2, "")
        assert err.startswith("error: product forms a power of q of about 10000 bits")
        assert err.count("\n") == 1


def test_result_past_the_digit_limit_is_a_usage_error(capsys):
    # two in-limit powers whose product has more digits than Python prints
    code, out, err = run(capsys, "eval", "2^8000*2^8000")
    assert (code, out) == (2, "")
    assert err.startswith("error: scalar has more than") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr",
    ["(2*z)^100000000000", "(z*s)^100000000000", "2^100000000000",
     "(2*z)^-100000000000", "(z*s)^-100000"],
)
def test_monomial_powers_past_the_bit_limit_are_parse_errors(capsys, expr):
    # the coefficient c^e q^(a b e(e-1)/2) is bounded before it is formed
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: power of a monomial") and err.count("\n") == 1
    assert time.perf_counter() - start < 1.0


def test_monomial_powers_inside_the_bit_limit_expand(capsys):
    for expr in ("z^100000000000000", "s^100000000000000", "s^-100000000000000"):
        assert run(capsys, "eval", expr)[:2] == (0, expr + "\n")
    # a coefficient of 2^12 bits stays inside the limit
    code, out, _ = run(capsys, "eval", f"2^{POWER_BITS_LIMIT // 2}")
    assert (code, out) == (0, f"{2 ** (POWER_BITS_LIMIT // 2)}\n")
    assert run(capsys, "--q", "2", "eval", "(z*s)^-3")[:2] == (0, "64*z^-3*s^-3\n")


def test_div_sigma_json(capsys):
    code, payload, _ = run_json(capsys, "div", "s^2 - 3*s + 2", "s - 2")
    assert code == 0
    assert payload == {"g": "1", "g_unit": True, "h": "-1 + s", "rem": "0"}


def test_div_z_mode_json(capsys):
    code, payload, _ = run_json(capsys, "div", "--mode", "z", "z^2 - 4", "z - 2")
    assert code == 0
    assert payload == {"g": "1", "g_unit": True, "h": "2 + z", "rem": "0"}


# (q, r, w, bottom) -> (g, h, rem) of `qec div --mode z`
Z_DIV_CASES = [
    ("2", "z^2*s + 3*z*s^-1 - 2 + z^-1*s^2", "2*z*s - s^-1 + z^-1", False,
     ("1/2*s^2", "7/2 + z*s^2", "7/2*s^-1 - 7/2*z^-1 - 5/4*s^2 + 1/8*z^-1*s^4")),
    ("2", "z^2*s + 3*z*s^-1 - 2 + z^-1*s^2", "2*z*s - s^-1 + z^-1", True,
     ("1", "-2*z + 8*z*s + 4*s^2", "z*s^-1 + 8*z + 5*z^2*s - 32*z^2*s^2 - 32*z*s^3")),
    ("3", "s*z^2 - z + 5", "3*z*s^2 + s", False,
     ("1/81*s^4", "-10/27*s^2 + 9*z*s^3", "10/27*s^3 + 5/81*s^4")),
    ("3", "s*z^2 - z + 5", "3*z*s^2 + s", True,
     ("1/3*s^2", "5/3*s - 3*z*s - 15*z*s^2", "270*z^2*s^3 + 405*z^2*s^4")),
    ("-1/2", "z^3 - 2*z*s + s^-2", "z^2 - s", False,
     ("1", "z", "s^-2 - z*s")),
    ("-1/2", "z^3 - 2*z*s + s^-2", "z^2 - s", True,
     ("-2*s^2", "2*s^-1 - z*s^2", "-8*z^2*s^-1 + 1/32*z^3*s^2")),
    ("-1/2", "s*z^2 - z + 5", "3*z*s^2 + s", False,
     ("576*s^4", "-46*s^2 - 3/2*z*s^3", "46*s^3 + 2880*s^4")),
]


@pytest.mark.parametrize("q,r,w,bottom,want", Z_DIV_CASES)
def test_div_z_mode_fixed_outputs(capsys, q, r, w, bottom, want):
    argv = ["--q=" + q, "div", "--mode", "z", *(["--bottom"] if bottom else []), r, w]
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert (payload["g"], payload["h"], payload["rem"]) == want
    assert payload["g_unit"] is True


def test_div_text_lines(capsys):
    code, out, _ = run(capsys, "div", "s^2 - 3*s + 2", "s - 2")
    assert code == 0
    assert out.splitlines() == ["g = 1", "h = -1 + s", "rem = 0"]


def test_div_parse_error(capsys):
    code, out, err = run(capsys, "div", "s +* 2", "s")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_mod_info_line_json(capsys):
    code, payload, _ = run_json(capsys, "mod", "info", L32_DESC)
    assert code == 0
    cls = pic_class(LineBundle(Fraction(3), 2))
    assert payload == {
        "c": "3",
        "degree": 2,
        "kind": "line",
        "m": 2,
        "pic": {"c": scalar_to_str(cls.c), "m": cls.m},
        "rank_A": 1,
        "rank_S": 2,
    }


def test_mod_info_torsion_text(capsys):
    code, out, _ = run(capsys, "mod", "info", TORSION_DESC)
    assert code == 0
    lines = out.splitlines()
    assert "dim = 2" in lines
    assert "rank_A = 2" in lines
    assert "rank_S = 0" in lines
    assert lines == sorted(lines)


def test_mod_info_strict_flags_unknown_rank(capsys):
    # rank_S is read off the slopes, so the search bounds cannot make it
    # Unknown and --strict has nothing to flag
    code, payload, _ = run_json(capsys, *TIGHT, "mod", "info", MATRIX_DESC)
    assert code == 0
    assert payload["rank_S"] == 1
    code, payload, _ = run_json(capsys, "--strict", *TIGHT, "mod", "info", MATRIX_DESC)
    assert code == 0
    assert payload["rank_S"] == 1


def test_mod_info_strict_trivial_rank_five(capsys):
    # O^5 as the 5x5 identity: the z^0 * C closed form, no cyclic search
    entries = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    desc = json.dumps({"kind": "matrix", "entries": entries})
    code, payload, _ = run_json(capsys, "--strict", "mod", "info", desc)
    assert code == 0
    assert (payload["rank_A"], payload["rank_S"]) == (5, 0)


def test_strict_answers_on_a_module_with_no_cyclic_unit_vector(capsys):
    # O^4 + L(1, 1): rank_S and the Euler form come from a constructed
    # cyclic vector, so --strict has nothing to flag
    entries = [["0"] * 5 for _ in range(5)]
    for i in range(5):
        entries[i][i] = "z" if i == 4 else "1"
    desc = json.dumps({"kind": "matrix", "entries": entries})
    code, payload, _ = run_json(capsys, "--strict", "mod", "info", desc)
    assert code == 0
    assert payload["rank_S"] == 1
    code, out, _ = run(capsys, "--strict", "euler", desc, '{"kind":"line","c":"1","m":1}')
    assert (code, out) == (0, "-4\n")


@pytest.mark.parametrize("argv", [["pic", "class"], ["mod", "info"]])
def test_picard_class_past_the_digit_limit_is_a_usage_error(capsys, argv):
    # the orbit representative of 10 at this q has millions of bits
    start = time.perf_counter()
    code, out, err = run(capsys, "--q=1000003/999983", *argv, '{"kind":"line","c":"10","m":0}')
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: q-orbit representative has more than")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["eval", "z^\u00b2"], ["coh", '{"kind":"matrix","entries":[["z^\u00b2"]]}']]
)
def test_a_digit_that_int_does_not_read_is_a_parse_error(capsys, argv):
    # str.isdigit accepts a superscript two; int() does not
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: expected integer (at position 2)\n")


@pytest.mark.parametrize(
    "desc",
    ['{"kind":"line","c":"10","m":0}', '{"kind":"torsion","blocks":[{"lambda":"10","size":1}]}'],
)
def test_coh_decides_q_powers_at_a_tall_q(capsys, desc):
    # 10 is about 115,000 steps of q = 1000003/999983 from its orbit
    # representative; the q-power test does not walk there
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "--q", "1000003/999983", "coh", desc)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert payload == {"h0": 0, "h1": 0, "chi": 0, "certified": True, "window_used": 0}


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("dual", L32_DESC), lambda: dual(module_from_json(json.loads(L32_DESC)))),
        (
            ("tensor", L32_DESC, L13_DESC),
            lambda: tensor(
                module_from_json(json.loads(L32_DESC)),
                module_from_json(json.loads(L13_DESC)),
            ),
        ),
        (
            ("hom", L32_DESC, TORSION_DESC),
            lambda: hom(
                module_from_json(json.loads(L32_DESC)),
                module_from_json(json.loads(TORSION_DESC)),
            ),
        ),
    ],
)
def test_functor_commands_match_library(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(module_to_json(expected()), sort_keys=True) + "\n"


def test_coh_text_certified(capsys):
    code, out, _ = run(capsys, "--strict", "coh", O_DESC)
    assert code == 0
    assert out == "h0 = 1  h1 = 1  chi = 0  certified = True  window = 0\n"


def test_coh_strict_uncertified(capsys):
    code, payload, _ = run_json(capsys, "coh", GOOD_BAD_DESC)
    assert code == 0
    assert payload == {
        "h0": 0,
        "h1": 1,
        "chi": -1,
        "certified": False,
        "window_used": 16,
    }
    code, out, _ = run(capsys, "--strict", "coh", GOOD_BAD_DESC)
    assert code == 1
    assert "certified = False" in out


def test_coh_honours_search_bounds(capsys):
    # the search bounds feed verify only: coh answers h1 exactly under them
    code, out, _ = run(capsys, "coh", MATRIX_DESC, *TIGHT)
    assert code == 0
    assert out == "h0 = 0  h1 = 1  chi = -1  certified = False  window = 16\n"
    # agrees with mod info under the same bounds
    code, payload, _ = run_json(capsys, "mod", "info", MATRIX_DESC, *TIGHT)
    assert payload["rank_S"] == 1
    code, out, _ = run(capsys, "coh", MATRIX_DESC)
    assert code == 0
    assert out == "h0 = 0  h1 = 1  chi = -1  certified = False  window = 16\n"


def test_coh_large_prime_constant_matrix_answers(capsys):
    # Jordan data would need trial division far past its bound, so the
    # closed form steps aside and the window protocol answers
    desc = '{"kind":"matrix","entries":[["1000000007","0"],["0","998244353"]]}'
    code, out, _ = run(capsys, "coh", desc)
    assert code == 0
    assert out == "h0 = 0  h1 = 0  chi = 0  certified = False  window = 16\n"


def test_euler_text_and_json(capsys):
    code, out, _ = run(capsys, "euler", O_DESC, L13_DESC)
    assert code == 0
    assert out == "-3\n"
    code, payload, _ = run_json(capsys, "euler", O_DESC, L13_DESC)
    assert code == 0
    assert payload == {"chi": -3}


def test_euler_strict_unknown(capsys):
    # the slopes answer whatever the search bounds, so --strict passes
    code, out, _ = run(capsys, "--strict", *TIGHT, "euler", GOOD_BAD_DESC, MATRIX_DESC)
    assert code == 0
    assert out == "-3\n"


def test_pic_eq(capsys):
    code, out, _ = run(
        capsys, "--q", "2", "pic", "eq", '{"kind":"line","c":"4","m":0}', O_DESC
    )
    assert code == 0
    assert out == "true\n"
    code, payload, _ = run_json(
        capsys, "--q", "2", "pic", "eq", L32_DESC.replace('"m":2', '"m":0'), O_DESC
    )
    assert code == 0
    assert payload == {"equal": False}


def test_pic_mul_inv_class(capsys):
    a = pic_class(LineBundle(Fraction(2), 1))
    b = pic_class(LineBundle(Fraction(1), 3))
    prod = pic_mul(a, b)
    code, payload, _ = run_json(
        capsys, "pic", "mul", '{"kind":"line","c":"2","m":1}', L13_DESC
    )
    assert code == 0
    assert payload == {"c": scalar_to_str(prod.c), "m": prod.m}
    inv = pic_inv(pic_class(LineBundle(Fraction(3), 2)))
    code, out, _ = run(capsys, "pic", "inv", L32_DESC)
    assert code == 0
    assert out.splitlines() == [f"c = {scalar_to_str(inv.c)}", f"m = {inv.m}"]
    cls = pic_class(LineBundle(Fraction(3), 2))
    code, payload, _ = run_json(capsys, "pic", "class", L32_DESC)
    assert code == 0
    assert payload == {"c": scalar_to_str(cls.c), "m": cls.m}


def test_pic_missing_second_operand(capsys):
    code, out, err = run(capsys, "pic", "mul", L32_DESC)
    assert code == 2
    assert out == ""
    assert "needs two arguments" in err


def test_verify_cli_matches_library(capsys):
    report = verify_suite("division", cases=20, seed=1)
    code, payload, _ = run_json(
        capsys, "verify", "division", "--cases", "20", "--seed", "1"
    )
    assert code == 0
    assert payload == report
    code, out, _ = run(capsys, "verify", "division", "--cases", "20", "--seed", "1")
    assert code == 0
    assert out == "suite division: 20 cases, 20 passed, 0 skipped (unknown), 0 failed\n"


def test_strict_verify_exits_1_on_a_skipped_case(capsys):
    # riemann_roch at seed 0 skips one case as unknown: a report, not a
    # failure, unless --strict asks for every case to be decided
    line = "suite riemann_roch: 25 cases, 24 passed, 1 skipped (unknown), 0 failed\n"
    assert run(capsys, "verify", "riemann_roch", "--cases", "25") == (0, line, "")
    assert run(capsys, "--strict", "verify", "riemann_roch", "--cases", "25") == (1, line, "")


def test_verify_refuses_a_negative_case_count(capsys):
    code, out, err = run(capsys, "verify", "chi_rank", "--cases", "-5")
    assert (code, out) == (2, "")
    assert err == "error: cases must be >= 0, got -5\n"


def test_a_failing_suite_case_exits_1_with_a_fail_line(capsys, monkeypatch):
    def failing(rng, ci, bounds):
        return {1: "broken identity", 2: qec.suites.SKIPPED}.get(ci)

    monkeypatch.setitem(qec.suites._SUITES, "division", failing)
    code, out, err = run(capsys, "verify", "division", "--cases", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "suite division: 3 cases, 1 passed, 1 skipped (unknown), 1 failed",
        "  FAIL case 1: broken identity",
    ]


def test_mod_info_good_reports_sigma_and_z_goodness(capsys):
    code, payload, _ = run_json(capsys, "mod", "info", GOOD_BAD_DESC)
    assert code == 0
    assert payload == {
        "kind": "good",
        "p": "-s^-1 + z - s",
        "rank_A": 2,
        "rank_S": 1,
        "sigma_good": True,
        "z_good": False,
    }
    code, payload, _ = run_json(capsys, "mod", "info", '{"kind":"good","p":"z + 2*s"}')
    assert code == 0
    assert (payload["sigma_good"], payload["z_good"]) == (True, True)


def test_verify_suite_passes_its_bounds_to_every_search(monkeypatch):
    # the suites' annihilator search runs under the suite's bounds, never
    # under the defaults
    seen = []
    search = qec.suites.cyclic_presentation

    def spy(T, bounds=None):
        seen.append(bounds)
        return search(T, bounds)

    monkeypatch.setattr(qec.suites, "cyclic_presentation", spy)
    tight = SearchBounds(1, 0)
    for name in ("riemann_roch", "serre", "chi_rank"):
        verify_suite(name, cases=25, seed=1, bounds=tight)
    assert seen
    assert all(b is tight for b in seen)


def test_certificate_failure_exits_1(capsys, monkeypatch):
    def broken(M, bounds=None):
        raise CertificateFailure("window solution fails")

    monkeypatch.setattr(qec.cli, "cohomology", broken)
    code, out, err = run(capsys, "coh", MATRIX_DESC)
    assert (code, out, err) == (1, "", "error: window solution fails\n")


def test_pic_eq_certificate_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(qec.modules, "q_power_class", lambda c: None)
    code, out, err = run(capsys, "pic", "eq", L32_DESC, L32_DESC)
    assert (code, out) == (1, "")
    assert err == "error: orbit representatives disagree with 1\n"


def test_euler_certificate_failure_exits_1(capsys, monkeypatch):
    # halved slopes: L(1, 3) against O then sums to 3/2, no integer
    # (the package exports the function cohomology under the module's name)
    module = sys.modules["qec.cohomology"]
    real = module.slopes
    monkeypatch.setattr(module, "slopes", lambda M: tuple(
        [(lam / 2, n) for lam, n in polygon] for polygon in real(M)))
    code, out, err = run(capsys, "euler", L13_DESC, O_DESC)
    assert (code, out) == (1, "")
    assert err == "error: slope sum 3/2 is not an integer\n"


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not_a_suite"])
    assert exc.value.code == 2


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "descriptor,fragment",
    [
        ("not json", "bad module descriptor"),
        ('"quoted"', "must be a JSON object"),
        ('{"kind":"nope"}', "unknown module kind"),
        ('{"kind":"line","c":5,"m":1}', "'c' must be of type str"),
        ('{"kind":"line","c":"2","m":"x"}', "'m' must be of type int"),
        ('{"kind":"line","c":"1/0","m":1}', "bad scalar '1/0'"),
        ('{"kind":"line","c":"abc","m":1}', "bad scalar 'abc'"),
        ('{"kind":"line","c":"2","m":1.5}', "'m' must be of type int"),
        ('{"kind":"line","c":"2","m":true}', "'m' must be of type int"),
        ('{"kind":"line","c":"2"}', "'m' must be of type int"),
        ('{"kind":"torsion","blocks":[{"lambda":"2","size":false}]}', "'size'"),
        ('{"kind":"torsion","blocks":["2"]}', "'lambda' must be of type str"),
        ('{"kind":"good","p":1}', "'p' must be of type str"),
        ('{"kind":"matrix","entries":"z"}', "'entries' must be of type list"),
        ('{"kind":"matrix","entries":[["z", 1]]}', "list of lists of str"),
    ],
)
def test_bad_descriptor_errors(capsys, descriptor, fragment):
    code, out, err = run(capsys, "mod", "info", descriptor)
    assert code == 2
    assert out == ""
    assert fragment in err


def test_pic_class_of_a_torsion_module_is_usage_error(capsys):
    code, out, err = run(capsys, "pic", "class", TORSION_DESC)
    assert (code, out) == (2, "")
    assert "no pic class" in err


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "--output", "json", "coh", GOOD_BAD_DESC)
    second = run(capsys, "--output", "json", "coh", GOOD_BAD_DESC)
    assert first == second
    first = run(capsys, "--output", "json", "mod", "info", L32_DESC)
    second = run(capsys, "--output", "json", "mod", "info", L32_DESC)
    assert first == second


# -- one parser, built once ----------------------------------------------------

LEAVES = [["eval"], ["div"], ["mod", "info"], ["dual"], ["tensor"], ["hom"],
          ["coh"], ["euler"], ["pic"], ["verify"]]
COMMON_FLAGS = ["--q", "--output", "--strict", "--bound-sigma", "--bound-z"]


@pytest.mark.parametrize(
    "argv,want",
    [
        (["--output", "json", "eval", "--output", "text", "s*z"], "2*z*s\n"),
        (["--output", "text", "eval", "--output", "json", "s*z"], '{"result": "2*z*s"}\n'),
        (["--q", "3", "eval", "--q", "5", "s*z"], "5*z*s\n"),
    ],
)
def test_a_common_flag_after_the_subcommand_overrides_one_before(capsys, argv, want):
    assert run(capsys, *argv) == (0, want, "")


def test_strict_after_the_subcommand_takes_effect(capsys):
    assert run(capsys, "coh", GOOD_BAD_DESC)[0] == 0
    assert run(capsys, "coh", "--strict", GOOD_BAD_DESC)[0] == 1


@pytest.mark.parametrize(
    "argv,want",
    [
        (["--bound-sigma", "1", "--bound-z", "2", "verify", "division"], (1, 2)),
        (["--bound-sigma", "1", "--bound-z", "2", "verify", "--bound-sigma", "3", "division"], (3, 2)),
        (["--bound-sigma", "1", "--bound-z", "2", "verify", "division", "--bound-z", "4"], (1, 4)),
        (["--bound-sigma", "-1", "--bound-z", "-1", "verify", "division",
          "--bound-sigma", "5", "--bound-z", "0"], (5, 0)),
        (["verify", "division"], (6, 8)),
    ],
)
def test_bounds_after_the_subcommand_override_bounds_before(capsys, monkeypatch, argv, want):
    seen = []

    def spy(suite, cases, seed, bounds):
        seen.append((bounds.deg_sigma, bounds.deg_z))
        return {"suite": suite, "cases": 0, "passed": 0, "skipped_unknown": 0, "failures": []}

    monkeypatch.setattr(qec.cli, "verify_suite", spy)
    assert run(capsys, *argv)[0] == 0
    assert seen == [want]


@pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
def test_every_leaf_help_lists_the_common_flags(capsys, leaf):
    with pytest.raises(SystemExit) as exc:
        main([*leaf, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qec " + " ".join(leaf))
    for flag in COMMON_FLAGS:
        assert f"  {flag} " in out


def test_parser_is_built_once_and_not_at_import(monkeypatch):
    assert qec.cli.build_parser() is qec.cli.build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = importlib.util.find_spec("qec.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert built == []
    assert fresh.build_parser.cache_info().currsize == 0
    fresh.build_parser()
    assert built


class _ThreadStdout:
    """A stdout that keeps what each thread prints apart."""

    def __init__(self):
        self.local = threading.local()

    def buffer(self):
        if not hasattr(self.local, "buf"):
            self.local.buf = io.StringIO()
        return self.local.buf

    def write(self, text):
        return self.buffer().write(text)

    def flush(self):
        pass


def test_concurrent_main_calls_keep_their_own_q_and_output(monkeypatch):
    out = _ThreadStdout()
    monkeypatch.setattr(sys, "stdout", out)
    start = threading.Barrier(8)
    wrong = []

    def worker(i):
        q, fmt = str(i + 3), ("json", "text")[i % 2]
        flags = ["--q", q, "--output", fmt]
        argv = [*flags, "eval", "s*z"] if i < 4 else ["eval", *flags, "s*z"]
        want = f"{q}*z*s"
        want = json.dumps({"result": want}) + "\n" if fmt == "json" else want + "\n"
        start.wait()
        for _ in range(100):
            buf = out.buffer()
            buf.seek(0)
            buf.truncate()
            code = main(list(argv))
            if (code, buf.getvalue()) != (0, want):
                wrong.append((i, code, buf.getvalue()))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
    assert get_q() == 2


# -- fuzz: any descriptor or expression answers, or exits 1 or 2 with a message --

_SCALARS = st.sampled_from(["1", "2", "3", "-1", "1/3", "-2/3", "5/7"])
_BAD_SCALARS = st.sampled_from(["0", "1/0", "abc", "", "2.5"])
_WRONG = st.one_of(st.integers(-3, 3), st.booleans(), st.none(), st.floats(allow_nan=False),
                   st.just([]), st.just({}))
_ATOMS = st.sampled_from(["z", "s", "q", "z^-1", "s^-1", "1", "2", "-3", "1/2"])
_EXPRS = st.recursive(
    _ATOMS,
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from([" + ", " - ", "*"]), e).map("".join),
        st.tuples(e, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=6,
)
# with a digit int() does not read (superscript two), one it does (Arabic-Indic
# three), a tab and a no-break space
_JUNK = st.text(alphabet="zsq0123+-*^()/ ,.\u00b2\u0663\t\u00a0", max_size=10)
_SIGMA_GOOD = st.sampled_from(
    ["s - 2", "s^2 - 3*s + 2", "z - s - s^-1", "s + z", "(1 + z)*s + 1", "s^-1 + 3 + z^2*s"])
_Z_LAURENT = st.sampled_from(["0", "1", "z", "-2*z^-1", "1 + z", "z^2 - 3"])
_UNIT = st.tuples(st.sampled_from(["1", "-2", "1/3"]), st.integers(-2, 2)).map(
    lambda t: f"{t[0]}*z^{t[1]}")


def _descriptor(fields):
    """The four kinds, each field drawn from fields[kind][name]."""
    return st.one_of(
        *(st.fixed_dictionaries({"kind": st.just(kind), **named}) for kind, named in fields.items()))


# well formed: triangular matrices with a monomial diagonal have a unit det
_VALID = _descriptor({
    "line": {"c": _SCALARS, "m": st.integers(-3, 3)},
    "torsion": {"blocks": st.lists(
        st.fixed_dictionaries({"lambda": _SCALARS, "size": st.integers(1, 2)}),
        min_size=1, max_size=2)},
    "good": {"p": _SIGMA_GOOD},
    "matrix": {"entries": st.tuples(_UNIT, _Z_LAURENT, _UNIT).map(
        lambda t: [[t[0], t[1]], ["0", t[2]]])},
})
# malformed: wrong field types, bad scalars, arbitrary expressions and shapes
_ENTRY = st.one_of(_ATOMS, _EXPRS, _JUNK, _WRONG)
_MALFORMED = _descriptor({
    "line": {"c": st.one_of(_SCALARS, _BAD_SCALARS, _WRONG),
             "m": st.one_of(st.integers(-3, 3), _WRONG)},
    "torsion": {"blocks": st.one_of(
        st.lists(st.fixed_dictionaries(
            {"lambda": st.one_of(_SCALARS, _BAD_SCALARS, _WRONG),
             "size": st.one_of(st.integers(-1, 3), _WRONG)}), max_size=2),
        st.lists(_SCALARS, max_size=1), _WRONG)},
    "good": {"p": st.one_of(_EXPRS, _JUNK, _WRONG)},
    "matrix": {"entries": st.one_of(
        st.integers(1, 2).flatmap(lambda n: st.lists(
            st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)),
        st.lists(st.lists(_ENTRY, max_size=2), max_size=2), _WRONG)},
})
_DESCRIPTORS = st.one_of(
    _VALID.map(json.dumps),
    _VALID.map(json.dumps),
    _MALFORMED.map(json.dumps),
    st.sampled_from(['{"kind":"nope"}', "[]", "3", "not json", '{"kind":"line"}', "{"]),
)


@st.composite
def _requests(draw):
    q = draw(st.sampled_from(["2", "3", "-1/2"]))
    command = draw(st.sampled_from(
        ["mod info", "coh", "dual", "tensor", "hom", "euler", "pic", "eval"]))
    if command == "eval":
        args = [draw(st.one_of(_EXPRS, _SIGMA_GOOD, _JUNK))]
    elif command == "pic":
        args = [draw(st.sampled_from(["class", "inv", "mul", "eq"]))]
        args += draw(st.lists(_DESCRIPTORS, min_size=1, max_size=2))
    else:
        arity = 2 if command in ("tensor", "hom", "euler") else 1
        args = [draw(_DESCRIPTORS) for _ in range(arity)]
    output = draw(st.sampled_from(["text", "json"]))
    strict = ["--strict"] if draw(st.booleans()) else []
    return [f"--q={q}", "--output", output, *strict, *command.split(), *args]


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_requests())
def test_cli_fuzz_answers_or_exits_with_a_message(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert out.getvalue() == "", argv
    assert get_q() == 2
