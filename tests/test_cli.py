"""Command line: exit codes, normal forms, verification targets, suite output."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest

from adamsrr import cli
from adamsrr import expr as E
from adamsrr import rewrite as R
from adamsrr import splitting as S
from adamsrr import suite as SU
from adamsrr.cli import EXIT_FALSIFIED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from adamsrr.rewrite import parse_trace_json, revalidate_trace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_theta_of_line(capsys):
    code, out, _ = run(capsys, "normalize", "theta(2, L)")
    assert code == EXIT_OK
    assert out.strip() == "1 + L"


def test_normalize_det_rf_of_theta_of_a_virtual_class(capsys):
    code, out, _ = run(capsys, "normalize", "det_rf(f, theta(2, L + M - 1))")
    assert code == EXIT_OK
    assert out.strip() == \
        "det_rf[f](theta(2, L + M - 1)) | grade= 2*chi[f](1) + chi[f](L) + chi[f](M)"


def test_normalize_det_rf_triviality(capsys):
    code, out, _ = run(capsys, "normalize", "det_rf(f, (H0-H1)^3 (x) H)", "--n", "1")
    assert code == EXIT_OK
    assert out.startswith("1 (trivial)")


def test_normalize_det_rf_non_trivial(capsys):
    code, out, _ = run(capsys, "normalize", "det_rf(f, (H0-H1)^2 (x) H)", "--n", "1")
    assert code == EXIT_OK
    assert "det_rf[f]" in out


@pytest.mark.parametrize("text,normal_form", [
    ("det_rf (f, A)", "det_rf[f](A) | grade= chi[f](1) + chi[f](A)"),
    ("det_rf(f, A - B) (x) det_rf(f, B)^-2",
     "det_rf[f](A) (x) det_rf[f](B)^-3 | grade= -2*chi[f](1) + chi[f](A) - 3*chi[f](B)"),
    # below multiplicity n+2 = 3 the rank-zero factor is kept, and cancels only itself
    ("det_rf(f, (H0-H1)^2 (x) H)^-1", "det_rf[f]((H0 - H1)^2 (x) H)^-1 | grade= 0"),
    ("det_rf(f, (H0-H1)^2 (x) H) (x) det_rf(f, (H0-H1)^2 (x) H)^-1", "1 (trivial) | grade= 0"),
    # O is the unit
    ("det_rf(f, A (x) O)", "det_rf[f](A) | grade= chi[f](1) + chi[f](A)"),
    # negative powers of classes of rank 2: with A = 1 + a, ..., (2 + a + b)^-2 (2 + 2c)^-1
    # is (1 - a - b - c)/8 in degrees below 2
    ("det_rf(f, (A + B)^-2 (x) (2 (x) C)^-1)",
     "det_rf[f]((2 (x) C)^-1 (x) (A + B)^-2) | grade= "
     "1/8*chi[f](1) - 1/8*chi[f](A) - 1/8*chi[f](B) - 1/8*chi[f](C)"),
])
def test_normalize_det_line_exact_text(capsys, text, normal_form):
    code, out, err = run(capsys, "normalize", text)
    assert (code, out, err) == (EXIT_OK, normal_form + "\n", "")


def test_normalize_malformed_input_exits_2(capsys):
    code, _, err = run(capsys, "normalize", "theta(2, L")
    assert code == EXIT_USAGE
    assert "position" in err


def test_normalize_strict_decls_reject_unknown(capsys, tmp_path):
    decls = tmp_path / "d.txt"
    decls.write_text("line L;\n")
    code, _, err = run(capsys, "normalize", "theta(2, M)", "--decls", str(decls))
    assert code == EXIT_USAGE
    assert "undeclared" in err


def test_normalize_with_decls_file(capsys, tmp_path):
    decls = tmp_path / "d.txt"
    decls.write_text("line L;\nbundle E rank 2;\nmorphism f dim 1;\n")
    code, out, _ = run(capsys, "normalize", "theta(2, E)", "--decls", str(decls))
    assert code == EXIT_OK
    assert out.strip() == "1 + E.1 + E.2 + E.1*E.2"


def test_normalize_json_format(capsys):
    code, out, _ = run(capsys, "normalize", "psi(2, L)", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["normal_form"] == "L^2"


def test_verify_arr_writes_nine_step_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "verify", "arr", "--n", "1", "--p", "2",
                       "--trace-json", str(trace_path))
    assert code == EXIT_OK
    assert "status: verified" in out
    trace = parse_trace_json(trace_path.read_text())
    assert len(trace.steps) == 9
    assert revalidate_trace(trace)


def test_verify_arr_json_format(capsys):
    code, out, _ = run(capsys, "verify", "arr", "--n", "2", "--p", "2",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "verified"
    assert len(doc["steps"]) == 9


@pytest.mark.parametrize("argv", [("arr", "--n", "1", "--p", "2"),
                                  ("arr", "--n", "2", "--p", "3", "--rank", "2"),
                                  ("base-change", "--n", "1", "--p", "3"),
                                  ("km", "--n", "2", "--p", "2")],
                         ids=["arr", "arr-rank-2", "base-change", "km"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_traces_print_tensor_words_without_grades(capsys, tmp_path, argv, fmt):
    # a form's grade is read off its slot classes, so a trace prints none
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(capsys, "verify", *argv, "--format", fmt, "--trace-json", str(trace_path))
    assert code == EXIT_OK
    traces = [trace_path.read_text()] + ([] if argv[0] == "km" else [out])
    trace = parse_trace_json(traces[0])
    assert trace.verified and revalidate_trace(trace)
    assert trace.goal_lhs.startswith(("psi^", "g^*(psi^"))
    for text in traces:
        assert "grade" not in text


def test_verify_mumford_prints_value(capsys):
    code, out, _ = run(capsys, "verify", "mumford", "--n", "3")
    assert code == EXIT_OK
    assert out.strip() == "37"


def test_verify_deligne(capsys):
    code, out, _ = run(capsys, "verify", "deligne")
    assert code == EXIT_OK
    assert "residual: 0" in out


def test_verify_deligne_exact_text(capsys):
    code, out, err = run(capsys, "verify", "deligne")
    assert code == EXIT_OK and err == ""
    assert out == ("residual: 0\n"
                   "both sides: -9*f_!(l*w) + 9*f_!(l^2) + 3/2*f_!(w^2)\n")


def test_verify_deligne_exact_json(capsys):
    code, out, _ = run(capsys, "verify", "deligne", "--format", "json")
    assert code == EXIT_OK
    assert out == ('{"ok": true, "residual": {}, '
                   '"lhs": {"l*w": "-9", "l^2": "9", "w^2": "3/2"}}\n')


@pytest.mark.parametrize("k", range(11))
def test_verify_mumford_exact_output(capsys, k):
    code, out, _ = run(capsys, "verify", "mumford", "--n", str(k))
    assert code == EXIT_OK
    assert out == f"{6 * k * k - 6 * k + 1}\n"
    code, out, _ = run(capsys, "verify", "mumford", "--n", str(k), "--format", "json")
    assert json.loads(out) == {"k": k, "exponent": str(6 * k * k - 6 * k + 1)}


def test_verify_binomial(capsys):
    code, out, _ = run(capsys, "verify", "binomial", "--n", "2", "--p", "5")
    assert code == EXIT_OK
    assert "ok" in out


@pytest.mark.parametrize("target", ["binomial", "arr", "km", "base-change"])
def test_verify_takes_a_61_bit_prime(capsys, target):
    code, _, err = run(capsys, "verify", target, "--n", "1", "--p", str(2**61 - 1))
    assert (code, err) == (EXIT_OK, "")


def test_verify_binomial_json_ascending_terms(capsys):
    code, out, _ = run(capsys, "verify", "binomial", "--n", "1", "--p", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 1, "p": 2, "ok": True, "quotient": "1",
                               "lhs": "-8 + 12*y - 6*y^2 + y^3",
                               "divisor": "-8 + 12*y - 6*y^2 + y^3"}


def test_verify_tau_grid(capsys):
    code, out, _ = run(capsys, "verify", "tau")
    assert code == EXIT_OK
    assert out.count("equal") == 12


@pytest.mark.parametrize("argv,primes", [
    (("verify", "tau", "--p", "3"), [3]),
    (("verify", "tau", "--p=3"), [3]),
    (("verify", "tau"), list(SU.TAU_PRIMES)),
])
def test_verify_tau_runs_the_given_prime_or_all(capsys, argv, primes):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.splitlines() == [f"rank {rk} p {q}: equal"
                                for rk in SU.TAU_RANKS for q in primes]


def test_verify_tau_json_is_the_suite_grid(capsys):
    code, out, _ = run(capsys, "verify", "tau", "--format", "json")
    assert code == EXIT_OK
    assert [(r["rank"], r["p"], r["ok"]) for r in json.loads(out)] == \
        [(rank, p, tau == theta) for rank, p, tau, theta in SU.tau_grid()]


@pytest.mark.parametrize("argv,message", [
    (("verify", "tau", "--rank", "0"), "--rank must be >= 1"),
    (("verify", "tau", "--rank", "-2", "--p", "3"), "--rank must be >= 1"),
    (("verify", "arr", "--rank", "0"), "--rank must be >= 1"),
    (("normalize", "(" * 3000 + "A" + ")" * 3000), "nest deeper"),
    (("normalize", "det_rf(f, " + "(" * 200 + "A" + ")" * 200 + ")"), "nest deeper"),
    (("normalize", "A" + "^1" * 3000), "powers chain longer"),
    # each limit holds, but together they would build 1200 nested powers
    (("normalize", "(" * 60 + "A" + ("^1" * 20 + ")") * 60), "nests deeper"),
    # a det_rf argument is parsed in place, so positions count from the start
    (("normalize", "det_rf(f, A+)"), "unexpected token ')' (at position 12)"),
    (("normalize", "det_rf(f, A) det_rf(f, B)"), "trailing input 'det_rf' (at position 13)"),
    (("normalize", "A (x) det_rf(f, B)"), "expected 'det_rf', found 'A' (at position 0)"),
    (("normalize", "det_rf(f, A)", "--n", "-1"), "--n must be >= 0"),
    # --n gives det_rf's dimension without declarations: with them, or without det_rf, it is unread
    (("normalize", "det_rf(f, (H0-H1)^3 (x) H)", "--decls", "DECLS", "--n", "7"),
     "normalize with --decls does not use --n"),
    (("normalize", "A + B", "--n", "2"), "normalize without det_rf does not use --n"),
    (("normalize", "A", "--decls", "DECLS", "--n", "0"), "normalize with --decls does not use --n"),
    # with --decls every morphism must be declared
    (("normalize", "det_rf(g, (H0-H1)^3 (x) H)", "--decls", "DECLS"), "undeclared morphism 'g'"),
    # a missing token is named by its kind, and the end of input as such
    (("normalize", "A^"), "expected an integer, found end of input (at position 2)"),
    (("normalize", "A +"), "unexpected end of input (at position 3)"),
    (("normalize", "det_rf(f, A) (x)"),
     "expected 'det_rf', found end of input (at position 16)"),
    # INT is a run of ASCII digits; other digits and numerals are no token
    (("normalize", "A^²"), "unexpected character '²' (at position 2)"),
    (("normalize", "ⅫA"), "unexpected character 'Ⅻ' (at position 0)"),
    (("normalize", "psi(２, A)"), "unexpected character '２' (at position 4)"),
    # the first fault in text order is reported: here the 101st parenthesis
    (("normalize", "(" * 101 + "$"), "parentheses nest deeper than 100 (at position 100)"),
    # a morphism name is not declared as a line as well
    (("normalize", "det_rf(f, f)"), "undeclared symbol 'f'"),
    # an operator index below 1 is refused by the parser, at the operator's position
    (("normalize", "psi(0, A)"), "psi index must be >= 1 (at position 0)"),
    (("normalize", "det_rf(f, tau(0, A))"), "tau index must be >= 1 (at position 10)"),
    # theta of a virtual class: a Laurent class needs a truncation, a negative rank is refused
    (("normalize", "theta(2, L + M - 1)"), "needs a truncation"),
    (("normalize", "det_rf(f, theta(2, L - M - 1))"), "theta argument has negative rank -1"),
    # files that cannot be read or written, and undecodable declarations
    (("normalize", "A", "--decls", "DIR"), "Is a directory"),
    (("verify", "arr", "--trace-json", "DIR"), "Is a directory"),
    (("verify", "km", "--trace-json", "DIR"), "Is a directory"),
    (("normalize", "A", "--decls", "LATIN1"),
     "declarations are not UTF-8: invalid continuation byte (at position 13)"),
    # out-of-range numbers in declarations and options
    (("normalize", "det_rf(f, A)", "--decls", "NEGATIVE_DIM"),
     "bad declaration on line 2: 'morphism f dim -1;'"),
    # a number in declarations is a run of ASCII digits, as in expressions
    (("normalize", "A", "--decls", "UNDERSCORE_RANK"), "bad declaration on line 2: 'bundle E rank 1_0;'"),
    (("normalize", "A", "--decls", "SIGNED_RANK"), "bad declaration on line 2: 'bundle E rank +2;'"),
    (("normalize", "det_rf(f, A)", "--decls", "FULLWIDTH_DIM"),
     "bad declaration on line 2: 'morphism f dim ０;'"),
    # a declaration the symbol table refuses names its line and keeps the reason
    (("normalize", "A", "--decls", "RANK_ZERO"),
     "bad declaration on line 2: bundle 'E' must have rank >= 1, got 0"),
    (("normalize", "A", "--decls", "REDECLARED"),
     "bad declaration on line 2: symbol 'A' redeclared as bundle rank 2, was line rank 1"),
    (("verify", "tau", "--p", "0"), "--p 0 is not prime"),
    (("verify", "tau", "--p", "-2"), "--p -2 is not prime"),
    # an option the target does not read is refused, not ignored
    (("verify", "mumford", "--trace-json", "OUT"), "verify mumford does not use --trace-json"),
    (("verify", "deligne", "--trace-json", "OUT"), "verify deligne does not use --trace-json"),
    (("verify", "binomial", "--trace-json", "OUT"), "verify binomial does not use --trace-json"),
    (("verify", "tau", "--trace-json", "OUT"), "verify tau does not use --trace-json"),
    (("verify", "km", "--rank", "2"), "verify km does not use --rank"),
    (("verify", "mumford", "--rank", "1"), "verify mumford does not use --rank"),
    (("verify", "deligne", "--rank", "2"), "verify deligne does not use --rank"),
    (("verify", "binomial", "--rank", "2"), "verify binomial does not use --rank"),
    (("verify", "mumford", "--p", "3"), "verify mumford does not use --p"),
    (("verify", "deligne", "--p", "2"), "verify deligne does not use --p"),
    (("verify", "deligne", "--n", "3"), "verify deligne does not use --n"),
    (("verify", "tau", "--n", "7", "--rank", "1", "--p", "2"), "verify tau does not use --n"),
    (("verify", "arr", "--n", "-1"), "--n must be >= 0"),
    # an integer literal longer than expr.MAX_DIGITS is refused at its position,
    # and so is a declared number that long
    (("normalize", "1" * 5000), "integer longer than 4300 digits (at position 0)"),
    (("normalize", "psi(" + "1" * 5000 + ", A)"), "integer longer than 4300 digits (at position 4)"),
    (("normalize", "A^" + "1" * 5000), "integer longer than 4300 digits (at position 2)"),
    (("normalize", "A", "--decls", "LONG_RANK"), "bad declaration on line 2: 'bundle E rank 111"),
    # over the Laurent term budget: tau_3 of 81 lines (3^81 vectors), theta^5 of 8 lines
    # (5^8 terms), tau_31 of 4 lines (31^4 vectors); and a p past the primality test's bound
    (("normalize", "tau(3, (tau(3, 2))^2)"),
     "tau of a class of 81 lines forms more than 100000 terms without a truncation"),
    (("normalize", "theta(5, A + B + C + D + E + F + G + H)"),
     "theta of a class of 8 lines forms more than 100000 terms without a truncation"),
    (("verify", "tau", "--p", "31", "--rank", "4"),
     "tau of a class of 4 lines forms more than 100000 terms without a truncation"),
    # a power of 5 lines to the 40th has C(44, 4) = 135751 exponent vectors, and its box more points
    (("normalize", "(A + B + C + D + E)^40"),
     "power 40 of a class of 5 terms forms more than 100000 terms without a truncation"),
    (("verify", "binomial", "--p", str(R.PRIME_BOUND)),
     f"primality is decided only below {R.PRIME_BOUND}, not for {R.PRIME_BOUND}"),
])
def test_refused_inputs_exit_2_with_one_line(capsys, tmp_path, argv, message):
    files = {"DECLS": b"bundle H0 rank 2;\nbundle H1 rank 2;\nbundle H rank 3;\nmorphism f dim 2;\n",
             "LATIN1": b"line L;\nline \xe9;\n",
             "NEGATIVE_DIM": b"line A;\nmorphism f dim -1;\n",
             "RANK_ZERO": b"line A;\nbundle E rank 0;\n",
             "REDECLARED": b"line A;\nbundle A rank 2;\n",
             "UNDERSCORE_RANK": b"line A;\nbundle E rank 1_0;\n",
             "SIGNED_RANK": b"line A;\nbundle E rank +2;\n",
             "FULLWIDTH_DIM": "line A;\nmorphism f dim ０;\n".encode(),
             "LONG_RANK": b"line A;\nbundle E rank " + b"1" * 5000 + b";\n"}
    paths = {"DIR": str(tmp_path), "OUT": str(tmp_path / "trace.json")}
    for name, content in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(content)
        paths[name] = str(path)
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "trace.json").exists()


def _raise(error: Exception):
    def raising(*args, **kwargs):
        raise error
    return raising


@pytest.mark.parametrize("argv,patch,kind", [
    (("verify", "binomial", "--n", "90", "--p", "7"),
     (S, "binomial_identity_check",
      _raise(ValueError("Exceeds the limit (4300 digits)\nfor integer string conversion"))),
     "ValueError"),
    (("verify", "arr"),
     (R, "verify_arr_identity", _raise(RecursionError("maximum recursion depth exceeded"))),
     "RecursionError"),
])
def test_internal_errors_exit_3_with_one_line(capsys, monkeypatch, argv, patch, kind):
    monkeypatch.setattr(*patch)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INTERNAL
    assert err.startswith(f"internal error: {kind}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # the witness, and a grade coefficient 2^20000, have more digits than
    # `str` of an int allows by default
    ("verify", "binomial", "--n", "90", "--p", "7"),
    ("normalize", "det_rf(f, 2^20000)"),
    ("normalize", "(2 (x) A)^100000"),
])
def test_exact_results_print_every_digit(capsys, argv):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert len(out) > limit
    assert sys.get_int_max_str_digits() == limit  # restored for the caller


@pytest.mark.parametrize("power,count,total", [
    # squaring would form about 4 * 10^8 term pairs; the multinomial sum has C(402, 2) terms
    ("(A+B+C)^400", comb(402, 2), 3 ** 400),
    # a power of one term is formed at once, of either sign
    ("A^100000000", 1, 1),
    ("A^-100000000", 1, 1),
    # C(502, 2) exponent vectors, but a box of 1001 points: squaring merges the products
    ("(A + dual(A) + 1)^500", 1001, 3 ** 500),
    # exponents in steps of 100: the box's side counts the steps, 1001 points
    ("(A^100 + dual(A)^100 + 1)^500", 1001, 3 ** 500),
    # C(110, 10) exponent vectors; one total degree leaves a box of 1001 points
    ("((A + B)^10)^100", 1001, 2 ** 1000),
])
def test_a_power_forms_only_the_terms_its_bounds_allow(capsys, power, count, total):
    code, out, err = run(capsys, "normalize", power)
    assert (code, err) == (EXIT_OK, "")
    terms = out.strip().split(" + ")
    assert len(terms) == count
    assert sum(int(t.split("*")[0]) if t[0].isdigit() else 1 for t in terms) == total


def test_verify_km(capsys):
    code, out, _ = run(capsys, "verify", "km", "--n", "1", "--p", "2")
    assert code == EXIT_OK
    assert "left exponent p^(n(n+2)+1) = 16" in out


def test_verify_base_change(capsys):
    code, out, _ = run(capsys, "verify", "base-change", "--n", "1", "--p", "2")
    assert code == EXIT_OK
    assert "status: verified" in out


def test_verify_rejects_composite_characteristic(capsys):
    code, _, err = run(capsys, "verify", "arr", "--n", "1", "--p", "4")
    assert code == EXIT_USAGE
    assert "not prime" in err


def test_suite_passes(capsys):
    code, out, _ = run(capsys, "suite")
    assert code == EXIT_OK
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_suite_json_format(capsys):
    code, out, _ = run(capsys, "suite", "--format", "json")
    assert code == EXIT_OK
    cells = json.loads(out)
    assert len(cells) == 9
    assert all(c["ok"] for c in cells)
    assert [c["cell"] for c in cells] == sorted(c["cell"] for c in cells)


def test_suite_fault_injection_names_the_rule(capsys, monkeypatch):
    # R5 tampered at (n, p) = (1, 2) only: the replay cell names the failing rule
    real = R.rule_set

    def tampered(n, p):
        rules = real(n, p)
        if (n, p) == (1, 2):
            rules["R5"] = replace(rules["R5"], action=lambda: E.Tensor(
                (E.Theta(2, E.Bundle(R.OMEGA)), E.Line("L"))))
        return rules

    monkeypatch.setattr(R, "rule_set", tampered)
    code, out, err = run(capsys, "suite")
    assert code == EXIT_FALSIFIED
    assert "FAIL" in out
    assert "R5" in out
    assert "2-arr-replay" in err


def test_suite_deterministic_given_seed(capsys):
    _, out1, _ = run(capsys, "suite", "--seed", "3", "--format", "json")
    _, out2, _ = run(capsys, "suite", "--seed", "3", "--format", "json")
    strip = lambda text: [{k: v for k, v in c.items() if k != "seconds"}
                          for c in json.loads(text)]
    assert strip(out1) == strip(out2)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    run(capsys, "verify", "mumford", "--n", "3")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, "verify", "mumford", "--n", "3")
    assert (code, out) == (EXIT_OK, "37\n")
    assert built == []


def test_main_dispatches_to_the_current_command_functions(capsys, monkeypatch):
    run(capsys, "verify", "mumford", "--n", "3")  # the parser exists before the patch
    monkeypatch.setattr(cli, "cmd_suite", lambda args: EXIT_FALSIFIED)
    assert run(capsys, "suite", "--seed", "0") == (EXIT_FALSIFIED, "", "")


def test_consecutive_calls_share_no_options(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "tau", "--rank", "2", "--p", "3", "--format", "json")
    assert code == EXIT_OK and json.loads(out) == [
        {"rank": 2, "p": 3, "ok": True, "witness": ""}]
    # neither --rank nor --format carries over to the next call
    code, out, _ = run(capsys, "verify", "tau", "--p", "3")
    assert code == EXIT_OK
    assert out == "".join(f"rank {rank} p 3: equal\n" for rank in SU.TAU_RANKS)

    decls = tmp_path / "d.txt"
    decls.write_text("line A;\n")
    assert run(capsys, "normalize", "A", "--decls", str(decls))[:2] == (EXIT_OK, "A\n")
    # without --decls, A is auto-declared and f is a morphism of dimension --n
    code, out, err = run(capsys, "normalize", "det_rf(f, A)")
    assert (code, out, err) == (EXIT_OK, "det_rf[f](A) | grade= chi[f](1) + chi[f](A)\n", "")


def test_usage_error_between_calls_changes_nothing(capsys):
    argv = ("normalize", "psi(2, A) + B (x) C", "--format", "json")
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "nosuch"])
    assert exit_info.value.code == EXIT_USAGE
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
    assert run(capsys, *argv) == before
    assert before[0] == EXIT_OK


@pytest.mark.parametrize("content,message", [
    (b"line A;\nbundle E rank 0;\n",
     "bad declaration on line 2: bundle 'E' must have rank >= 1, got 0"),
    (b"line A;\nline B\n", "declaration missing ';' on line 2"),
    (b"line A;\nmorphism f dim -1;\n", "bad declaration on line 2: 'morphism f dim -1;'"),
], ids=["rank-zero", "missing-semicolon", "negative-dimension"])
def test_declaration_errors_name_their_line_once(capsys, tmp_path, content, message):
    decls = tmp_path / "d.txt"
    decls.write_bytes(content)
    code, out, err = run(capsys, "normalize", "det_rf(f, A)", "--decls", str(decls))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_2_with_nothing_on_stderr(unbuffered):
    # stdout is a pipe whose reading end is closed before the command starts, as
    # `| head -1` closes it once it has its line; development mode would show a
    # warning at shutdown
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "adamsrr.cli", "verify", "arr",
                               "--n", "1", "--p", "2"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, b"")


@pytest.mark.parametrize("argv", [["arr", "--n", "3", "--p", "2", "--rank", "2"],
                                  ["base-change", "--n", "2", "--p", "3"]],
                         ids=["arr-rank-2", "base-change"])
def test_json_traces_do_not_follow_the_hash_seed(argv):
    # nodes hash by identity, so set and dict orders over them follow addresses as
    # well as the seed; the emitted bytes must follow neither
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1234"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "adamsrr.cli", "verify", *argv,
                               "--format", "json"],
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])
