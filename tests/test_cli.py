"""End-to-end command line coverage: outputs, formats, exit codes, determinism."""

import json
import math
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import germtrace
from germtrace import ParseError, format_machine
from germtrace.errors import excerpt
from germtrace.cli import _build_parser, _check_printable_depth, _load_machine, main

from conftest import random_machine, zero_quartet


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFixmeasure:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "fixmeasure", "-m", "grigorchuk", "-s", "d")
        assert code == 0
        assert "machine: grigorchuk" in out
        assert "mu_fix = 4/7" in out
        assert "decay certificate" in out and "PASS" in out
        assert "k = 20" not in out  # default depth is 10

    def test_depth_flag(self, capsys):
        code, out, _ = run(
            capsys, "fixmeasure", "-m", "grigorchuk", "-s", "d", "-K", "4"
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and l.split()[0].isdigit()]
        assert len(rows) == 5

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "fixmeasure", "-m", "grigorchuk", "-s", "d", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,f_k,i_k,P_k,P_k_over_dk_num,P_k_over_dk_den,P_k_over_dk_float"
        assert len(lines) == 12

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "fixmeasure", "-m", "grigorchuk", "-s", "d", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mu_fix"] == {"num": 4, "den": 7}
        assert payload["bracket_holds"] is True
        assert payload["certificate"]["holds"] is True
        assert payload["counts"]["f"][0] == 1
        assert payload["counts"]["P"] == [1, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1]

    def test_state_expression(self, capsys):
        code, out, _ = run(capsys, "fixmeasure", "-m", "grigorchuk", "-s", "b*c")
        assert code == 0
        assert "mu_fix = 4/7" in out


class TestEssfree:
    @pytest.mark.parametrize("machine", ["grigorchuk", "adding", "lamplighter"])
    def test_always_essentially_free(self, capsys, machine):
        code, out, _ = run(capsys, "essfree", "-m", machine)
        assert code == 0
        assert "essentially free: yes" in out
        assert "topologically free: yes" in out

    def test_grigorchuk_rows(self, capsys):
        _, out, _ = run(capsys, "essfree", "-m", "grigorchuk")
        assert "4/7" in out and "2/7" in out and "1/7" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "essfree", "-m", "grigorchuk", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == (
            "state,mu_num,mu_den,mu_float,cert_depth,cert_checks,cert_holds"
        )


class TestHausdorff:
    def test_grigorchuk_witness(self, capsys):
        code, out, _ = run(capsys, "hausdorff", "-m", "grigorchuk")
        assert code == 0
        assert "hausdorff: no" in out
        assert "witness state: d" in out
        assert "witness point: (1)" in out

    @pytest.mark.parametrize("machine", ["adding", "lamplighter"])
    def test_hausdorff_machines(self, capsys, machine):
        code, out, _ = run(capsys, "hausdorff", "-m", machine)
        assert code == 0
        assert "hausdorff: yes" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "hausdorff", "-m", "grigorchuk", "--format", "json")
        payload = json.loads(out)
        assert payload["hausdorff"] is False
        assert payload["witness"]["state"] == "d"
        assert payload["witness"]["point"] == "(1)"


class TestDangerous:
    def test_yes(self, capsys):
        code, out, _ = run(
            capsys, "dangerous", "-m", "grigorchuk", "-x", "(1)"
        )
        assert code == 0
        assert "dangerous: yes" in out

    def test_no(self, capsys):
        code, out, _ = run(
            capsys, "dangerous", "-m", "grigorchuk", "-x", "(0)"
        )
        assert code == 0
        assert "dangerous: no" in out

    def test_lamplighter_boundary_is_safe(self, capsys):
        code, out, _ = run(
            capsys, "dangerous", "-m", "lamplighter", "-x", "(0)"
        )
        assert code == 0
        assert "dangerous: no" in out


class TestTrace:
    def test_values(self, capsys):
        code, out, _ = run(
            capsys, "trace", "-m", "grigorchuk", "-e", "1 d:>"
        )
        assert code == 0
        assert "canonical trace" in out and "isotropy trace" in out
        assert out.count("4/7") >= 2
        assert "difference" in out and " 0" in out

    def test_json(self, capsys):
        _, out, _ = run(
            capsys, "trace", "-m", "grigorchuk", "-e", "1 d:> ; 1 e:>",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["canonical_trace"]["re"] == {"num": 11, "den": 7}
        assert payload["isotropy_trace"] == payload["canonical_trace"]


class TestAlg:
    def test_mult(self, capsys):
        code, out, _ = run(
            capsys, "alg", "mult", "-m", "grigorchuk",
            "-e1", "1 a:>", "-e2", "1 a:>",
        )
        assert code == 0
        assert "1 e:>" in out

    def test_add(self, capsys):
        code, out, _ = run(
            capsys, "alg", "add", "-m", "grigorchuk",
            "-e1", "1 b:> ; i c:>", "-e2", "-1 b:>",
        )
        assert code == 0
        assert "i c:>" in out

    def test_adjoint(self, capsys):
        code, out, _ = run(
            capsys, "alg", "adjoint", "-m", "grigorchuk", "-e", "2i a:0>1",
        )
        assert code == 0
        assert "-2i a:1>0" in out

    def test_iszero(self, capsys):
        code, out, _ = run(
            capsys, "alg", "iszero", "-m", "grigorchuk",
            "-e", "1 d:> ; -1 e:0>0 ; -1 b:1>1",
        )
        assert code == 0
        assert "zero: yes" in out
        code, out, _ = run(
            capsys, "alg", "iszero", "-m", "grigorchuk", "-e", "1 d:> ; -1 e:>"
        )
        assert "zero: no" in out

    def test_issingular(self, capsys):
        code, out, _ = run(
            capsys, "alg", "issingular", "-m", "grigorchuk",
            "-e", "1 d:> ; -1 e:>",
        )
        assert code == 0
        assert "singular: no" in out

    def test_missing_operand_is_domain_error(self, capsys):
        code, _, err = run(capsys, "alg", "mult", "-m", "grigorchuk", "-e1", "1 a:>")
        assert code == 4

    def test_zero_product_table(self, capsys):
        code, out, _ = run(
            capsys, "alg", "mult", "-m", "grigorchuk",
            "-e1", "1 e:00>00", "-e2", "1 e:11>11",
        )
        assert code == 0
        assert out.splitlines()[-1].strip() == "0"


class TestRep:
    BASIS = "e:>;b:>;c:>;d:>"

    def test_matrix(self, capsys):
        code, out, _ = run(
            capsys, "rep", "-m", "grigorchuk", "-e", "1 b:>", "-x", "(1)",
            "--basis", self.BASIS,
        )
        assert code == 0
        assert "closed: yes" in out
        lines = [l.split() for l in out.splitlines()]
        assert ["e", "b", "c", "d"] in lines  # column header
        assert ["b", "1", "0", "0", "0"] in lines
        assert ["d", "0", "0", "1", "0"] in lines

    def test_json_matches_table_semantics(self, capsys):
        _, out, _ = run(
            capsys, "rep", "-m", "grigorchuk", "-e", "1 b:>", "-x", "(1)",
            "--basis", self.BASIS, "--format", "json",
        )
        payload = json.loads(out)
        assert payload["closed"] is True
        assert payload["labels"] == ["e", "b", "c", "d"]
        first = payload["entries"][0][1]
        assert first["re"] == {"num": 1, "den": 1}

    def test_iso_flag(self, capsys):
        code, out, _ = run(
            capsys, "rep", "-m", "grigorchuk", "-e", "1 b:>", "-x", "(1)",
            "--basis", self.BASIS, "--iso", "d:>",
        )
        assert code == 0


    @pytest.mark.parametrize("argv", [
        ("-e", "1 e:>", "--basis", "e:>;e:>"),
        ("-e", "1 e:>", "--basis", "e:>;b:>;c:>;d:>", "--iso", "d:>"),
    ], ids=["repeat", "shared-coset"])
    def test_not_multiplicative_is_not_closed(self, capsys, argv):
        code, out, _ = run(capsys, "rep", "-m", "grigorchuk", "-x", "(1)", *argv)
        assert code == 0
        assert "closed: no" in out


class TestWordproblem:
    def test_identity(self, capsys):
        code, out, _ = run(
            capsys, "wordproblem", "-m", "grigorchuk", "-s", "b*c*d"
        )
        assert code == 0
        assert "identity: yes" in out

    def test_not_identity(self, capsys):
        code, out, _ = run(capsys, "wordproblem", "-m", "grigorchuk", "-s", "a*b")
        assert code == 0
        assert "identity: no" in out


class TestErrorsAndIO:
    def test_parse_error_exit_2(self, capsys):
        assert run(capsys, "trace", "-m", "grigorchuk", "-e", "nonsense")[0] == 2
        assert run(capsys, "fixmeasure", "-m", "no-such.gt", "-s", "d")[0] == 2
        assert run(capsys, "dangerous", "-m", "grigorchuk", "-x", "(2)")[0] == 2

    def test_domain_error_exit_4(self, capsys):
        assert run(capsys, "wordproblem", "-m", "grigorchuk", "-s", "zz")[0] == 4
        assert run(capsys, "fixmeasure", "-m", "grigorchuk", "-s", "zz")[0] == 4

    def test_cap_error_exit_3(self, capsys):
        code, _, err = run(
            capsys, "alg", "iszero", "-m", "grigorchuk",
            "-e", "1 b:> ; -1 c:>", "--cap-patterns", "1",
        )
        assert code == 3

    def test_nonzero_bucket_total_is_answered_under_any_cap(self, capsys):
        """b + c - d sums to 1, so it is not zero whatever the caps; a
        bucket summing to 0 is still walked and refused."""
        code, out, err = run(
            capsys, "alg", "iszero", "-m", "grigorchuk", "-e", "1 b:>;1 c:>;-1 d:>",
            "--cap-patterns", "1", "--cap-states", "1")
        assert (code, err) == (0, "")
        assert "is_zero: no" in out
        code, out, err = run(
            capsys, "alg", "iszero", "-m", "grigorchuk", "-e", "1 b:>;1 c:>;-2 d:>",
            "--cap-patterns", "1")
        assert (code, out) == (3, "")
        assert err == ("error: pattern search on a bucket of 3 terms (3 term pairs) "
                       "reached 2 joint states, more than the cap of 1; raise the "
                       "pattern cap to decide this element\n")

    def test_error_message_on_stderr(self, capsys):
        _, out, err = run(capsys, "wordproblem", "-m", "grigorchuk", "-s", "zz")
        assert out == ""
        assert "zz" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "essfree", "-m", "grigorchuk", "--format", "json",
            "-o", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["essentially_free"] is True

    def test_machine_from_path(self, capsys, tmp_path):
        src = tmp_path / "odometer.gt"
        src.write_text("alphabet 2\nstate a perm 1 0 to e a\n")
        code, out, _ = run(capsys, "hausdorff", "-m", str(src))
        assert code == 0
        assert "hausdorff: yes" in out

    def test_element_from_file(self, capsys, tmp_path):
        src = tmp_path / "elem.gt"
        src.write_text("1 d:>\n-1 e:0>0\n-1 b:1>1\n")
        code, out, _ = run(
            capsys, "alg", "iszero", "-m", "grigorchuk", "-e", str(src)
        )
        assert code == 0
        assert "zero: yes" in out


class TestHostileInput:
    """Bad input exits 2 with a message on stderr, never a traceback."""

    def assert_parse_error(self, capsys, *argv, needle=""):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err and needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--cap-states", "--cap-patterns"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_cap(self, capsys, flag, value):
        argv = {"--cap-states": ("fixmeasure", "-m", "grigorchuk", "-s", "b"),
                "--cap-patterns": ("alg", "iszero", "-m", "grigorchuk", "-e", "1 b:>")}
        self.assert_parse_error(capsys, *argv[flag], flag, value, needle=flag)

    @pytest.mark.parametrize("argv", [
        ("essfree", "-m", "grigorchuk", "--cap-states", "1"),
        ("hausdorff", "-m", "grigorchuk", "--cap-states", "1"),
        ("dangerous", "-m", "grigorchuk", "-x", "(1)", "--cap-states", "1"),
        ("fixmeasure", "-m", "grigorchuk", "-s", "b", "--cap-patterns", "1"),
        ("wordproblem", "-m", "grigorchuk", "-s", "a", "--cap-patterns", "1"),
    ], ids=["essfree", "hausdorff", "dangerous", "fixmeasure", "wordproblem"])
    def test_cap_flag_only_where_it_bounds_work(self, capsys, argv):
        self.assert_parse_error(capsys, *argv, needle=argv[-2])

    @pytest.mark.parametrize("flag, part", [
        ("--basis", "e:0>0"),
        ("--iso", "d:0>0"),
        ("--basis", "b:" + "0" * 3000 + ">" + "0" * 3000),
    ], ids=["basis", "iso", "long"])
    def test_rep_names_the_part_off_the_point(self, capsys, flag, part):
        argv = {"--basis": ("--basis", f"b:>; {part}"),
                "--iso": ("--basis", "e:>;b:>", "--iso", f"d:>;{part}")}[flag]
        code, out, err = run(capsys, "rep", "-m", "grigorchuk", "-e", "1 b:>",
                             "-x", "(1)", *argv)
        assert code == 4 and out == ""
        assert err.startswith(f"error: {flag} part {excerpt(part)}: ")
        assert "outside the source cylinder" in err and "Traceback" not in err
        assert len(err) < 300

    def test_term_far_below_another_is_decided(self, capsys):
        """A term 200 letters below another splits 200 cylinders, not the
        2^200 of a common depth: decided at once under small caps."""
        deep = "0" * 200
        code, out, err = run(capsys, "alg", "iszero", "-m", "grigorchuk",
                             "-e", f"1 b:>;1 c:{deep}>{deep}",
                             "--cap-patterns", "5", "--cap-states", "5")
        assert (code, err) == (0, "")
        assert "is_zero: no" in out

    def ternary_file(self, tmp_path):
        """A seeded 24-state ternary machine (q0 .. q23, identity q24) with
        the four states q25 .. q28 of a zero quartet added."""
        quartet = zero_quartet(random.Random(5), random_machine(random.Random(7), 24, 3))
        path = tmp_path / "ternary.gt"
        path.write_text(format_machine(quartet.machine), encoding="utf-8")
        return str(path)

    def test_doubling_element_answered_under_a_small_pattern_cap(self, capsys, tmp_path):
        """sum 2^i (s_i - t_i) over six distinct states walks 267 joint
        states, but its first bottom component already answers: no under
        a pattern cap of 64, where a search of the whole walk exits 3."""
        code, out, err = run(capsys, "alg", "iszero", "-m", self.ternary_file(tmp_path),
                             "-e", "1 q0:>;-1 q1:>;2 q2:>;-2 q3:>;4 q4:>;-4 q5:>",
                             "--cap-patterns", "64")
        assert (code, err) == (0, "")
        assert "is_zero: no" in out

    def test_zero_element_refused_below_its_walk(self, capsys, tmp_path):
        """A zero element is answered only after its whole walk of 56
        joint states: refused (exit 3) under a cap of 55, yes under 56."""
        argv = ("alg", "iszero", "-m", self.ternary_file(tmp_path),
                "-e", "3 q25:>;-3 q26:>;-3 q27:>;3 q28:>", "--cap-patterns")
        code, out, err = run(capsys, *argv, "55")
        assert (code, out) == (3, "")
        assert err == ("error: pattern search on a bucket of 4 terms (6 term pairs) "
                       "reached 56 joint states, more than the cap of 55; raise the "
                       "pattern cap to decide this element\n")
        code, out, err = run(capsys, *argv, "56")
        assert (code, err) == (0, "")
        assert "is_zero: yes" in out

    def test_non_integer_cap(self, capsys):
        self.assert_parse_error(capsys, "fixmeasure", "-m", "grigorchuk",
                                "-s", "b", "--cap-states", "abc",
                                needle="--cap-states")

    @pytest.mark.parametrize("argv", [
        ("essfree", "-m", "{dir}"),
        ("trace", "-m", "grigorchuk", "-e", "{dir}"),
        ("alg", "mult", "-m", "grigorchuk", "-e1", "{dir}", "-e2", "1 a:>"),
        ("alg", "add", "-m", "grigorchuk", "-e1", "1 a:>", "-e2", "{dir}"),
        ("fixmeasure", "-m", "grigorchuk", "-s", "d", "-o", "{dir}"),
    ], ids=["machine", "element", "element1", "element2", "output"])
    def test_directory_as_file(self, capsys, tmp_path, argv):
        argv = [a.format(dir=tmp_path) for a in argv]
        self.assert_parse_error(capsys, *argv, needle=str(tmp_path))

    def test_undecodable_file(self, capsys, tmp_path):
        src = tmp_path / "binary.gt"
        src.write_bytes(b"\xff\xfe\x00alphabet 2\n")
        self.assert_parse_error(capsys, "hausdorff", "-m", str(src),
                                needle="UTF-8")

    def test_deeply_nested_expression(self, capsys):
        expr = "(" * 2000 + "a" + ")" * 2000
        self.assert_parse_error(capsys, "wordproblem", "-m", "grigorchuk",
                                "-s", expr, needle="nested too deeply")
        self.assert_parse_error(capsys, "trace", "-m", "grigorchuk",
                                "-e", f"1 {expr}:>", needle="nested too deeply")

    @pytest.mark.parametrize("argv, needle", [
        (("trace", "-m", "grigorchuk", "-e", "1 " + "(" * 2000 + "a" + ")" * 2000 + ":>"),
         "nested too deeply"),
        (("wordproblem", "-m", "grigorchuk", "-s", "a" + " )" * 3000), "trailing input"),
        (("trace", "-m", "grigorchuk", "-e", "1/" + "2" * 3000 + "x a:>"), "bad scalar"),
        (("trace", "-m", "grigorchuk", "-e", "x" * 5000), "expected '<scalar> <shift>'"),
        (("trace", "-m", "grigorchuk", "-e", "1 a:" + "0" * 3000 + ">x"), "bad word"),
        (("dangerous", "-m", "grigorchuk", "-x", "0" * 5000), "must look like u(v)"),
        (("essfree", "-m", "{file}"), "unrecognised directive"),
    ], ids=["expression", "trailing", "scalar", "term", "word", "point", "machine"])
    def test_long_input_is_quoted_as_excerpt(self, capsys, tmp_path, argv, needle):
        src = tmp_path / "long.gt"
        src.write_text("alphabet 2\n" + "z" * 5000 + "\n")
        code, out, err = run(capsys, *[a.replace("{file}", str(src)) for a in argv])
        assert code == 2 and out == ""
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err
        assert len(err) < 300


    @pytest.mark.parametrize("argv", [
        ("trace", "-m", "grigorchuk", "-e", "1" * 5000 + " a:>"),
        ("trace", "-m", "grigorchuk", "-e", "1/" + "1" * 5000 + " a:>"),
        ("essfree", "-m", "{file}"),
        ("wordproblem", "-m", "grigorchuk", "-s", "a", "--cap-states", "1" * 5000),
    ], ids=["numerator", "denominator", "alphabet", "cap"])
    def test_numeral_past_digit_limit(self, capsys, tmp_path, argv):
        src = tmp_path / "wide.gt"
        src.write_text("alphabet " + "9" * 5000 + "\n")
        code, out, err = run(capsys, *[a.replace("{file}", str(src)) for a in argv])
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err
        assert "1" * 41 not in err and "9" * 41 not in err


    @pytest.mark.parametrize("argv", [
        ("-K", "9" * 50),
        ("-K", "100000", "--format", "csv"),
        ("-K", "14285"),  # 2^14285 has 4301 digits
    ], ids=["fifty-nines", "csv", "first-too-deep"])
    def test_depth_too_deep_to_print(self, capsys, argv):
        start = time.perf_counter()
        self.assert_parse_error(capsys, "fixmeasure", "-m", "grigorchuk", "-s", "a",
                                *argv, needle="decimal digits")
        assert time.perf_counter() - start < 5

    def test_printable_depth_boundary(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no digit limit in this interpreter")
        for d in (2, 3, 10):
            deepest = int(limit / math.log10(d)) - 3
            sys.set_int_max_str_digits(0)  # count digits past the limit
            try:
                while len(str(d ** (deepest + 1))) <= limit:
                    deepest += 1
            finally:
                sys.set_int_max_str_digits(limit)
            _check_printable_depth(d, deepest)
            with pytest.raises(ParseError):
                _check_printable_depth(d, deepest + 1)

    def test_negative_depth(self, capsys):
        self.assert_parse_error(capsys, "fixmeasure", "-m", "grigorchuk", "-s", "d",
                                "-K", "-1", needle="depth must be >= 0")

    def test_output_under_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        self.assert_parse_error(capsys, "fixmeasure", "-m", "grigorchuk", "-s", "d",
                                "-o", str(target),
                                needle=f"error: output file {str(target)!r}: ")
        assert not target.parent.exists()

    def test_alphabet_over_ten_letters(self, capsys, tmp_path):
        """A letter >= 10 cannot be written in a word, so such a machine is
        refused where it is declared."""
        src = tmp_path / "m11.gt"
        src.write_text("alphabet 11\nstate a perm 1 0 2 3 4 5 6 7 8 9 10 to"
                       + " e" * 11 + "\n")
        self.assert_parse_error(capsys, "alg", "mult", "-m", str(src),
                                "-e1", "1 a:>", "-e2", "1 e:9>9",
                                needle="line 1: alphabet must have 2 to 10 letters, got '11'")

    @pytest.mark.parametrize("argv, needle", [
        (("trace", "-m", "grigorchuk", "-e", "1 a:\u0661>\u0660"), "bad word"),
        (("dangerous", "-m", "grigorchuk", "-x", "(\u0661)"), "must look like u(v)"),
        (("wordproblem", "-m", "grigorchuk", "-s", "b|\u0661"), "expected word after '|'"),
        (("hausdorff", "-m", "{dir}/alphabet.gt"), "line 1: expected 'alphabet <d>'"),
        (("hausdorff", "-m", "{dir}/perm.gt"), "line 2: non-integer image"),
    ], ids=["shift", "point", "restriction", "alphabet", "perm"])
    def test_words_and_numerals_take_ascii_digits_only(self, capsys, tmp_path, argv,
                                                        needle):
        (tmp_path / "alphabet.gt").write_text("alphabet \u0662\nstate a perm 1 0 to e a\n",
                                              encoding="utf-8")
        (tmp_path / "perm.gt").write_text("alphabet 2\nstate a perm +1 \u0660 to e a\n",
                                          encoding="utf-8")
        self.assert_parse_error(capsys, *[a.format(dir=tmp_path) for a in argv],
                                needle=needle)

    @pytest.mark.parametrize("argv", [
        ("fixmeasure", "-m", "grigorchuk", "-s", "d", "-K", "\u0663"),
        ("fixmeasure", "-m", "grigorchuk", "-s", "d", "-K", "1_0"),
        ("fixmeasure", "-m", "grigorchuk", "-s", "d", "-K", " 3"),
        ("wordproblem", "-m", "grigorchuk", "-s", "a*b", "--cap-states", "\u0661"),
        ("alg", "iszero", "-m", "grigorchuk", "-e", "1 b:>", "--cap-patterns", "-\u0661"),
    ], ids=["arabic-indic", "underscore", "space", "cap-states", "cap-patterns"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv):
        self.assert_parse_error(capsys, *argv, needle=f"invalid int value: {argv[-1]!r}")

    def test_non_decimal_letter(self, capsys):
        code, out, err = run(capsys, "trace", "-m", "grigorchuk", "-e", "1 a:\u00b2>")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "bad word" in err
        assert "invalid literal" not in err and "Traceback" not in err

    @pytest.mark.parametrize("coeff", ["--1", "+-1", "1--2i", "1+-2i", "-+i"])
    def test_one_sign_per_scalar_part(self, capsys, coeff):
        self.assert_parse_error(capsys, "trace", "-m", "grigorchuk", "-e",
                                f"{coeff} d:>", needle=f"bad scalar {coeff!r}")


BIG = "1" + "0" * 400  # 10^400 is past the float range


class TestFloatRange:
    """A trace part past the float range prints as inf / -inf in the float
    column; the exact column and the exit code are unaffected."""

    @pytest.mark.parametrize("exact,floating", [
        (BIG, "inf"),
        ("-" + BIG, "-inf"),
        (f"1/2+{BIG}i", "0.5+infi"),
        (f"1/2-{BIG}i", "0.5-infi"),
        (f"-{BIG}-{BIG}i", "-inf-infi"),
    ], ids=["real", "negative-real", "imaginary", "negative-imaginary", "both"])
    def test_trace_past_float_range(self, capsys, exact, floating):
        # mu(Fix_e) = 1, so both traces of exact * e are exact
        argv = ("trace", "-m", "grigorchuk", "-e", f"{exact} e:>")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert f"canonical trace = {exact} ({floating})\n" in out
        assert f"isotropy trace  = {exact} ({floating})\n" in out
        assert out.endswith("difference      = 0 (0.0)\n")
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert out == ("functional,value,float\n"
                       f"canonical_trace,{exact},{floating}\n"
                       f"isotropy_trace,{exact},{floating}\n"
                       "difference,0,0.0\n")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        value = germtrace.parse_scalar(exact)
        assert json.loads(out)["canonical_trace"] == {
            part: {"num": f.numerator, "den": f.denominator}
            for part, f in (("re", value.re), ("im", value.im))}


LONG_PRODUCT = "1" + "0" * 3000  # its square has 6,001 digits
DEEP = "0" * 15000  # the trace of e on a cylinder this deep is 1/2^15000
NINES = "9" * 4300  # twice it has 4,301 digits

PAST_DIGIT_LIMIT = {
    "product": (("alg", "mult", "-m", "grigorchuk", "-e1", f"{LONG_PRODUCT} e:>",
                 "-e2", f"{LONG_PRODUCT} e:>"), "product coefficient"),
    "trace": (("trace", "-m", "grigorchuk", "-e", f"1 e:{DEEP}>{DEEP}"),
              "canonical trace"),
    "rep": (("rep", "-m", "grigorchuk", "-e", f"{NINES} e:>;{NINES} e:1>1",
             "-x", "(1)", "--basis", "e:>"), "representation entry (e, e)"),
}


class TestDigitLimit:
    """A value with more decimal digits than Python converts to text is a
    parse-style limit of the output: exit 2, a message naming the value,
    nothing on stdout, and the process-wide limit left alone."""

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("case", sorted(PAST_DIGIT_LIMIT))
    def test_value_past_limit_is_refused(self, capsys, case, fmt):
        argv, what = PAST_DIGIT_LIMIT[case]
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: {what} has more than {limit} decimal digits, "
                       "too many to print\n")
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_value_at_limit_prints(self, capsys, fmt):
        code, out, err = run(capsys, "rep", "-m", "grigorchuk", "-e", f"{NINES} e:>",
                             "-x", "(1)", "--basis", "e:>", "--format", fmt)
        assert (code, err) == (0, "")
        assert NINES in out


class TestCaps:
    @pytest.mark.parametrize("argv", [
        ("wordproblem", "-m", "grigorchuk", "-s", "a*b", "--cap-states", "1"),
        ("alg", "iszero", "-m", "grigorchuk", "-e", "1 b:>; -1 c:>",
         "--cap-patterns", "1"),
    ], ids=["states", "patterns"])
    def test_cap_holds_for_one_call(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        code, out, _ = run(capsys, *argv[:-2])
        assert code == 0 and out

    def test_capped_call_after_uncapped_one_matches_fresh_process(self, capsys):
        """A product cached by an uncapped call is refused under a cap, with
        the text a new interpreter prints."""
        argv = ("wordproblem", "-m", "grigorchuk", "-s", "a*b*a*c", "--cap-states", "3")
        assert run(capsys, *argv[:-2])[0] == 0
        capped = run(capsys, *argv)
        assert capped == (3, "", "error: more than 3 states while building the state "
                                 "expression 'a*b*a*c'\n")
        assert capped == run_fresh(*argv)


class TestDeterminism:
    CASES = [
        ("fixmeasure", "-m", "grigorchuk", "-s", "d"),
        ("essfree", "-m", "lamplighter"),
        ("hausdorff", "-m", "grigorchuk"),
        ("trace", "-m", "adding", "-e", "1 a:>"),
        ("rep", "-m", "grigorchuk", "-e", "1 d:>", "-x", "(1)",
         "--basis", "e:>;b:>;c:>;d:>"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical_runs(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


# the exact bytes of the one-verdict reports, in every format
GRIG = "machine: grigorchuk.gt (5 states, alphabet 2)\n"
VERDICT_REPORTS = {
    ("dangerous", "-m", "grigorchuk", "-x", "(1)"): (
        GRIG + "point: (1)\ndangerous: yes\n",
        "point,dangerous\n(1),yes\n",
        '{\n  "dangerous": true,\n  "machine": "grigorchuk.gt",\n  "point": "(1)"\n}\n'),
    ("dangerous", "-m", "lamplighter", "-x", "01(10)"): (
        "machine: lamplighter.gt (3 states, alphabet 2)\npoint: 01(10)\ndangerous: no\n",
        "point,dangerous\n01(10),no\n",
        '{\n  "dangerous": false,\n  "machine": "lamplighter.gt",\n  "point": "01(10)"\n}\n'),
    ("wordproblem", "-m", "grigorchuk", "-s", "b*c*d"): (
        GRIG + "expression: b*c*d\nidentity: yes\n",
        "expression,identity\nb*c*d,yes\n",
        '{\n  "expression": "b*c*d",\n  "identity": true,\n  "machine": "grigorchuk.gt"\n}\n'),
    ("wordproblem", "-m", "adding", "-s", "a|1"): (
        "machine: adding.gt (2 states, alphabet 2)\nexpression: a|1\nidentity: no\n",
        "expression,identity\na|1,no\n",
        '{\n  "expression": "a|1",\n  "identity": false,\n  "machine": "adding.gt"\n}\n'),
    ("alg", "iszero", "-m", "grigorchuk", "-e", "1 d:> ; -1 e:0>0 ; -1 b:1>1"): (
        GRIG + "is_zero: yes\n",
        "is_zero\nyes\n",
        '{\n  "element": [\n    {\n      "coeff": "1",\n      "shift": "d:>"\n    },\n'
        '    {\n      "coeff": "-1",\n      "shift": "e:0>0"\n    },\n'
        '    {\n      "coeff": "-1",\n      "shift": "b:1>1"\n    }\n  ],\n'
        '  "is_zero": true,\n  "machine": "grigorchuk.gt"\n}\n'),
    ("alg", "issingular", "-m", "grigorchuk", "-e", "2/3 b:01>10 ; i c:1>1"): (
        GRIG + "is_singular: no\n",
        "is_singular\nno\n",
        '{\n  "element": [\n    {\n      "coeff": "i",\n      "shift": "c:1>1"\n    },\n'
        '    {\n      "coeff": "2/3",\n      "shift": "b:01>10"\n    }\n  ],\n'
        '  "is_singular": false,\n  "machine": "grigorchuk.gt"\n}\n'),
}


class TestVerdictReports:
    """dangerous, wordproblem and alg iszero|issingular print one verdict
    each; their table, CSV and JSON bytes are pinned."""

    @pytest.mark.parametrize("argv", sorted(VERDICT_REPORTS), ids=lambda a: a[0])
    def test_bytes(self, capsys, argv):
        for fmt, expected in zip(("table", "csv", "json"), VERDICT_REPORTS[argv]):
            assert run(capsys, *argv, "--format", fmt) == (0, expected, ""), fmt

    @pytest.mark.parametrize("op", ["iszero", "issingular"])
    def test_element_past_digit_limit_is_refused_in_json_only(self, capsys, op):
        """Only JSON prints the element, so only JSON checks that its
        coefficients can be printed: a coefficient past the digit limit
        still gives a verdict in a table or CSV, and exit 2 in JSON."""
        argv = ("alg", op, "-m", "grigorchuk", "-e", f"{NINES} a:> ; {NINES} a:>")
        key = f"is_{op[2:]}"
        limit = sys.get_int_max_str_digits()
        assert run(capsys, *argv) == (0, GRIG + f"{key}: no\n", "")
        assert run(capsys, *argv, "--format", "csv") == (0, f"{key}\nno\n", "")
        assert run(capsys, *argv, "--format", "json") == (
            2, "", f"error: element coefficient has more than {limit} decimal digits, "
                   "too many to print\n")


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_cli.json"


class TestGolden:
    def test_stdout_matches_golden_file(self, capsys):
        """Each command runs twice in this process; the second run reuses
        the bundled machine and its memos and prints the same bytes."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert len(golden) >= 26
        for key, expected in golden.items():
            for _ in range(2):
                code, out, err = run(capsys, *json.loads(key))
                assert (code, err) == (0, ""), key
                assert out.encode() == expected.encode(), key


class TestBundledMachineReuse:
    def test_bundled_machine_is_parsed_once(self):
        machine, name = _load_machine("grigorchuk")
        assert name == "grigorchuk.gt"
        assert _load_machine("grigorchuk.gt")[0] is machine
        assert _load_machine("grigorchuk")[0] is machine
        assert _load_machine("adding")[0] is not machine

    def test_file_is_read_on_every_call(self, tmp_path):
        path = tmp_path / "m.gt"
        path.write_text("alphabet 2\nstate a perm 1 0 to e a\n", encoding="utf-8")
        first = _load_machine(str(path))[0]
        assert _load_machine(str(path))[0] is not first
        path.write_text("alphabet 3\nstate a perm 1 2 0 to e a e\n", encoding="utf-8")
        assert _load_machine(str(path))[0].alphabet_size == 3

    def test_copy_of_bundled_file_prints_the_same_bytes(self, capsys, tmp_path):
        copy = tmp_path / "grigorchuk.gt"
        copy.write_text(resources.files("germtrace.data").joinpath("grigorchuk.gt")
                        .read_text(), encoding="utf-8")
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        commands = [json.loads(key) for key in golden]
        commands = [argv for argv in commands if argv[argv.index("-m") + 1] == "grigorchuk"]
        assert len(commands) >= 10
        for argv in commands:
            from_file = list(argv)
            from_file[argv.index("-m") + 1] = str(copy)
            bundled = run(capsys, *argv)
            assert bundled[0] == 0
            assert run(capsys, *from_file) == bundled, argv


def run_fresh(*argv):
    """(exit code, stdout, stderr) of the command in a new interpreter."""
    src = str(Path(germtrace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "germtrace.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_after_a_rejected_one_match_fresh_processes(self, capsys):
        """The cached parser keeps no state from one main call to the next:
        a call argparse rejects, then a different subcommand, give what
        each gives in a new interpreter."""
        calls = [("fixmeasure", "-m", "grigorchuk", "-s", "d", "-K", "-1"),
                 ("alg", "iszero", "-m", "grigorchuk", "-e", "1 d:>;-1 e:0>0;-1 b:1>1")]
        in_process = [run(capsys, *argv)[:2] for argv in calls]
        assert in_process[0] == (2, "")
        assert in_process[1][0] == 0 and in_process[1][1]
        assert in_process == [run_fresh(*argv)[:2] for argv in calls]
