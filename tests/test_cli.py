import contextlib
import io
import json
import os
import reprlib
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import brute_coherent
from previsions import coherence, crq, events, lp, simulate
from previsions.coherence import Assessment
from previsions.crq import conditional_event
from previsions.events import (
    AtomLimitError,
    EventSyntaxError,
    ImpossibleConditioningError,
    InputError,
    Universe,
)
from previsions.cli import (
    ATOM_CAP_ENV,
    AssessmentDocument,
    DocumentError,
    _exact_text,
    main,
    parse_rational,
    realize,
)


def write_doc(tmp_path, payload, name="assessment.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def coherent_pair_payload():
    return {
        "atoms": ["A", "H", "B", "K"],
        "members": [
            {"quantity": "A", "given": "H", "prevision": "7/10"},
            {"quantity": "B", "given": "K", "prevision": "0.6"},
        ],
    }


def incoherent_compound_payload():
    return {
        "atoms": ["A", "H", "B", "K"],
        "members": [
            {"quantity": "A", "given": "H", "prevision": "1/2"},
            {"quantity": "B", "given": "K", "prevision": "1/2"},
        ],
        "compounds": [
            {"kind": "conjunction", "operands": [0, 1], "prevision": "3/5"}
        ],
    }


class TestRationals:
    def test_fraction_and_decimal_forms(self):
        assert parse_rational("7/10") == F(7, 10)
        assert parse_rational("0.7") == F(7, 10)
        assert parse_rational("2") == F(2)

    def test_malformed(self):
        exponents = ("1e-3", "1E5", "2.5e1", "1e-3000000")
        long_decimal = "0." + "1" * 5000  # past Python's int-string digit limit
        # Underscores, spaces around "/" and non-ASCII digits: forms whose
        # reading by ``Fraction`` differs between Python versions.
        versioned = ("1_000", "1_0/20", "1 / 2", "1/ 2", "\u0661/2", "1/\u0662")
        for bad in ("0.1.2", "1/0", "one half", None, 1.5, long_decimal, *exponents, *versioned):
            with pytest.raises(DocumentError):
                parse_rational(bad)

    def test_digit_limit_boundary(self):
        # Only a text longer than Python's int-string limit is scanned for
        # a digit run over it: a run at the limit passes, one past it is
        # refused, and padding past the limit's length alone is no run.
        limit = sys.get_int_max_str_digits()
        assert parse_rational("0." + "0" * (limit - 1) + "1") == F(1, 10**limit)
        over = "0." + "1" * (limit + 1)
        shown = reprlib.repr(over)
        message = f"rational {shown} has over {limit} digits in a row, Python's limit"
        with pytest.raises(DocumentError) as refused:
            parse_rational(over)
        assert str(refused.value) == message
        assert parse_rational(" " * limit + "1/2" + " " * limit) == F(1, 2)


LIMIT = sys.get_int_max_str_digits()


@st.composite
def rational_texts(draw):
    """Texts of the documented grammar: an optional sign, then ``p``,
    ``p/q``, ``d.``, ``d.d`` or ``.d``, with leading zeros, digit runs up
    to the digit limit, and whitespace around."""
    def digits():
        length = draw(st.one_of(st.integers(1, 6), st.sampled_from([LIMIT - 1, LIMIT])))
        zeros = draw(st.integers(0, length - 1))
        rest = draw(st.text("0123456789", min_size=length - zeros, max_size=length - zeros))
        return "0" * zeros + rest

    form = draw(st.sampled_from(["p", "p/q", "d.", "d.d", ".d"]))
    body = {
        "p": lambda: digits(),
        "p/q": lambda: digits() + "/" + digits(),
        "d.": lambda: digits() + ".",
        "d.d": lambda: digits() + "." + digits(),
        ".d": lambda: "." + digits(),
    }[form]()
    space = st.text(" \t\n\r\x0b\x0c\u2003", max_size=3)
    return draw(space) + draw(st.sampled_from(["", "+", "-"])) + body + draw(space)


class TestRationalGrammar:
    """``parse_rational`` reads the documented grammar as ``Fraction``
    reads it, and refuses what it refused before with the same errors."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(rational_texts())
    @example("1/0")
    @example("-0/0")
    @example(" 00.000 ")
    def test_values_are_fractions(self, text):
        try:
            want = F(text)
        except ZeroDivisionError:
            with pytest.raises(DocumentError) as refused:
                parse_rational(text)
            assert str(refused.value) == f"malformed rational {reprlib.repr(text)}"
        else:
            assert parse_rational(text) == want

    def test_refusals_keep_their_messages(self):
        malformed = (
            "0.1.2", "1/0", "0/0", "one half", "1e-3", "1E5", "2.5e1", "1e-3000000",
            "1_000", "1_0/20", "1 / 2", "1/ 2", "\u0661/2", "1/\u0662",
            "", " ", ".", "-", "+.", "1/", "/2", "1/-2", "--1", ". 5",
        )
        for bad in malformed:
            with pytest.raises(DocumentError) as refused:
                parse_rational(bad)
            assert str(refused.value) == f"malformed rational {reprlib.repr(bad)}"
        for bad in (None, 1.5, True, F(1, 2)):
            with pytest.raises(DocumentError) as refused:
                parse_rational(bad)
            assert str(refused.value) == f"expected a rational string, got {reprlib.repr(bad)}"


class TestCheckCommand:
    def test_coherent_document(self, tmp_path, capsys):
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["check", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "coherent"
        assert payload["trace"][0]["solvable"] is True

    def test_incoherent_compound(self, tmp_path, capsys):
        path = write_doc(tmp_path, incoherent_compound_payload())
        assert main(["check", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "incoherent"
        gains = [F(g) for g in payload["dutch_book"]["gains"]]
        assert all(g < 0 for g in gains) or all(g > 0 for g in gains)

    def test_exponent_prevision_is_refused_at_once(self, tmp_path, capsys):
        payload = coherent_pair_payload()
        payload["members"][0]["prevision"] = "1e-3000000"
        path = write_doc(tmp_path, payload)
        started = time.perf_counter()
        assert main(["check", path]) == 2
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed rational" in captured.err

    def test_malformed_rational_is_validation_error(self, tmp_path, capsys):
        payload = coherent_pair_payload()
        payload["members"][0]["prevision"] = "0.1.2"
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 2
        assert "malformed rational" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prevision, message",
        [
            ("x" * 5000, "malformed rational 'xxx"),
            ("0." + "1" * 5000, f"over {sys.get_int_max_str_digits()} digits in a row"),
        ],
        ids=["long-text", "long-decimal"],
    )
    def test_rational_error_is_one_short_line(self, tmp_path, capsys, prevision, message):
        payload = coherent_pair_payload()
        payload["members"][0]["prevision"] = prevision
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and len(captured.err) < 160
        assert message in captured.err

    def test_event_syntax_error_carries_position(self, tmp_path, capsys):
        payload = coherent_pair_payload()
        payload["members"][0]["quantity"] = "A & ("
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert "member 0" in err and "position 5" in err

    def test_duplicate_atoms_rejected(self, tmp_path, capsys):
        payload = coherent_pair_payload()
        payload["atoms"] = ["A", "A", "H", "B", "K"]
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: atom 'A' is listed twice\n"

    def test_impossible_given_rejected(self, tmp_path, capsys):
        payload = coherent_pair_payload()
        payload["members"][0]["given"] = "H & ~H"
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 2

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/file.json"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            b"{not json",
            b"[" * 100000,
            json.dumps(coherent_pair_payload()).encode().replace(b'"7/10"', b'"7/10\xff"'),
            json.dumps(coherent_pair_payload()).replace('"7/10"', "1" + "0" * 4300).encode(),
        ],
        ids=["malformed", "deeply-nested", "not-utf-8", "integer-past-the-digit-limit"],
    )
    def test_invalid_json(self, text, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON")
        assert captured.err.count("\n") == 1

    def test_value_map_member(self, tmp_path, capsys):
        payload = {
            "atoms": ["V", "H"],
            "members": [
                {
                    "quantity": {"V": "2", "~V": "0"},
                    "given": "H",
                    "prevision": "1/2",
                }
            ],
        }
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 0

    @pytest.mark.parametrize(
        "cells, matched",
        [
            ({"V": "1", "V | H": "2"}, "{'V': True, 'H': True} matched 2 cells"),
            ({"V": "2"}, "{'V': False, 'H': True} matched 0 cells"),
        ],
        ids=["overlapping", "not-covering"],
    )
    def test_value_map_cells_must_partition_given(self, tmp_path, capsys, cells, matched):
        payload = {
            "atoms": ["V", "H"],
            "members": [{"quantity": cells, "given": "H", "prevision": "1/2"}],
        }
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert "member 0: cells must partition the conditioning event" in err
        assert matched in err

    def test_atom_cap_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ATOM_CAP_ENV, "2")
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["check", path]) == 2
        assert "capped" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "quantity", ["&".join(["A"] * 3000), "~" * 3000 + "A"], ids=["and-chain", "not-run"]
    )
    def test_deeply_nested_formula_is_input_error(self, tmp_path, capsys, quantity):
        payload = coherent_pair_payload()
        payload["members"][0]["quantity"] = quantity
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert "member 0" in err and "nested deeper" in err

    def test_failed_self_check_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # A solver that returns a wrong witness trips the report's own
        # verification, which must not read as a verdict.
        solve = lp.solve

        def wrong_witness(rows, rhs, scales):
            result = solve(rows, rhs, scales)
            if result.feasible:
                return lp.LPResult(lp.OPTIMAL, solution=(F(1),) + (F(0),) * (len(rows[0]) - 1))
            return result

        monkeypatch.setattr(lp, "solve", wrong_witness)
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["check", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("internal error: CertificateVerificationError")

    def test_determinism(self, tmp_path, capsys):
        path = write_doc(tmp_path, incoherent_compound_payload())
        main(["check", path])
        first = capsys.readouterr().out
        main(["check", path])
        second = capsys.readouterr().out
        assert first == second


PARTITION_GAP = {"quantity": {"A": "1", "B": "0"}, "given": "H", "prevision": "1/2"}
NAMES_C = {"quantity": "C", "given": "H", "prevision": "1/2"}
UNCOVERED = (
    "cells must partition the conditioning event "
    "(assignment {'A': False, 'B': False, 'H': True} matched 0 cells)"
)


class TestRealizeErrors:
    """``realize`` builds every member from one fold over the document's
    atoms; its errors are still each member's own, word for word, and the
    first member's in document order wins.  A partition error names an
    assignment over its member's atoms only (here never ``C``)."""

    @pytest.mark.parametrize(
        "atoms, members, cap, message",
        [
            (["C", "A", "B", "H"], [PARTITION_GAP, NAMES_C], None, f"member 0: {UNCOVERED}"),
            (["C", "A", "B", "H"], [NAMES_C, PARTITION_GAP], None, f"member 1: {UNCOVERED}"),
            (
                ["C", "A", "B", "H"],
                [PARTITION_GAP, {"quantity": "A &", "given": "H", "prevision": "1"}],
                None,
                f"member 0: {UNCOVERED}",
            ),
            (
                ["A", "B", "H"],
                [PARTITION_GAP, {"quantity": "D", "given": "H", "prevision": "1"}],
                "3",
                f"member 0: {UNCOVERED}",
            ),
            (
                ["A", "H"],
                [
                    {"quantity": "A", "given": "H & ~H", "prevision": "1/2"},
                    {"quantity": "(A", "given": "H", "prevision": "1/2"},
                ],
                None,
                "member 0: conditioning event is impossible",
            ),
            (
                ["C", "H"],
                [NAMES_C, {"quantity": "C", "given": "H & ~H", "prevision": "1/2"}],
                None,
                "member 1: conditioning event is impossible",
            ),
            (
                ["C", "H"],
                [NAMES_C, {"quantity": "C", "given": "H |", "prevision": "1/2"}],
                None,
                "member 1: unexpected end of input (position 3)",
            ),
            (
                ["C", "H"],
                [NAMES_C, {"quantity": "B", "given": "H", "prevision": "1/2"}],
                "2",
                "member 1: universe is capped at 2 atoms",
            ),
        ],
        ids=[
            "partition-over-own-atoms",
            "partition-after-valid",
            "partition-before-syntax",
            "partition-before-atom-cap",
            "impossible-before-syntax",
            "impossible-after-valid",
            "syntax-after-valid",
            "atom-cap-after-valid",
        ],
    )
    def test_message_and_order(self, tmp_path, monkeypatch, atoms, members, cap, message):
        if cap is not None:
            monkeypatch.setenv(ATOM_CAP_ENV, cap)
        path = write_doc(tmp_path, {"atoms": atoms, "members": members})
        assert run_in_process(["check", path]) == (2, "", f"error: {message}\n")


def read_rational(text):
    """A report's rational, however many digits it has."""
    with _exact_text():
        return F(text)


class TestResultsOfAnySize:
    """Previsions within the input guard can have exact results longer
    than Python turns into text by default (4300 digits from 3.10.7 on):
    the report prints them in full and leaves that limit as it was."""

    @pytest.mark.parametrize(
        "command", [["check"], ["extend", "--target", "conjunction:0,0"]], ids=["check", "extend"]
    )
    @pytest.mark.parametrize(
        "previsions",
        [
            ["1/" + str(10**2500 + 7), "1/" + str(10**2500 + 9)],
            ["0." + "1" * 4300, "1/2"],
        ],
        ids=["large-denominators", "long-decimal"],
    )
    def test_report_reproduces_the_previsions(self, tmp_path, capsys, command, previsions):
        payload = {
            "atoms": ["A", "B"],
            "members": [
                {"quantity": atom, "given": "1", "prevision": prevision}
                for atom, prevision in zip("AB", previsions)
            ],
        }
        path = write_doc(tmp_path, payload)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        name, *options = command
        assert main([name, path, *options]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        report = json.loads(capsys.readouterr().out)
        witness = [read_rational(w) for w in report["trace"][0]["witness"]]
        system = Assessment(realize(AssessmentDocument.from_payload(payload))[1]).system
        assert all(w >= 0 for w in witness) and sum(witness) == 1
        paid = [sum(w * value for w, value in zip(witness, point)) for point in zip(*system.points)]
        assert paid == [parse_rational(p) for p in previsions]
        if name == "extend":  # the conjunction of a member with itself is the member
            interval = report["interval"]
            assert read_rational(interval["lower"]) == read_rational(interval["upper"]) == paid[0]


class TestExtendCommand:
    def test_conjunction_target(self, tmp_path, capsys):
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["extend", path, "--target", "conjunction:0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interval"] == {
            "endpoints_verified": True,
            "lower": "3/10",
            "upper": "3/5",
        }

    def test_disjunction_target(self, tmp_path, capsys):
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["extend", path, "--target", "disjunction:0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["interval"]["lower"], payload["interval"]["upper"]) == ("7/10", "1")

    def test_quasi_conjunction_target(self, tmp_path, capsys):
        payload = coherent_pair_payload()
        payload["members"][0]["prevision"] = "1/2"
        payload["members"][1]["prevision"] = "1/2"
        path = write_doc(tmp_path, payload)
        assert main(["extend", path, "--target", "quasi-conjunction:0,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["interval"]["lower"], out["interval"]["upper"]) == ("0", "2/3")

    def test_incoherent_base(self, tmp_path, capsys):
        payload = {
            "atoms": ["A"],
            "members": [
                {"quantity": "A", "given": "1", "prevision": "1/2"},
                {"quantity": "~A", "given": "1", "prevision": "3/5"},
            ],
        }
        path = write_doc(tmp_path, payload)
        assert main(["extend", path, "--target", "conjunction:0,1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "incoherent"

    def test_base_incoherent_only_at_a_deeper_level(self, tmp_path, capsys):
        # Level 1 is solvable with no mass on H; level 2 prices A|H twice.
        payload = {
            "atoms": ["A", "H"],
            "members": [
                {"quantity": "H", "given": "1", "prevision": "0"},
                {"quantity": "A", "given": "H", "prevision": "1/2"},
                {"quantity": "A", "given": "H", "prevision": "1/3"},
            ],
        }
        path = write_doc(tmp_path, payload)
        assert main(["extend", path, "--target", "conjunction:0,1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "incoherent"
        assert [level["solvable"] for level in out["trace"]] == [True, False]
        assert out["interval"] is None

    def test_incoherent_base_reported_before_uncovered_target(self, tmp_path, capsys):
        # The target, conditioned on H, does not cover K; the base's
        # report still wins over that input error.
        payload = incoherent_pair_payload()
        payload["atoms"] += ["B", "K"]
        payload["members"].append({"quantity": "B", "given": "K", "prevision": "1/2"})
        path = write_doc(tmp_path, payload)
        assert main(["check", path]) == 1
        checked = json.loads(capsys.readouterr().out)
        assert main(["extend", path, "--target", "conjunction:0,1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {**checked, "diagnostics": ["base assessment is incoherent"]}

    def test_bad_target_spec(self, tmp_path, capsys):
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["extend", path, "--target", "xor:0,1"]) == 2
        assert main(["extend", path, "--target", "conjunction:0"]) == 2
        assert main(["extend", path, "--target", "conjunction:0,9"]) == 2


def incoherent_pair_payload():
    return {
        "atoms": ["A", "H"],
        "members": [
            {"quantity": "A", "given": "H", "prevision": "1/4"},
            {"quantity": "A", "given": "H", "prevision": "3/4"},
        ],
    }


@pytest.mark.parametrize(
    "members", [coherent_pair_payload, incoherent_pair_payload], ids=["coherent", "incoherent"]
)
class TestMalformedCommandBeforeCheck:
    """A malformed command is an input error whatever the members' verdict."""

    def test_compound_without_prevision(self, tmp_path, capsys, members):
        payload = members()
        payload["compounds"] = [{"kind": "conjunction", "operands": [0, 1]}]
        assert main(["check", write_doc(tmp_path, payload)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("target", ["nonsense", "conjunction:0,9"])
    def test_bad_target(self, tmp_path, capsys, members, target):
        path = write_doc(tmp_path, members())
        assert main(["extend", path, "--target", target]) == 2
        assert capsys.readouterr().out == ""

    @staticmethod
    def value_map_operand(payload):
        # Doubling member 0 and its prevision keeps the members' verdict,
        # but a compound of it is no conditional event.
        first = payload["members"][0]
        first["quantity"] = {"A": "2", "~A": "0"}
        first["prevision"] = str(2 * F(first["prevision"]))
        return payload

    def test_check_compound_of_value_map(self, tmp_path, capsys, members):
        payload = self.value_map_operand(members())
        payload["compounds"] = [{"kind": "conjunction", "operands": [0, 1], "prevision": "0"}]
        assert main(["check", write_doc(tmp_path, payload)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind", ["conjunction", "disjunction", "quasi-conjunction"])
    def test_extend_target_of_value_map(self, tmp_path, capsys, members, kind):
        path = write_doc(tmp_path, self.value_map_operand(members()))
        assert main(["extend", path, "--target", f"{kind}:0,1"]) == 2
        assert capsys.readouterr().out == ""


class TestConjoinCommand:
    def test_case_table(self, tmp_path, capsys):
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["conjoin", path, "--i", "0", "--j", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "conjunction"
        values = sorted(case["value"] for case in payload["cases"])
        assert values == sorted(["1", "0", "7/10", "3/5"])

    def test_index_out_of_range(self, tmp_path, capsys):
        path = write_doc(tmp_path, coherent_pair_payload())
        for i, j in (("0", "7"), ("-1", "1")):
            assert main(["conjoin", path, "--i", i, "--j", j]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1

    def test_incoherent_pair(self, tmp_path, capsys):
        payload = {
            "atoms": ["A"],
            "members": [
                {"quantity": "A", "given": "1", "prevision": "1/4"},
                {"quantity": "A", "given": "1", "prevision": "3/4"},
            ],
        }
        path = write_doc(tmp_path, payload)
        assert main(["conjoin", path, "--i", "0", "--j", "1"]) == 1


class TestConstituentsCommand:
    def test_two_member_family(self, tmp_path, capsys):
        path = write_doc(tmp_path, coherent_pair_payload())
        assert main(["constituents", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["atoms"] == ["A", "H", "B", "K"]
        assert len(payload["inside"]) == 8
        assert payload["outside"]["labels"] == [None, None]


class TestSimulateCommand:
    def test_reproducible_output(self, tmp_path, capsys):
        argv = ["simulate", "--pa", "1/2", "--pac", "1/4", "--trials", "2000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["exact"] == "1/2"
        assert abs(payload["mean"] - 0.5) <= 3 * payload["std_error"]

    def test_sure_antecedent(self, capsys):
        argv = ["simulate", "--pa", "1", "--pac", "1/3", "--trials", "2000", "--seed", "3"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["indeterminate_fraction"] == 0.0
        assert payload["exact"] == "1/3"

    def test_zero_antecedent_rejected(self, capsys):
        argv = ["simulate", "--pa", "0", "--pac", "0", "--trials", "10", "--seed", "1"]
        assert main(argv) == 2

    def test_joint_above_antecedent_rejected(self, capsys):
        argv = ["simulate", "--pa", "1/4", "--pac", "1/2", "--trials", "10", "--seed", "1"]
        assert main(argv) == 2

    @pytest.mark.parametrize("option", ["--trials", "--max-len"])
    def test_nonpositive_run_parameter_rejected(self, capsys, option):
        argv = ["simulate", "--pa", "1/2", "--pac", "1/4", "--seed", "1", option, "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--pa", "1/2", "--pac", "1/4", "--trials", "2000", "--seed", "7"],
                '{\n  "exact": "1/2",\n  "indeterminate_fraction": 0.0,\n'
                '  "mean": 0.512,\n  "seed": 7,\n  "std_error": 0.011179914813969908,\n'
                '  "trials": 2000\n}\n',
            ),
            (
                ["--pa", "0.3", "--pac", "1/10", "--trials", "5000", "--max-len", "3",
                 "--seed", "11"],
                '{\n  "exact": "1/3",\n  "indeterminate_fraction": 0.351,\n'
                '  "mean": 0.34946070878274266,\n  "seed": 11,\n'
                '  "std_error": 0.008371350389068754,\n  "trials": 5000\n}\n',
            ),
        ],
    )
    def test_pinned_stdout(self, capsys, argv, expected):
        # Recorded from the per-assignment sampler the truth-table one replaced.
        assert main(["simulate", *argv]) == 0
        assert capsys.readouterr().out == expected


class TestReportRoundTrip:
    def test_document_parsing_round_trip(self, tmp_path):
        payload = incoherent_compound_payload()
        path = write_doc(tmp_path, payload)
        doc = AssessmentDocument.load(path)
        assert doc.atoms == ("A", "H", "B", "K")
        assert doc.members[1].prevision == F(1, 2)
        assert doc.compounds[0].kind == "conjunction"
        assert doc.compounds[0].operands == (0, 1)

    def test_schema_validation(self, tmp_path):
        for broken in (
            {"members": []},
            {"members": "nope"},
            {"members": [{"quantity": "A"}]},
            {"members": [{"quantity": "A", "given": "H", "prevision": "1/2"}],
             "compounds": [{"kind": "conjunction", "operands": [0]}]},
            {"members": [{"quantity": "A", "given": "H", "prevision": "1/2"}],
             "compounds": [{"kind": "nand", "operands": [0, 0]}]},
            {"members": [{"quantity": "A", "given": "H", "prevision": "1/2"}],
             "compounds": 5},
            {"members": [{"quantity": "A", "given": "H", "prevision": "1/2"}],
             "compounds": True},
            {"members": [{"quantity": "A", "given": "H", "prevision": "1/2"}],
             "compounds": {}},
        ):
            with pytest.raises(DocumentError):
                AssessmentDocument.from_payload(broken)


@st.composite
def check_documents(draw):
    """``check`` documents over 2-4 atoms, heavy in zero-mass members:
    mostly 0/1 previsions on conditionings that often nest."""
    atoms = ["A", "B", "C", "D"][: draw(st.integers(2, 4))]

    def literals(count):
        names = draw(st.lists(st.sampled_from(atoms), min_size=count, max_size=count, unique=True))
        return [name if draw(st.booleans()) else "~" + name for name in names]

    members = []
    for _ in range(draw(st.integers(1, 4))):
        glue = draw(st.sampled_from([" & ", " | ", ""]))
        quantity = glue.join(literals(2)) if glue else literals(1)[0]
        glue = draw(st.sampled_from([" & ", " | "]))
        given = glue.join(literals(draw(st.integers(0, min(3, len(atoms)))))) or "1"
        prevision = draw(st.sampled_from(["0", "1", "0", "1", "1/2", "1/3", "2/3"]))
        members.append({"quantity": quantity, "given": given, "prevision": prevision})
    return {"atoms": atoms, "members": members}


class TestCheckAgainstOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(document=check_documents())
    def test_verdict_and_trace(self, document):
        universe = Universe()
        members = [
            conditional_event(
                universe.parse(m["quantity"]), universe.parse(m["given"]), F(m["prevision"])
            )
            for m in document["members"]
        ]
        expected = brute_coherent(Assessment(members))
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            path = Path(tmp) / "assessment.json"
            path.write_text(json.dumps(document))
            code = main(["check", str(path)])
        assert code == (0 if expected else 1)
        payload = json.loads(out.getvalue())
        assert payload["verdict"] == ("coherent" if expected else "incoherent")
        trace = payload["trace"]
        assert trace[0]["members"] == list(range(len(members)))
        for level, following in zip(trace, trace[1:] + [None]):
            assert set(level["zero_mass"]) <= set(level["members"])
            if following is not None:
                assert following["members"] == level["zero_mass"]


def run_in_process(argv):
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


VALID_MEMBER = {"quantity": "A", "given": "B", "prevision": "1/2"}
KINDS = ["conjunction", "disjunction", "quasi-conjunction"]


@st.composite
def hostile_documents(draw):
    """Documents over at most three atoms and three members; most pieces
    are well-formed, and about one in eight is swapped for a hostile one."""

    def rarely():
        return all(draw(st.booleans()) for _ in range(3))

    def piece(valid, hostile):
        return draw(st.sampled_from(hostile if rarely() else valid))

    if rarely():
        return draw(st.sampled_from([[], "members", 3, None]))
    events = ["A", "~B", "A & C", "B | ~C", "1", "A | B"]
    bad_events = ["0", "A & ~A", "A &", "(B", "@", "D", "", 2, None]
    rationals = ["0", "1", "1/2", "2/3", "0.25", 1, 0]
    bad_rationals = ["2", "-1", "1/0", "1e2", "x", 0.5, True, None, "0." + "1" * 5000]
    maps = [{"A": "1", "~A": "0"}, {"A & B": "2", "~(A & B)": "1/2"}, {"C": "1/3", "~C": "1"}]
    bad_maps = [{}, {"A": "1"}, {"A": "1", "B": "0"}, {"@": "1"}, {"A": "x", "~A": "0"}, 5]

    def member():
        entry = {
            "quantity": piece(events + maps, bad_events + bad_maps),
            "given": piece(events, bad_events),
            "prevision": piece(rationals, bad_rationals),
        }
        if rarely():
            del entry[draw(st.sampled_from(sorted(entry)))]
        return entry

    def compound():
        entry = {
            "kind": piece(KINDS, ["nand", 5, [], {"kind": "conjunction"}]),
            "operands": piece([[0, 1], [1, 2], [0, 0]], [[0], [0, 5], ["0", 1], [True, 0]]),
        }
        if draw(st.booleans()):
            entry["prevision"] = piece(rationals, bad_rationals)
        return entry

    document = {}
    if not rarely():
        document["atoms"] = piece([["A", "B", "C"], ["A", "B"], ["C", "A"]], ["A", [1], None])
    document["members"] = piece(
        [[member() for _ in range(draw(st.integers(1, 3)))]], [[], "A", {}, [5]]
    )
    if draw(st.booleans()):
        compounds = [compound() for _ in range(draw(st.integers(0, 2)))]
        document["compounds"] = piece([compounds], [5, {}, [5]])
    return document


COMMANDS = st.one_of(
    st.just(("check",)),
    st.just(("constituents",)),
    st.builds(
        lambda kind, operands: ("extend", "--target", f"{kind}:{operands}"),
        st.sampled_from([*KINDS, "nand"]),
        st.sampled_from(["0,1", "1,2", "0,0", "0", "a,b", "0,9", ""]),
    ),
    st.builds(
        lambda i, j: ("conjoin", "--i", str(i), "--j", str(j)),
        st.integers(-1, 3),
        st.integers(-1, 3),
    ),
)


class TestHostileDocuments:
    """The exit-code contract on small hostile documents: 0, 1 or 2, never
    3; an input error prints nothing on stdout and one line on stderr."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        document=hostile_documents(),
        command=COMMANDS,
        cap=st.sampled_from([None] * 8 + ["2", "x"]),
    )
    @example(document=[], command=("check",), cap=None)
    @example(document={"atoms": "A", "members": [VALID_MEMBER]}, command=("check",), cap=None)
    @example(document={"members": [5]}, command=("constituents",), cap=None)
    @example(
        document={"members": [{**VALID_MEMBER, "quantity": {}}]}, command=("check",), cap=None
    )
    @example(
        document={"members": [{**VALID_MEMBER, "quantity": 5}]}, command=("check",), cap=None
    )
    @example(document={"members": [{**VALID_MEMBER, "given": 2}]}, command=("check",), cap=None)
    @example(
        document={"members": [VALID_MEMBER], "compounds": [5]}, command=("check",), cap=None
    )
    @example(
        document={"members": [VALID_MEMBER] * 2, "compounds": [{"kind": [], "operands": [0, 1]}]},
        command=("extend", "--target", "conjunction:0,1"),
        cap=None,
    )
    @example(document={"members": [VALID_MEMBER]}, command=("check",), cap="x")
    @example(document={"members": [VALID_MEMBER]}, command=("check",), cap="0")
    @example(document={"atoms": ["1x"], "members": [VALID_MEMBER]}, command=("check",), cap=None)
    @example(
        document={"atoms": ["A", "A", "B"], "members": [VALID_MEMBER]},
        command=("check",),
        cap=None,
    )
    def test_exit_code_contract(self, document, command, cap):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            os.environ.pop(ATOM_CAP_ENV, None)
            if cap is not None:
                os.environ[ATOM_CAP_ENV] = cap
            path = Path(tmp) / "hostile.json"
            path.write_text(json.dumps(document))
            name, *options = command
            code, out, err = run_in_process([name, str(path), *options])
        assert code in (0, 1, 2), err
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            json.loads(out)


class TestExitCodes:
    """Exit 2 is for input errors alone: a library fault that raises
    ``ValueError`` is an internal error (exit 3), and each input error
    that surfaces inside the library keeps its exit-2 text word for word."""

    @staticmethod
    def fault(*args, **kwargs):
        raise ValueError("injected fault")

    # Where each command reads them: ``lp.solve`` and ``lp.optimize`` are
    # the LP entries every command runs (the ids keep the names these
    # entries had when they were private), and ``crq`` holds the
    # ``events.refine`` that builds every partition.
    @pytest.mark.parametrize(
        "module, name",
        [(lp, "solve"), (lp, "optimize"), (crq, "refine"), (coherence, "build_system")],
        ids=["lp._solve", "lp._optimize", "events.refine", "coherence.build_system"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("check",),
            ("extend", "--target", "conjunction:0,1"),
            ("conjoin", "--i", "0", "--j", "1"),
        ],
        ids=["check", "extend", "conjoin"],
    )
    def test_library_value_error_is_internal(self, tmp_path, monkeypatch, module, name, command):
        monkeypatch.setattr(module, name, self.fault)
        path = write_doc(tmp_path, coherent_pair_payload())
        code, out, err = run_in_process([command[0], path, *command[1:]])
        assert (code, out) == (3, "")
        assert err == "internal error: ValueError: injected fault\n"

    # The one fold of a document's events, inside ``realize``: ``crq``
    # reads ``events.split`` as ``split``, and ``split`` runs ``_fold``.
    @pytest.mark.parametrize("module, name", [(crq, "split"), (events, "_fold")])
    def test_fold_value_error_is_internal(self, tmp_path, monkeypatch, module, name):
        monkeypatch.setattr(module, name, self.fault)
        path = write_doc(tmp_path, coherent_pair_payload())
        code, out, err = run_in_process(["check", path])
        assert (code, out, err) == (3, "", "internal error: ValueError: injected fault\n")

    @pytest.mark.parametrize(
        "error", [EventSyntaxError, AtomLimitError, ImpossibleConditioningError, DocumentError]
    )
    def test_input_errors_are_one_type(self, error):
        assert issubclass(error, InputError) and issubclass(InputError, ValueError)

    # ``crq._shared`` runs inside every compound builder, before the
    # operand check, and inside every ``Assessment``; ``simulate._sample``
    # runs inside the simulation.
    @pytest.mark.parametrize(
        "command",
        [("extend", "--target", "conjunction:0,1"), ("conjoin", "--i", "0", "--j", "1")],
        ids=["extend", "conjoin"],
    )
    def test_compound_builder_value_error_is_internal(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(crq, "_shared", self.fault)
        path = write_doc(tmp_path, coherent_pair_payload())
        code, out, err = run_in_process([command[0], path, *command[1:]])
        assert (code, out, err) == (3, "", "internal error: ValueError: injected fault\n")

    @pytest.mark.parametrize("name", ["_sample", "conditional_event"])
    def test_simulation_value_error_is_internal(self, monkeypatch, name):
        monkeypatch.setattr(simulate, name, self.fault)
        argv = ["simulate", "--pa", "1/2", "--pac", "1/4", "--trials", "10", "--seed", "1"]
        assert run_in_process(argv) == (3, "", "internal error: ValueError: injected fault\n")

    def test_simulation_without_estimate(self):
        # The antecedent never comes true in one draw, so no trial decides.
        argv = ["simulate", "--pa", "1/1000000", "--pac", "0", "--trials", "1"]
        argv += ["--max-len", "1", "--seed", "1"]
        message = "error: every trial was indeterminate; raise max_len\n"
        assert run_in_process(argv) == (2, "", message)

    @pytest.mark.parametrize(
        "atoms, cap, message",
        [
            (["1x"], None, "invalid atom name '1x'"),
            (["A", "H"], "0", "atom_limit must be at least 1"),
            (["A", "H"], "-3", "atom_limit must be at least 1"),
        ],
        ids=["atom-name", "zero-cap", "negative-cap"],
    )
    def test_universe_argument(self, tmp_path, monkeypatch, atoms, cap, message):
        if cap is not None:
            monkeypatch.setenv(ATOM_CAP_ENV, cap)
        payload = {"atoms": atoms, "members": coherent_pair_payload()["members"]}
        path = write_doc(tmp_path, payload)
        assert run_in_process(["check", path]) == (2, "", f"error: {message}\n")

    def test_simulate_atom_cap(self, monkeypatch):
        monkeypatch.setenv(ATOM_CAP_ENV, "0")
        argv = ["simulate", "--pa", "1/2", "--pac", "1/4", "--trials", "10", "--seed", "1"]
        assert run_in_process(argv) == (2, "", "error: atom_limit must be at least 1\n")

    def test_uncovered_target(self, tmp_path):
        payload = coherent_pair_payload()
        payload["atoms"] += ["C", "L"]
        payload["members"].append({"quantity": "C", "given": "L", "prevision": "1/2"})
        path = write_doc(tmp_path, payload)
        code, out, err = run_in_process(["extend", path, "--target", "conjunction:0,1"])
        assert (code, out) == (2, "")
        assert err == "error: target conditioning must cover every base conditioning event\n"

    @pytest.mark.parametrize(
        "command",
        [("extend", "--target", "disjunction:0,1"), ("conjoin", "--i", "0", "--j", "1")],
        ids=["extend", "conjoin"],
    )
    def test_operand_no_conditional_event(self, tmp_path, command):
        payload = coherent_pair_payload()
        payload["members"][0]["quantity"] = {"A": "2", "~A": "0"}
        path = write_doc(tmp_path, payload)
        code, out, err = run_in_process([command[0], path, *command[1:]])
        assert (code, out) == (2, "")
        assert err == "error: operand must be a conditional event (values in {0, 1})\n"

    @pytest.mark.parametrize(
        "option, message",
        [("--trials", "trials must be positive"), ("--max-len", "max_len must be at least 1")],
    )
    def test_simulate_run_parameter(self, option, message):
        argv = ["simulate", "--pa", "1/2", "--pac", "1/4", "--seed", "1", option, "0"]
        assert run_in_process(argv) == (2, "", f"error: {message}\n")

    # ``int`` alone reads "1_0" as 10 and "٣" (Arabic-Indic three) as 3;
    # every integer the CLI reads from text takes ASCII digits only.
    NON_ASCII_INTEGERS = pytest.mark.parametrize(
        "text", ["1_0", "٣"], ids=["underscore", "arabic"]
    )

    @NON_ASCII_INTEGERS
    def test_atom_cap_in_ascii_digits(self, tmp_path, monkeypatch, text):
        monkeypatch.setenv(ATOM_CAP_ENV, text)
        path = write_doc(tmp_path, coherent_pair_payload())
        message = f"error: {ATOM_CAP_ENV} must be an integer, got {text!r}\n"
        assert run_in_process(["check", path]) == (2, "", message)

    @NON_ASCII_INTEGERS
    def test_target_indices_in_ascii_digits(self, tmp_path, text):
        path = write_doc(tmp_path, coherent_pair_payload())
        argv = ["extend", path, "--target", f"conjunction:0,{text}"]
        message = "error: --target 'operands' must be two member indices\n"
        assert run_in_process(argv) == (2, "", message)

    @NON_ASCII_INTEGERS
    @pytest.mark.parametrize(
        "command, option",
        [
            (["conjoin", "FILE", "--i", "0", "--j", "1"], "--i"),
            (["conjoin", "FILE", "--i", "0", "--j", "1"], "--j"),
            (["simulate", "--pa", "1/2", "--pac", "1/4", "--seed", "1"], "--trials"),
            (["simulate", "--pa", "1/2", "--pac", "1/4", "--seed", "1"], "--max-len"),
            (["simulate", "--pa", "1/2", "--pac", "1/4", "--seed", "1"], "--seed"),
        ],
        ids=["i", "j", "trials", "max-len", "seed"],
    )
    def test_integer_options_in_ascii_digits(self, tmp_path, capsys, text, command, option):
        path = write_doc(tmp_path, coherent_pair_payload())
        argv = [path if arg == "FILE" else arg for arg in command] + [option, text]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")
