import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pluckerpush
from pluckerpush import (
    FormalBundle,
    GradedPoly,
    SplitBundle,
    pushforward_plucker_power,
    pushforward_terms,
    rectangle,
    syt_count_hook,
)
from pluckerpush import chowring
from pluckerpush.chowring import render_int, render_terms
from pluckerpush.cli import _COMMANDS, build_parser, main, parse_args, render_schur_terms, to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestPushforwardCommand:
    def test_formal_example(self, capsys):
        code, out = run_cli(
            capsys, "pushforward", "--N", "3", "--d", "2", "--r", "3", "--base-dim", "1"
        )
        assert code == 0
        assert out == "schur form: 2*Delta(1)\nclass: 2*s1\n"

    def test_below_critical_power_prints_zero(self, capsys):
        code, out = run_cli(
            capsys, "pushforward", "--N", "3", "--d", "2", "--r", "4", "--base-dim", "2"
        )
        assert code == 0
        assert out.endswith("class: 0\n")

    def test_top_power_over_point(self, capsys):
        # fiber dimension 1, so the first power integrates to 1 and the
        # second lands in the (empty) degree-1 part of a point
        code, out = run_cli(
            capsys, "pushforward", "--N", "1", "--d", "1", "--r", "2", "--base-dim", "0"
        )
        assert code == 0
        assert out.endswith("class: 1\n")
        code, out = run_cli(
            capsys, "pushforward", "--N", "2", "--d", "1", "--r", "2", "--base-dim", "0"
        )
        assert code == 0
        assert out.endswith("class: 0\n")

    def test_split_model(self, capsys):
        code, out = run_cli(
            capsys,
            "pushforward", "--N", "2", "--d", "1", "--r", "2", "--pm", "1",
            "--twists", "1,2",
        )
        assert code == 0
        assert out.endswith("class: 3*h\n")

    def test_rejects_d_above_r(self, capsys):
        code, _ = run_cli(
            capsys, "pushforward", "--N", "3", "--d", "3", "--r", "2", "--base-dim", "1"
        )
        assert code == 2

    def test_rejects_model_ambiguity(self, capsys):
        code, _ = run_cli(
            capsys,
            "pushforward", "--N", "3", "--d", "2", "--r", "3",
            "--base-dim", "1", "--pm", "1", "--twists", "1,2,3",
        )
        assert code == 2
        code, _ = run_cli(capsys, "pushforward", "--N", "3", "--d", "2", "--r", "3")
        assert code == 2

    def test_rejects_twist_count_mismatch(self, capsys):
        code, _ = run_cli(
            capsys,
            "pushforward", "--N", "3", "--d", "2", "--r", "3", "--pm", "1",
            "--twists", "1,2",
        )
        assert code == 2

    def test_json_round_trips_to_text(self, capsys):
        args = ["pushforward", "--N", "4", "--d", "2", "--r", "4", "--base-dim", "2"]
        code, text_out = run_cli(capsys, *args)
        assert code == 0
        code, json_out = run_cli(capsys, *args, "--json")
        assert code == 0
        data = json.loads(json_out)
        assert data["schema"] == 1
        schur_line = render_schur_terms(
            [(t["shape"], t["coefficient"]) for t in data["schur_terms"]]
        )
        class_line = render_terms(
            [(t["monomial"], t["coefficient"]) for t in data["class_terms"]]
        )
        assert text_out == f"schur form: {schur_line}\nclass: {class_line}\n"
        assert data["class_text"] == class_line

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_a_base_dimension_above_the_weight_changes_only_the_echo(self, capsys, json_flag):
        # w = 3 - 1*(2-1) = 2, so only s1 and s2 can appear; the echo keeps the given base_dim
        huge = "100000000000000000000"
        argv = ("pushforward", "--N", "3", "--d", "1", "--r", "2", "--base-dim")
        code, out = run_cli(capsys, *argv, huge, *json_flag)
        assert code == 0
        _, small = run_cli(capsys, *argv, "2", *json_flag)
        if json_flag:
            assert json.loads(out)["model"]["base_dim"] == int(huge)
            out = out.replace(huge, "2")
        assert out == small


class TestDegreeCommand:
    def test_cubic_scroll(self, capsys):
        code, out = run_cli(capsys, "degree", "--d", "1", "--pm", "1", "--twists", "1,2")
        assert code == 0
        assert out.splitlines()[0] == "degree: 3"

    def test_rank_three(self, capsys):
        code, out = run_cli(capsys, "degree", "--d", "2", "--pm", "1", "--twists", "1,1,1")
        assert code == 0
        assert out.splitlines()[0] == "degree: 6"
        assert "(1): f=2 integral=3" in out

    def test_point_base(self, capsys):
        code, out = run_cli(capsys, "degree", "--d", "2", "--pm", "0", "--twists", "0,0,0,0")
        assert code == 0
        assert out.splitlines()[0] == "degree: 2"

    def test_rejects_bad_model(self, capsys):
        code, _ = run_cli(capsys, "degree", "--d", "3", "--pm", "1", "--twists", "1,2")
        assert code == 2
        code, _ = run_cli(capsys, "degree", "--d", "1", "--pm", "1", "--twists", "1,x")
        assert code == 2

    def test_json_payload(self, capsys):
        code, out = run_cli(
            capsys, "degree", "--d", "1", "--pm", "1", "--twists", "1,2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == "3"
        assert data["table"] == [{"shape": "(1)", "syt_count": "1", "integral": "3"}]


# Degree output pinned from the graded-ring implementation that the scalar
# determinants replaced: integer integrals, negative ones included, must keep
# rendering as before ("-2", never "-2/1").
DEGREE_GOLDEN = [
    (
        ("--d", "2", "--pm", "3", "--twists=-1,0,0,2"),
        "degree: 42\n(3): f=14 integral=5\n(2,1): f=14 integral=-2\n",
        {
            "schema": 1,
            "command": "degree",
            "d": 2,
            "model": {"type": "split", "base_dim": 3, "twists": [-1, 0, 0, 2]},
            "degree": "42",
            "table": [
                {"shape": "(3)", "syt_count": "14", "integral": "5"},
                {"shape": "(2,1)", "syt_count": "14", "integral": "-2"},
            ],
        },
    ),
    (
        ("--d", "1", "--pm", "3", "--twists=-2,-1,0"),
        "degree: -15\n(3): f=1 integral=-15\n",
        {
            "schema": 1,
            "command": "degree",
            "d": 1,
            "model": {"type": "split", "base_dim": 3, "twists": [-2, -1, 0]},
            "degree": "-15",
            "table": [{"shape": "(3)", "syt_count": "1", "integral": "-15"}],
        },
    ),
]


@pytest.mark.parametrize("args,text,payload", DEGREE_GOLDEN, ids=["negative-term", "negative-degree"])
def test_degree_output_is_pinned(capsys, args, text, payload):
    assert run_cli(capsys, "degree", *args) == (0, text)
    assert run_cli(capsys, "degree", *args, "--json") == (0, json.dumps(payload, indent=2) + "\n")


class TestDegreeClassicalCommand:
    @pytest.mark.parametrize(
        "d,r,expected", [(2, 4, "2"), (3, 6, "42"), (1, 9, "1"), (2, 5, "5")]
    )
    def test_values(self, capsys, d, r, expected):
        code, out = run_cli(capsys, "degree-classical", "--d", str(d), "--r", str(r))
        assert code == 0
        assert out.strip() == expected

    def test_rejects_d_above_r(self, capsys):
        code, _ = run_cli(capsys, "degree-classical", "--d", "3", "--r", "2")
        assert code == 2

    def test_prints_answers_past_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out = run_cli(capsys, "degree-classical", "--d", "96", "--r", "194")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # restored for in-process callers
        expected = syt_count_hook(rectangle(96, 98))
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{expected}\n"
            assert len(out.strip()) == 15073
        finally:
            sys.set_int_max_str_digits(limit)


class TestSytCommand:
    def test_hook_default(self, capsys):
        code, out = run_cli(capsys, "syt", "--shape", "(2,1)")
        assert code == 0 and out.strip() == "2"

    def test_empty_shape(self, capsys):
        code, out = run_cli(capsys, "syt", "--shape", "()")
        assert code == 0 and out.strip() == "1"

    def test_enumerate_method(self, capsys):
        code, out = run_cli(capsys, "syt", "--shape", "(2,2)", "--method", "enumerate")
        assert code == 0 and out.strip() == "2"

    def test_product_method(self, capsys):
        code, out = run_cli(
            capsys, "syt", "--shape", "(1)", "--method", "product", "--d", "2", "--r", "3"
        )
        assert code == 0 and out.strip() == "2"

    def test_product_needs_d_and_r(self, capsys):
        code, _ = run_cli(capsys, "syt", "--shape", "(1)", "--method", "product")
        assert code == 2

    def test_malformed_shape(self, capsys):
        code, _ = run_cli(capsys, "syt", "--shape", "2,1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("(13) --method enumerate", "shape has 13 cells, enumeration is capped at 12"),
            ("2,1", "expected parenthesized partition like (3,1), got '2,1'"),
            ("(1,2) --method hook", "partition parts must be weakly decreasing, got (1, 2)"),
            ("(1) --method product", "--method product needs --d and --r"),
            ("(1) --method product --d 4 --r 3", "need 1 <= d <= r, got d=4, r=3"),
            ("(3,1) --method product --d 1 --r 3", "partition (3,1) has more than 1 parts"),
        ],
        ids=["enumeration-cap", "malformed", "increasing", "product-no-sizes", "d-above-r", "too-many-parts"],
    )
    def test_refusal_is_one_error_line(self, capsys, argv, message):
        code = main(["syt", "--shape", *argv.split()])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("method", ["hook", "enumerate"])
    @pytest.mark.parametrize("sizes", [("--d", "9"), ("--r", "1"), ("--d", "9", "--r", "1")])
    def test_d_and_r_refused_without_product(self, capsys, method, sizes):
        code = main(["syt", "--shape", "(2,1)", "--method", method, *sizes])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestVerifyCommand:
    def test_degrees_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "degrees", "--max-r", "8")
        assert code == 0
        assert "failures: 0" in out
        assert "result: PASS" in out

    def test_remark_suite_names_matching_variant(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "remark", "--max-r", "4")
        assert code == 0
        assert "matching variant: factorial" in out

    def test_theorem_suite_small(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--suite", "theorem", "--seed", "42",
            "--max-d", "2", "--max-r", "4", "--extra-N", "1", "--trials", "3",
        )
        assert code == 0
        assert "result: PASS" in out

    def test_identical_invocations_are_byte_identical(self, capsys):
        args = (
            "verify", "--suite", "theorem", "--seed", "7",
            "--max-d", "2", "--max-r", "4", "--extra-N", "1", "--trials", "3",
            "--verbose",
        )
        code_a, out_a = run_cli(capsys, *args)
        code_b, out_b = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_mode(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--suite", "degrees", "--max-r", "6", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["reports"][0]["suite"] == "degrees"

    @pytest.mark.parametrize(
        "ignored,note",
        [
            (
                "--suite degrees --max-r 3 --max-d 2 --seed 5 --trials 3 --extra-N 1",
                "note: --suite degrees ignores --seed, --trials, --max-d, --extra-N\n",
            ),
            ("--suite remark --max-r 5 --seed 9 --trials 2", "note: --suite remark ignores --seed, --trials\n"),
        ],
        ids=["degrees", "remark"],
    )
    def test_options_a_suite_does_not_read_change_nothing(self, capsys, ignored, note):
        # the README's claim: such options are accepted, named in one note on
        # stderr, and leave stdout as it is without them
        outputs = []
        for argv, expected_note in ((ignored.split(), note), (ignored.split()[:4], "")):  # then only --suite and --max-r
            code = main(["verify", *argv])
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err.startswith(expected_note + "elapsed: ")
            assert captured.err.count("\n") == (2 if expected_note else 1)
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("suite", ["theorem", "all"])
    def test_a_suite_that_reads_every_option_prints_no_note(self, capsys, suite):
        argv = ["verify", "--suite", suite, "--max-d", "1", "--max-r", "2", "--seed", "3", "--trials", "1", "--extra-N", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().err.startswith("elapsed: ")

    def test_seed_and_trials_default_to_the_theorem_suite_defaults(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "theorem", "--max-d", "1", "--max-r", "2", "--json"
        )
        assert code == 0
        parameters = json.loads(out)["reports"][0]["parameters"]
        assert (parameters["seed"], parameters["trials_per_cell"]) == (42, 20)

    @pytest.mark.parametrize(
        "extra,digest",
        [
            ((), "40516cc16b7d9a82db70d02c0dc9ba548f5a9540a39b02662fe2c0bb6ad89a49"),
            (("--json",), "bc628e9c2ae6e42b4fbee9376930eff08cf62b686d02abaab6c650b3289c1e96"),
        ],
    )
    def test_all_suites_verbose_output_is_pinned(self, capsys, extra, digest):
        # every root, both sides of every trial and every suite line, byte for byte
        code, out = run_cli(capsys, "verify", "--suite", "all", "--seed", "42", "--verbose", *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


STDOUT_DIGESTS = [
    (("pushforward", "--N", "9", "--d", "2", "--r", "4", "--base-dim", "5"),
     "b558b516d2f51d644811cd3d55a4ef9f4216ec225fdcfe94559f3455831ecff9"),
    (("pushforward", "--N", "9", "--d", "2", "--r", "4", "--base-dim", "5", "--json"),
     "57e1728fa2a7aecf661460a98fe57c1294536038fb7b7ef737a597df2799c85c"),
    (("pushforward", "--N", "6", "--d", "2", "--r", "4", "--pm", "2", "--twists=-1,0,2,3"),
     "37db34f2d73aadf6214359ca1e839b69c7e5cbbd92deeb4e221dc7c274d873d6"),
    (("pushforward", "--N", "6", "--d", "2", "--r", "4", "--pm", "2", "--twists=-1,0,2,3", "--json"),
     "4d1bfcd655098465a892b0103b9b8e2625a0bd7854cf599dbe92b183a839aead"),
    (("degree", "--d", "2", "--pm", "3", "--twists=-1,0,0,2"),
     "f48e47c43e3e71b73f55a020860df08d5b3eebdd2574531e33c46fda91c7b08d"),
    (("degree", "--d", "2", "--pm", "3", "--twists=-1,0,0,2", "--json"),
     "91a9beb36c232069f41604a0d783a1381fcf29c514657fc6dccebe67c4709a19"),
    (("degree-classical", "--d", "40", "--r", "80"),
     "d7d02d1e08fd0e1f291abb70a1b88ce2de543e13a6436af8ab5223d451455c07"),
    (("syt", "--shape", "(4,2,1)"),
     "90d7ec0f0acef104d8b6252794295f661a0149634868d02a1ae0c358099638f5"),
    (("syt", "--shape", "(3,2,1)", "--method", "enumerate"),
     "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017"),
    (("syt", "--shape", "(2,1)", "--method", "product", "--d", "3", "--r", "5"),
     "c02efad74c4db35b2450beec922eb590d202b34c5b436bff0b6acc15059f5d21"),
    # formal pushforward at benchmark depth and at d=7, where the exponent-vector walk is long
    (("pushforward", "--N", "42", "--d", "6", "--r", "11", "--base-dim", "12", "--json"),
     "f2e2c8d9836e91fb5ec4d8f7fe7478f41b56ac0308b91af6574df87cfbe533d0"),
    (("pushforward", "--N", "39", "--d", "5", "--r", "10", "--base-dim", "14", "--json"),
     "c569d55b2ca4a4bc7be7ffd6cddd1480c9168a66df679630492c4433ae9db355"),
    (("pushforward", "--N", "60", "--d", "7", "--r", "14", "--base-dim", "11"),
     "5ca8d1d85ea71f543d80073922b48bc6d1da963dec8d80daac9e64db0e202bc1"),
    (("verify", "--suite", "remark", "--max-d", "4", "--max-r", "8", "--verbose", "--json"),
     "c9eff6fc39356451e07f6b23d7ac10062317742d04ce28df7ab62750bfcb6b8a"),
    (("verify", "--suite", "theorem", "--max-r", "5", "--trials", "10", "--seed", "1", "--verbose", "--json"),
     "b46bbedeb0255065a73011317daa00b6c0556bdb74836b84b95bab5eaa0684e5"),
    # split pushforward with repeated twists at d=4, and at d=6 with a weight below m
    (("pushforward", "--N", "24", "--d", "4", "--r", "8", "--pm", "8", "--twists=-2,0,0,1,3,3,5,-1", "--json"),
     "ba58d69fb75d6dc7e17b03df68e34c8ad4a8dcd23c1a5c718371187e5da3a09a"),
    (("pushforward", "--N", "42", "--d", "6", "--r", "12", "--pm", "8", "--twists=1,1,1,0,0,-1,2,2,3,-2,4,0"),
     "a1372324d1aa0de27dd7a2427fe8ef4b61c793e1cee7274b2118e4eb3aef68bf"),
]


@pytest.mark.parametrize("argv,digest", STDOUT_DIGESTS, ids=[" ".join(argv) for argv, _ in STDOUT_DIGESTS])
def test_command_output_is_pinned(capsys, argv, digest):
    # both models of pushforward, degree, degree-classical and every syt method, byte for byte
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def model_argv(model):
    """The options that name the model on the command line."""
    if isinstance(model, FormalBundle):
        return ("--base-dim", str(model.base_dim))
    return ("--pm", str(model.base_dim), "--twists=" + ",".join(map(str, model.twists)))


# (N, d, r, model, class text or None): classes whose plain table renders at an edge
RENDER_EDGES = {
    # the table holds s1^4 s4 with coefficient 0, which the class drops
    "cancelled-monomial": (28, 5, 9, FormalBundle(base_dim=8, rank=9), None),
    "below-fiber-dimension": (3, 2, 4, FormalBundle(base_dim=2, rank=4), "0"),
    "weight-above-base-dimension": (7, 2, 4, FormalBundle(base_dim=2, rank=4), "0"),
    "split-weight-above-base-dimension": (6, 2, 4, SplitBundle(base_dim=1, twists=(-1, 0, 2, 3)), "0"),
    "base-dim-0": (4, 2, 4, FormalBundle(base_dim=0, rank=4), "2"),
    "base-dim-0-above": (5, 2, 4, FormalBundle(base_dim=0, rank=4), "0"),
    "split-h0": (4, 2, 4, SplitBundle(base_dim=2, twists=(-1, 0, 2, 3)), "2"),
    "split-h": (2, 1, 2, SplitBundle(base_dim=1, twists=(0, 1)), "h"),
    "split-minus-h": (2, 1, 2, SplitBundle(base_dim=3, twists=(0, -1)), "-h"),
    "split-3h": (2, 1, 2, SplitBundle(base_dim=1, twists=(1, 2)), "3*h"),
    # h_1(1, -1) = 0: the table holds {(1,): 0}
    "split-cancelled": (2, 1, 2, SplitBundle(base_dim=1, twists=(1, -1)), "0"),
}


class TestClassRendering:
    """The command line renders the plain table of ``pushforward_terms`` as
    the oracle side renders the ring element of ``pushforward_plucker_power``."""

    @pytest.mark.parametrize("case", RENDER_EDGES)
    def test_class_line_is_the_ring_elements_text(self, capsys, case):
        N, d, r, model, text = RENDER_EDGES[case]
        argv = ("pushforward", "--N", str(N), "--d", str(d), "--r", str(r), *model_argv(model))
        element = pushforward_plucker_power(N, d, model)
        assert text in (None, str(element))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == f"class: {element}"
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["class_text"] == str(element)
        assert [(t["monomial"], t["coefficient"]) for t in data["class_terms"]] == element.terms()

    def test_cancelled_monomials_are_in_the_table_only(self):
        N, d, _, model, _ = RENDER_EDGES["cancelled-monomial"]
        table = pushforward_terms(N, d, model)[1]
        assert table[(4, 0, 0, 1, 0, 0, 0, 0)] == 0
        assert len(pushforward_plucker_power(N, d, model).monomials) == len(table) - 1 == 17
        N, d, _, model, _ = RENDER_EDGES["split-cancelled"]
        assert pushforward_terms(N, d, model)[1] == {(1,): 0}

    def test_zero_classes_are_empty_tables(self):
        for case in ("below-fiber-dimension", "weight-above-base-dimension",
                     "split-weight-above-base-dimension", "base-dim-0-above"):
            N, d, _, model, _ = RENDER_EDGES[case]
            assert pushforward_terms(N, d, model)[1] == {}


def _ring_element_refused(*args, **kwargs):
    raise AssertionError("a GradedPoly was built")


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("pushforward", "--N", "10", "--d", "2", "--r", "4", "--base-dim", "6"),
        ("pushforward", "--N", "3", "--d", "2", "--r", "4", "--base-dim", "2"),
        ("pushforward", "--N", "7", "--d", "2", "--r", "4", "--pm", "3", "--twists=-1,0,0,2"),
        ("pushforward", "--N", "9", "--d", "2", "--r", "4", "--pm", "3", "--twists=-1,0,0,2"),
        ("degree", "--d", "2", "--pm", "3", "--twists=-1,0,0,2"),
    ],
    ids=["formal", "formal-zero", "split", "split-zero", "degree"],
)
def test_production_builds_no_ring_element(capsys, monkeypatch, argv, json_flag):
    # GradedPoly is the container of the oracle side; the commands render
    # plain tables and rows, so refusing its constructor changes nothing
    clean = run_cli(capsys, *argv, *json_flag)
    assert clean[0] == 0
    monkeypatch.setattr(GradedPoly, "__init__", _ring_element_refused)
    assert run_cli(capsys, *argv, *json_flag) == clean


# quotes, backslashes, control characters, non-ASCII text and a lone surrogate
ESCAPED = '"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(ESCAPED)))
PAST_LIMIT = 10**4300  # 4301 digits, past the interpreter's default int/str limit
JSON_LEAVES = st.one_of(
    JSON_TEXT,
    st.integers(),
    st.integers(PAST_LIMIT, PAST_LIMIT * 10**50),
    st.integers(-PAST_LIMIT * 10**50, -PAST_LIMIT),
    st.sampled_from([True, False, 1, 0, -1, None]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def _writer_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2)


class TestJsonWriter:
    def test_matches_json_dumps(self):
        # with the digit limit lifted, as cli.main lifts it around a command
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            _writer_matches_json_dumps()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_layout(self):
        value = {"a": [1, True, 0, False, None], "b": {}, "c": [], "d": {"e": "\u00e9\"\n"}}
        assert to_json(value) == (
            '{\n  "a": [\n    1,\n    true,\n    0,\n    false,\n    null\n  ],\n  "b": {},\n'
            '  "c": [],\n  "d": {\n    "e": "\\u00e9\\"\\n"\n  }\n}'
        )

    @pytest.mark.parametrize(
        "value", [1.5, (1, 2), [0.5], {"a": (1,)}, {1: "a"}, {"a": {"b": [float("nan")]}}],
        ids=["float", "tuple", "float-in-list", "tuple-in-dict", "int-key", "nested-float"],
    )
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            to_json(value)


SPLIT_BITS = chowring._REPR_BITS  # above it render_int converts through Decimal
RENDERED_MAGNITUDES = st.one_of(
    st.just(0),
    # powers of ten and their neighbours, where a dropped or carried digit shows
    st.builds(lambda k, step: 10**k + step, st.integers(0, 50_000), st.sampled_from([-1, 0, 1])),
    # either side of the threshold
    st.builds(
        lambda bits, seed: Random(seed).getrandbits(bits) | 1 << bits - 1,
        st.integers(SPLIT_BITS - 64, SPLIT_BITS + 64),
        st.integers(0, 2**32),
    ),
    # any length up to 50,000 digits
    st.builds(
        lambda digits, seed: Random(seed).randrange(10 ** (digits - 1), 10**digits),
        st.integers(1, 50_000),
        st.integers(0, 2**32),
    ),
)


@settings(max_examples=150, deadline=None)
@given(RENDERED_MAGNITUDES, st.sampled_from([1, -1]))
@example(2**SPLIT_BITS - 1, 1)
@example(2**SPLIT_BITS, -1)
def _render_int_matches_str(magnitude, sign):
    assert render_int(sign * magnitude) == str(sign * magnitude)


class TestRenderInt:
    def test_matches_str(self):
        # with the digit limit lifted, so that str() can print the reference
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            _render_int_matches_str()
        finally:
            sys.set_int_max_str_digits(limit)


def _table_refused(*args):
    raise ValueError("the monomial table was reached")


class TestSplitModelReadsSchurRows:
    """The split model sums the Schur rows that ``degree`` sums; only the
    formal model builds the monomial table."""

    SPLIT = ("pushforward", "--N", "6", "--d", "2", "--r", "4", "--pm", "2", "--twists=-1,0,2,3")
    FORMAL = ("pushforward", "--N", "6", "--d", "2", "--r", "4", "--base-dim", "2")

    def test_split_pushforward_builds_no_table(self, capsys, monkeypatch):
        for name in ("_monomial_table", "_suffix_table"):
            monkeypatch.setattr(pluckerpush.pushforward, name, _table_refused)
        code, out = run_cli(capsys, *self.SPLIT)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == dict(STDOUT_DIGESTS)[self.SPLIT]
        assert run_cli(capsys, *self.FORMAL) == (3, "")

    def test_degree_and_split_pushforward_share_schur_form_terms(self, capsys, monkeypatch):
        calls = []
        schur_form_terms = pluckerpush.pushforward.schur_form_terms

        def counted(N, d, root_sets):
            calls.append((N, d, [tuple(roots) for roots in root_sets]))
            return schur_form_terms(N, d, root_sets)

        monkeypatch.setattr(pluckerpush.pushforward, "schur_form_terms", counted)
        assert run_cli(capsys, *self.SPLIT)[0] == 0
        assert run_cli(capsys, "degree", "--d", "2", "--pm", "2", "--twists=-1,0,2,3")[0] == 0
        assert calls == [(6, 2, [(-1, 0, 2, 3)])] * 2


class TestOneCountPassPerPushforward:
    """Both lines of ``pushforward`` read the pairs of one count pass: one
    enumeration of the partitions and one tableau count per partition, on
    either model, with the weight inside or above the base dimension; the
    rectangle's count, the classical degree, is computed once for the pass."""

    PUSH = ("pushforward", "--N", "10", "--d", "4", "--r", "5")

    @pytest.mark.parametrize(
        "model",
        [("--base-dim", "6"), ("--base-dim", "5"), ("--pm", "6", "--twists=-2,0,1,3,4"),
         ("--pm", "5", "--twists=1,1,0,-1,2")],
        ids=" ".join,
    )
    def test_each_count_is_computed_once(self, capsys, monkeypatch, model):
        # w = 6 at d = 4: nine partitions, (6) to (2,2,1,1)
        shapes, enumerations, rectangles = [], [], []
        count_over_rectangle = pluckerpush.pushforward._count_over_rectangle
        enumerate_partitions = pluckerpush.pushforward.enumerate_partitions
        degree_grassmannian_classical = pluckerpush.pushforward.degree_grassmannian_classical

        def counted(lam, d, r, rectangle):
            shapes.append(lam)
            return count_over_rectangle(lam, d, r, rectangle)

        def enumerated(weight, max_parts):
            enumerations.append((weight, max_parts))
            return enumerate_partitions(weight, max_parts)

        def classical(d, r):
            rectangles.append((d, r))
            return degree_grassmannian_classical(d, r)

        monkeypatch.setattr(pluckerpush.pushforward, "_count_over_rectangle", counted)
        monkeypatch.setattr(pluckerpush.pushforward, "enumerate_partitions", enumerated)
        monkeypatch.setattr(pluckerpush.pushforward, "degree_grassmannian_classical", classical)
        code, out = run_cli(capsys, *self.PUSH, *model)
        assert code == 0
        assert out.count("Delta") == 9
        assert shapes == enumerate_partitions(6, 4)
        assert len(shapes) == 9
        assert enumerations == [(6, 4)]
        assert rectangles == [(4, 5)]


DEGREE = ["degree", "--d", "1", "--pm", "1", "--twists", "1,2"]
PUSH_FORMAL = ["pushforward", "--d", "1", "--r", "2", "--base-dim", "1"]
VALID_ARGVS = [
    ["pushforward", "--N", "3", "--d", "2", "--r", "3", "--base-dim", "1", "--json"],
    DEGREE,
    ["degree-classical", "--d", "3", "--r", "6"],
    ["syt", "--shape", "(2,1)", "--method", "product", "--d", "1", "--r", "3"],
    ["verify", "--suite", "degrees", "--trials", "1", "--verbose"],
]
PARSE_CORPUS = VALID_ARGVS + [
    [],
    ["bogus"],
    ["--", *DEGREE],
    ["degree", "--", "--d", "1", "--pm", "1", "--twists", "1,2"],
    [*DEGREE, "--"],
    ["degree", "--d", "1", "--pm", "1", "--tw", "1,2"],
    ["degree", "--h"],
    ["degree", "--d", "1", "--pm", "1", "--twists", "-1,2"],
    ["degree", "--d", "1", "--pm", "1", "--twists=-1,2"],
    [*DEGREE, "stray"],
    ["stray", *DEGREE],
    [*DEGREE, "--stray"],
    [*DEGREE, "--stray", "x"],
    [*DEGREE, "--d", "2", "--pm", "0"],
    [*DEGREE, "--json", "--json"],
    ["degree", "--d", "x", "--pm", "1", "--twists", "1"],
    ["degree"],
    ["--help", "degree"],
    ["degree-classical", "-h", "stray"],
    *([name, "-h"] for name in ("pushforward", "degree", "degree-classical", "syt", "verify")),
    # values that start with "-" or need the type to read them
    ["degree", "--d", "1", "--pm", "1", "--twists=--json"],
    ["degree", "--d", "1", "--pm", "1", "--twists", "-"],
    ["degree", "--d", "1", "--pm", "1", "--twists", "-1, 2"],
    [*PUSH_FORMAL, "--N", "-3"],
    [*PUSH_FORMAL, "--N", " 3"],
    [*PUSH_FORMAL, "--N", "1_0"],
    [*PUSH_FORMAL, "--N", ""],
    [*PUSH_FORMAL, "--N", "-3.5"],
    [*PUSH_FORMAL, "--N", "9" * 5000],  # past the int/str digit limit
    ["degree", "--d=", "--pm", "1", "--twists", "1"],
    [*DEGREE, "--json=1"],
    [*DEGREE, "--d", "2"],
    ["verify", "--suite", "bogus"],
    ["verify", "--suite=all", "--seed", "-5", "--seed", "7"],
    ["syt", "--shape", "(2,1)", "--method", "enumerate"],
]


def _parsed(capsys, parse, argv):
    """(vars of the Namespace, or the SystemExit code; stdout; stderr) of one parse."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _parsers_built(monkeypatch, parse, argv) -> int:
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        try:
            parse(list(argv))
        except SystemExit:
            pass
    return built


class TestParsing:
    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=[" ".join(argv) for argv in PARSE_CORPUS])
    def test_parse_args_matches_the_full_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        full = _parsed(capsys, lambda args: build_parser().parse_args(args), argv)
        assert _parsed(capsys, parse_args, argv) == full

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=[argv[0] for argv in VALID_ARGVS])
    def test_a_known_command_builds_no_parser(self, monkeypatch, argv):
        assert _parsers_built(monkeypatch, parse_args, argv) == 0

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            ([*PUSH_FORMAL, "--N", "-3"], 0),
            ([*PUSH_FORMAL, "--N=3", "--json"], 0),
            (["degree", "--d", "1", "--pm", "1", "--twists=-1,2"], 0),
            ([*DEGREE, "--d", "2", "--pm", "0"], 0),
        ],
    )
    def test_only_a_plainly_well_formed_argv_skips_the_parser(self, monkeypatch, argv, parsers):
        assert _parsers_built(monkeypatch, parse_args, argv) == parsers

    @pytest.mark.parametrize(
        "argv",
        [
            ["degree", "--d", "1", "--pm", "1", "--twists", "-1,2"],
            [*PUSH_FORMAL, "--N", "x"],
            [*DEGREE, "--json=1"],
            ["degree", "--d", "1", "--pm", "1", "--tw", "1,2"],
            ["degree", "--d", "1", "--pm", "1"],
            ["verify", "--suite", "bogus"],
            ["degree", "-h"],
            [*DEGREE, "stray"],
            ["bogus"],
            [],
        ],
        ids=" ".join,
    )
    def test_every_refused_argv_builds_the_full_tree_once(self, monkeypatch, argv):
        # the top level and its five subcommands, and no other parser
        assert _parsers_built(monkeypatch, parse_args, argv) == 6

    def test_every_row_uses_only_options_the_fast_reading_knows(self):
        # cli._read_command reads type, choices, required and default, and
        # tells store_true flags from valued ones; any other option (nargs,
        # dest, another action) would need it taught first
        known = {"type", "choices", "required", "default", "help", "action"}
        for _, _, arguments in _COMMANDS.values():
            for flag, options in arguments:
                assert flag.startswith("--"), flag
                assert set(options) <= known, flag
                assert options.get("action", "store_true") == "store_true", flag


HELP_TEXTS = [
    (("--help",), """\
usage: pluckerpush [-h] {pushforward,degree,degree-classical,syt,verify} ...

Exact push-forwards of Pluecker-class powers on Grassmann bundles, degree
formulas, and their brute-force verification.

positional arguments:
  {pushforward,degree,degree-classical,syt,verify}
    pushforward         push a power of the Pluecker class to the base
    degree              degree of the Grassmann bundle of a split bundle
    degree-classical    Pluecker degree of a Grassmann variety
    syt                 count standard Young tableaux of a shape
    verify              run the oracle cross-check suites

options:
  -h, --help            show this help message and exit
"""),
    (("pushforward", "--help"), """\
usage: pluckerpush pushforward [-h] --N N --d D --r R [--base-dim BASE_DIM]
                               [--pm PM] [--twists TWISTS] [--json]

options:
  -h, --help           show this help message and exit
  --N N                power of the Pluecker class
  --d D                rank of the universal quotient
  --r R                rank of the bundle
  --base-dim BASE_DIM  formal base dimension
  --pm PM              split model: dimension of P^m
  --twists TWISTS      split model: comma-separated twists
  --json
"""),
    (("degree", "--help"), """\
usage: pluckerpush degree [-h] --d D --pm PM --twists TWISTS [--json]

options:
  -h, --help       show this help message and exit
  --d D
  --pm PM
  --twists TWISTS
  --json
"""),
    (("degree-classical", "--help"), """\
usage: pluckerpush degree-classical [-h] --d D --r R

options:
  -h, --help  show this help message and exit
  --d D
  --r R
"""),
    (("syt", "--help"), """\
usage: pluckerpush syt [-h] --shape SHAPE [--method {hook,product,enumerate}]
                       [--d D] [--r R]

options:
  -h, --help            show this help message and exit
  --shape SHAPE         shape such as "(2,1)"
  --method {hook,product,enumerate}
  --d D                 rows, for --method product
  --r R                 bundle rank, for --method product
"""),
    (("verify", "--help"), """\
usage: pluckerpush verify [-h] --suite {theorem,remark,degrees,all}
                          [--seed SEED] [--trials TRIALS] [--max-d MAX_D]
                          [--max-r MAX_R] [--extra-N EXTRA_N] [--verbose]
                          [--json]

options:
  -h, --help            show this help message and exit
  --suite {theorem,remark,degrees,all}
  --seed SEED
  --trials TRIALS
  --max-d MAX_D
  --max-r MAX_R
  --extra-N EXTRA_N
  --verbose             include per-trial lines
  --json
"""),
]


@pytest.mark.parametrize("argv,text", HELP_TEXTS, ids=[" ".join(argv) for argv, _ in HELP_TEXTS])
def test_help_text_is_pinned(argv, text):
    # NO_COLOR keeps help plain on interpreters whose argparse can colour it
    result = subprocess.run(
        [sys.executable, "-m", "pluckerpush", *argv],
        capture_output=True,
        text=True,
        env={**_child_env(), "COLUMNS": "80", "NO_COLOR": "1"},
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == text


PUSH = ("pushforward", "--N", "3", "--d", "1", "--r", "2")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pushforward", "--N", "-1", "--d", "1", "--r", "2", "--base-dim", "1"),
            ("pushforward", "--N", "3", "--d", "0", "--r", "2", "--base-dim", "1"),
            ("pushforward", "--N", "3", "--d", "0", "--r", "0", "--base-dim", "1"),
            PUSH + ("--pm=-1", "--twists", "1,2"),
            ("degree", "--d", "0", "--pm", "1", "--twists", "1,2"),
            ("verify", "--suite", "theorem", "--trials", "0"),
            ("verify", "--suite", "degrees", "--trials", "-3"),
            ("verify", "--suite", "theorem", "--max-d", "0"),
            ("verify", "--suite", "remark", "--max-r", "0"),
            ("verify", "--suite", "theorem", "--extra-N", "-1"),
        ],
    )
    def test_caller_mistakes_exit_2_before_any_output(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_boundary_values_are_accepted(self, capsys):
        assert main(["pushforward", "--N", "0", "--d", "1", "--r", "2", "--base-dim", "0"]) == 0
        assert main(list(PUSH + ("--pm", "0", "--twists", "1,2"))) == 0
        args = ("verify", "--suite", "theorem", "--max-d", "1", "--max-r", "1")
        assert main([*args, "--extra-N", "0", "--trials", "1"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("pushforward_terms", PUSH + ("--base-dim", "1")),
            ("degree_grassmann_bundle_terms", ("degree", "--d", "1", "--pm", "1", "--twists", "1,2")),
            ("run_suites", ("verify", "--suite", "degrees")),
        ],
    )
    def test_value_error_inside_the_engine_exits_3(self, capsys, monkeypatch, name, argv):
        def broken(*args, **kwargs):
            raise ValueError("planted engine fault")

        monkeypatch.setattr(f"pluckerpush.cli.{name}", broken)
        assert main(list(argv)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: planted engine fault\n"

    def test_any_other_engine_exception_exits_3_naming_its_class(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("planted engine fault")

        monkeypatch.setattr("pluckerpush.cli.pushforward_terms", out_of_memory)
        assert main(list(PUSH + ("--base-dim", "1"))) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: MemoryError('planted engine fault')\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("syt", "--shape", "(100000000000000000000)", "--method", "product",
              "--d", "1", "--r", "1"), "factorial() argument should not exceed"),
            (("degree", "--d", "1", "--pm", "100000000000000000000", "--twists", "1"),
             "k must not exceed"),
        ],
        ids=["factorial", "perm"],
    )
    def test_an_int_too_large_for_the_math_module_exits_3(self, capsys, argv, message):
        assert main(list(argv)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"internal error: OverflowError('{message} ")
        assert captured.err.count("\n") == 1

    def test_a_hook_count_too_large_for_the_math_module_exits_3(self):
        # in a child with a timeout and 1 GiB of address space: the hook
        # lengths of 10^20 cells, if built before the factorial refuses, would
        # run and grow without bound
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        result = subprocess.run(
            [sys.executable, "-m", "pluckerpush", "syt", "--shape", "(100000000000000000000)"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
            preexec_fn=limit_memory,
        )
        assert (result.returncode, result.stdout) == (3, "")
        message = "factorial() argument should not exceed"
        assert result.stderr.startswith(f"internal error: OverflowError('{message} ")
        assert result.stderr.count("\n") == 1

    def test_a_walk_past_the_recursion_limit_exits_3(self, capsys, monkeypatch):
        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("pluckerpush.cli.pushforward_terms", too_deep)
        assert main(list(PUSH + ("--base-dim", "1"))) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: maximum recursion depth exceeded\n"


def required(*option):
    """The option, left out one time in sixteen."""
    return st.sampled_from([[option]] * 15 + [[]])


def optional(*option):
    """The option or nothing, alike often."""
    return st.sampled_from([[], [option]])


def listed(values):
    return ",".join(map(str, values))


STRAY = ("stray", "--stray", "--", "-h", "--json", "-1", "=", "")
SUITES = ("theorem", "remark", "degrees", "all")


def grammar(r):
    """Command -> slots, each drawing a list of options (flag, values in
    range, values out of range) for a bundle of rank r; a flag without
    values is a store_true flag."""
    d = ("--d", st.integers(1, r), st.sampled_from((0, r + 1)))
    rank = ("--r", st.just(r), st.just(0))
    pm = ("--pm", st.integers(0, 3), st.just(-1))
    twist = st.integers(-3, 3)
    twists = (
        "--twists",
        st.lists(twist, min_size=r, max_size=r).map(listed),
        st.lists(twist, min_size=r + 1, max_size=r + 1).map(listed) | st.just(""),
    )
    shape = (
        "--shape",
        st.lists(st.integers(1, 3), max_size=3).map(lambda p: f"({listed(sorted(p, reverse=True))})"),
        st.sampled_from(("(1,2)", "(2,-1)", "2,1", "(x)")),
    )
    product = ("--method", st.just("product"), None)
    return {
        "pushforward": [
            required("--N", st.integers(0, 12), st.just(-1)),
            required(*d),
            required(*rank),
            # one model in six is none, both or half of one
            st.sampled_from(
                [[("--base-dim", st.integers(0, 6), st.just(-1))], [pm, twists]] * 5
                + [[], [("--base-dim", st.integers(0, 6), None), pm, twists], [pm]]
            ),
            optional("--json"),
        ],
        "degree": [required(*d), required(*pm), required(*twists), optional("--json")],
        "degree-classical": [required(*d), required(*rank)],
        "syt": [
            required(*shape),
            # half the draws take the product method with its d and r
            st.sampled_from(
                [[product, d, rank]] * 4
                + [[], [("--method", st.just("hook"), None)]]
                + [[("--method", st.just("enumerate"), None)]]
                + [[product], [product, d], [d, rank]]
            ),
        ],
        "verify": [
            required("--suite", st.sampled_from(SUITES), st.just("bogus")),
            required("--max-d", st.integers(1, 2), st.just(0)),
            # always given: the default --max-r would make a run take seconds
            st.just([("--max-r", st.integers(1, 4), st.just(0))]),
            required("--trials", st.integers(1, 2), st.just(0)),
            optional("--extra-N", st.integers(0, 2), st.just(-1)),
            optional("--seed", st.integers(-(2**64), 2**64), None),
            optional("--verbose"),
            optional("--json"),
        ],
    }


@st.composite
def grammar_argvs(draw):
    """An argv of one subcommand: its options in any order, in the ``--flag
    value`` or ``--flag=value`` form; about half the argvs give one option a
    value out of range, and now and then a required option is missing or a
    stray token is added."""
    slots = grammar(draw(st.integers(1, 5)))
    name = draw(st.sampled_from(sorted(slots)))
    options = [option for slot in slots[name] for option in draw(slot)]
    spoiled = draw(st.integers(0, 2 * len(options)))
    groups = []
    for i, (flag, *values) in enumerate(options):
        if not values:
            groups.append([flag])
            continue
        good, bad = values
        text = str(draw(bad if i == spoiled and bad is not None else good))
        groups.append([flag, text] if draw(st.booleans()) else [f"{flag}={text}"])
    argv = [name] + [token for group in draw(st.permutations(groups)) for token in group]
    if draw(st.integers(0, 7)) == 3:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


@settings(max_examples=500, deadline=None)
@given(grammar_argvs())
def test_every_grammar_argv_exits_0_or_2(argv):
    # exit 1 (a failed suite) and 3 (an engine fault) mean a broken engine,
    # whatever a caller types; 2 is a usage error and prints nothing
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    elif "--json" in argv and "-h" not in argv:
        assert json.loads(out.getvalue())["schema"] == 1


@settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(grammar_argvs())
def test_every_grammar_argv_parses_as_by_the_full_tree(capsys, argv):
    full = _parsed(capsys, build_parser().parse_args, argv)
    assert _parsed(capsys, parse_args, argv) == full


class TestEntryPoints:
    def test_missing_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "pluckerpush", "degree-classical", "--d", "3", "--r", "6"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "42"

    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        # -S skips site, whose .pth hooks may import typing themselves
        code = (
            "import pluckerpush, pluckerpush.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_a_working_command_imports_no_argparse(self):
        code = (
            "import pluckerpush.cli, sys; "
            "pluckerpush.cli.main(['degree-classical', '--d', '3', '--r', '6']); "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_child_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "42\n[]\n"

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # about 128 kB of rows, twice a pipe buffer: the writes after the
        # reader closes its end must fail, as under ``| head -1``
        argv = ["degree", "--d", "6", "--pm", "30", "--twists=1,2,3,4,5,6,7,8,9,10,11,12"]
        child = subprocess.Popen(
            [sys.executable, "-m", "pluckerpush", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert first.startswith(b"degree: ")
        assert b"Traceback" not in err
        assert err == b""


def _child_env() -> dict[str, str]:
    """The environment of a child that imports the package these tests import,
    installed or not."""
    package_root = str(Path(pluckerpush.__file__).resolve().parent.parent)
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
