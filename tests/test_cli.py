import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pluckerpush
from pluckerpush import rectangle, syt_count_hook
from pluckerpush.chowring import render_terms
from pluckerpush.cli import main, render_schur_terms


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
            ("pushforward_plucker_power", PUSH + ("--base-dim", "1")),
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
