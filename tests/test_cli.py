import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hknet import ParseError, cli
from hknet.parser import MAX_NESTING
from hknet.cli import main

from conftest import CORPUS, CORPUS_FILES

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def workdir(tmp_path):
    for name in CORPUS_FILES:
        shutil.copy(CORPUS / name, tmp_path / name)
    return tmp_path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("frobnicate") == 2
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    assert run_cli("check", "no_such_file.hk") == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_2_with_location(workdir, capsys):
    bad = workdir / "bad.hk"
    bad.write_text("module broken { places { p q; } }")
    assert run_cli("check", bad) == 2
    err = capsys.readouterr().err
    assert "bad.hk:1:" in err


def test_check_accepts_the_corpus(workdir, capsys):
    files = [workdir / n for n in
             ("sigma0.hksig", "s0.hks", "entry.hk", "guest_area.hk", "kitchen.hk")]
    assert run_cli("check", *files) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 5


def test_python_dash_m_hknet_runs_the_cli_in_this_process(monkeypatch, capsys):
    # what ``python -m hknet check ...`` runs, without a subprocess
    monkeypatch.setattr(sys, "argv", ["hknet", "check", str(CORPUS / "entry.hk")])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("hknet", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.count(": ok") == 1


def test_check_flags_invalid_structures(workdir, capsys):
    broken = workdir / "broken.hks"
    broken.write_text("""structure broken of sigma0 {
      Clients = {Alice};
      Tables = {t1};
      Menu = {rice};
      Meal_items = {rice};
      Orders = pow(Menu);
      Meals = pow(Meal_items);
      f = {};
      g = {{} -> {}, {rice} -> {rice}};
    }""")
    assert run_cli("check", broken) == 1
    assert "non-total-function" in capsys.readouterr().out


def test_compose_pipeline_matches_case_study(workdir, capsys):
    rc = run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
                 workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    assert rc == 0
    out = capsys.readouterr().out
    assert "left interface: transition enter" in out
    assert "right interface: transition leave" in out

    rc = run_cli("instantiate", workdir / "branch.hk", workdir / "s0.hks",
                 "--name", "branch_s0", "-o", workdir / "branch_s0.hksys")
    assert rc == 0
    assert "5 initial tokens" in capsys.readouterr().out


@pytest.mark.parametrize("args, flag", [
    (("compose", "entry.hk", "guest_area.hk", "kitchen.hk", "-o", "my-branch.hk"),
     "-o/--output"),
    (("compose-runs", "a0_begin.hkrun", "a0_middle.hkrun", "-o", "2runs.hkrun"),
     "-o/--output"),
    (("instantiate", "entry.hk", "s0_tiny.hks", "--name", "tiny branch",
      "-o", "tiny.hksys"), "--name"),
])
def test_a_name_the_parser_would_not_read_back_is_rejected(
        workdir, capsys, monkeypatch, args, flag):
    monkeypatch.chdir(workdir)
    before = sorted(workdir.iterdir())
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "not an identifier" in err
    assert sorted(workdir.iterdir()) == before


def test_initial_tokens_outside_their_place_sort_exit_1(workdir, capsys):
    assert run_cli("instantiate", workdir / "entry.hk", workdir / "s0_tiny.hks",
                   "-o", workdir / "entry.hksys") == 0
    capsys.readouterr()
    # free_tables holds Tables: fill it with the clients instead
    text = (workdir / "entry.hksys").read_text(encoding="utf-8")
    bad = text.replace("init elm(Tables)", "init elm(Clients)") \
        .replace("free_tables: t1;", "free_tables: Alice;")
    assert bad.count("Clients)") == 1 and "free_tables: Alice;" in bad
    (workdir / "bad.hksys").write_text(bad, encoding="utf-8")
    (workdir / "bad.hk").write_text((workdir / "entry.hk").read_text(
        encoding="utf-8").replace("init elm(Tables)", "init elm(Clients)"),
        encoding="utf-8")
    for args in (("instantiate", workdir / "bad.hk", workdir / "s0_tiny.hks",
                  "-o", workdir / "bad_again.hksys"),
                 ("check", workdir / "bad.hksys")):
        assert run_cli(*args) == 1
        assert "token-sort] token Alice on 'free_tables'" in capsys.readouterr().err
    assert not (workdir / "bad_again.hksys").exists()


def build_system(workdir) -> Path:
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0.hks",
            "--name", "branch_s0", "-o", workdir / "branch_s0.hksys")
    return workdir / "branch_s0.hksys"


def test_scripted_simulation_validates_end_to_end(workdir, capsys):
    system = build_system(workdir)
    rc = run_cli("simulate", system, "--script", workdir / "a0.steps",
                 "-o", workdir / "a0_sim.hkrun")
    assert rc == 0
    rc = run_cli("validate-run", workdir / "a0_sim.hkrun", system)
    assert rc == 0
    rc = run_cli("validate-run", workdir / "a0.hkrun", system)
    assert rc == 0
    out = capsys.readouterr().out
    assert "valid run" in out


def test_validate_run_rejects_foreign_runs(workdir, capsys):
    system = build_system(workdir)
    tampered = (workdir / "a0.hkrun").read_text().replace(
        "ev5 = cook [y=meat];", "ev5 = cook [y=rice];")
    (workdir / "tampered.hkrun").write_text(tampered)
    rc = run_cli("validate-run", workdir / "tampered.hkrun", system)
    assert rc == 1
    capsys.readouterr()


def test_compose_runs_cli(workdir, capsys):
    build_system(workdir)
    rc = run_cli("compose-runs", workdir / "a0_begin.hkrun",
                 workdir / "a0_middle.hkrun", workdir / "a0_end.hkrun",
                 "-o", workdir / "a0_joined.hkrun")
    assert rc == 0
    out = capsys.readouterr().out
    assert "16 events" in out and "29 conditions" in out


def test_compose_runs_output_is_byte_identical(workdir, capsys):
    assert run_cli("compose-runs", workdir / "a0_begin.hkrun",
                   workdir / "a0_middle.hkrun", workdir / "a0_end.hkrun") == 0
    golden = GOLDEN / "compose_runs_a0.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    # without -o nothing is written
    assert sorted(p.name for p in workdir.iterdir()) == sorted(CORPUS_FILES)


def test_simulation_is_deterministic_per_seed(workdir, capsys):
    system = build_system(workdir)
    for name in ("one.hkrun", "two.hkrun"):
        assert run_cli("simulate", system, "--seed", "11", "--steps", "8",
                       "-o", workdir / name) == 0
    capsys.readouterr()
    assert (workdir / "one.hkrun").read_text() == (workdir / "two.hkrun").read_text()


def test_invariants_report(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_tiny.hks",
            "--name", "branch_tiny", "-o", workdir / "tiny.hksys")
    capsys.readouterr()
    assert run_cli("invariants", workdir / "tiny.hksys", "--transitions") == 0
    out = capsys.readouterr().out
    assert "place invariants:" in out
    assert "transition invariants:" in out


def test_invariants_report_is_byte_identical_on_s0_small(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_small.hks",
            "--name", "branch_small", "-o", workdir / "small.hksys")
    capsys.readouterr()
    assert run_cli("invariants", workdir / "small.hksys", "--transitions") == 0
    golden = GOLDEN / "invariants_s0_small.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_reach_report_with_predicate(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_tiny.hks",
            "--name", "branch_tiny", "-o", workdir / "tiny.hksys")
    capsys.readouterr()
    rc = run_cli("reach", workdir / "tiny.hksys", "--max-nodes", "500",
                 "--pred", "contains(eating, (Alice, t1))")
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes: 9" in out
    assert "truncated: no" in out
    assert "deadlocks: 0" in out
    assert "predicate hits: 1" in out
    assert out == (GOLDEN / "reach_tiny_pred.txt").read_text(encoding="utf-8")


def test_reach_reads_a_predicate_of_1500_clauses_as_its_one_clause(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_tiny.hks",
            "--name", "branch_tiny", "-o", workdir / "tiny.hksys")
    capsys.readouterr()
    clause = "count(eating) >= 1"
    outputs = []
    for pred in (clause, " and ".join([clause] * 1500)):
        assert run_cli("reach", workdir / "tiny.hksys", "--pred", pred) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]
    assert "predicate hits: 0" not in outputs[0]


def test_reach_output_does_not_depend_on_the_hash_seed(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_small.hks",
            "--name", "branch_small", "-o", workdir / "small.hksys")
    capsys.readouterr()
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "hknet", "reach", str(workdir / "small.hksys"),
             "--pred", "contains(eating, (Alice, t1)) and count(free_tables) <= 1"],
            env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert b"predicate hits: 0" not in outputs[0] and b"nodes: 956" in outputs[0]


def test_reach_rejects_a_non_decimal_digit_in_a_predicate(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_tiny.hks",
            "--name", "branch_tiny", "-o", workdir / "tiny.hksys")
    capsys.readouterr()
    assert run_cli("reach", workdir / "tiny.hksys", "--pred", "count(p) = ²") == 2
    assert capsys.readouterr().err == \
        "error: <predicate>:1:12: unexpected character '²'\n  count(p) = ²\n" \
        "             ^\n"


def test_reach_rejects_a_predicate_on_an_unknown_place(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_small.hks",
            "--name", "branch_small", "-o", workdir / "small.hksys")
    capsys.readouterr()
    for pred in ("contains(nowhere, (Alice, t1))",
                 "count(eating) >= 0 and not (tokens(nowhere, t1) = 1)"):
        assert run_cli("reach", workdir / "small.hksys", "--pred", pred) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        column = pred.index("nowhere") + 1
        assert captured.err == \
            f"error: <predicate>:1:{column}: unknown place 'nowhere'\n  {pred}\n" \
            f"  {' ' * (column - 1)}^~~~~~~\n"


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="int() converts a 5000-digit number on this interpreter")
def test_reach_rejects_a_number_too_long_to_convert(workdir, capsys):
    run_cli("compose", workdir / "entry.hk", workdir / "guest_area.hk",
            workdir / "kitchen.hk", "-o", workdir / "branch.hk")
    run_cli("instantiate", workdir / "branch.hk", workdir / "s0_tiny.hks",
            "--name", "branch_tiny", "-o", workdir / "tiny.hksys")
    capsys.readouterr()
    pred = "count(eating) < " + "9" * 5000
    assert run_cli("reach", workdir / "tiny.hksys", "--pred", pred) == 2
    assert capsys.readouterr().err == \
        f"error: <predicate>:1:17: number too long: 5000 digits\n  {pred}\n" \
        f"  {' ' * 16}^{'~' * 4999}\n"


def test_reach_truncation_flag(workdir, capsys):
    system = build_system(workdir)
    assert run_cli("reach", system, "--max-nodes", "1", "--max-edges", "0") == 0
    out = capsys.readouterr().out
    assert "truncated: yes" in out


def test_export_dot(workdir, capsys):
    build_system(workdir)
    assert run_cli("export", workdir / "branch.hk", "--dot",
                   "-o", workdir / "branch.dot") == 0
    dot = (workdir / "branch.dot").read_text()
    assert dot.startswith("digraph")
    assert run_cli("export", workdir / "a0.hkrun", "--dot",
                   "-o", workdir / "a0.dot") == 0
    assert (workdir / "a0.dot").read_text().startswith("digraph")
    capsys.readouterr()


def test_check_and_export_parse_a_system_once(workdir, capsys, monkeypatch):
    system = build_system(workdir)
    parsed = []
    parse = cli.parse

    def counting(text, filename):
        parsed.append(filename)
        return parse(text, filename)

    monkeypatch.setattr(cli, "parse", counting)
    assert run_cli("check", system) == 0
    assert run_cli("export", system, "--dot", "-o", workdir / "branch_s0.dot") == 0
    assert parsed == [str(system), str(system)]
    capsys.readouterr()


def test_marking_block_mismatch_is_a_validation_error(workdir, capsys):
    system = build_system(workdir)
    text = system.read_text().replace(
        "free_tables: t1, t2, t3, t4;", "free_tables: t1, t2, t3;")
    (workdir / "edited.hksys").write_text(text)
    assert run_cli("check", workdir / "edited.hksys") == 1
    assert "marking block" in capsys.readouterr().err


def test_simulate_script_caret_sits_under_the_offending_character(workdir, capsys):
    system = build_system(workdir)
    script = workdir / "indented.steps"
    script.write_text("offer_table t=t1\n    enter c=@ t=t1\n")
    capsys.readouterr()
    assert run_cli("simulate", system, "--script", script) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: {script}:2:13: unexpected character '@'"
    assert err[1] == "      enter c=@ t=t1"
    assert err[2].index("^") == err[1].index("@")


def test_simulate_reports_a_script_step_naming_no_transition(workdir, capsys):
    system = build_system(workdir)
    script = workdir / "bad.steps"
    script.write_text("no_such_transition\n")
    capsys.readouterr()
    assert run_cli("simulate", system, "--script", script) == 1
    assert capsys.readouterr().err == \
        "error: script step 1: no transition 'no_such_transition'\n"


def test_simulate_reports_a_script_step_naming_no_variable_of_its_transition(
        workdir, capsys):
    system = build_system(workdir)
    script = workdir / "bad.steps"
    script.write_text("offer_table t=t1 zz=t2\n")
    capsys.readouterr()
    assert run_cli("simulate", system, "--script", script) == 1
    assert capsys.readouterr().err == \
        "error: script step 1: offer_table has no variable 'zz'\n"


def test_check_rejects_a_free_variable_declared_twice(workdir, capsys):
    bad = workdir / "twice.hk"
    bad.write_text("module m { trans { t free x: A, x: B; } }\n")
    assert run_cli("check", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:1:33: duplicate free variable 'x'")
    assert "\n  " + " " * 32 + "^\n" in err


def test_check_of_a_subset_sorted_before_its_base(tmp_path, capsys):
    (tmp_path / "s.hksig").write_text("signature s { sets B; subsets A of pow(B); }\n")
    good = tmp_path / "t.hks"
    good.write_text("structure t of s {\n  B = {b1, b2};\n  A = pow(B);\n}\n")
    assert run_cli("check", good) == 0
    assert capsys.readouterr().out == f"{good}: ok (structure)\n"
    bad = tmp_path / "u.hks"
    bad.write_text("structure u of s {\n  A = pow(B);\n}\n")
    assert run_cli("check", bad) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}:2:3: structure 'u' gives no carrier of 'B' for 'A' = pow(B)\n")


def test_check_rejects_a_powerset_over_the_cap(workdir, capsys):
    # 17 menu entries would make 131 072 orders: refused before any is built
    wide = workdir / "wide.hks"
    menu = ", ".join(f"m{i:02d}" for i in range(17))
    wide.write_text(f"""structure wide of sigma0 {{
      Clients = {{Alice}};
      Tables = {{t1}};
      Menu = {{{menu}}};
      Meal_items = {{rice}};
      Orders = pow(Menu);
      Meals = pow(Meal_items);
      f = {{}};
      g = {{}};
    }}""")
    assert run_cli("check", wide) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (f"error: {wide}:6:7: powerset of 'Menu' has base size 17, "
                      "which exceeds the cap of 16")
    assert err[1] == "        Orders = pow(Menu);"
    assert err[2].index("^") == err[1].index("Orders")


def test_unreadable_inputs_exit_2_with_one_error_line(workdir, capsys):
    system = build_system(workdir)
    latin1 = workdir / "latin1.hk"
    latin1.write_bytes("module m { places { caf\xe9; } }\n".encode("latin-1"))
    capsys.readouterr()
    for args in (("check", workdir), ("check", latin1),
                 ("simulate", system, "--script", workdir)):
        assert run_cli(*args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_file_that_is_not_utf8_is_named_in_the_error(workdir, tmp_path, capsys):
    latin1 = tmp_path / "latin1.hk"
    latin1.write_bytes("module m {\n  places { caf\xe9; }\n}\n".encode("latin-1"))
    assert run_cli("check", workdir / "s0.hks", latin1) == 2
    captured = capsys.readouterr()
    assert captured.out == f"{workdir / 's0.hks'}: ok (structure)\n"
    assert captured.err == f"error: {latin1}:2:15: not UTF-8 text: cannot decode byte 0xe9\n"


def test_check_goes_on_after_a_file_it_cannot_read(workdir, capsys):
    latin1 = workdir / "latin1.hk"
    latin1.write_bytes("module m {\n  places { caf\xe9; }\n}\n".encode("latin-1"))
    assert run_cli("check", latin1, workdir / "s0.hks") == 2
    captured = capsys.readouterr()
    assert captured.out == f"{workdir / 's0.hks'}: ok (structure)\n"
    assert captured.err == f"error: {latin1}:2:15: not UTF-8 text: cannot decode byte 0xe9\n"


def test_check_reports_every_failing_file_and_exits_with_the_worst(workdir, capsys):
    bad = workdir / "bad.hk"
    bad.write_text("module broken {\n  places { p q; }\n}\n")
    system = build_system(workdir)
    edited = workdir / "edited.hksys"
    edited.write_text(system.read_text().replace(
        "free_tables: t1, t2, t3, t4;", "free_tables: t1, t2, t3;"))
    capsys.readouterr()
    # a failed validation alone exits 1, and later files are still checked
    assert run_cli("check", edited, workdir / "entry.hk") == 1
    captured = capsys.readouterr()
    assert captured.out == f"{workdir / 'entry.hk'}: ok (module)\n"
    assert captured.err.startswith(f"error: {edited}: the marking block")
    # a parse error keeps its caret lines and outranks the failed validation
    assert run_cli("check", bad, edited, workdir / "s0.hks") == 2
    captured = capsys.readouterr()
    assert captured.out == f"{workdir / 's0.hks'}: ok (structure)\n"
    err = captured.err.splitlines()
    assert err[0].startswith(f"error: {bad}:2:")
    assert err[1] == "    places { p q; }"
    assert "^" in err[2]
    assert err[3].startswith(f"error: {edited}: the marking block")
    assert len(err) == 4


def test_check_rejects_a_run_interface_of_the_wrong_kind(workdir, capsys):
    run = workdir / "kinds.hkrun"
    run.write_text("run r { conditions { b1 = p a; } right { trans x = b1; } }\n")
    assert run_cli("check", run) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {run}:1:48: right interface exposes 'b1' as transition, "
        "but it is a place\n")


@pytest.mark.parametrize("command, flag, value, message", [
    ("simulate", "--steps", "-3", "must not be negative: -3"),
    ("reach", "--max-nodes", "-1", "must not be negative: -1"),
    ("reach", "--max-nodes", "0", "must be at least 1: 0"),
    ("reach", "--max-edges", "-1", "must not be negative: -1"),
    ("reach", "--max-edges", "x", "invalid count value: 'x'"),
])
def test_negative_counts_are_usage_errors(capsys, command, flag, value, message):
    # argparse rejects the value before the system file is read
    assert run_cli(command, "no_such.hksys", flag, value) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: hknet {command}")
    assert err[-1] == f"hknet {command}: error: argument {flag}: {message}"


def _nested(depth: int, opening: str, inner: str, closing: str) -> str:
    return opening * depth + inner + closing * depth


# (file, the text before the nested part, the nested part, the text after
# it): each nests brackets deeper than the parser follows them
TOO_DEEP = {
    "module init": ("deep.hk", "module deep of sigma0 {\n  places { p : Tables init ",
                    _nested(329, "{", "t1", "}"), "; }\n}\n"),
    "structure value": ("deep.hks", "structure deep of sigma0 {\n  Clients = ",
                        _nested(350, "(Alice, ", "Alice", ")"), ";\n}\n"),
    "run binding": ("deep.hkrun", "run deep of branch_s0 {\n  events { e1 = enter [c=",
                    _nested(350, "{", "Alice", "}"), "]; }\n}\n"),
    "predicate": (None, "", _nested(400, "(", "count(eating) >= 0", ")"), ""),
}


@pytest.mark.parametrize("row", TOO_DEEP)
def test_nesting_past_the_limit_is_a_parse_error_with_a_caret(workdir, capsys, row):
    name, before, nested, after = TOO_DEEP[row]
    text = before + nested + after
    if name is None:
        command = ["reach", build_system(workdir), "--pred", text]
        capsys.readouterr()
    else:
        (workdir / name).write_text(text, encoding="utf-8")
        command = ["check", workdir / name]
    assert run_cli(*command) == 2
    # the error is at the first bracket past the limit
    line = before.count("\n") + 1
    column = len(before.rsplit("\n", 1)[-1]) + 1 + \
        [i for i, c in enumerate(nested) if c in "({"][MAX_NESTING]
    message, quoted, caret = capsys.readouterr().err.splitlines()
    assert message.endswith(f":{line}:{column}: nested more than {MAX_NESTING} deep")
    assert quoted == "  " + text.splitlines()[line - 1]
    assert caret == "  " + " " * (column - 1) + "^"


def test_a_parse_error_without_a_span_gets_no_caret_lines(capsys):
    assert cli._report(ParseError("no place to point at")) == 2
    assert capsys.readouterr().err == "error: no place to point at\n"


def test_a_document_of_another_kind_is_a_validation_error(workdir, capsys):
    structure = workdir / "s0.hks"
    assert run_cli("simulate", structure) == 1
    assert capsys.readouterr().err == (
        f"error: {structure}: expected a system document, found structure\n")
    assert run_cli("export", structure, "--dot") == 1
    assert capsys.readouterr().err == f"error: {structure}: cannot export a structure document\n"


def test_check_finds_the_signature_given_or_next_to_the_file(workdir, tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    structure, module = elsewhere / "s0.hks", elsewhere / "kitchen.hk"
    shutil.copy(workdir / "s0.hks", structure)
    shutil.copy(workdir / "kitchen.hk", module)
    assert run_cli("check", structure, "--sig", workdir / "sigma0.hksig") == 0
    assert capsys.readouterr().out == f"{structure}: ok (structure)\n"
    assert run_cli("check", structure) == 2
    assert capsys.readouterr().err == (
        f"error: cannot resolve signature 'sigma0': no {elsewhere / 'sigma0.hksig'} "
        "(use --sig to point at the signature file)\n")
    # a module whose signature is not found is checked for syntax only
    assert run_cli("check", module) == 0
    assert capsys.readouterr().out == (
        f"{module}: note: signature 'sigma0' not found nearby, syntactic check only\n"
        f"{module}: ok (module)\n")


def test_compose_summary_prints_an_empty_interface_side(workdir, capsys):
    assert run_cli("compose", workdir / "entry.hk", "-o", workdir / "solo.hk") == 0
    assert capsys.readouterr().out == (
        "composed 1 modules into solo\n"
        "left interface: (empty)\n"
        "right interface: place free_tables, place offered_tables\n")
    written = (workdir / "solo.hk").read_text(encoding="utf-8")
    assert written.startswith("module solo of sigma0 {\n  right {\n")
    assert written.endswith("  arcs {\n    free_tables -> offer_table : t;\n"
                            "    offer_table -> offered_tables : t;\n  }\n}\n")
    assert run_cli("compose", workdir / "kitchen.hk", "-o", workdir / "k.hk") == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "left interface: place orders, transition hand_over",
        "right interface: (empty)"]


def test_transition_invariants_print_coefficients_other_than_one(tmp_path, capsys):
    (tmp_path / "one.hksig").write_text("signature one {\n  sets A;\n}\n")
    (tmp_path / "one.hks").write_text("structure one_a of one {\n  A = {a};\n}\n")
    (tmp_path / "double.hk").write_text(
        "module double of one {\n"
        "  places { p : A; }\n"
        "  trans { make free x : A; take; }\n"
        "  arcs { make -> p : x, x; p -> take : x; }\n"
        "}\n")
    assert run_cli("instantiate", tmp_path / "double.hk", tmp_path / "one.hks",
                   "-o", tmp_path / "double.hksys") == 0
    capsys.readouterr()
    assert run_cli("invariants", tmp_path / "double.hksys", "--transitions") == 0
    assert capsys.readouterr().out == (
        "grounded net: 1 places, 2 transitions\n"
        "place invariants: 0\n"
        "transition invariants: 1\n"
        "  make[x=a] + 2*take[x=a]\n")


def test_caret_lines_quote_the_line_the_lexer_numbers(tmp_path, capsys):
    # a comment may hold U+2028, which str.splitlines would end a line at
    sig = tmp_path / "u.hksig"
    sig.write_text("signature s { # note\u2028more\n  sets A, ;\n}\n", encoding="utf-8")
    assert run_cli("check", sig) == 2
    assert capsys.readouterr().err == (
        f"error: {sig}:2:11: expected set symbol, found ';'\n"
        "    sets A, ;\n"
        "            ^\n")


def test_an_undecodable_byte_is_placed_after_carriage_return_newlines(tmp_path, capsys):
    sig = tmp_path / "cr.hksig"
    sig.write_bytes(b"signature s {\r  sets A;\r  caf\xe9\r}\r")
    assert run_cli("check", sig) == 2
    assert capsys.readouterr().err == (
        f"error: {sig}:3:6: not UTF-8 text: cannot decode byte 0xe9\n")


def test_a_predicate_error_after_a_carriage_return_quotes_its_own_line(workdir, capsys):
    system = build_system(workdir)
    capsys.readouterr()
    for newline in ("\r", "\r\n", "\n"):
        assert run_cli("reach", system, "--pred", f"count(eating) >= 1 or{newline}count(@)") == 2
        assert capsys.readouterr().err == (
            "error: <predicate>:2:7: unexpected character '@'\n"
            "  count(@)\n"
            "        ^\n")
