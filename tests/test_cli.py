import io

import pytest

from obddlab import AcceptanceMode, computes, lift_deterministic
from obddlab.cli import main
from obddlab.constructions import build_det_counter
from obddlab.functions import format_truth_table, mod_count, partial_mod
from obddlab.serialize import decode_program, encode_program


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_a_decodable_document(tmp_path, capsys):
    out = tmp_path / "mod.obdd"
    code, _, err = run(capsys, "build", "--function", "mod", "--model", "deterministic",
                       "--k", "3", "--n", "6", "--out", str(out))
    assert code == 0
    assert "width=3" in err
    program = decode_program(out.read_text())
    assert program.kind == "deterministic" and program.n == 6


def test_build_to_stdout(capsys):
    code, out, _ = run(capsys, "build", "--function", "partialmod", "--model", "quantum",
                       "--k", "1", "--n", "4")
    assert code == 0
    assert out.startswith("obddprogram 1")


def test_simulate_and_verify_round_trip(tmp_path, capsys):
    prog = tmp_path / "p.obdd"
    run(capsys, "build", "--function", "mod", "--model", "deterministic",
        "--k", "3", "--n", "6", "--out", str(prog))
    code, out, _ = run(capsys, "simulate", str(prog), "111000")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "simulate", str(prog), "110000")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "verify", str(prog), "--function", "mod",
                       "--k", "3", "--n", "6", "--mode", "deterministic")
    assert code == 0 and out.startswith("yes")


def test_verify_counterexample_exits_2(tmp_path, capsys):
    prog = tmp_path / "p.obdd"
    run(capsys, "build", "--function", "mod", "--model", "deterministic",
        "--k", "3", "--n", "6", "--out", str(prog))
    code, out, _ = run(capsys, "verify", str(prog), "--function", "mod",
                       "--k", "2", "--n", "6", "--mode", "deterministic")
    assert code == 2 and out.startswith("no")


@pytest.mark.parametrize("cutoff", ["nan", "inf", "1.0"])
def test_verify_refuses_a_cutoff_outside_zero_one(tmp_path, capsys, cutoff):
    prog = tmp_path / "p.obdd"
    run(capsys, "build", "--function", "mod", "--model", "deterministic",
        "--k", "3", "--n", "6", "--out", str(prog))
    code, out, err = run(capsys, "verify", str(prog), "--function", "mod", "--k", "3",
                         "--n", "6", "--mode", "nondeterministic", "--cutoff", cutoff)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "cutoff in [0, 1)" in err


def test_verify_quantum_exhaustively(tmp_path, capsys):
    prog = tmp_path / "q.obdd"
    run(capsys, "build", "--function", "partialmod", "--model", "quantum",
        "--k", "1", "--n", "16", "--out", str(prog))
    code, out, _ = run(capsys, "verify", str(prog), "--function", "partialmod",
                       "--k", "1", "--n", "16", "--mode", "exact")
    assert code == 0 and out.startswith("yes")


def test_minwidth_oracles(capsys):
    code, out, _ = run(capsys, "minwidth", "--function", "noto", "--n", "8",
                       "--oracle", "subfunctions")
    assert code == 0 and "max width: 5" in out
    code, out, _ = run(capsys, "minwidth", "--function", "partialmod",
                       "--k", "1", "--n", "6")
    assert code == 0 and "max width: 4" in out
    code, out, _ = run(capsys, "minwidth", "--function", "partialmod",
                       "--k", "1", "--n", "6", "--oracle", "lower-bound")
    assert code == 0 and "max width: 2" in out


def test_minwidth_stable_search(capsys):
    code, out, _ = run(capsys, "minwidth", "--function", "partialmod",
                       "--k", "1", "--n", "6", "--oracle", "stable-search",
                       "--width", "3", "--kind", "nondeterministic")
    assert code == 0 and out.startswith("none")


@pytest.mark.parametrize("options, method, order", [
    (("--order", "pairing"), "distinct subfunctions", "0,5,1,4,2,3"),
    (("--order", "5,0,4,1,3,2"), "distinct subfunctions", "5,0,4,1,3,2"),
    (("--oracle", "subfunctions", "--order", "pairing"), "distinct subfunctions",
     "0,5,1,4,2,3"),
    (("--oracle", "min-over-orders"), "bottleneck path", "0,5,1,4,2,3"),
], ids=["pairing", "comma list", "subfunctions", "min-over-orders"])
def test_minwidth_orders_and_oracles_on_a_total_function(capsys, options, method, order):
    # NotPAL(6) has width 3 under the pairing order and under its mirror image
    code, out, _ = run(capsys, "minwidth", "--function", "notpal", "--n", "6", *options)
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith(f"method: {method}")
    assert "max width: 3" in lines and f"order: {order}" in lines


def test_minwidth_stable_search_writes_the_program_it_finds(tmp_path, capsys):
    out_file = tmp_path / "found.obdd"
    code, out, _ = run(capsys, "minwidth", "--function", "mod", "--k", "3", "--n", "6",
                       "--oracle", "stable-search", "--width", "3", "--out", str(out_file))
    assert code == 0 and out.startswith("found: stable ID deterministic program of width 3")
    program = decode_program(out_file.read_text())
    assert computes(program, mod_count(3, 6), AcceptanceMode.deterministic()).ok


def test_verify_bounded_error_on_a_lifted_counter(tmp_path, capsys):
    prog = tmp_path / "lifted.obdd"
    prog.write_text(encode_program(lift_deterministic(build_det_counter(3, 6))))
    code, out, _ = run(capsys, "verify", str(prog), "--function", "mod", "--k", "3",
                       "--n", "6", "--mode", "bounded-error", "--epsilon", "0.25")
    assert code == 0 and out.startswith("yes") and "bounded-error mode" in out


def test_verify_without_a_function_or_table_exits_1(tmp_path, capsys):
    prog = tmp_path / "p.obdd"
    run(capsys, "build", "--function", "mod", "--model", "deterministic",
        "--k", "3", "--n", "6", "--out", str(prog))
    code, out, err = run(capsys, "verify", str(prog), "--mode", "deterministic")
    assert code == 1 and out == ""
    assert "--function and --n (or --table) are required" in err


def test_minwidth_accepts_truth_table_files(tmp_path, capsys):
    table = tmp_path / "f.tt"
    table.write_text(format_truth_table(partial_mod(1, 6)))
    code, out, _ = run(capsys, "minwidth", "--table", str(table))
    assert code == 0 and "max width: 4" in out


def test_report_markdown_and_exit_code(capsys):
    code, out, _ = run(capsys, "report", "--task", "hierarchy-small",
                       "--d-min", "2", "--d-max", "4")
    assert code == 0
    assert out.startswith("## ") and "separation holds" in out


def test_report_csv_format(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(capsys, "report", "--task", "separation-quantum-classical",
                     "--k", "1", "--n", "6", "--format", "csv", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("model,function,")


def test_report_missing_required_parameter_exits_1(capsys):
    code, _, err = run(capsys, "report", "--task", "separation-quantum-classical", "--k", "1")
    assert code == 1 and "--n is required" in err
    code, _, err = run(capsys, "report", "--task", "markov-analysis")
    assert code == 1 and "--k is required" in err
    code, _, err = run(capsys, "report", "--task", "hierarchy-small", "--d-min", "5",
                       "--d-max", "2")
    assert code == 1 and "empty modulus range" in err


def test_markov_verdict_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.obdd"
    run(capsys, "build", "--function", "partialmod", "--model", "deterministic",
        "--k", "1", "--n", "8", "--out", str(good))
    code, out, _ = run(capsys, "markov", str(good), "--symbol", "1", "--k", "1")
    assert code == 0 and "pass" in out
    bad = tmp_path / "bad.obdd"
    run(capsys, "build", "--function", "mod", "--model", "deterministic",
        "--k", "3", "--n", "6", "--out", str(bad))
    code, out, _ = run(capsys, "markov", str(bad), "--symbol", "1", "--k", "1")
    assert code == 2 and "fail" in out


def test_markov_without_k_classifies_only(tmp_path, capsys):
    prog = tmp_path / "p.obdd"
    run(capsys, "build", "--function", "mod", "--model", "deterministic",
        "--k", "3", "--n", "6", "--out", str(prog))
    code, out, _ = run(capsys, "markov", str(prog))
    assert code == 0
    assert out.splitlines()[-1] == "period lcm D = 3" and "certificate" not in out


def test_build_determinize_agrees_with_nondeterministic_original(tmp_path, capsys):
    nd = tmp_path / "nd.obdd"
    det = tmp_path / "det.obdd"
    run(capsys, "build", "--function", "notok", "--model", "nondeterministic",
        "--k", "4", "--n", "6", "--out", str(nd))
    code, _, _ = run(capsys, "build", "--function", "notok", "--model", "nondeterministic",
                     "--k", "4", "--n", "6", "--determinize", "--out", str(det))
    assert code == 0
    from obddlab import simulate
    p = decode_program(nd.read_text())
    q = decode_program(det.read_text())
    assert q.kind == "deterministic"
    for i in range(64):
        bits = format(i, "06b")
        assert simulate(p, bits) == simulate(q, bits)


def test_runtime_errors_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", str(tmp_path / "missing.obdd"), "0101")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "build", "--function", "mod", "--model", "quantum",
                       "--k", "3", "--n", "6")
    assert code == 1 and "no construction" in err


def test_missing_k_or_width_is_an_error_not_a_traceback(capsys):
    code, _, err = run(capsys, "build", "--function", "mod", "--model", "deterministic",
                       "--n", "8")
    assert code == 1 and "requires the parameter k" in err
    code, _, err = run(capsys, "minwidth", "--function", "noto", "--n", "6",
                       "--oracle", "stable-search")
    assert code == 1 and "--width is required" in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minwidth", "--oracle", "warp-drive"])
    assert exc.value.code == 1
