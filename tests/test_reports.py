import csv
import inspect
import io

import pytest

from obddlab.reports import HOLDS, REPORT_TASKS, run_report


def csv_cells(table):
    return list(csv.reader(io.StringIO(table.to_csv())))


def test_separation_quantum_classical_rows_hold():
    table = run_report("separation-quantum-classical", k=1, n=6)
    assert table.all_hold
    verdict = table.headers.index("verdict")
    assert len(table.rows) == 4
    quantum = table.rows[0]
    assert quantum[table.headers.index("constructed_width")] == 2
    assert quantum[table.headers.index("oracle_value")] == 4
    assert all(row[verdict] == HOLDS for row in table.rows)


def test_separation_quantum_classical_k0_is_honest_about_no_separation():
    # at k = 0 both models need width 2, so the strict-separation row must
    # come out inconclusive while the bound rows still hold
    table = run_report("separation-quantum-classical", k=0, n=4)
    assert not table.all_hold
    verdict = table.headers.index("verdict")
    assert table.rows[0][verdict] == "inconclusive"
    assert all(row[verdict] == HOLDS for row in table.rows[1:])


def test_separation_quantum_classical_past_the_search_cap_is_inconclusive():
    # k = 2 asks for a width-7 nondeterministic search, past nondet_cap
    table = run_report("separation-quantum-classical", k=2, n=8)
    assert table.rows[2] == (
        "stable nondeterministic", "PartialMOD(k=2, n=8)", None, 8, "lower_bound",
        "inconclusive", "width-7 exhaustive search exceeds the enumeration cap",
    )


def test_separation_nondet_holds_at_n8():
    table = run_report("separation-nondet", n=8)
    assert table.all_hold
    oracle = table.headers.index("oracle_value")
    assert table.rows[1][oracle] == 5  # n/2 + 1


def test_hierarchy_small_reports_exact_steps():
    table = run_report("hierarchy-small", d_min=2, d_max=5)
    assert table.all_hold
    constructed = table.headers.index("constructed_width")
    oracle = table.headers.index("oracle_value")
    for row, d in zip(table.rows, range(2, 6)):
        assert row[constructed] == d
        assert row[oracle] == d


def test_hierarchy_small_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty modulus range"):
        run_report("hierarchy-small", d_min=5, d_max=2)


def test_hierarchy_large_holds_at_d11():
    table = run_report("hierarchy-large", d=11, n=12)
    assert table.all_hold
    row = table.rows[0]
    assert row[table.headers.index("constructed_width")] == 11
    assert row[table.headers.index("oracle_value")] == 2


def test_markov_analysis_has_pass_and_fail_chains():
    table = run_report("markov-analysis", k=1)
    assert table.all_hold
    cert = [row[5] for row in table.rows]
    assert cert == ["pass", "fail"]


def test_markdown_and_csv_carry_identical_numeric_content():
    table = run_report("hierarchy-small", d_min=2, d_max=4)
    rows = csv_cells(table)
    assert tuple(rows[0]) == table.headers
    md_lines = [
        line for line in table.to_markdown().splitlines()
        if line.startswith("|") and not set(line) <= {"|", "-", " "}
    ]
    md_cells = [
        [cell.strip() for cell in line.strip("|").split("|")] for line in md_lines
    ]
    assert md_cells[0] == list(table.headers)
    for md_row, csv_row in zip(md_cells[1:], rows[1:]):
        assert md_row == [cell if cell else "-" for cell in csv_row] or md_row == csv_row


def test_constructed_widths_are_rederived_live():
    # same task twice gives identical tables built from fresh programs
    first = run_report("separation-quantum-classical", k=1, n=6)
    second = run_report("separation-quantum-classical", k=1, n=6)
    assert first.rows == second.rows


def test_unknown_task_is_rejected():
    with pytest.raises(ValueError):
        run_report("separation-everything")


# small sizes for every parameter of every report task
TASK_SIZES = {
    "separation-quantum-classical": {"k": 1, "n": 6},
    "separation-nondet": {"n": 6},
    "hierarchy-small": {"d_min": 2, "d_max": 3},
    "hierarchy-large": {"d": 11, "n": 12},
    "markov-analysis": {"k": 1, "n": 8},
}
SIZE_CASES = [(task, name) for task, sizes in TASK_SIZES.items() for name in sizes]


def test_task_sizes_name_every_parameter():
    assert {task: list(sizes) for task, sizes in TASK_SIZES.items()} == {
        task: list(inspect.signature(run).parameters) for task, run in REPORT_TASKS.items()}


@pytest.mark.parametrize("task, name", SIZE_CASES, ids=[f"{t}-{n}" for t, n in SIZE_CASES])
def test_report_sizes_must_be_integral(task, name):
    sizes = TASK_SIZES[task]
    for bad in (True, sizes[name] + 0.5, str(sizes[name])):
        with pytest.raises(ValueError, match="must be integral"):
            run_report(task, **{**sizes, name: bad})
    # a whole float reads as its int, in the title as in the rows
    want, got = run_report(task, **sizes), run_report(task, **{**sizes, name: float(sizes[name])})
    assert (got.title, got.to_csv()) == (want.title, want.to_csv())
