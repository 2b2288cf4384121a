"""The experiment scripts run end to end on tiny inputs."""
import csv
import importlib.util
from pathlib import Path

from stochcover.evaluator import CSV_COLUMNS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, out):
    assert load_script(name).main(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        records = list(csv.reader(fh))
    assert records[0] == list(CSV_COLUMNS)
    return records[1:]


def test_query_budget_sweep_rows(tmp_path, capsys):
    rows = run_script("query_budget_sweep", ["--trials", "5", "--na", "6"], tmp_path / "s.csv")
    # the distinct R values of {1, 2, 4, 8, R0 // 2, R0, 2 R0} with
    # R0 = 93, 17 and 6 at p = 0.1, 0.3 and 0.5
    assert len(rows) == 7 + 6 + 7
    assert {r[CSV_COLUMNS.index("strategy")] for r in rows} == {"mc_matching"}
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(rows)


def test_query_budget_sweep_with_one_trial(tmp_path, capsys):
    # one trial gives no interval, so every ci95 cell reads "-"
    rows = run_script("query_budget_sweep", ["--trials", "1", "--na", "6"], tmp_path / "s.csv")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(rows) == 1 + 7 + 6 + 7
    assert all(line.split()[3] == "-" for line in lines[1:])


def test_separation_demo_rows(tmp_path, capsys):
    rows = run_script("separation_demo", ["--trials", "2"], tmp_path / "d.csv")
    # four layered sizes, two strategies each
    assert len(rows) == 4 * 2
    assert all(r[CSV_COLUMNS.index("validity_failures")] == "0" for r in rows)
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(rows)
