import csv
import io

from stochcover.cli import main
from stochcover.evaluator import CSV_COLUMNS
from stochcover.graphs import read_graph_text
from stochcover.partition import PartitionConfig, build_partition, outcome_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    records = list(csv.reader(io.StringIO(text)))
    assert records[0] == list(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, rec)) for rec in records[1:]]


def test_generate_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, stdout, _ = run_cli(
        capsys, "generate", "--family", "sdn", "--d", "3", "--s", "5",
        "--cap-n", "6", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert "72 vertices, 78 edges" in stdout
    text = out.read_text()
    assert "family=sdn" in text and "seed=1" in text
    g = read_graph_text(str(out))
    assert (g.n, g.m) == (72, 78)


def test_oracle_prints_expected_optima(tmp_path, capsys):
    out = tmp_path / "pm.txt"
    run_cli(capsys, "generate", "--family", "perfect_matching", "--n", "6", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "oracle", "--graph", str(out), "--p", "0.5")
    assert code == 0
    assert stdout.strip() == "E_nu=1.5 E_mu=1.5"


def test_oracle_refuses_large_graphs(tmp_path, capsys):
    out = tmp_path / "big.txt"
    run_cli(capsys, "generate", "--family", "clique", "--n", "10", "--out", str(out))
    code, _, stderr = run_cli(capsys, "oracle", "--graph", str(out), "--p", "0.5")
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1


def test_run_emits_csv(capsys):
    code, stdout, _ = run_cli(
        capsys, "run", "--family", "er_bipartite", "--na", "4", "--nb", "4",
        "--edge-prob", "0.5", "--seed", "2", "--strategy", "query_everything",
        "--p", "0.5", "--trials", "50",
    )
    assert code == 0
    rows = csv_rows(stdout)
    assert len(rows) == 1
    assert rows[0]["strategy"] == "query_everything"
    assert rows[0]["ratio"] == "1.0"
    assert rows[0]["validity_failures"] == "0"
    assert rows[0]["instance"].startswith("er_bipartite(")


def test_compare_shares_optima(capsys):
    code, stdout, _ = run_cli(
        capsys, "compare", "--family", "er_bipartite", "--na", "5", "--nb", "5",
        "--edge-prob", "0.4", "--seed", "3", "--strategy",
        "query_nothing,query_everything", "--p", "0.4", "--trials", "80",
    )
    assert code == 0
    rows = csv_rows(stdout)
    assert len(rows) == 2
    assert rows[0]["mean_opt"] == rows[1]["mean_opt"]


def test_run_and_compare_give_the_same_rows(capsys):
    args = (
        "--family", "er_bipartite", "--na", "7", "--nb", "7", "--edge-prob", "0.5",
        "--seed", "9", "--strategy", "query_nothing,query_everything,random_query_baseline",
        "--p", "0.5", "--trials", "150",
    )
    tables = []
    for command in ("run", "compare"):
        code, stdout, _ = run_cli(capsys, command, *args)
        assert code == 0
        tables.append([{k: v for k, v in row.items() if k != "wall_ms"} for row in csv_rows(stdout)])
    assert len(tables[0]) == 3
    assert tables[0] == tables[1]


def test_compare_threads_do_not_change_rows(capsys):
    args = (
        "compare", "--family", "er_bipartite", "--na", "7", "--nb", "7", "--edge-prob", "0.5",
        "--seed", "9", "--strategy", "general_vc,mc_matching,random_query_baseline",
        "--p", "0.5", "--trials", "150",
    )
    tables = []
    for threads in ("1", "2"):
        code, stdout, _ = run_cli(capsys, *args, "--threads", threads)
        assert code == 0
        tables.append([{k: v for k, v in row.items() if k != "wall_ms"} for row in csv_rows(stdout)])
    assert len(tables[0]) == 3
    assert tables[0] == tables[1]


def test_no_optimum_flag_blanks_columns(capsys):
    code, stdout, _ = run_cli(
        capsys, "run", "--family", "perfect_matching", "--n", "8", "--strategy",
        "query_nothing", "--p", "0.5", "--trials", "20", "--no-optimum",
    )
    assert code == 0
    row = csv_rows(stdout)[0]
    assert row["mean_opt"] == "" and row["ratio"] == "" and row["ratio_ci95"] == ""


def test_run_writes_file(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code, stdout, _ = run_cli(
        capsys, "run", "--family", "perfect_matching", "--n", "8", "--strategy",
        "query_everything", "--p", "0.5", "--trials", "20", "--out", str(out),
    )
    assert code == 0
    assert csv_rows(out.read_text())[0]["strategy"] == "query_everything"


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(
        "# demo config\n"
        "family=er_bipartite\n"
        "na=5\nnb=5\nedge_prob=0.6\n"
        "strategy=random_query_baseline\n"
        "p=0.9\n"
        "trials=30\n"
        "seed=5\n"
        "override.s=5\n"
    )
    code, stdout, _ = run_cli(capsys, "run", "--config", str(cfg), "--p", "0.5")
    assert code == 0
    row = csv_rows(stdout)[0]
    assert row["p"] == "0.5"  # flag beats config
    assert row["seed"] == "5"
    assert row["trials"] == "30"
    total_s5 = int(row["total_queries"])

    code, stdout, _ = run_cli(
        capsys, "run", "--config", str(cfg), "--p", "0.5", "--override", "s=1"
    )
    row = csv_rows(stdout)[0]
    total_s1 = int(row["total_queries"])
    assert total_s1 < total_s5  # the flag override shadows the config one


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SC_SEED", "9")
    code, stdout, _ = run_cli(
        capsys, "run", "--family", "perfect_matching", "--n", "6", "--strategy",
        "query_nothing", "--p", "0.5", "--trials", "10",
    )
    assert code == 0
    assert csv_rows(stdout)[0]["seed"] == "9"
    code, stdout, _ = run_cli(
        capsys, "run", "--family", "perfect_matching", "--n", "6", "--strategy",
        "query_nothing", "--p", "0.5", "--trials", "10", "--seed", "4",
    )
    assert csv_rows(stdout)[0]["seed"] == "4"


def test_error_paths_exit_two(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "run", "--family", "clique", "--n", "4", "--strategy", "bogus",
        "--p", "0.5",
    )
    assert code == 2 and stderr.startswith("error:")

    gfile = tmp_path / "g.txt"
    run_cli(capsys, "generate", "--family", "clique", "--n", "4", "--out", str(gfile))
    code, _, stderr = run_cli(
        capsys, "run", "--graph", str(gfile), "--family", "clique", "--n", "4",
        "--strategy", "query_nothing", "--p", "0.5",
    )
    assert code == 2 and "not both" in stderr

    code, _, stderr = run_cli(
        capsys, "run", "--family", "clique", "--n", "4", "--strategy", "query_nothing"
    )
    assert code == 2 and "--p is required" in stderr

    code, _, stderr = run_cli(
        capsys, "run", "--family", "clique", "--n", "4", "--strategy",
        "query_nothing", "--p", "0.5", "--override", "nope=3",
    )
    assert code == 2 and "unknown override" in stderr

    for bad in ("R=-3", "R_constant=-5", "R_constant=inf"):
        code, stdout, stderr = run_cli(
            capsys, "run", "--family", "perfect_matching", "--n", "6", "--strategy",
            "mc_matching", "--p", "0.5", "--override", bad,
        )
        assert (code, stdout) == (2, "") and stderr.startswith("error: R"), bad
        assert stderr.count("\n") == 1, bad


def test_partition_subcommand_round_trips(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    run_cli(
        capsys, "generate", "--family", "er_bipartite", "--na", "6", "--nb", "6",
        "--edge-prob", "0.3", "--seed", "3", "--out", str(gfile),
    )
    pfile = tmp_path / "part.txt"
    code, stdout, _ = run_cli(
        capsys, "partition", "--graph", str(gfile), "--epsilon", "0.4", "--p", "0.5",
        "--samples", "300", "--seed", "1", "--out", str(pfile),
    )
    assert code == 0
    assert "edges queried" in stdout
    # the file holds exactly the builder's artifact for the same flags
    graph = read_graph_text(str(gfile))
    cfg = PartitionConfig(epsilon=0.4, p=0.5, samples_per_round=300, seed=1)
    assert pfile.read_text() == outcome_to_text(build_partition(graph, cfg))


def test_partition_stdout_mode(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    run_cli(capsys, "generate", "--family", "perfect_matching", "--n", "6", "--out", str(gfile))
    code, stdout, _ = run_cli(
        capsys, "partition", "--graph", str(gfile), "--epsilon", "0.5", "--p", "0.5",
        "--samples", "200",
    )
    assert code == 0
    assert stdout.startswith("partition-artifact v1\n")


def test_partition_refuses_a_non_bipartite_graph(tmp_path, capsys):
    gfile = tmp_path / "triangle.txt"
    run_cli(capsys, "generate", "--family", "clique", "--n", "3", "--out", str(gfile))
    pfile = tmp_path / "part.txt"
    code, stdout, stderr = run_cli(
        capsys, "partition", "--graph", str(gfile), "--epsilon", "0.5", "--p", "0.5",
        "--samples", "200", "--out", str(pfile),
    )
    assert code == 2
    assert stdout == ""
    assert stderr == "error: the partition builder requires a bipartite graph\n"
    assert not pfile.exists()
