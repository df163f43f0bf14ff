"""``scripts/paper_scale.py`` at a tiny corpus, so the paper-scale runner keeps
working: it generates its corpora, runs each command once per tree and pair,
alternating which tree goes first, and records what each run wrote."""

import json
import subprocess
from pathlib import Path

import pytest

from tests.test_check_set import load_script

ROOT = Path(__file__).resolve().parent.parent


def paper_scale(tmp_path, capsys, *argv) -> dict:
    out = tmp_path / "out"
    status = load_script("paper_scale").main([str(out), "--n-docs", "40", *map(str, argv)])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert not list((out / "runs").iterdir())  # every run's outputs are deleted once hashed
    return report


def test_boilerplate_alternates_the_trees(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "boilerplate", "--pairs", "2",
                         "--checkout", ROOT, "--checkout", ROOT, "--checkout", ROOT)
    runs = report["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]
    assert report["seed"] == 1
    assert report["checkouts"] == [load_script("paper_scale").describe(ROOT)] * 3
    names = {f"{kind}_{n}.tsv" for kind in ("ngrams", "candidates") for n in (1, 2, 3)}
    for r in runs:
        assert r["command"] == "boilerplate" and r["exit"] == 0
        assert r["wall_s"] > 0 and r["peak_rss_mb"] > 0
        assert set(r["bodies"]) == names
    summary = report["summary"]["boilerplate"]
    assert summary["bodies_identical"]
    assert [side["failed"] for side in summary["checkouts"]] == [0, 0, 0]


def test_trees_are_named_by_commit_or_path(tmp_path):
    describe = load_script("paper_scale").describe
    assert describe(tmp_path) == str(tmp_path)
    if (ROOT / ".git").exists():
        head = subprocess.run(("git", "-C", str(ROOT), "rev-parse", "HEAD"),
                              capture_output=True, text=True, check=True).stdout.strip()
        assert describe(ROOT).removesuffix("+dirty") == head


def test_predict_reads_its_own_train_run(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "predict,clean", "--pairs", "1")
    assert [r["command"] for r in report["runs"]] == ["clean", "train_nb", "predict"]
    assert all(r["exit"] == 0 for r in report["runs"])
    assert set(report["runs"][-1]["bodies"]) == {"predictions.jsonl"}


def test_predict_cnn_reads_its_own_train_cnn_run(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "predict_cnn", "--pairs", "1")
    assert [r["command"] for r in report["runs"]] == ["train_cnn", "predict_cnn"]
    assert all(r["exit"] == 0 for r in report["runs"])
    assert {"model.txt", "token_index.txt"} <= set(report["runs"][0]["bodies"])
    assert set(report["runs"][1]["bodies"]) == {"predictions.jsonl"}
    assert (tmp_path / "out" / "data" / "clean" / "vectors.txt").exists()


def test_evaluate_records_the_held_out_scores(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "evaluate_cnn,evaluate", "--pairs", "1")
    runs = {r["command"]: r for r in report["runs"]}
    assert list(runs) == ["train_nb", "evaluate", "train_cnn", "evaluate_cnn"]
    assert all(r["exit"] == 0 for r in runs.values())
    for name in ("evaluate", "evaluate_cnn"):
        assert set(runs[name]["bodies"]) == {"report.txt", "report.json"}
        assert 0 <= runs[name]["macro_f1"] <= 1 and 0 <= runs[name]["accuracy"] <= 1
    assert "accuracy" not in runs["train_nb"]
    assert report["commands"]["evaluate_cnn"].startswith("evaluate --model-dir {train_cnn}")


def test_train_cnn_0_trains_no_epoch(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "train_cnn_0", "--pairs", "1")
    [run] = report["runs"]
    assert run["command"] == "train_cnn_0" and run["exit"] == 0
    assert {"model.txt", "token_index.txt", "run.json"} <= set(run["bodies"])
    assert report["commands"]["train_cnn_0"].endswith("--epochs 0")


def test_train_nb_char(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "train_nb_char", "--pairs", "1")
    [run] = report["runs"]
    assert run["command"] == "train_nb_char" and run["exit"] == 0
    assert {"model.txt", "vocabulary.txt"} <= set(run["bodies"])
    assert report["commands"]["train_nb_char"].endswith("--analyzer char --ngram 2,4")


def test_unknown_command_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        load_script("paper_scale").main([str(tmp_path / "out"), "--commands", "train"])


def test_gbt_nb_char_and_features_read_their_own_train_runs(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands",
                         "features,evaluate_gbt,evaluate_nb_char,train_gbt", "--pairs", "1")
    runs = {r["command"]: r for r in report["runs"]}
    assert list(runs) == ["train_nb", "train_nb_char", "train_gbt", "evaluate_nb_char",
                          "evaluate_gbt", "features"]
    assert all(r["exit"] == 0 for r in runs.values())
    assert {"model.txt", "vocabulary.txt"} <= set(runs["train_gbt"]["bodies"])
    assert report["commands"]["train_gbt"].endswith("--model gbt")
    for name, producer in (("evaluate_nb_char", "train_nb_char"), ("evaluate_gbt", "train_gbt")):
        assert set(runs[name]["bodies"]) == {"report.txt", "report.json"}
        assert 0 <= runs[name]["macro_f1"] <= 1 and 0 <= runs[name]["accuracy"] <= 1
        assert report["commands"][name].startswith(f"evaluate --model-dir {{{producer}}}")
    assert set(runs["features"]["bodies"]) == {
        f"features_{side}{suffix}.tsv" for side in ("fake", "real") for suffix in ("", "_logprob")}


def test_ttest_and_plot_data_read_their_own_measure_run(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "plot-data,ttest", "--pairs", "1")
    runs = {r["command"]: r for r in report["runs"]}
    assert list(runs) == ["measure", "ttest", "plot-data"]
    assert all(r["exit"] == 0 for r in runs.values())
    assert set(runs["measure"]["bodies"]) == {"measures.csv"}
    assert set(runs["ttest"]["bodies"]) == {"ttest.txt"}
    assert {f"density_J_{label}.csv" for label in ("fake", "real")} <= set(
        runs["plot-data"]["bodies"])
    for name in ("ttest", "plot-data"):
        assert report["commands"][name] == f"{name} --measures {{measure}}/measures.csv"


def test_evaluate_gbt_tfidf_reads_its_own_train_run(tmp_path, capsys):
    report = paper_scale(tmp_path, capsys, "--commands", "evaluate_gbt_tfidf", "--pairs", "1")
    runs = {r["command"]: r for r in report["runs"]}
    assert list(runs) == ["train_gbt_tfidf", "evaluate_gbt_tfidf"]
    assert all(r["exit"] == 0 for r in runs.values())
    assert report["commands"]["train_gbt_tfidf"].endswith("--model gbt --weighting tfidf")
    assert set(runs["evaluate_gbt_tfidf"]["bodies"]) == {"report.txt", "report.json"}
    assert 0 <= runs["evaluate_gbt_tfidf"]["macro_f1"] <= 1
