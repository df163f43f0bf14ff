"""The byte-identity check set (``scripts/check_set.py``) runs every
subcommand and trains every model, so none of them can change its output
unseen. Nothing is run here: the check set's command lines are read."""

import importlib.util
from pathlib import Path

import numpy as np

from satira import vectorize
from satira.cli import _COMMANDS, PIPELINES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def satira_commands():
    return [argv[2:] for argv in load_script("check_set").commands(Path("checkout"))
            if argv[:2] == ("-m", "satira.cli")]


def test_commands_cover_every_subcommand_and_model():
    satira = satira_commands()
    assert {argv[0] for argv in satira} == set(_COMMANDS)
    trained = {argv[argv.index("--model") + 1] for argv in satira if argv[0] == "train"}
    assert trained == set(PIPELINES)


def test_big_corpus_spans_several_blocks():
    # the corpus make_synthetic_corpus.py writes for these options, built in process
    options = dict(load_script("check_set").BIG_OPTIONS)
    rng = np.random.default_rng(options.pop("seed"))
    corpus = load_script("make_synthetic_corpus").build_corpus(rng=rng, **options)
    assert sum(len(doc.tokens) for doc in corpus) > vectorize.BLOCK


def test_clean_runs_each_switch_alone_and_all_together():
    switches = {f"--{option.flag}" for option in _COMMANDS["clean"][2] if option.kind is bool}
    used = [{arg for arg in argv if arg.startswith("--keep-")}
            for argv in satira_commands() if argv[0] == "clean"]
    assert switches and all({switch} in used for switch in switches)
    assert switches in used


def test_tagged_text_edges_its_lines_and_keeps_120_documents():
    from satira.stylometrics import parse_tagged_file

    text = load_script("check_set").tagged_text()
    lines = text.split("\n")
    assert len(parse_tagged_file(text)) == 120
    assert any(line != line.strip() and line.strip() for line in lines)  # whitespace-edged
    assert any(line and not line.strip() for line in lines)  # whitespace-only
    # a comment line between two token lines
    assert any(line.startswith("#") and "\t" in before and "\t" in after
               for before, line, after in zip(lines, lines[1:], lines[2:]))
