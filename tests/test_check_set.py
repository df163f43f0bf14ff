"""The byte-identity check set (``scripts/check_set.py``) runs every
subcommand and trains every model, so none of them can change its output
unseen. No command is run here: the check set's command lines and inputs
are read."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from satira import (Label, Lexicon, corpus_profile, lexicon_score, load_corpus, make_document,
                    ngram_frequency, top_fraction, vectorize)
from satira.cli import _COMMANDS, PIPELINES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
LEXICONS = SCRIPTS.parent / "lexicons"


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


def test_tied_cuts_fall_inside_runs_of_equal_counts(tmp_path):
    check_set = load_script("check_set")
    prefixes = tmp_path / "prefixes.jsonl"
    prefixes.write_text(check_set.prefix_corpus_text(), encoding="utf-8")
    options = dict(check_set.BIG_OPTIONS)
    rng = np.random.default_rng(options.pop("seed"))
    corpora = {check_set.PREFIXES: load_corpus(prefixes),
               check_set.BIG: load_script("make_synthetic_corpus").build_corpus(rng=rng, **options)}
    for corpus, fraction in check_set.TIED_CUTS.values():
        for n in (1, 2, 3):
            counts = [count for _, count in top_fraction(ngram_frequency(corpora[corpus], n), 1.0)]
            k = math.floor(fraction * len(counts) + 0.5)  # as top_fraction rounds
            assert 1 <= k < len(counts) and counts[k - 1] == counts[k], (corpus, n)


def test_lexicon_corpus_varies_j_and_s_within_both_classes(tmp_path):
    """So the check set's t-tests and densities of J and S are computed, not skipped."""
    check_set = load_script("check_set")
    path = tmp_path / "lexical.jsonl"
    path.write_text(check_set.lexicon_corpus_text(), encoding="utf-8")
    cliches = Lexicon.from_file(LEXICONS / "cliches.txt", name="cliches")
    emotions = Lexicon.from_file(LEXICONS / "emotions.txt", name="emotions")
    profile = corpus_profile(load_corpus(path).labeled_only(), cliches, emotions)
    assert set(profile) == {Label.FAKE, Label.REAL}
    for vectors in profile.values():
        assert len({v.journalistic_register for v in vectors}) > 1
        assert len({v.sentiment_intensity for v in vectors}) > 1
    # the overlapping cliches count once: the longest match from the left consumes "أكد"
    overlap = next(p for p in check_set.CLICHE_PHRASES if len(p.split()) == 4)
    assert lexicon_score(make_document("x", overlap), cliches) == 1 / 4
    measured = [argv for argv in satira_commands() if check_set.LEXICAL in argv]
    assert [argv[0] for argv in measured] == ["measure"]
    out = measured[0][measured[0].index("--out") + 1]
    assert {argv[0] for argv in satira_commands() if f"{out}/measures.csv" in argv} == {
        "ttest", "plot-data"}
