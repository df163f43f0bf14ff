"""Deterministic synthetic inputs for the benchmark workloads.

One seed gives byte-identical files:

* ``corpus.jsonl``: labeled articles (``fake`` = satire). Both classes
  draw words from one shared Zipf vocabulary; a share of the words lean
  towards one class, so the classes overlap and no model scores perfectly.
* ``tags.conll``: ``surface<TAB>pos`` per token, a blank line between
  documents, order-aligned with the corpus (input of ``corpus_profile``).
* ``vectors.txt``: 300-d word vectors for part of the vocabulary, so the
  embedding coverage stays below 1. Each class also has a few marker
  words, planted more often in its own documents, whose vectors point
  one way along a fixed direction.

Raw corpora (``noisy=True``) carry what ``normalize`` must strip:
diacritics, tatweel, Latin letters and tokens, and punctuation. They also
carry website boilerplate from ``lexicons/stop_phrases.txt``. Clean corpora
(``noisy=False``) stand for the output of ``satira clean``: no noise and no
stop phrases. Both plant cliche and emotion phrases from ``lexicons/`` at
the per-class rates below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from satira.fileio import read_phrase_file

LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمهوي"  # no ن: it marks first person plural
NUN = "ن"
DIACRITICS = "ًٌٍَُِّْ"
TATWEEL = "ـ"
PUNCTUATION = ("،", ".", "!", "؟", ":", "«", "»", "(", ")")
LATIN_TOKENS = ("CNN", "http", "via", "AFP", "www", "RT")
CLASSES = ("fake", "real")
MARKER_NORM = 3.0  # length of a marker vector along the class direction
DIM = 300  # word-vector dimension
ZIPF_EXPONENT = 1.05
LEAN_SHARE = 0.3  # share of words whose frequency differs by class
LEAN_SCALE = 0.2  # std of a leaning word's log-frequency shift
# per-token rates, per class (fake, real)
CLICHE_RATE = (0.006, 0.012)
EMOTION_RATE = (0.012, 0.006)
FPP_VERB_SHARE = (0.35, 0.2)  # of VERB tokens
MARKERS = 20  # marker words per class
MARKER_RATE = (0.012, 0.0012)  # per token, in its own class and in the other
STOP_PHRASE_RATE = 0.01  # per token, raw corpora only
NOISE_RATE = 0.15  # share of tokens that get character noise, raw corpora only
COVERAGE = 0.8  # share of vocabulary words with a vector


@dataclass(frozen=True)
class GeneratorConfig:
    """Corpus size; the workloads differ only in these."""

    n_docs: int
    vocab_size: int
    min_tokens: int = 150
    max_tokens: int = 350


@dataclass(frozen=True)
class Lexicons:
    stop_phrases: tuple[str, ...]
    cliches: tuple[str, ...]
    emotions: tuple[str, ...]


def read_lexicons(lexicon_dir: Path) -> Lexicons:
    return Lexicons(
        stop_phrases=tuple(read_phrase_file(lexicon_dir / "stop_phrases.txt")),
        cliches=tuple(read_phrase_file(lexicon_dir / "cliches.txt")),
        emotions=tuple(read_phrase_file(lexicon_dir / "emotions.txt")),
    )


@dataclass(frozen=True)
class Vocabulary:
    words: tuple[str, ...]
    pos: tuple[str, ...]
    probs: np.ndarray  # (2, V) token distribution per class, rows [fake, real]
    markers: tuple[tuple[str, ...], tuple[str, ...]]  # per class, rows [fake, real]


POS_CYCLE = ("NOUN",) * 10 + ("VERB",) * 4 + ("ADJ",) * 3 + ("ADP",) * 2 + ("PRON",)


def make_vocabulary(cfg: GeneratorConfig, lex: Lexicons, rng: np.random.Generator) -> Vocabulary:
    """Shared Zipf vocabulary; words in lexicon phrases are never drawn.

    Word length and part of speech depend on the frequency rank only, so
    every seed gives corpora of the same size and tag mix. Verbs come in
    plain and first-person-plural forms: a plural form starts with ن or
    ends with نا, a plain form does neither (LETTERS has no ن).
    """
    reserved = {t for phrase in lex.stop_phrases + lex.cliches + lex.emotions for t in phrase.split()}
    words = []
    for rank in range(cfg.vocab_size + 2 * MARKERS):
        while True:
            letters = rng.integers(0, len(LETTERS), size=3 + rank % 5)
            word = "".join(LETTERS[i] for i in letters)
            if word not in reserved:
                reserved.add(word)
                words.append(word)
                break
    words, markers = words[: cfg.vocab_size], words[cfg.vocab_size :]
    ranks = np.arange(1, cfg.vocab_size + 1, dtype=np.float64)
    base = 1.0 / (ranks + 2.7) ** ZIPF_EXPONENT
    leaning = rng.random(cfg.vocab_size) < LEAN_SHARE
    lean = np.where(leaning, rng.normal(0.0, LEAN_SCALE, size=cfg.vocab_size), 0.0)
    probs = np.stack([base * np.exp(lean), base * np.exp(-lean)])
    probs /= probs.sum(axis=1, keepdims=True)
    pos = tuple(POS_CYCLE[rank % len(POS_CYCLE)] for rank in range(cfg.vocab_size))
    split = (tuple(markers[:MARKERS]), tuple(markers[MARKERS:]))
    return Vocabulary(tuple(words), pos, probs, split)


def _fpp_form(word: str, rng: np.random.Generator) -> str:
    return NUN + word if rng.random() < 0.5 else word + NUN + "ا"


def _noisy(token: str, rng: np.random.Generator) -> str:
    kind = int(rng.integers(0, 4))
    if kind == 0:  # diacritics after letters
        marks = rng.integers(0, len(DIACRITICS), size=len(token))
        return "".join(ch + DIACRITICS[m] for ch, m in zip(token, marks))
    if kind == 1:  # tatweel inside the word
        cut = int(rng.integers(1, len(token)))
        return token[:cut] + TATWEEL + token[cut:]
    if kind == 2:  # Latin letter inside the word
        cut = int(rng.integers(1, len(token)))
        return token[:cut] + "xyz"[int(rng.integers(0, 3))] + token[cut:]
    return token + PUNCTUATION[int(rng.integers(0, len(PUNCTUATION)))]


def _document(
    vocab: Vocabulary,
    lex: Lexicons,
    cls: int,
    cfg: GeneratorConfig,
    noisy: bool,
    rng: np.random.Generator,
) -> tuple[list[str], list[tuple[str, str]]]:
    """Raw text tokens plus the (surface, pos) tags of the clean tokens."""
    n = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
    ids = rng.choice(len(vocab.words), size=n, p=vocab.probs[cls])
    draws = rng.random((n, 5))
    text: list[str] = []
    tags: list[tuple[str, str]] = []

    def plant(phrases: tuple[str, ...]):
        phrase = phrases[int(rng.integers(0, len(phrases)))]
        for part in phrase.split():
            text.append(part)
            tags.append((part, "NOUN"))

    for i, w in enumerate(ids):
        word, pos = vocab.words[w], vocab.pos[w]
        if pos == "VERB" and draws[i, 0] < FPP_VERB_SHARE[cls]:
            word = _fpp_form(word, rng)
        tags.append((word, pos))
        text.append(_noisy(word, rng) if noisy and draws[i, 1] < NOISE_RATE else word)
        if draws[i, 2] < CLICHE_RATE[cls]:
            plant(lex.cliches)
        elif draws[i, 2] > 1.0 - EMOTION_RATE[cls]:
            plant(lex.emotions)
        if draws[i, 4] < MARKER_RATE[0]:
            plant(vocab.markers[cls])
        elif draws[i, 4] > 1.0 - MARKER_RATE[1]:
            plant(vocab.markers[1 - cls])
        if noisy and draws[i, 3] < STOP_PHRASE_RATE:
            # boilerplate is site-specific: the satire site names itself
            pool = lex.stop_phrases[: 2] if cls == 0 else lex.stop_phrases[2:]
            phrase = pool[int(rng.integers(0, len(pool)))]
            text.extend(phrase.split())
        if noisy and draws[i, 3] > 0.995:
            text.append(LATIN_TOKENS[int(rng.integers(0, len(LATIN_TOKENS)))])
    return text, tags


def write_inputs(
    out: Path, cfg: GeneratorConfig, lex: Lexicons, seed: int, noisy: bool, vectors: bool
) -> dict[str, Path]:
    """Write corpus.jsonl and tags.conll (and vectors.txt) under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    vocab_rng, doc_rng, vec_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    vocab = make_vocabulary(cfg, lex, vocab_rng)
    labels = np.arange(cfg.n_docs) % 2
    doc_rng.shuffle(labels)
    records, tag_blocks = [], []
    for i, cls in enumerate(labels):
        text, tags = _document(vocab, lex, int(cls), cfg, noisy, doc_rng)
        record = {"id": f"d{i:05d}", "text": " ".join(text), "label": CLASSES[cls]}
        records.append(json.dumps(record, ensure_ascii=False) + "\n")
        tag_blocks.append("".join(f"{s}\t{p}\n" for s, p in tags) + "\n")
    paths = {"corpus": out / "corpus.jsonl", "tags": out / "tags.conll"}
    paths["corpus"].write_text("".join(records), encoding="utf-8")
    paths["tags"].write_text("".join(tag_blocks), encoding="utf-8")
    if vectors:
        paths["vectors"] = out / "vectors.txt"
        write_vectors(paths["vectors"], vocab, vec_rng)
    return paths


def write_vectors(path: Path, vocab: Vocabulary, rng: np.random.Generator):
    """Vectors for every marker and a ``COVERAGE`` share of the other words.

    Plain words get noise only; markers point along one direction, fake
    markers one way and real markers the other, which a convolution
    filter followed by max pooling can detect.
    """
    covered = [w for w, keep in zip(vocab.words, rng.random(len(vocab.words)) < COVERAGE) if keep]
    tokens = covered + list(vocab.markers[0]) + list(vocab.markers[1])
    sign = np.concatenate([np.zeros(len(covered)), np.ones(MARKERS), -np.ones(MARKERS)])
    direction = rng.normal(0.0, 1.0, size=DIM)
    direction /= np.linalg.norm(direction)
    values = rng.normal(0.0, 0.05, size=(len(tokens), DIM)) + MARKER_NORM * sign[:, None] * direction[None, :]
    lines = [f"{len(tokens)} {DIM}\n"]
    for token, row in zip(tokens, values):
        lines.append(token + " " + " ".join(f"{v:.4f}" for v in row) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
