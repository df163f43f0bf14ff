#!/usr/bin/env python3
"""Run the byte-identity check set and print the sha256 of every output.

    python3 scripts/check_set.py OUT [--checkout DIR] > sums.txt

Writes a small synthetic corpus into the empty directory OUT, then runs
every `satira` subcommand on it from inside OUT with relative paths, so
the metadata headers do not depend on where OUT is: NB on word counts, NB
on word 1-3 counts, NB on char 2-4 TF-IDF, GBT on counts (5 rounds) and
on TF-IDF (100 rounds), the CNN (with the default batch size and
learning rate, and with batch size 7 and learning rate 0.01), NB on word
1-3 and on char 1-3 counts of a fixed corpus of tokens that are prefixes
of one another, with few enough `--max-features` that the kept
vocabulary comes from the codepoint tie-break, `evaluate` and `predict`
of each, `features`, `clean`, `boilerplate` (on the cleaned and on the
raw corpus, and on the prefix corpus), NB on word 1-3 and on char 2-4
counts of a second synthetic corpus large enough that its word tokens and
its characters span several sorting blocks (`vectorize.BLOCK` units
each), with `evaluate`, `predict` and `boilerplate` on it, and `measure`
with `ttest` and `plot-data` on its CSV, once without and once with
`--tagged`. The
POS-tagged file
`data/tags.conll` and the prefix corpus `data/prefixes.jsonl` are fixed
files this script writes itself (see `tagged_text` and
`prefix_corpus_text`), so runs against two checkouts read the same bytes.
It prints one `sha256  body-sha256  relative/path` line per file under OUT,
sorted by path. The second digest is taken with the CLI's metadata lines
(`# satira <version>`, `# config-hash`, `# input` and `# lexicon`) removed
from the file's leading comment block, so it gates a change to headers
alone: such a change moves only the first column.

`--checkout` names the satira source tree to run (default: the one this
script is in), so two checkouts are compared by running this script once
against each and diffing the two listings.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORPUS = "data/corpus.jsonl"
TAGS = "data/tags.conll"
PREFIXES = "data/prefixes.jsonl"
# make_synthetic_corpus.py options of the multi-block corpus: about 208k word
# tokens (4 blocks) and 1.7M characters (26 blocks), so n-gram ids are merged
# across blocks
BIG = "big/corpus.jsonl"
BIG_OPTIONS = {"n_per_class": 700, "vocab_size": 30, "doc_len": 200, "seed": 11}
# run directory -> the corpus that train, evaluate and predict read, then the
# train flags besides --corpus and --out
RUNS = {
    "nb": (CORPUS, "--model", "nb"),
    "nbw": (CORPUS, "--model", "nb", "--ngram", "1,3"),
    "nbc": (CORPUS, "--model", "nb", "--weighting", "tfidf", "--analyzer", "char",
            "--ngram", "2,4"),
    "gbt": (CORPUS, "--model", "gbt", "--rounds", "5"),
    "gbt_tfidf": (CORPUS, "--model", "gbt", "--weighting", "tfidf"),
    "cnn": (CORPUS, "--model", "cnn", "--embeddings", "data/vectors.txt", "--embed-dim", "16",
            "--filters", "6", "--kernel", "3", "--max-seq-len", "20", "--epochs", "2"),
    "nb_prefixes": (PREFIXES, "--model", "nb", "--ngram", "1,3", "--max-features", "15"),
    "nbc_prefixes": (PREFIXES, "--model", "nb", "--analyzer", "char", "--ngram", "1,3",
                     "--max-features", "10"),
    "nbw_big": (BIG, "--model", "nb", "--ngram", "1,3"),
    "nbc_big": (BIG, "--model", "nb", "--analyzer", "char", "--ngram", "2,4"),
}
# the CNN again with another batch size (96 training documents: 13 batches of 7 and one
# of 5) and a learning rate other than the default
RUNS["cnn_b7"] = RUNS["cnn"] + ("--batch-size", "7", "--learning-rate", "0.01")

# a metadata line the CLI writes (`# lexicon` lines come from older checkouts)
METADATA = re.compile(rb"# (satira \S+|config-hash \S+|(input|lexicon) \S+ sha256:\S+)")


# surfaces of the tagged file: first-person-plural verbs (prefix ن or suffix نا),
# other verbs, and nouns, one of which starts with ن
FPP_VERBS = ("نكتب", "قلنا", "نروي", "شارفنا")
OTHER_VERBS = ("قال", "كتب", "ذهب")
NOUNS = ("خبر", "ناطق", "بيت")


def tagged_text() -> str:
    """A fixed `surface<TAB>pos` file for the check corpus's 120 documents (60
    fake, then 60 real): fake documents carry more first-person-plural verbs,
    and documents 7 and 67 carry no verb, so their ratio is undefined."""
    blocks = ["# fixed POS tags of the check set\n"]
    for i in range(120):
        n_verbs = 0 if i % 60 == 7 else 3 + i % 4
        n_fpp = min(n_verbs, i % 3 + (2 if i < 60 else 0))
        tokens = [(NOUNS[(i + k) % 3], "NOUN") for k in range(1 + i % 3)]
        tokens += [(FPP_VERBS[(i + k) % 4], "VERB") for k in range(n_fpp)]
        tokens += [(OTHER_VERBS[(i + k) % 3], "VERB") for k in range(n_verbs - n_fpp)]
        blocks.append("".join(f"{surface}\t{pos}\n" for surface, pos in tokens) + "\n")
    return "".join(blocks)


# tokens that are prefixes of one another, the longer ones continuing with a
# character below the space: "a\x01 c" sorts before "a b" though ("a\x01", "c")
# sorts after ("a", "b"), so the n-gram ranking must compare the joined strings
PREFIX_TOKENS = ("a", "a\x00", "a\x01", "b", "b\x01", "c")


def prefix_corpus_text() -> str:
    """A fixed 24-document JSONL corpus over `PREFIX_TOKENS`, in which many
    n-grams tie in count, so their order comes from the codepoint tie-break."""
    lines = []
    for i in range(24):
        tokens = [PREFIX_TOKENS[(i * (j + 1) + j * j) % len(PREFIX_TOKENS)] for j in range(6)]
        record = {"id": f"p{i:02d}", "text": " ".join(tokens), "label": ("fake", "real")[i % 2]}
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def body_digest(data: bytes) -> str:
    """sha256 of ``data`` without the CLI metadata lines of its leading comment block."""
    lines = data.split(b"\n")
    head = next((i for i, line in enumerate(lines) if not line.startswith(b"#")), len(lines))
    kept = [line for line in lines[:head] if not METADATA.fullmatch(line)] + lines[head:]
    return hashlib.sha256(b"\n".join(kept)).hexdigest()


def commands(checkout: Path):
    """The check set's command lines, in order, each run from the output directory."""
    yield (str(checkout / "scripts" / "make_synthetic_corpus.py"), "--out", "data",
           "--n-per-class", "60", "--vocab-size", "40", "--doc-len", "30", "--dim", "16",
           "--seed", "5")
    big = (f"--{name.replace('_', '-')}={value}" for name, value in BIG_OPTIONS.items())
    yield (str(checkout / "scripts" / "make_synthetic_corpus.py"), "--out", "big", "--dim", "2",
           *big)
    satira = ("-m", "satira.cli")
    for run, (corpus, *flags) in RUNS.items():
        yield (*satira, "train", "--corpus", corpus, *flags, "--out", f"o/{run}")
        for command, sub in (("evaluate", "eval"), ("predict", "pred")):
            yield (*satira, command, "--model-dir", f"o/{run}", "--corpus", corpus,
                   "--out", f"o/{run}/{sub}")
    yield (*satira, "features", "--model-dir", "o/nb", "--out", "o/feat")
    yield (*satira, "clean", "--corpus", CORPUS, "--stop-phrases", "lexicons/stop_phrases.txt",
           "--out", "o/clean")
    yield (*satira, "boilerplate", "--corpus", "o/clean/cleaned.jsonl", "--out", "o/boiler")
    # the raw corpus too: cleaning strips its Latin letters, leaving only digit tokens to rank
    yield (*satira, "boilerplate", "--corpus", CORPUS, "--fraction", "0.5", "--out",
           "o/boiler_raw")
    yield (*satira, "boilerplate", "--corpus", PREFIXES, "--out", "o/boiler_prefixes")
    yield (*satira, "boilerplate", "--corpus", BIG, "--out", "o/boiler_big")
    measure = (*satira, "measure", "--corpus", "o/clean/cleaned.jsonl",
               "--cliches", "lexicons/cliches.txt", "--emotions", "lexicons/emotions.txt")
    for suffix, tagged in (("", ()), ("_tagged", ("--tagged", TAGS))):
        yield (*measure, *tagged, "--out", f"o/measure{suffix}")
        measures = f"o/measure{suffix}/measures.csv"
        yield (*satira, "ttest", "--measures", measures, "--out", f"o/ttest{suffix}")
        yield (*satira, "plot-data", "--measures", measures, "--out", f"o/plot{suffix}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="empty or missing output directory")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="satira source tree to run")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)
    shutil.copytree(checkout / "lexicons", args.out / "lexicons")
    (args.out / TAGS).parent.mkdir()
    (args.out / TAGS).write_text(tagged_text(), encoding="utf-8")
    (args.out / PREFIXES).write_text(prefix_corpus_text(), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for argv in commands(checkout):
        subprocess.run((sys.executable, *argv), cwd=args.out, env=env, check=True,
                       stdout=subprocess.DEVNULL)
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        print(f"{digest}  {body_digest(data)}  {path.relative_to(args.out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
