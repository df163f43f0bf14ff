#!/usr/bin/env python3
"""Time `satira` commands at paper scale, one child process per run.

    python3 scripts/paper_scale.py OUT [--checkout DIR ...]
        [--commands boilerplate,...] [--pairs N] [--n-docs 6895] > runs.json

Writes two corpora of N documents (the paper's 3185 + 3710 = 6895 by
default) under OUT/data with the benchmark's generator
(`perfbench/corpus.py`, `GeneratorConfig(n_docs, 8000)`, seed 1, read only):
a raw, noisy one that `clean` and `boilerplate` read, and a clean one with
its POS tags and 300-d word vectors that `measure --tagged`, `train` (NB on
word counts, NB on char 2-4 counts, GBT on word counts and on word TF-IDF, and
the CNN for one epoch and for none), `predict`, `evaluate` and `features`
read. The vectors come from a random stream of their own, so writing them
changes no corpus byte.
A child's peak RSS starts at its parent's peak when it is forked, so the
corpora are written by a child before any timed run, and every timed child
is started by a small launcher process, not by this script, which reads
each output whole to hash it.

Then, for each of `--pairs` pairs, each chosen command runs once per
`--checkout` tree (default: the one this script is in), as
`python -m satira.cli` with that tree's `src` on `PYTHONPATH`. With more
than one tree, odd pairs run the trees in reverse order, so a drift in the
host's load does not favour one side. The JSON names a git checkout by its
`HEAD` commit (with `+dirty` if its `src` has uncommitted changes) and any
other tree by its resolved path. `predict`, `evaluate` and `features` read
the model their own tree's `train_nb` run wrote in the same pair,
`evaluate_nb_char` the one of `train_nb_char`, `evaluate_gbt` the one of
`train_gbt`, `evaluate_gbt_tfidf` the one of `train_gbt_tfidf`, and
`predict_cnn` and `evaluate_cnn` the one of `train_cnn`; `ttest` and
`plot-data` read the measures CSV of `measure`. So choosing a command that
reads a run runs the command that writes it too.

Each run records its wall time, its peak RSS (the child's own `ru_maxrss`,
from `os.wait4`), its exit code and the sha256 of each output body with the
CLI's metadata lines removed (`check_set.body_digest`), so two trees that
write the same bodies show the same digests. An `evaluate` run also records
the held-out `accuracy` and `macro_f1` of its `report.json`, so a change that
costs quality shows beside its times. The JSON on stdout holds every
run and, per command and tree, the minimum, median and maximum of the wall
time and the peak RSS. A run's outputs are deleted once hashed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_set import body_digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
VOCAB_SIZE, SEED = 8000, 1
RAW, CLEAN, LEXICONS = "data/raw/corpus.jsonl", "data/clean/corpus.jsonl", "data/lexicons"
# command name -> the satira argv besides --out; "{name}" in an argument is the output
# directory of command `name`'s run in the same pair and tree, which then runs first
COMMANDS = {
    "clean": ("clean", "--corpus", RAW, "--stop-phrases", f"{LEXICONS}/stop_phrases.txt"),
    "boilerplate": ("boilerplate", "--corpus", RAW),
    "measure": ("measure", "--corpus", CLEAN, "--cliches", f"{LEXICONS}/cliches.txt",
                "--emotions", f"{LEXICONS}/emotions.txt", "--tagged", "data/clean/tags.conll"),
    "train_nb": ("train", "--corpus", CLEAN, "--model", "nb"),
    "train_nb_char": ("train", "--corpus", CLEAN, "--model", "nb", "--analyzer", "char",
                      "--ngram", "2,4"),
    "ttest": ("ttest", "--measures", "{measure}/measures.csv"),
    "plot-data": ("plot-data", "--measures", "{measure}/measures.csv"),
    "train_gbt": ("train", "--corpus", CLEAN, "--model", "gbt"),
    "train_gbt_tfidf": ("train", "--corpus", CLEAN, "--model", "gbt", "--weighting", "tfidf"),
    "predict": ("predict", "--model-dir", "{train_nb}", "--corpus", CLEAN),
    "evaluate": ("evaluate", "--model-dir", "{train_nb}", "--corpus", CLEAN),
    "evaluate_nb_char": ("evaluate", "--model-dir", "{train_nb_char}", "--corpus", CLEAN),
    "evaluate_gbt": ("evaluate", "--model-dir", "{train_gbt}", "--corpus", CLEAN),
    "evaluate_gbt_tfidf": ("evaluate", "--model-dir", "{train_gbt_tfidf}", "--corpus", CLEAN),
    "features": ("features", "--model-dir", "{train_nb}"),
    # no epoch: loading the vectors, encoding the corpus and saving the model alone
    "train_cnn_0": ("train", "--corpus", CLEAN, "--model", "cnn",
                    "--embeddings", "data/clean/vectors.txt", "--epochs", "0"),
    "train_cnn": ("train", "--corpus", CLEAN, "--model", "cnn",
                  "--embeddings", "data/clean/vectors.txt", "--epochs", "1"),
    "predict_cnn": ("predict", "--model-dir", "{train_cnn}", "--corpus", CLEAN),
    "evaluate_cnn": ("evaluate", "--model-dir", "{train_cnn}", "--corpus", CLEAN),
}
# run by a child, with perfbench/ and src/ of this tree on PYTHONPATH
GENERATE = """
import sys
from pathlib import Path
from corpus import GeneratorConfig, read_lexicons, write_inputs
out, n_docs, seed = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
cfg, lex = GeneratorConfig(n_docs, int(sys.argv[4])), read_lexicons(out / "lexicons")
write_inputs(out / "raw", cfg, lex, seed, noisy=True, vectors=False)
write_inputs(out / "clean", cfg, lex, seed, noisy=False, vectors=True)
"""


def generate(out: Path, n_docs: int) -> None:
    """Write OUT/data: the lexicons of this tree and the raw and clean corpora."""
    data = out / "data"
    shutil.copytree(ROOT / "lexicons", data / "lexicons")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "perfbench"),
                                                        str(ROOT / "src")))}
    subprocess.run((sys.executable, "-c", GENERATE, str(data), str(n_docs), str(SEED),
                    str(VOCAB_SIZE)), env=env, check=True)


# started first, while this script is small, to start every timed child: a child's
# ru_maxrss begins at its parent's peak RSS, and hashing a large output raises ours
LAUNCH = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, env, stderr = json.loads(line)
    with open(stderr, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, child.returncode]), flush=True)
"""


def run_once(launcher, out: Path, checkout: Path, argv: tuple, run_dir: str) -> dict:
    """Run one satira command from OUT through ``launcher``, writing to
    OUT/run_dir; time it and hash its outputs."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    argv = (sys.executable, "-m", "satira.cli", *argv, "--out", run_dir)
    stderr = out / f"{run_dir}.stderr"
    print(json.dumps([argv, str(out), env, str(stderr)]), file=launcher.stdin, flush=True)
    wall, maxrss_kib, code = json.loads(launcher.stdout.readline())
    files = sorted(p for p in (out / run_dir).rglob("*") if p.is_file())
    record = {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(maxrss_kib / 1024, 1),
        "exit": code,
        "bodies": {p.relative_to(out / run_dir).as_posix(): body_digest(p.read_bytes())
                   for p in files},
    }
    if code:
        record["error"] = stderr.read_text(errors="replace").strip()
    elif "report.json" in record["bodies"]:
        lines = (out / run_dir / "report.json").read_text(encoding="utf-8").splitlines()
        report = json.loads("\n".join(l for l in lines if not l.startswith("#")))
        record.update(accuracy=report["accuracy"], macro_f1=report["macro_f1"])
    return record


def describe(tree: Path) -> str:
    """``tree``'s HEAD commit if it is the top of a git checkout, with
    ``+dirty`` if its src differs from HEAD; else its path."""
    git = ("git", "-C", str(tree))
    try:
        top_head = subprocess.run((*git, "rev-parse", "--show-toplevel", "HEAD"),
                                  capture_output=True, text=True)
        dirty = subprocess.run((*git, "status", "--porcelain", "--", "src"),
                               capture_output=True, text=True).stdout
    except OSError:  # no git
        return str(tree)
    top, _, head = top_head.stdout.strip().partition("\n")
    if top_head.returncode or Path(top).resolve() != tree:
        return str(tree)
    return head + ("+dirty" if dirty else "")


def spread(values: list) -> dict:
    return {"min": min(values), "median": round(statistics.median(values), 3),
            "max": max(values)}


def summary(runs: list, checkouts: list, commands: list) -> dict:
    """Per command, per tree in ``checkouts`` order: its failed runs and the
    spreads of its wall time and peak RSS; and whether every run of the
    command wrote the same bodies."""
    table = {}
    for command in commands:
        mine = [r for r in runs if r["command"] == command]
        sides = []
        for side, name in enumerate(checkouts):
            ok = [r for r in mine if r["side"] == side and r["exit"] == 0]
            sides.append({"checkout": name,
                          "failed": sum(r["side"] == side for r in mine) - len(ok)})
            if ok:
                sides[-1].update(wall_s=spread([r["wall_s"] for r in ok]),
                                 peak_rss_mb=spread([r["peak_rss_mb"] for r in ok]))
        same = len({json.dumps(r["bodies"], sort_keys=True) for r in mine}) == 1
        table[command] = {"checkouts": sides, "bodies_identical": same}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="empty or missing output directory")
    parser.add_argument("--checkout", type=Path, action="append",
                        help="satira source tree to run; give several to compare them "
                             "(default: the one this script is in)")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help=f"comma-separated, from {', '.join(COMMANDS)} (default: all)")
    parser.add_argument("--pairs", type=int, default=3, help="runs of each command per tree")
    parser.add_argument("--n-docs", type=int, default=6895, help="documents per corpus")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    names = [describe(c) for c in checkouts]
    commands = args.commands.split(",")
    if unknown := set(commands) - set(COMMANDS):
        parser.error(f"unknown commands {sorted(unknown)}")
    commands += [name for c in commands for name in COMMANDS
                 if any(f"{{{name}}}" in arg for arg in COMMANDS[c])]
    commands = [c for c in COMMANDS if c in commands]  # so a run is written before it is read
    if args.pairs < 1 or args.n_docs < 1:
        parser.error("--pairs and --n-docs must be at least 1")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)
    launcher = subprocess.Popen((sys.executable, "-c", LAUNCH), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
    generate(args.out, args.n_docs)

    runs = []
    for pair in range(args.pairs):
        sides = list(enumerate(checkouts))
        order = sides if pair % 2 == 0 else sides[::-1]
        for command in commands:
            for side, checkout in order:
                run_dir = f"runs/{pair}/{side}/{command}"
                runs_of = {name: f"runs/{pair}/{side}/{name}" for name in COMMANDS}
                argv = tuple(a.format(**runs_of) for a in COMMANDS[command])
                (args.out / run_dir).parent.mkdir(parents=True, exist_ok=True)
                record = run_once(launcher, args.out, checkout, argv, run_dir)
                runs.append({"pair": pair, "side": side, "checkout": names[side],
                             "command": command, **record})
        shutil.rmtree(args.out / "runs" / str(pair))
    launcher.stdin.close()
    launcher.wait()
    json.dump({
        "n_docs": args.n_docs, "vocab_size": VOCAB_SIZE, "seed": SEED,
        "pairs": args.pairs, "checkouts": names,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "commands": {c: " ".join(COMMANDS[c]) for c in commands},
        "summary": summary(runs, names, commands),
        "runs": runs,
    }, sys.stdout, indent=1)
    print()
    return max((r["exit"] for r in runs), default=0) != 0


if __name__ == "__main__":
    sys.exit(main())
