"""Set-up, the closed measurement loop and the metrics of one benchmark run."""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from tracing import Tracer, name_totals
from workloads import Inputs, Workload, prepare, warmup_config

SETUP_REPEATS = 3

# per-layer metric -> (span names, what to sum over them): "self_s" sums
# the spans' self time, any other key sums the count of that name
LAYER_METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "corpus_io.load_s": (("corpus_io.load",), "self_s"),
    "corpus_io.split_s": (("corpus_io.split",), "self_s"),
    "corpus_io.docs": (("corpus_io.load",), "docs"),
    "preprocess.clean_s": (("preprocess.clean",), "self_s"),
    "preprocess.ngram_frequency_s": (("preprocess.ngram_frequency",), "self_s"),
    "preprocess.top_fraction_s": (("preprocess.top_fraction",), "self_s"),
    "preprocess.tokens_in": (("preprocess.clean",), "tokens_in"),
    "preprocess.tokens_out": (("preprocess.clean",), "tokens_out"),
    "preprocess.ngram_keys": (("preprocess.ngram_frequency",), "keys"),
    "stylometrics.read_tags_s": (("stylometrics.read_tags",), "self_s"),
    "stylometrics.profile_s": (("stylometrics.profile",), "self_s"),
    "stylometrics.lexicon_hits": (("stylometrics.profile",), "lexicon_hits"),
    "stats.ttest_s": (("stats.ttest",), "self_s"),
    "stats.density_s": (("stats.density",), "self_s"),
    "vectorize.fit_word_s": (("vectorize.fit_word",), "self_s"),
    "vectorize.fit_char_s": (("vectorize.fit_char",), "self_s"),
    "vectorize.transform_s": (("vectorize.transform",), "self_s"),
    "vectorize.toarray_s": (("vectorize.toarray",), "self_s"),
    "vectorize.vocab_size": (("vectorize.fit_word", "vectorize.fit_char"), "vocab_size"),
    "vectorize.nnz": (("vectorize.transform",), "nnz"),
    "vectorize.save_s": (("vectorize.save",), "self_s"),
    "vectorize.load_s": (("vectorize.load",), "self_s"),
    "naive_bayes.fit_s": (("naive_bayes.fit",), "self_s"),
    "naive_bayes.predict_s": (("naive_bayes.predict",), "self_s"),
    "naive_bayes.save_s": (("naive_bayes.save",), "self_s"),
    "naive_bayes.load_s": (("naive_bayes.load",), "self_s"),
    "boosted_trees.fit_s": (("boosted_trees.fit",), "self_s"),
    "boosted_trees.split_nodes": (("boosted_trees.fit",), "split_nodes"),
    "boosted_trees.final_train_loss": (("boosted_trees.fit",), "final_train_loss"),
    "boosted_trees.predict_s": (("boosted_trees.predict",), "self_s"),
    "boosted_trees.save_s": (("boosted_trees.save",), "self_s"),
    "boosted_trees.load_s": (("boosted_trees.load",), "self_s"),
    "embeddings.index_s": (("embeddings.build_index",), "self_s"),
    "embeddings.load_s": (("embeddings.load",), "self_s"),
    "embeddings.coverage": (("embeddings.load",), "coverage"),
    "embeddings.encode_s": (("embeddings.encode",), "self_s"),
    "convnet.init_s": (("convnet.init",), "self_s"),
    "convnet.train_s": (("convnet.train",), "self_s"),
    "convnet.final_epoch_loss": (("convnet.train",), "final_epoch_loss"),
    "convnet.save_s": (("convnet.save",), "self_s"),
    "convnet.artifact_mb": (("convnet.save",), "artifact_mb"),
    "convnet.load_s": (("convnet.load",), "self_s"),
    "convnet.predict_s": (("convnet.predict",), "self_s"),
    "evaluation.evaluate_s": (("evaluation.evaluate",), "self_s"),
    **{
        f"{model}_macro_f1": (("evaluation.evaluate",), f"{model}_macro_f1")
        for model in ("nb_count", "nb_tfidf", "nb_char", "gbt", "cnn")
    },
}
# per-layer metric -> (span name, count, factor): factor * self time per unit of that count
PER_UNIT_METRICS = {
    "boosted_trees.round_s": ("boosted_trees.fit", "rounds", 1.0),
    "convnet.doc_epoch_ms": ("convnet.train", "doc_epochs", 1000.0),
}
PROBED_METRICS = ("vectorize.peak_mb", "convnet.predict_peak_mb")


class BenchmarkError(Exception):
    """The run could not produce a result."""


class Reference:
    """Fixed CPU kernels timed before and after every measured step.

    Other tenants share the host's cores, and its speed changes by up to 2x
    within seconds. Every time metric is therefore reported in reference
    seconds: a step's measured seconds times its kernel's REFERENCE_S over
    the mean kernel time of the samples taken just before and just after
    it. The steps are set-ups and pass segments of about a second. A slow
    host slows interpreter work more than numpy's compiled loops, so there
    are two kernels and each segment is scaled by the one its workload
    names at the checkpoint that ends it: ``python`` (string splitting,
    Counter updates, sorting, float formatting and parsing) or ``numpy``
    (a stable column argsort and a matrix product, as in split search and
    convolution). Neither calls satira code, so a change to satira moves
    the metrics and a change in host speed mostly does not.
    """

    # about each kernel's median time on the 2.1 GHz Xeon vCPUs of README.md
    REFERENCE_S = {"python": 0.045, "numpy": 0.03}

    def __init__(self):
        rng = np.random.default_rng(0)
        words = [
            "".join(chr(0x0628 + int(c)) for c in rng.integers(0, 20, size=int(n)))
            for n in rng.integers(3, 8, size=2000)
        ]
        self.text = " ".join(words[int(i)] for i in rng.integers(0, 2000, size=20000))
        self.floats = rng.normal(size=3000)
        self.columns = rng.integers(0, 4, size=(300, 1500)).astype(np.float64)
        self.left = rng.normal(size=(1000, 1500))
        self.right = rng.normal(size=(1500, 126))
        self.kernels = {"python": self._python_kernel, "numpy": self._numpy_kernel}
        self.samples: dict[str, list[float]] = {kind: [] for kind in self.kernels}
        self._last_gap: dict[str, float] = {}

    def _python_kernel(self) -> int:
        tokens = self.text.split()
        bigrams = Counter(" ".join(tokens[i : i + 2]) for i in range(len(tokens) - 1))
        top = sorted(bigrams.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
        parsed = [float(v) for v in " ".join(repr(float(x)) for x in self.floats).split()]
        return len(top) + len(parsed)

    def _numpy_kernel(self) -> int:
        order = np.argsort(self.columns, axis=0, kind="stable")
        product = self.left @ self.right
        return int(order[0, 0]) + product.shape[0]

    def _gap(self) -> dict[str, float]:
        """Time each kernel once."""
        gc.collect()
        gap = {}
        for kind, kernel in self.kernels.items():
            start = time.perf_counter()
            kernel()
            gap[kind] = time.perf_counter() - start
            self.samples[kind].append(gap[kind])
        return gap

    def start(self) -> None:
        self._last_gap = self._gap()

    def rescale(self, kind: str = "python") -> float:
        """Sample again; the factor from measured to reference seconds for
        the step since the previous sample."""
        gap = self._gap()
        scale = self.REFERENCE_S[kind] / ((self._last_gap[kind] + gap[kind]) / 2)
        self._last_gap = gap
        return scale

    def median_ms(self) -> dict[str, float]:
        return {kind: 1000.0 * statistics.median(times) for kind, times in self.samples.items()}


def setup(workload: Workload, root: Path, out: Path, seed: int, gen=None) -> tuple[Inputs, float]:
    """Generate inputs, then warm up on a small corpus of the same shape."""
    start = time.perf_counter()
    inputs = prepare(workload, root, out / "inputs", seed, gen)
    warm = prepare(workload, root, out / "warmup", seed, warmup_config(gen or workload.generator))
    workload.run_pass(warm, Tracer(False, "warmup"))
    return inputs, time.perf_counter() - start


def peak_mb(call) -> float:
    """Peak memory the call allocates, tracked by tracemalloc for that call only."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(spans: list[dict], scales: dict[tuple[int, int], float]) -> dict[str, float]:
    """Per-layer metrics of one pass, in reference seconds per (pass, segment) scale."""
    totals = name_totals(spans, lambda span: scales.get((span["pass"], span["segment"]), 0.0))
    values = {
        metric: sum(totals[n][what] for n in names if n in totals)
        for metric, (names, what) in LAYER_METRICS.items()
    }
    for metric, (name, unit, factor) in PER_UNIT_METRICS.items():
        entry = totals.get(name)
        values[metric] = factor * entry["self_s"] / entry[unit] if entry else 0.0
    return values


def run(workload: Workload, root: Path, out: Path, seed: int, seconds: float, trace: bool, gen=None) -> dict:
    """One benchmark run: set-up, passes for ``seconds``, then the result object."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reference = Reference()
    try:
        setup_times = []
        reference.start()
        for _ in range(SETUP_REPEATS):
            inputs, took = setup(workload, root, out, seed, gen)
            setup_times.append(took * reference.rescale())

        scales: dict[tuple[int, int], float] = {}
        totals: dict[str, float] = defaultdict(float)

        def close_segment(tr: Tracer, kind: str) -> None:
            scale = reference.rescale(kind)
            scales[tr.pass_index, tr.segment] = scale
            for bucket, seconds in tr.buckets.items():
                totals[bucket] += scale * seconds
            tr.buckets.clear()

        tracer = Tracer(trace, f"{workload.name}-{seed}-{'traced' if trace else 'untraced'}", close_segment)
        passes, errors, checks, failed_checks = [], 0, 0, []
        start = time.perf_counter()
        while True:
            totals.clear()
            tracer.begin_pass()
            began = time.perf_counter()
            try:
                outcome = workload.run_pass(inputs, tracer)
            except Exception:
                errors += 1
                traceback.print_exc(file=sys.stderr)
            else:
                for name, ok in outcome.all_checks():
                    checks += 1
                    if not ok:
                        failed_checks.append(name)
                        print(f"check failed: {name}", file=sys.stderr)
                passes.append((tracer.pass_index, dict(totals), outcome.docs_scored))
                last = outcome
            if time.perf_counter() - start + (time.perf_counter() - began) > seconds:
                break
        if not passes:
            raise BenchmarkError(f"all {errors} passes of {workload.name} failed")

        walls = [b["wall"] for _, b, _ in passes]
        if trace:
            per_pass = [layer_metrics(tracer.pass_spans(i), scales) for i, _, _ in passes]
            metrics = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
            for metric in PROBED_METRICS:
                probe = last.probes.get(metric)
                metrics[metric] = peak_mb(probe) if probe else 0.0
            metrics["trace.wall_s"] = statistics.median(walls)
            tracer.write_jsonl(out / "trace.jsonl")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "fit_s": statistics.median(b["fit"] for _, b, _ in passes),
                "predict_docs_per_s": statistics.median(docs / b["predict"] for _, b, docs in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        return {
            "passes": len(passes),
            "reference_ms": reference.median_ms(),
            "attempted": tracer.ops + checks,
            "failed": errors + len(failed_checks),
            "errors": errors,
            "failed_checks": failed_checks,
            "metrics": metrics,
        }
    finally:
        for name in ("inputs", "warmup"):
            shutil.rmtree(out / name, ignore_errors=True)
