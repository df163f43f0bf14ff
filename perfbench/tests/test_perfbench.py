"""Self-tests of the benchmark: generator determinism, span arithmetic, a
tiny-size smoke run of every workload, and the metric names it emits.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from corpus import GeneratorConfig, read_lexicons, write_inputs  # noqa: E402
from harness import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import F1_CHECK, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"n_docs": 40, "vocab_size": 300, "min_tokens": 40, "max_tokens": 80}


def _generate(out: Path, seed: int) -> dict[str, bytes]:
    cfg = GeneratorConfig(**TINY)
    paths = write_inputs(out, cfg, read_lexicons(ROOT / "lexicons"), seed, noisy=True, vectors=True)
    return {name: path.read_bytes() for name, path in paths.items()}


def test_generator_is_deterministic(tmp_path):
    first = _generate(tmp_path / "a", seed=7)
    assert set(first) == {"corpus", "tags", "vectors"}
    assert first == _generate(tmp_path / "b", seed=7)
    assert first["corpus"] != _generate(tmp_path / "c", seed=8)["corpus"]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},
        {"id": 3, "parent": 2, "start": 2.5, "end": 3.5},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_tracer_keeps_spans_only_when_enabled():
    for enabled in (False, True):
        closed = []
        tracer = Tracer(enabled, "t", lambda tr, kind: closed.append((tr.segment, kind, dict(tr.buckets))))
        tracer.begin_pass()
        with tracer.span("pass"):
            with tracer.span("layer.step", "fit") as counts:
                pass
            tracer.checkpoint()
            with tracer.span("layer.other", "predict"):
                pass
            tracer.checkpoint("numpy")
        counts["n"] = 3
        assert tracer.ops == 2
        assert [(segment, kind, set(buckets)) for segment, kind, buckets in closed] == [
            (0, "python", {"wall", "fit"}),
            (1, "numpy", {"wall", "fit", "predict"}),
        ]
        if enabled:
            outer, inner, other = tracer.spans
            assert inner["parent"] == outer["id"] and inner["counts"] == {"n": 3}
            assert (inner["segment"], other["segment"]) == (0, 1)
        else:
            assert tracer.spans == []


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_exactly_the_declared_metrics(tmp_path, name, trace):
    workload = WORKLOADS[name]
    gen = replace(workload.generator, **TINY)
    result = run(workload, ROOT, tmp_path / name, seed=3, seconds=0.01, trace=trace, gen=gen)
    assert result["errors"] == 0
    # a tiny corpus may leave a model below the quality floor; nothing else may fail
    assert all(check.startswith(F1_CHECK) for check in result["failed_checks"])
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    assert all(isinstance(v, (int, float)) for v in result["metrics"].values())
    if trace:
        spans = [json.loads(line) for line in (tmp_path / name / "trace.jsonl").read_text().splitlines()]
        assert {s["run"] for s in spans} == {f"{name}-3-traced"}
        assert any(s["name"].startswith("corpus_io.") for s in spans)
    else:
        assert all(v > 0 for v in result["metrics"].values())


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bow", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
