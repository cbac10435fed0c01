"""Tests of the benchmark's own logic: tail rule, span arithmetic, input pins, checks.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import termset_retrieval as tr  # noqa: E402
import termset_retrieval.synthetic  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

REGISTRY_SPEC = {
    "inputs": "registry",
    "setup": "build",
    "dataset_seed": 0,
    "registry": {"num_docs": 40, "vocab_size": 30, "n": 3},
    "query_mix": {"distractors": [1, 2], "oov_rate": 0.5},
    "queries": 6,
    "beam": 5,
    "scorer_weights": {"in_query": 3.0, "log1p_postings": 0.5},
}


@pytest.fixture(scope="module")
def small():
    inputs = workloads.generate(tr, REGISTRY_SPEC, seed=3)
    ready = workloads.setup_build(tr, REGISTRY_SPEC, inputs, 3, "")
    return inputs, ready


# -- tail percentile --------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(200, 0, -1)]  # 1..200, unsorted
    assert run.tail_latency(samples) == (190.0, 95.0, 10)
    assert sum(s > 190.0 for s in samples) == 10
    # 199 samples leave 9 beyond p95, so p75 is reported
    assert run.tail_latency(samples[1:]) == (150.0, 75.0, 49)


def test_tail_falls_back_to_the_median_and_then_refuses():
    assert run.tail_latency([float(i) for i in range(1, 21)]) == (10.0, 50.0, 10)
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 19)


# -- host-speed correction ---------------------------------------------------


def test_host_speed_scales_by_nominal_over_the_bracketing_samples():
    samples = iter([2.0, 4.0, 1.0, 1.0, 1.0])
    speed = run.HostSpeed(2.0, sample=lambda: next(samples))
    assert speed.factor() == 2 * 2.0 / (2.0 + 4.0)  # host at 2/3 of nominal speed
    assert speed.factor() == 2 * 2.0 / (4.0 + 1.0)
    speed.restart()  # a new interval starts from a fresh sample
    assert speed.factor() == 2.0
    assert speed.samples == [2.0, 4.0, 1.0, 1.0, 1.0]
    assert run.HostSpeed.kernel_seconds() > 0


# -- span arithmetic --------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", None, None, 0.0, 10.0),
        Span(1, "a", 0, None, 1.0, 4.0),
        Span(2, "a.child", 1, None, 2.0, 3.0),
        Span(3, "b", 0, None, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(0, "root", None, None, 0.0, 10.0),
        Span(1, "x", 0, None, 1.0, 4.0),
        Span(2, "y", 0, None, 3.0, 6.0),
        Span(3, "z", 0, None, 9.0, 12.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_under_finds_every_descendant():
    spans = [
        Span(0, "decoder.beam_search", None, None, 0, 1),
        Span(1, "scorer.step_logprob", 0, None, 0, 1),
        Span(2, "index.child_sizes", 1, None, 0, 1),
        Span(3, "index.extend", None, None, 0, 1),
    ]
    assert tracing.under(spans, "decoder.beam_search") == {1, 2}


def test_tracer_wraps_name_bindings_and_restores_them(small):
    inputs, ready = small
    original = tr.decoder.search
    assert tr.learning.search is original  # bound by name in learning
    tracer = tracing.Tracer()
    missing = tracing.EntryPoint("decoder", "no_such_function", "decoder.gone")
    with tracer.installed(tracing.ENTRY_POINTS + (missing,)):
        assert tr.learning.search is not original
        assert tr.search is tr.decoder.search is tr.learning.search
        tracer.query = "Q"
        tr.search(inputs.queries[0], ready.searchable, ready.scorer, 5)
    assert tr.learning.search is original and tr.search is original
    assert not any(hasattr(v, "__wrapped__") for v in vars(tr.index.PrefixNode).values())
    assert tracer.absent == ["decoder.no_such_function"]

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["decoder.search"]
    (beam,) = by_name["decoder.beam_search"]
    assert root.parent is None and beam.parent == root.id
    assert all(s.query == "Q" for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["index.extend_calls"] == len(by_name["index.extend"]) == 5 * 3
    assert metrics["scorer.candidates_scored"] == sum(s.n for s in by_name["scorer.step_logprob"])
    assert metrics["decoder.kept_ratio"] == 15 / metrics["scorer.candidates_scored"]
    assert metrics["corpus.sample_negatives_s"] == 0


# -- pinned inputs ----------------------------------------------------------


def test_input_digest_is_seeded_and_sees_one_changed_term(small):
    inputs, _ = small
    again = workloads.generate(tr, REGISTRY_SPEC, seed=3)
    assert workloads.digest(again) == workloads.digest(inputs)
    assert workloads.digest(workloads.generate(tr, REGISTRY_SPEC, seed=4)) != workloads.digest(inputs)
    doc = again.table.doc_ids[0]
    again.table.terms_by_doc[doc] = again.table.terms_by_doc[doc][::-1]
    assert workloads.digest(again) != workloads.digest(inputs)


def test_input_check_fails_the_run_on_a_moved_generator(small):
    inputs, _ = small
    pinned = {**REGISTRY_SPEC, "reference_sha256": workloads.digest(inputs)}
    ledger = run.Ledger()
    run.check_inputs(tr, pinned, inputs, 3, 3, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    moved = {**pinned, "query_mix": {"distractors": [0, 1], "oov_rate": 0.5}}
    run.check_inputs(tr, moved, inputs, 5, 3, ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "generators changed" in ledger.problems[0]


# -- correctness checks -----------------------------------------------------


def _result(small):
    inputs, ready = small
    query = inputs.queries[0]
    return query, tr.search(query, ready.searchable, ready.scorer, 5), ready


def test_checks_pass_on_a_real_result(small):
    query, result, ready = _result(small)
    assert len(result.entries) >= 2
    assert checks.check_result(result, ready.searchable) == []
    assert checks.check_scores(tr, result, query, ready.searchable, ready.scorer) == []
    assert checks.check_same(result, result, "itself") == []


def test_checks_catch_a_foreign_permutation(small):
    query, result, ready = _result(small)
    first, second = result.entries[:2]
    result.entries[0] = replace(first, permutation=second.permutation)
    assert checks.check_result(result, ready.searchable)


def test_checks_catch_unsorted_and_duplicate_entries(small):
    _, result, ready = _result(small)
    unsorted = replace(result, entries=result.entries[::-1])
    assert any("scores above" in p for p in checks.check_result(unsorted, ready.searchable))
    doubled = replace(result, entries=[result.entries[0]] * 2)
    assert any("repeated" in p for p in checks.check_result(doubled, ready.searchable))


def test_checks_catch_a_wrong_score_and_changed_output(small):
    query, result, ready = _result(small)
    entries = list(result.entries)
    entries[0] = replace(entries[0], score=entries[0].score + 1e-6)
    corrupted = replace(result, entries=entries)
    assert checks.check_scores(tr, corrupted, query, ready.searchable, ready.scorer)
    assert checks.check_same(corrupted, result, "the reference")
