"""Span tracing of the package's public entry points, from outside the package.

The traced run replaces each entry point named in ENTRY_POINTS with a
wrapper that records one span per call: name, start, end, parent span,
the query being served (if any) and an optional count. Module functions
are replaced at every module attribute bound to the same function object,
because callers resolve names where they imported them (`learning` binds
`search` and `sequence_logprob` by name). Methods are replaced on the
class. Nothing inside the package is edited; uninstall() restores every
attribute.

Self time of a span is its duration minus the part of its interval covered
by its child spans. Per-layer metrics are derived from the spans alone.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
from dataclasses import dataclass

PACKAGE = "termset_retrieval"
_INHERITED = object()


def _count_candidates(args, kwargs, result):
    return len(args[3]) if len(args) > 3 else len(kwargs["candidates"])


def _count_hypotheses(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["hypotheses"])


def _count_entries(args, kwargs, result):
    return len(result.entries)


def _identifier_size(args, kwargs, result):
    return result.n


def _iterations(args, kwargs, result):
    return len(result[1])


@dataclass(frozen=True)
class EntryPoint:
    """One public callable: `owner` is a module, or `module:Class` for a method."""

    owner: str
    attr: str
    span: str
    count: object = None  # (args, kwargs, result) -> int, recorded as the span's n
    count_out: object = None  # second count, recorded as the span's m


ENTRY_POINTS = (
    EntryPoint("corpus", "sample_negatives", "corpus.sample_negatives"),
    EntryPoint("importance", "train_importance", "importance.train_importance"),
    EntryPoint("importance", "build_identifiers", "importance.build_identifiers", _identifier_size),
    EntryPoint("index", "build_index", "index.build_index"),
    EntryPoint("index", "save_index", "index.save_index"),
    EntryPoint("index", "load_index", "index.load_index"),
    EntryPoint("index:PrefixNode", "feasible_terms", "index.feasible_terms"),
    EntryPoint("index:PrefixNode", "child_sizes", "index.child_sizes"),
    EntryPoint("index:PrefixNode", "extend", "index.extend"),
    EntryPoint("scorer:FeatureScorer", "step_logprob", "scorer.step_logprob", _count_candidates),
    EntryPoint("scorer:FeatureScorer", "train_step", "scorer.train_step"),
    EntryPoint("decoder", "search", "decoder.search"),
    EntryPoint("decoder", "constrained_beam_search", "decoder.beam_search"),
    EntryPoint(
        "decoder", "rank_documents", "decoder.rank_documents", _count_hypotheses, _count_entries
    ),
    EntryPoint("learning", "init_permutation", "learning.init_permutation"),
    EntryPoint("learning", "sample_permutations", "learning.sample_permutations"),
    EntryPoint("learning", "select_objective", "learning.select_objective"),
    EntryPoint("learning", "validation_recall", "learning.validation_recall"),
    EntryPoint("learning", "run_training", "learning.run_training", _iterations),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    query: str | None
    start: float
    end: float
    n: int | None = None
    m: int | None = None

    def to_record(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


class Tracer:
    """Records spans in memory while installed; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, entry_points=ENTRY_POINTS):
        self.install(entry_points)
        try:
            yield self
        finally:
            self.uninstall()

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Wrap every entry point; one that no longer exists is listed in `absent`."""
        self.absent = []
        package_modules = [
            mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for ep in entry_points:
            module_name, _, class_name = ep.owner.partition(":")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner = getattr(module, class_name, None) if class_name else module
            original = getattr(owner, ep.attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{ep.owner}.{ep.attr}")
                continue
            wrapper = self._wrap(original, ep)
            if class_name:
                self._patch(owner, ep.attr, wrapper)
                continue
            for mod in package_modules:
                if getattr(mod, ep.attr, None) is original:
                    self._patch(mod, ep.attr, wrapper)

    def uninstall(self) -> None:
        self.query = None
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, ep: EntryPoint):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(next(self._ids), ep.span, stack[-1] if stack else None, self.query, 0, 0)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if ep.count is not None:
                span.n = ep.count(args, kwargs, result)
            if ep.count_out is not None:
                span.m = ep.count_out(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span.to_record()) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def under(spans: list[Span], ancestor: str) -> set[int]:
    """Ids of spans with a (strict) ancestor named `ancestor`."""
    by_id = {s.id: s for s in spans}
    memo: dict[int, bool] = {}

    def inside(span_id: int | None) -> bool:
        chain = []
        found = False
        while span_id is not None:
            if span_id in memo:
                found = memo[span_id]
                break
            span = by_id[span_id]
            chain.append(span_id)
            if span.name == ancestor:
                found = True
                break
            span_id = span.parent
        for sid in chain:
            memo[sid] = found
        return found

    return {s.id for s in spans if inside(s.parent)}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of the traced run, keyed by metric name.

    Durations are inclusive unless the name says `self`; `feasible_s`,
    `child_sizes_s`, `extend_s` and `rank_s` are self times too, but
    those entry points have no traced children today.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(*names):
        return sum(s.end - s.start for n in names for s in by_name.get(n, ()))

    def self_total(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    def count_sum(name, attr="n", ids=None):
        return sum(
            getattr(s, attr) or 0 for s in by_name.get(name, ()) if ids is None or s.id in ids
        )

    in_beam = under(spans, "decoder.beam_search")
    scored_in_beam = count_sum("scorer.step_logprob", ids=in_beam)
    kept_in_beam = sum(1 for s in by_name.get("index.extend", ()) if s.id in in_beam)
    hyps = count_sum("decoder.rank_documents")
    identifiers = by_name.get("importance.build_identifiers", ())
    runs = by_name.get("learning.run_training", ())
    return {
        "corpus.sample_negatives_s": total("corpus.sample_negatives"),
        "importance.train_s": total("importance.train_importance"),
        "importance.identifiers_s": total("importance.build_identifiers"),
        "importance.identifier_n": identifiers[-1].n if identifiers else 0,
        "index.build_s": total("index.build_index"),
        "index.save_s": total("index.save_index"),
        "index.load_s": total("index.load_index"),
        "index.feasible_calls": calls("index.feasible_terms"),
        "index.feasible_s": self_total("index.feasible_terms"),
        "index.child_sizes_s": self_total("index.child_sizes"),
        "index.extend_calls": calls("index.extend"),
        "index.extend_s": self_total("index.extend"),
        "scorer.step_calls": calls("scorer.step_logprob"),
        "scorer.candidates_scored": count_sum("scorer.step_logprob"),
        "scorer.step_self_s": self_total("scorer.step_logprob"),
        "scorer.train_step_s": total("scorer.train_step"),
        "decoder.search_self_s": self_total("decoder.beam_search"),
        "decoder.rank_s": self_total("decoder.rank_documents"),
        "decoder.kept_ratio": kept_in_beam / scored_in_beam if scored_in_beam else 0.0,
        "decoder.docs_per_hyp": count_sum("decoder.rank_documents", "m") / hyps if hyps else 0.0,
        "learning.targets_s": total(
            "learning.init_permutation", "learning.sample_permutations", "learning.select_objective"
        ),
        "learning.validation_s": total("learning.validation_recall"),
        "learning.iterations": sum(s.n for s in runs),
    }
