"""Conditional term-generation probabilities Pr(next term | prefix, query).

The scorer interface normalizes over the candidate (feasible) set it is
handed at each step. The reference implementation is a linear model over
cheap query/prefix features with an exact softmax, so gradients are
analytic and the whole pipeline stays deterministic. Neural plug-ins can
implement the same interface and normalize however they like.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from . import atomic
from .corpus import Corpus, CorpusStats, Query
from .errors import DataError, parse_values
from .importance import ImportanceModel, score_terms
from .index import Index

# Each feature varies across a step's candidates: a constant one cancels in
# the candidate softmax, so its gradient is identically zero.
STEP_FEATURES = (
    "in_query",
    "query_prefix4",
    "term_weight",
    "log1p_postings",
)

_SCORER_FORMAT = "termset-scorer/2"


class Scorer(ABC):
    """Per-step log-probabilities over a candidate term set.

    Plug-in contract: implementations receive the feasible candidate set
    but may normalize over their own (larger) vocabulary; the reference
    implementation normalizes over the candidates. A scorer built on a
    subword model must treat its term-separator symbol as the term
    boundary and return each candidate term's total log-probability.
    """

    @abstractmethod
    def step_logprob(self, query: Query, node, candidates: np.ndarray) -> np.ndarray:
        """Return one log-probability per candidate term id."""

    def step_logprobs(self, query: Query, step) -> np.ndarray:
        """Score one decoding step of a whole beam.

        `step` is an `index.Step`: it exposes `depth`, `n`, `parents`,
        `terms`, `sizes` and `offsets` for every extension of the beam,
        grouped by parent hypothesis, and builds the beam's prefix nodes on
        request with `nodes()`. The result holds one log-probability per
        extension, in step order. The default calls step_logprob once per
        node; override it to batch.
        """
        nodes, offsets = step.nodes(), step.offsets
        return np.concatenate(
            [
                np.asarray(self.step_logprob(query, node, step.terms[a:b]), dtype=float)
                for node, a, b in zip(nodes, offsets[:-1], offsets[1:])
            ]
        )


class UniformScorer(Scorer):
    """Every feasible candidate equally likely; handy for oracles and ties."""

    def step_logprob(self, query, node, candidates):
        if len(candidates) == 0:
            raise DataError("empty candidate set")
        return np.full(len(candidates), -math.log(len(candidates)))


class FeatureScorer(Scorer):
    """Linear softmax over step features, trainable by teacher forcing.

    `terms` mirrors the index dictionary (sorted); `term_weights` holds the
    corpus-max importance weight per term. Both are fixed at construction,
    only `weights` learns.
    """

    def __init__(self, weights: np.ndarray, terms: list[str], term_weights: np.ndarray):
        if len(terms) != len(term_weights):
            raise DataError("term list and term weight table differ in length")
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(STEP_FEATURES),):
            raise DataError(f"expected {len(STEP_FEATURES)} step weights")
        self.terms = list(terms)
        self.term_weights = np.asarray(term_weights, dtype=float)
        self._term_id = {t: i for i, t in enumerate(self.terms)}
        self._by_prefix4: dict[str, list[int]] = {}
        for i, t in enumerate(self.terms):
            self._by_prefix4.setdefault(t[:4], []).append(i)

    @classmethod
    def zeros(cls, index: Index, term_weights: np.ndarray | None = None) -> "FeatureScorer":
        if term_weights is None:
            term_weights = np.zeros(len(index.dictionary))
        return cls(np.zeros(len(STEP_FEATURES)), index.dictionary.terms, term_weights)

    def copy(self) -> "FeatureScorer":
        return FeatureScorer(self.weights.copy(), self.terms, self.term_weights)

    def query_lookup(self, query: Query) -> np.ndarray:
        """The query's two features of every term, as a (V, 2) float array.

        Row t holds `in_query` (t is a query term) and `query_prefix4` (t
        shares its first four characters with a query term). Build it once
        per query and pass it to `_features`, which gathers rows by
        candidate id.
        """
        lookup = np.zeros((len(self.terms), 2))
        lookup[[self._term_id[t] for t in query.terms if t in self._term_id], 0] = 1.0
        lookup[[i for t in query.terms for i in self._by_prefix4.get(t[:4], ())], 1] = 1.0
        return lookup

    def step_features(self, lookup: np.ndarray, node, candidates: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidates, dtype=np.int64)
        return self._features(lookup, candidates, node.child_sizes(candidates))

    def _features(self, lookup, candidates, sizes) -> np.ndarray:
        feats = np.empty((len(candidates), len(STEP_FEATURES)))
        feats[:, :2] = lookup[candidates]
        feats[:, 2] = self.term_weights[candidates]
        feats[:, 3] = np.log1p(sizes)
        return feats

    def step_logprob(self, query, node, candidates):
        if len(candidates) == 0:
            raise DataError("empty candidate set")
        scores = self.step_features(self.query_lookup(query), node, candidates) @ self.weights
        return scores - _logsumexp(scores)

    def step_logprobs(self, query, step):
        """One feature matrix for the whole beam, normalized segment by segment."""
        counts = np.diff(step.offsets)
        if not counts.all():
            raise DataError("empty candidate set")
        feats = self._features(self.query_lookup(query), step.terms, step.sizes)
        scores = feats @ self.weights
        # Each segment is normalized with the float operations of
        # step_logprob, so the batch is bit-identical to scoring node by node.
        # A one-row matmul may round a score differently from the same row in
        # a larger matrix, but a one-candidate segment normalizes to exactly 0.
        return scores - np.repeat(_segment_logsumexp(scores, step.offsets), counts)

    # -- training -----------------------------------------------------------

    def loss_and_grad(self, batch, searchable):
        """Teacher-forced cross-entropy over (query, target id sequence) pairs.

        Loss is the mean negative sequence log-likelihood; the gradient is
        the usual softmax difference E_p[features] - features[target],
        accumulated along each target's prefix chain.
        """
        if not batch:
            raise DataError("empty training batch")
        total_loss = 0.0
        grad = np.zeros_like(self.weights)
        for query, target in batch:
            lookup = self.query_lookup(query)
            for node, candidates, pos in _teacher_walk(searchable, target):
                feats = self.step_features(lookup, node, candidates)
                scores = feats @ self.weights
                logprobs = scores - _logsumexp(scores)
                total_loss -= logprobs[pos]
                probs = np.exp(logprobs)
                grad += probs @ feats - feats[pos]
        return total_loss / len(batch), grad / len(batch)

    def train_step(self, batch, searchable, lr: float) -> float:
        """One full-batch gradient step; returns the pre-update loss."""
        loss, grad = self.loss_and_grad(batch, searchable)
        if not math.isfinite(loss):
            raise ArithmeticError(f"non-finite teacher-forcing loss {loss} (lr={lr})")
        self.weights -= lr * grad
        return loss


def _logsumexp(scores: np.ndarray) -> float:
    m = scores.max()
    return m + math.log(np.exp(scores - m).sum())


def _segment_logsumexp(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """`_logsumexp` of each segment scores[offsets[i]:offsets[i + 1]], bit for bit.

    Max and exp act element by element, so they run over the whole array
    at once. Summation order matters: segments of one length are stacked
    into a C-contiguous block, whose row sums use the same pairwise
    summation as `.sum()` on one segment (`np.add.reduceat` sums
    sequentially and differs from length 9 on).
    """
    counts = np.diff(offsets)
    m = np.maximum.reduceat(scores, offsets[:-1])
    e = np.exp(scores - np.repeat(m, counts))
    sums = np.empty(len(counts))
    for length in np.unique(counts):
        rows = np.flatnonzero(counts == length)
        sums[rows] = e[offsets[rows, None] + np.arange(length)].sum(axis=1)
    return m + np.array([math.log(s) for s in sums.tolist()])


def _teacher_walk(searchable, term_ids):
    """Walk `term_ids` from the root, yielding each step before taking it.

    Yields (node, feasible terms at node, position of the next term among
    them); a term that is not feasible raises DataError.
    """
    node = searchable.root()
    for term_id in term_ids:
        candidates = node.feasible_terms()
        pos = int(np.searchsorted(candidates, term_id))
        if pos >= len(candidates) or candidates[pos] != term_id:
            raise DataError(f"term id {int(term_id)} infeasible at prefix {node.prefix_ids}")
        yield node, candidates, pos
        node = node.extend(int(term_id))


def sequence_logprob(scorer: Scorer, query: Query, term_ids, searchable) -> float:
    """Sum of step log-probabilities along a valid identifier prefix."""
    total = 0.0
    for node, candidates, pos in _teacher_walk(searchable, term_ids):
        total += float(scorer.step_logprob(query, node, candidates)[pos])
    return total


def build_term_weights(
    index: Index, corpus: Corpus, model: ImportanceModel, stats: CorpusStats | None = None
) -> np.ndarray:
    """Corpus-max importance weight per dictionary term (0 for synthetic terms)."""
    stats = stats or corpus.stats
    table = np.zeros(len(index.dictionary))
    for doc in corpus.documents:
        for term, weight in score_terms(model, doc, stats).items():
            if term in index.dictionary:
                tid = index.dictionary.id_of(term)
                table[tid] = max(table[tid], weight)
    return table


def save_scorer(scorer: FeatureScorer, path) -> None:
    lines = [
        _SCORER_FORMAT,
        "features\t" + " ".join(STEP_FEATURES),
        "weights\t" + " ".join(repr(float(w)) for w in scorer.weights),
        f"terms\t{len(scorer.terms)}",
    ]
    for term, weight in zip(scorer.terms, scorer.term_weights):
        lines.append(f"{term}\t{float(weight)!r}")
    atomic.write_text(path, "\n".join(lines) + "\n")


def load_scorer(path) -> FeatureScorer:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _SCORER_FORMAT:
        raise DataError(f"{path}: not a {_SCORER_FORMAT} file")
    header: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(lines[1:4], start=2):
        key, tab, value = line.partition("\t")
        if not tab:
            raise DataError(f"{path}:{lineno}: header line is not 'key<TAB>value'")
        header[key] = (lineno, value)
    for key in ("features", "weights", "terms"):
        if key not in header:
            raise DataError(f"{path}: missing {key!r} header line")
    lineno, value = header["features"]
    if value != " ".join(STEP_FEATURES):
        raise DataError(f"{path}:{lineno}: unexpected step-feature schema")
    lineno, value = header["weights"]
    weights = np.array(parse_values(float, value.split(" "), f"{path}:{lineno}: step weights"))
    lineno, value = header["terms"]
    (count,) = parse_values(int, [value], f"{path}:{lineno}: term count")
    terms, term_weights = [], []
    for lineno, line in enumerate(lines[4:], start=5):
        if not line:
            continue
        term, tab, weight = line.rpartition("\t")
        if not tab:
            raise DataError(f"{path}:{lineno}: term line is not 'term<TAB>weight'")
        terms.append(term)
        term_weights.extend(parse_values(float, [weight], f"{path}:{lineno}: term weight"))
    if len(terms) != count:
        raise DataError(f"{path}: vocabulary count mismatch")
    return FeatureScorer(weights, terms, np.array(term_weights))


def check_compatible(scorer: FeatureScorer, index: Index) -> None:
    if scorer.terms != index.dictionary.terms:
        raise DataError("vocabulary mismatch between index and scorer")
