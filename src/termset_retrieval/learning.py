"""Likelihood-adapted sequence training.

Each iteration re-derives a target permutation per (query, positive) pair:
candidate orderings are sampled stepwise from the current model restricted
to the document's remaining identifier terms, and the candidate with the
highest overall likelihood becomes the teacher-forcing target for the next
round. Iteration one starts from an initialization policy instead.
Sampling draws from SplitMix64 keyed per pair (`_keyed_uniforms`).

Training runs on the same step kernel as search, for all pairs at once,
and steps as search does: the root is `expand`ed, and each step makes the
next (`Step.descend`), a `DenseStep` once every row's prefix names one
document. Sampling advances every (pair, sample) row one depth per step,
its rows' distinct prefixes one beam, and scores each row over its
remaining identifier terms with one `segment_logprobs` call. Candidate
scoring and teacher forcing go through the scorer's teacher walk
(`Scorer.sequence_logprobs`, `FeatureScorer.force`): one step per depth for
every row, each distinct (query, prefix) segment scored once, in chunks of
bounded row count. `FeatureScorer` forces the root as one piece
from per-stem-group sums, with no (queries x vocabulary) row.

`run_training` builds each piece of work once at the widest scope it holds
for. Per run: each pair's registry row, which every candidate and initial
target must equal once sorted (`_check_permutations`), and stored order,
and the scorer's form of the training queries (`Scorer.prepare`), read by
sampling, selection and teacher forcing. Per iteration: the draws, the
sampled candidates, one (pairs, candidates, n) int64 array, and their
selection, then the (pairs, n) targets forced once (`FeatureScorer.force`).
Per epoch: only what the weights change, the scores, their normalization
and the gradient sums.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import Judgments, Query
from .decoder import search
from .errors import DataError, InvariantError
from .index import Index, root_beam
from .scorer import FeatureScorer, Scorer, _query_slots

INIT_POLICIES = ("importance", "random", "likelihood")


@dataclass
class TrainingConfig:
    iterations: int = 2
    samples: int = 4
    topk_sampling: int = 4
    init: str = "importance"
    epochs: int = 10
    lr: float = 0.5
    seed: int = 0
    beam_eval: int = 10

    def __post_init__(self):
        if min(self.iterations, self.samples, self.topk_sampling, self.beam_eval) < 1:
            raise DataError("iterations, samples, topk_sampling and beam_eval must all be >= 1")
        if self.init not in INIT_POLICIES:
            raise DataError(f"unknown init policy {self.init!r}; choose from {INIT_POLICIES}")
        if self.epochs < 1 or not 0 < self.lr < math.inf:  # NaN fails both comparisons
            raise DataError(f"epochs must be >= 1 and lr positive and finite, got lr={self.lr}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainingConfig":
        return cls(
            **{f.name: type(f.default)(mapping[f.name]) for f in fields(cls) if f.name in mapping}
        )


@dataclass
class IterationStats:
    iteration: int
    mean_objective_logprob: float
    val_recall: float | None
    target_churn: float
    num_pairs: int
    num_pseudo: int
    epoch_losses: list[float] = field(default_factory=list)  # pre-update loss per epoch


@dataclass
class LearningPair:
    query: Query
    doc_id: str
    pseudo: bool = False


@dataclass
class LearningDataset:
    train: list[LearningPair]
    validation: list[tuple[Query, set[str]]] = field(default_factory=list)


def make_dataset(
    queries: list[Query],
    judgments: Judgments,
    val_fraction: float = 0.2,
    seed: int = 0,
    pseudo_pairs: list[tuple[Query, str]] | None = None,
) -> LearningDataset:
    """Split judged queries into train pairs and a held-out validation set.

    The split is by query, so validation queries contribute no training
    pairs. Pseudo pairs always train and are tagged for the stats.
    """
    if not 0 <= val_fraction < 1:
        raise DataError(f"val_fraction must be in [0, 1), got {val_fraction}")
    by_id = {q.query_id: q for q in queries}
    qids = [q for q in judgments.query_ids if q in by_id]
    if not qids:
        raise DataError("no judged queries available")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(qids))
    n_val = int(round(val_fraction * len(qids)))
    val_ids = {qids[i] for i in order[:n_val]}
    train, validation = [], []
    for qid in qids:
        if qid in val_ids:
            validation.append((by_id[qid], judgments.relevant(qid)))
        else:
            for doc_id in sorted(judgments.relevant(qid)):
                train.append(LearningPair(by_id[qid], doc_id))
    for query, doc_id in pseudo_pairs or []:
        train.append(LearningPair(query, doc_id, pseudo=True))
    if not train:
        raise DataError("empty training split; lower val_fraction")
    return LearningDataset(train, validation)


def _derived_seed(*parts) -> int:
    digest = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def init_permutation(
    doc_id: str,
    index: Index,
    policy: str,
    scorer: Scorer | None = None,
    seed: int = 0,
    query: Query | None = None,
) -> tuple[int, ...]:
    """Initial target ordering of a document's identifier terms.

    importance: the stored importance-descending order. random: a seeded
    shuffle (stable per document). likelihood: the greedy rollout
    (`_sample_pairs` with topk=1) under the supplied scorer, ties falling
    back to the stored order.
    """
    ordered = index.identifier_ids(doc_id, ordered=True).astype(np.int64)
    if policy == "importance":
        return tuple(ordered.tolist())
    if policy == "random":
        rng = np.random.default_rng(_derived_seed("init", seed, doc_id))
        return tuple(ordered[rng.permutation(len(ordered))].tolist())
    if policy == "likelihood":
        if scorer is None:
            raise DataError("likelihood initialization requires a scorer")
        query = query or Query("", "", [])
        one = np.zeros(1, dtype=np.int64)  # the one pair's query slot, and its ignored key
        return tuple(_sample_pairs(scorer.prepare([query]), one, one.astype(np.uint64),
                                   ordered[None], index, scorer, 1, 1)[0, 0].tolist())
    raise DataError(f"unknown init policy {policy!r}")


def _keyed_uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """Draws 1..count of SplitMix64 from each uint64 key, as (keys, count) doubles in [0, 1).

    Draw i of key k mixes k + i * 0x9E3779B97F4A7C15 (mod 2**64) and keeps
    its top 53 bits, so a key's draws do not depend on the other keys. The
    arithmetic is on uint64 arrays, which wrap without a warning.
    """
    z = keys[:, None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53


def _sample_pairs(prepared, qidx, keys, ordered, index, scorer, samples, topk):
    """Sample identifier orderings of every pair stepwise from the scorer's distribution.

    Pair i orders ordered[i], a document's identifier terms in stored
    order, under query qidx[i] of the scorer's `prepared` query list; its
    uint64 key keys[i] seeds its draws. At each step the
    distribution is restricted to the topk most probable of the document's
    remaining identifier terms and renormalized; topk=1 degenerates to a
    greedy rollout that ignores the keys. Returns the orderings as a (pairs,
    samples, n) int64 array.

    All (pair, sample) rows advance one depth per step: the rows' distinct
    prefixes are one beam, and its step descends to the picks
    (`Step.descend`), a `DenseStep` once every row's prefix names one
    document. Each row is scored over its remaining identifier terms, in
    stored order, with one `segment_logprobs` call. A row keeps its topk most probable terms
    (stable, so stored order breaks ties), renormalizes, and picks the
    first whose cumulative probability exceeds its uniform draw (the cdf
    rule of `Generator.choice`). Each pair's uniforms are the first samples
    x n draws of keyed SplitMix64 from its key (`_keyed_uniforms`), one row
    per sample and one column per depth, made for all pairs in one pass.
    """
    if samples < 1 or topk < 1:
        raise DataError("samples and topk must be >= 1")
    n = index.n
    uniforms = _keyed_uniforms(keys, samples * n).reshape(-1, n)
    remaining = ordered.repeat(samples, axis=0)
    qidx = np.repeat(qidx, samples)
    rows = np.arange(len(remaining))
    out = np.empty((len(rows), n), dtype=np.int64)
    step = index.expand(*root_beam(index))
    hyp = np.zeros(len(rows), dtype=np.int64)
    for depth in range(n):
        width = n - depth
        ext = step.locate(hyp.repeat(width), remaining.ravel())
        if (ext < 0).any():
            raise InvariantError("a remaining identifier term is not feasible after its prefix")
        ptr = np.arange(len(rows) + 1) * width
        logprobs = scorer.segment_logprobs(prepared, step, qidx, ext, ptr).reshape(len(rows), width)
        top = np.argsort(-logprobs, axis=1, kind="stable")[:, :topk]
        kept = np.take_along_axis(logprobs, top, axis=1)
        probs = np.exp(kept - kept.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        if not np.isfinite(probs).all():
            raise ArithmeticError("non-finite sampling probabilities")
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        col = top[rows, (cdf <= uniforms[:, depth, None]).sum(axis=1)]
        out[:, depth] = remaining[rows, col]
        keep = np.ones(remaining.shape, dtype=bool)
        keep[rows, col] = False
        remaining = remaining[keep].reshape(len(rows), width - 1)
        step, hyp = step.descend(ext.reshape(len(rows), width)[rows, col])
    return out.reshape(len(ordered), samples, n)


def _select_objectives(candidates, registry, prepared, qidx, scorer, index):
    """Pick each pair's candidate permutation with the highest sequence likelihood.

    `candidates` is a (pairs, candidates, n) array; candidates[i] order pair
    i's registry row registry[i] (`_check_permutations`), under query
    qidx[i] of the scorer's `prepared` query list; ties go to the
    lexicographically smaller sequence. All candidates are scored with one
    `Scorer.sequence_logprobs` call. Returns the (pairs, n) targets and their
    likelihoods. A pair whose every candidate has a non-finite likelihood
    raises ArithmeticError.
    """
    _check_permutations(candidates, registry)
    pairs, k, n = candidates.shape
    flat = candidates.reshape(-1, n)
    owner = np.repeat(np.arange(pairs), k)
    lls = scorer.sequence_logprobs(prepared, qidx[owner], flat, index)
    # per pair: likelihood desc (NaN last), then the smaller sequence
    best = np.lexsort([*flat.T[::-1], -lls, owner])[::k]
    if not np.isfinite(lls[best]).all():
        raise ArithmeticError("non-finite likelihood for every candidate permutation")
    return flat[best], lls[best]


def _check_permutations(candidates, registry) -> None:
    """Refuse a row of candidates[i] that does not order pair i's registry row (sorted)."""
    if not (np.sort(candidates, axis=-1) == registry[:, None]).all():
        raise InvariantError("a target is not a permutation of its document's identifier")


def validation_recall(
    scorer: Scorer,
    index: Index,
    validation: list[tuple[Query, set[str]]],
    beam_size: int,
    cutoff: int = 10,
) -> float | None:
    if not validation:
        return None
    total = 0.0
    for query, relevant in validation:
        result = search(query, index, scorer, beam_size)
        top = result.doc_ids()[:cutoff]
        total += len(relevant.intersection(top)) / len(relevant)
    return total / len(validation)


def run_training(
    dataset: LearningDataset,
    index: Index,
    config: TrainingConfig,
    initial_scorer: FeatureScorer | None = None,
) -> tuple[FeatureScorer, list[IterationStats]]:
    """The iterative loop: derive targets, teacher-force, track validation recall.

    Iteration 1 trains on initialization-policy targets; later iterations
    sample candidates under the previous model (plus the previous target,
    so the selected objective never regresses) and keep the highest-
    likelihood ordering. Stops early once validation recall stops
    improving and returns the best snapshot.
    """
    if not dataset.train:
        raise DataError("empty dataset")
    scorer = initial_scorer.copy() if initial_scorer is not None else FeatureScorer.zeros(index)
    stats: list[IterationStats] = []
    best_scorer, best_recall = scorer, -math.inf
    num_pseudo = sum(1 for p in dataset.train if p.pseudo)

    queries, doc_ids = [p.query for p in dataset.train], [p.doc_id for p in dataset.train]
    positions = [index.doc_position(d) for d in doc_ids]
    ordered, registry = index.order[positions].astype(np.int64), index.sets[positions]
    slots, qidx = _query_slots(queries)
    prepared = scorer.prepare(slots)  # once per run, for sampling, selection and forcing
    for t in range(1, config.iterations + 1):
        if t > 1:
            seed = _derived_seed(config.seed, t)
            keys = [_derived_seed("sample", seed, q.query_id, d) for q, d in zip(queries, doc_ids)]
            samples = _sample_pairs(prepared, qidx, np.array(keys, dtype=np.uint64), ordered, index,
                                    scorer, config.samples, config.topk_sampling)
            candidates = np.concatenate([samples, prev[:, None]], axis=1)
            targets, lls = _select_objectives(candidates, registry, prepared, qidx, scorer, index)
        else:  # init_permutation's targets, all pairs at once
            if config.init == "importance":
                targets = ordered
            elif config.init == "random":
                targets = np.array([init_permutation(d, index, "random", seed=config.seed)
                                    for d in doc_ids], dtype=np.int64)
            else:  # the greedy rollout, which ignores the keys
                targets = _sample_pairs(prepared, qidx, np.zeros(len(ordered), dtype=np.uint64),
                                        ordered, index, scorer, 1, 1)[:, 0]
            _check_permutations(targets[:, None], registry)
        churn = 0.0 if t == 1 else np.count_nonzero((targets != prev).any(axis=1)) / len(targets)

        batch = scorer.force(prepared, qidx, targets, index)  # read by every epoch
        if t == 1:
            lls = scorer.forced_logprobs(batch)
        epoch_losses = [scorer.train_step(batch, config.lr) for _ in range(config.epochs)]
        del batch  # freed before the next iteration samples

        recall = validation_recall(scorer, index, dataset.validation, config.beam_eval)
        stats.append(
            IterationStats(
                iteration=t,
                mean_objective_logprob=sum(lls.tolist()) / len(targets),
                val_recall=recall,
                target_churn=churn,
                num_pairs=len(targets),
                num_pseudo=num_pseudo,
                epoch_losses=epoch_losses,
            )
        )
        prev = targets

        if recall is not None:
            if recall > best_recall:
                best_recall, best_scorer = recall, scorer.copy()
            elif t >= 2:
                break  # validation recall stopped improving
        else:
            best_scorer = scorer

    return best_scorer, stats
