"""Seeded workload inputs and the set-up each workload times.

Inputs come from the package's `synthetic` generators plus a query recipe
of the benchmark's own; the package receives only the generated objects.
Every call into the package goes through the package namespace (`tr.x`)
at call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Inputs:
    """Everything a workload feeds the package, generated from one seed."""

    queries: list  # timed search queries, in serving order
    judgments: object  # Judgments over `queries`
    table: object = None  # IdentifierTable (registry workloads)
    corpus: object = None  # Corpus (pipeline workload)
    train_queries: list = field(default_factory=list)
    train_judgments: object = None
    ablation: tuple | None = None  # (Corpus, queries, Judgments) of the order-noise corpus


@dataclass
class Ready:
    """A ready-to-search state produced by one set-up."""

    searchable: object
    scorer: object
    built: object = None  # the in-memory index a round trip started from
    index_path: str | None = None


def generate(tr, spec: dict, seed: int, base: Inputs | None = None) -> Inputs:
    """The workload's inputs for `seed`.

    The dataset (registry, or corpus with its query waves) comes from the
    `synthetic` generators at the fixed `dataset_seed`; `seed` drives the
    query stream of registry workloads and, in set-up, every training
    seed. `base` supplies an already generated dataset, which is equal to
    a fresh one because it does not depend on `seed`.
    """
    if spec["inputs"] == "registry":
        table = base.table if base is not None else _registry(tr, spec)
        queries, judgments = target_queries(tr, table, spec["queries"], spec["query_mix"], seed)
        return Inputs(queries, judgments, table=table)
    return base if base is not None else _bridging(tr, spec)


def _registry(tr, spec):
    reg = spec["registry"]
    return tr.synthetic.make_random_identifiers(
        reg["num_docs"], reg["vocab_size"], reg["n"], seed=spec["dataset_seed"]
    )


def _bridging(tr, spec):
    wave, abl = spec["test_wave"], spec["ablation"]
    corpus, queries, judgments = tr.synthetic.make_bridging_corpus(
        num_docs=spec["corpus"]["num_docs"], seed=spec["dataset_seed"]
    )
    train_q, train_j, test_q, test_j = tr.synthetic.split_by_wave(queries, judgments, wave)
    noise_corpus, noise_q, noise_j = tr.synthetic.make_order_noise_corpus(
        num_groups=abl["num_groups"], seed=spec["dataset_seed"]
    )
    _, _, noise_test_q, noise_test_j = tr.synthetic.split_by_wave(noise_q, noise_j, wave)
    return Inputs(
        test_q,
        test_j,
        corpus=corpus,
        train_queries=train_q,
        train_judgments=train_j,
        ablation=(noise_corpus, noise_test_q, noise_test_j),
    )


def target_queries(tr, table, count: int, mix: dict, seed: int):
    """Queries that each name 2..N terms of one target identifier.

    Each adds `distractors` in-vocabulary terms from outside the target's
    identifier and, with probability `oov_rate`, one out-of-vocabulary
    term; term order is shuffled. The target is the judged relevant doc.
    """
    rng = np.random.default_rng([seed, 1])
    doc_ids = table.doc_ids
    vocab = sorted({t for terms in table.terms_by_doc.values() for t in terms})
    lo, hi = mix["distractors"]
    queries, pairs = [], []
    for q in range(count):
        target = doc_ids[int(rng.integers(len(doc_ids)))]
        identifier = table.terms_by_doc[target]
        k = int(rng.integers(2, table.n + 1))
        terms = [identifier[i] for i in rng.choice(table.n, size=k, replace=False)]
        own = set(identifier)
        wanted = int(rng.integers(lo, hi + 1))
        while wanted:
            term = vocab[int(rng.integers(len(vocab)))]
            if term not in own and term not in terms:
                terms.append(term)
                wanted -= 1
        if rng.random() < mix["oov_rate"]:
            terms.append(f"oov{int(rng.integers(10_000)):04d}")
        terms = [terms[i] for i in rng.permutation(len(terms))]
        qid = f"Q{q:05d}"
        queries.append(tr.Query.from_text(qid, " ".join(terms)))
        pairs.append((qid, target))
    return queries, tr.Judgments.from_pairs(pairs)


def digest(inputs: Inputs) -> str:
    """sha256 over a canonical text form of every generated input."""
    h = hashlib.sha256()

    def put(*fields):
        h.update(("\t".join(str(f) for f in fields) + "\n").encode("utf-8"))

    if inputs.table is not None:
        put("registry", inputs.table.n)
        for doc_id in inputs.table.doc_ids:
            put(doc_id, ",".join(inputs.table.terms_by_doc[doc_id]))
    sets = [
        (inputs.corpus, "train", inputs.train_queries, inputs.train_judgments),
        (None, "test", inputs.queries, inputs.judgments),
    ]
    if inputs.ablation is not None:
        sets.append((inputs.ablation[0], "ablation", *inputs.ablation[1:]))
    for corpus, label, queries, judgments in sets:
        if corpus is not None:
            put("corpus", len(corpus))
            for doc in corpus.documents:
                put(doc.doc_id, doc.title, doc.body)
        put(label, len(queries))
        for query in queries:
            put(query.query_id, " ".join(query.terms))
        if judgments is not None:
            for qid in judgments.query_ids:
                put(qid, ",".join(sorted(judgments.relevant(qid))))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up: generated inputs -> ready to search
# ---------------------------------------------------------------------------


def named_weights(names, weights: dict) -> np.ndarray:
    """Weight vector over `names`; unnamed ones are 0, a nonzero unknown name is an error.

    Pinning weights by name keeps a workload unchanged when a feature
    whose weight is 0 here is dropped from the package's schema.
    """
    unknown = sorted(k for k, v in weights.items() if v and k not in names)
    if unknown:
        raise ValueError(f"pinned weights name unknown features {unknown}")
    return np.array([float(weights.get(name, 0.0)) for name in names])


def fixed_scorer(tr, index, weights: dict, term_weights=None):
    """FeatureScorer with pinned step weights; zero term weights unless given."""
    if term_weights is None:
        term_weights = np.zeros(len(index.dictionary))
    vector = named_weights(tr.scorer.STEP_FEATURES, weights)
    return tr.FeatureScorer(vector, index.dictionary.terms, term_weights)


def setup_build(tr, spec, inputs: Inputs, seed: int, workdir: str) -> Ready:
    index = tr.build_index(inputs.table)
    return Ready(index, fixed_scorer(tr, index, spec["scorer_weights"]))


def setup_roundtrip(tr, spec, inputs: Inputs, seed: int, workdir: str) -> Ready:
    built = tr.build_index(inputs.table)
    path = os.path.join(workdir, "index.txt")
    tr.save_index(built, path)
    loaded = tr.load_index(path)
    return Ready(loaded, fixed_scorer(tr, loaded, spec["scorer_weights"]), built, path)


def setup_pipeline(tr, spec, inputs: Inputs, seed: int, workdir: str) -> Ready:
    imp, ids = spec["importance"], spec["identifiers"]
    pairs = tr.sample_negatives(
        inputs.train_queries, inputs.train_judgments, inputs.corpus, m=spec["negatives"], seed=seed
    )
    model = tr.train_importance(
        pairs, inputs.corpus, tau=imp["tau"], epochs=imp["epochs"], lr=imp["lr"], seed=seed
    )
    table = tr.build_identifiers(inputs.corpus, model, n_min=ids["n_min"], n_max=ids["n_max"])
    index = tr.build_index(table)
    term_weights = tr.build_term_weights(index, inputs.corpus, model)
    dataset = tr.make_dataset(
        inputs.train_queries, inputs.train_judgments, val_fraction=spec["val_fraction"], seed=seed
    )
    config = tr.TrainingConfig.from_mapping({**spec["training"], "seed": seed})
    scorer, _ = tr.run_training(
        dataset, index, config, initial_scorer=tr.FeatureScorer.zeros(index, term_weights)
    )
    return Ready(index, scorer)


SETUPS = {"build": setup_build, "roundtrip": setup_roundtrip, "pipeline": setup_pipeline}


def ablation_recall(tr, spec, inputs: Inputs) -> tuple[float, float]:
    """Recall@10 of term-set vs fixed-sequence decoding on the order-noise corpus."""
    abl = spec["ablation"]
    corpus, queries, judgments = inputs.ablation
    model = tr.ImportanceModel(
        named_weights(tr.importance.TFIDF_FEATURES, abl["importance_weights"])
    )
    table = tr.build_identifiers(corpus, model, n_min=abl["n_min"], n_max=abl["n_max"])
    index = tr.build_index(table)
    scorer = fixed_scorer(
        tr, index, abl["scorer_weights"], tr.build_term_weights(index, corpus, model)
    )
    report = tr.ablate_identifier_scheme(
        index, scorer, queries, judgments, beam_size=abl["beam"], cutoffs=(10,)
    )
    return report.term_set.recall[10], report.sequence.recall[10]
