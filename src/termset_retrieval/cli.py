"""Command-line pipeline: build-terms, build-index, train, search, evaluate, ablate, bench.

Every command writes a JSON manifest next to its outputs recording the
exact arguments, seeds, config snapshot, and content hashes of inputs and
outputs; re-running a seeded command with the same arguments reproduces
its artifacts byte for byte.

Exit codes: 0 success, 1 usage, 2 data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, atomic
from .corpus import Query, _iter_jsonl, load_corpus, load_judgments, load_queries, sample_negatives
from .decoder import search, write_run_file
from .errors import DataError, InvariantError, parse_values, read_text
from .evaluation import (
    ablate_identifier_scheme,
    efficiency_report,
    evaluate_run,
)
from .importance import (
    build_identifiers,
    load_model,
    read_identifier_file,
    save_model,
    train_importance,
    write_identifier_file,
)
from .index import build_index, load_index, save_index
from .learning import TrainingConfig, make_dataset, run_training
from .scorer import FeatureScorer, build_term_weights, check_compatible, load_scorer, save_scorer

_MANIFEST_FORMAT = "termset-manifest/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers, such as "1,10,100"."""
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def parse_config_file(path) -> dict[str, str]:
    """Flat "key = value" lines; # starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: malformed config line {lineno} (expected key = value)")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _settings(args, defaults: dict) -> dict:
    """Resolve option values: explicit flag > config file > default."""
    config = parse_config_file(args.config) if args.config else {}
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in config:
            (resolved[key],) = parse_values(type(default), [config[key]], f"{args.config}: {key}")
        else:
            resolved[key] = default
    return resolved


def _write_manifest(command: str, args, settings: dict, inputs, outputs, started: float, path):
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": __version__,
        "command": command,
        "argv": list(args._argv),
        "config": {k: settings[k] for k in sorted(settings)},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    atomic.write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def rerun_from_manifest(manifest_path):
    """Re-execute the command recorded in a manifest (reproducibility checks)."""
    manifest = json.loads(read_text(manifest_path))
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise DataError(f"{manifest_path}: not a {_MANIFEST_FORMAT} file")
    return main(manifest["argv"])


def _write_records(records: list[dict], path) -> None:
    atomic.write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_terms(args) -> int:
    started = time.perf_counter()
    settings = _settings(
        args,
        {
            "seed": 0,
            "negatives": 4,
            "tau": 1.0,
            "importance_epochs": 200,
            "importance_lr": 0.05,
            "n_min": 1,
            "n_max": 12,
        },
    )
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries)
    judgments = load_judgments(args.qrels, corpus)
    pairs = sample_negatives(queries, judgments, corpus, settings["negatives"], settings["seed"])
    model = train_importance(
        pairs,
        corpus,
        tau=settings["tau"],
        epochs=settings["importance_epochs"],
        lr=settings["importance_lr"],
        seed=settings["seed"],
    )
    table = build_identifiers(corpus, model, n_min=settings["n_min"], n_max=settings["n_max"])
    if table.num_placeholders:
        print(
            f"warning: {table.num_placeholders} placeholder term(s) needed at n={table.n} "
            f"(duplicate or tiny documents)",
            file=sys.stderr,
        )
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "importance.model"
    ident_path = out_dir / "identifiers.tsv"
    save_model(model, model_path)
    write_identifier_file(table, ident_path)
    _write_manifest(
        "build-terms",
        args,
        settings,
        [args.corpus, args.queries, args.qrels],
        [model_path, ident_path],
        started,
        out_dir / "build-terms.manifest.json",
    )
    print(f"identifiers: n={table.n} docs={len(table.doc_ids)} "
          f"placeholders={table.num_placeholders}")
    return 0


def cmd_build_index(args) -> int:
    started = time.perf_counter()
    table = read_identifier_file(args.identifiers)
    index = build_index(table)
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_index(index, out_path)
    _write_manifest("build-index", args, {}, [args.identifiers], [out_path], started,
                    Path(str(out_path) + ".manifest.json"))
    print(f"index: n={index.n} docs={len(index.doc_ids)} vocabulary={len(index.dictionary)}")
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    defaults = {f.name: f.default for f in dataclasses.fields(TrainingConfig)}
    settings = _settings(args, {**defaults, "val_fraction": 0.2})
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries)
    judgments = load_judgments(args.qrels, corpus)
    index = load_index(args.index)
    if args.model:
        model = load_model(args.model)
        term_weights = build_term_weights(index, corpus, model)
    else:
        term_weights = None
    pseudo = _load_pseudo_pairs(args.pseudo_pairs) if args.pseudo_pairs else None
    dataset = make_dataset(
        queries,
        judgments,
        val_fraction=settings["val_fraction"],
        seed=settings["seed"],
        pseudo_pairs=pseudo,
    )
    config = TrainingConfig.from_mapping(settings)
    initial = FeatureScorer.zeros(index, term_weights)
    scorer, stats = run_training(dataset, index, config, initial_scorer=initial)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scorer_path = out_dir / "scorer.txt"
    stats_path = out_dir / "training-stats.jsonl"
    save_scorer(scorer, scorer_path)
    _write_records([dataclasses.asdict(s) for s in stats], stats_path)
    inputs = [args.corpus, args.queries, args.qrels, args.index]
    if args.model:
        inputs.append(args.model)
    if args.pseudo_pairs:
        inputs.append(args.pseudo_pairs)
    _write_manifest("train", args, settings, inputs, [scorer_path, stats_path], started,
                    out_dir / "train.manifest.json")
    for s in stats:
        recall = "n/a" if s.val_recall is None else f"{s.val_recall:.4f}"
        print(f"iteration {s.iteration}: objective={s.mean_objective_logprob:.4f} "
              f"val_recall={recall} churn={s.target_churn:.3f}")
    return 0


def _load_pseudo_pairs(path) -> list[tuple[Query, str]]:
    pairs = []
    for lineno, rec in _iter_jsonl(path):
        if not isinstance(rec, dict):
            raise DataError(f"{path}:{lineno}: pseudo pair is not a JSON object")
        missing = [k for k in ("query_id", "text", "doc_id") if k not in rec]
        if missing:
            raise DataError(f"{path}:{lineno}: pseudo pair missing {', '.join(missing)}")
        pairs.append((Query.from_text(str(rec["query_id"]), str(rec["text"])), str(rec["doc_id"])))
    return pairs


def cmd_search(args) -> int:
    started = time.perf_counter()
    index = load_index(args.index)
    scorer = load_scorer(args.scorer)
    check_compatible(scorer, index)
    queries = load_queries(args.queries)
    beam = args.beam if args.beam is not None else 100
    results = [search(q, index, scorer, beam) for q in queries]
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_run_file(results, out_path, tag=args.tag)
    _write_manifest(
        "search",
        args,
        {"beam": beam, "tag": args.tag},
        [args.index, args.scorer, args.queries],
        [out_path],
        started,
        Path(str(out_path) + ".manifest.json"),
    )
    print(f"search: {len(queries)} queries, beam {beam} -> {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    judgments = load_judgments(args.qrels)
    report = evaluate_run(args.run, judgments, args.cutoffs)
    if report.unknown_run_queries:
        print(f"warning: skipped {report.unknown_run_queries} run query id(s) "
              "absent from the judgments", file=sys.stderr)
    retrieved = sum(row["retrieved"] for row in report.per_query)
    if retrieved == 0:
        print("warning: run contains no lines for any judged query", file=sys.stderr)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "report.txt"
    records_path = out_dir / "report.jsonl"
    atomic.write_text(table_path, report.format_table() + "\n")
    _write_records(report.to_records(), records_path)
    _write_manifest("evaluate", args, {"cutoffs": list(args.cutoffs)}, [args.run, args.qrels],
                    [table_path, records_path], started, out_dir / "evaluate.manifest.json")
    print(report.format_table())
    return 0


def cmd_ablate(args) -> int:
    started = time.perf_counter()
    index = load_index(args.index)
    scorer = load_scorer(args.scorer)
    check_compatible(scorer, index)
    queries = load_queries(args.queries)
    judgments = load_judgments(args.qrels)
    report = ablate_identifier_scheme(index, scorer, queries, judgments, args.beam, args.cutoffs)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "ablation.txt"
    records_path = out_dir / "ablation.jsonl"
    atomic.write_text(table_path, report.format_table() + "\n")
    _write_records(report.to_records(), records_path)
    _write_manifest("ablate", args, {"beam": args.beam, "cutoffs": list(args.cutoffs)},
                    [args.index, args.scorer, args.queries, args.qrels],
                    [table_path, records_path], started, out_dir / "ablate.manifest.json")
    print(report.format_table())
    return 0


def cmd_bench(args) -> int:
    started = time.perf_counter()
    index = load_index(args.index)
    scorer = load_scorer(args.scorer)
    check_compatible(scorer, index)
    queries = load_queries(args.queries)
    report = efficiency_report(index, scorer, queries, args.beams)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "efficiency.txt"
    records_path = out_dir / "efficiency.jsonl"
    atomic.write_text(table_path, report.format_table() + "\n")
    _write_records(report.to_records(), records_path)
    _write_manifest("bench", args, {"beams": list(args.beams)},
                    [args.index, args.scorer, args.queries],
                    [table_path, records_path], started, out_dir / "bench.manifest.json")
    print(report.format_table())
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="termset-retrieval",
                     description="Generative retrieval with term-set identifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("build-terms", help="train term importance and emit identifiers")
    seeded(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--negatives", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--importance-epochs", type=int, default=None, dest="importance_epochs")
    p.add_argument("--importance-lr", type=float, default=None, dest="importance_lr")
    p.add_argument("--n-min", type=int, default=None, dest="n_min")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.set_defaults(func=cmd_build_terms)

    p = sub.add_parser("build-index", help="build the prefix-postings index")
    p.add_argument("--identifiers", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("train", help="likelihood-adapted scorer training")
    seeded(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--model", help="importance model for the term-weight feature")
    p.add_argument("--pseudo-pairs", dest="pseudo_pairs",
                   help="JSONL of {query_id, text, doc_id} augmentation pairs")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--topk-sampling", type=int, default=None, dest="topk_sampling")
    p.add_argument("--init", choices=("importance", "random", "likelihood"), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--beam-eval", type=int, default=None, dest="beam_eval")
    p.add_argument("--val-fraction", type=float, default=None, dest="val_fraction")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("search", help="decode queries into a ranked run file")
    p.add_argument("--index", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--beam", type=int, default=None, help="beam size (default 100)")
    p.add_argument("--tag", default="termset")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="score a run file against judgments")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--cutoffs", type=_int_list, default="1,10,100")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="term-set vs fixed-sequence identifier comparison")
    p.add_argument("--index", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--cutoffs", type=_int_list, default="10")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="memory and latency per beam size")
    p.add_argument("--index", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--beams", type=_int_list, default="10,100")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except (DataError, OSError, ArithmeticError) as exc:  # ArithmeticError: training diverged
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
