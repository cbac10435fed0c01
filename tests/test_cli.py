"""End-to-end command pipeline, manifests, reproducibility, exit codes."""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termset_retrieval import atomic, cli
from termset_retrieval import scorer as scorer_module
from termset_retrieval.cli import main, parse_config_file, rerun_from_manifest
from termset_retrieval.errors import DataError
from termset_retrieval.importance import write_identifier_file
from termset_retrieval.index import build_index, load_index, save_index
from termset_retrieval.scorer import STEP_FEATURES, FeatureScorer, save_scorer
from termset_retrieval.synthetic import make_random_identifiers

from conftest import file_mutations

DATA = Path(__file__).resolve().parent.parent / "src" / "termset_retrieval" / "data"


TRAIN = ["train", "--corpus", DATA / "toy_corpus.jsonl", "--queries", DATA / "toy_queries.jsonl",
         "--qrels", DATA / "toy_qrels.tsv"]
SEARCH = ["search", "--index", "{index}", "--scorer", "{file}", "--queries",
          DATA / "toy_queries.jsonl", "--output", "{tmp}/run.txt"]
# a scorer file's first two lines, for the two-term index the malformed-input cases build
SCORER_HEADER = "termset-scorer/2\nfeatures\tin_query query_prefix4 term_weight log1p_postings\n"

# a valid tfidf/1 importance model; its feature weights sit on lines 4-9
MODEL_TEXT = ("termset-importance/1\nschema\ttfidf/1\ntau\t1.0\nfeature\ttf_norm\t1.0\n"
              "feature\tidf\t0.5\nfeature\tin_title\t0.0\nfeature\tfirst_pos\t0.0\n"
              "feature\tterm_len\t0.0\nfeature\tbias\t0.0\n")


def invoke(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pipeline(tmp_path):
    """Full build-terms -> build-index -> train -> search -> evaluate chain."""
    out = tmp_path
    rc = invoke(
        "build-terms",
        "--corpus", DATA / "toy_corpus.jsonl",
        "--queries", DATA / "toy_queries.jsonl",
        "--qrels", DATA / "toy_qrels.tsv",
        "--output-dir", out / "terms",
        "--n-min", "2", "--n-max", "8", "--seed", "7",
    )
    assert rc == 0
    rc = invoke("build-index", "--identifiers", out / "terms/identifiers.tsv",
                "--output", out / "index.txt")
    assert rc == 0
    rc = invoke(
        "train",
        "--corpus", DATA / "toy_corpus.jsonl",
        "--queries", DATA / "toy_queries.jsonl",
        "--qrels", DATA / "toy_qrels.tsv",
        "--index", out / "index.txt",
        "--model", out / "terms/importance.model",
        "--output-dir", out / "train",
        "--seed", "7", "--val-fraction", "0.25",
    )
    assert rc == 0
    rc = invoke("search", "--index", out / "index.txt", "--scorer", out / "train/scorer.txt",
                "--queries", DATA / "toy_queries.jsonl", "--output", out / "run.txt",
                "--beam", "10")
    assert rc == 0
    rc = invoke("evaluate", "--run", out / "run.txt", "--qrels", DATA / "toy_qrels.tsv",
                "--cutoffs", "1,10", "--output-dir", out / "eval")
    assert rc == 0
    return out


class TestPipeline:
    def test_composes_end_to_end(self, pipeline):
        run_lines = (pipeline / "run.txt").read_text(encoding="utf-8").splitlines()
        assert run_lines
        doc_ids = {line.split()[2] for line in run_lines}
        corpus_ids = {
            json.loads(line)["doc_id"]
            for line in (DATA / "toy_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        }
        assert doc_ids <= corpus_ids
        report = (pipeline / "eval" / "report.jsonl").read_text(encoding="utf-8")
        summary = json.loads(report.splitlines()[0])
        assert summary["record"] == "summary"
        assert 0.0 <= summary["MRR@10"] <= 1.0

    def test_manifests_written_for_every_command(self, pipeline):
        manifests = [
            pipeline / "terms" / "build-terms.manifest.json",
            pipeline / "index.txt.manifest.json",
            pipeline / "train" / "train.manifest.json",
            pipeline / "run.txt.manifest.json",
            pipeline / "eval" / "evaluate.manifest.json",
        ]
        for path in manifests:
            assert path.exists(), path
            manifest = json.loads(path.read_text(encoding="utf-8"))
            assert manifest["format"] == "termset-manifest/1"
            assert manifest["inputs"] and manifest["outputs"]
            assert "wall_time_s" in manifest

    def test_rerun_reproduces_artifacts_byte_identically(self, pipeline):
        checks = [
            (pipeline / "terms" / "build-terms.manifest.json",),
            (pipeline / "index.txt.manifest.json",),
            (pipeline / "train" / "train.manifest.json",),
            (pipeline / "run.txt.manifest.json",),
        ]
        for (manifest_path,) in checks:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
            assert rerun_from_manifest(manifest_path) == 0
            after = {p: Path(p).read_bytes() for p in manifest["outputs"]}
            assert before == after, f"{manifest_path} outputs changed on rerun"
            refreshed = json.loads(manifest_path.read_text(encoding="utf-8"))
            assert refreshed["outputs"] == manifest["outputs"]

    def test_k1_emits_one_line_per_query(self, pipeline, tmp_path):
        out = tmp_path / "run_k1.txt"
        rc = invoke("search", "--index", pipeline / "index.txt",
                    "--scorer", pipeline / "train/scorer.txt",
                    "--queries", DATA / "toy_queries.jsonl", "--output", out, "--beam", "1")
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        n_queries = len((DATA / "toy_queries.jsonl").read_text(encoding="utf-8").splitlines())
        assert len(lines) == n_queries


class TestErrors:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("search", "--index")  # missing value and required flags
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            invoke("frobnicate")
        assert exc.value.code == 1

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "D1", "title": "t"}\n', encoding="utf-8")
        rc = invoke("build-terms", "--corpus", bad, "--queries", bad, "--qrels", bad,
                    "--output-dir", tmp_path / "out")
        assert rc == 2

    @pytest.mark.parametrize("command", ["train", "build-terms"])
    def test_diverging_training_is_data_error(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "diverged"
        if command == "train":
            argv = [*TRAIN, "--index", pipeline / "index.txt", "--lr", "1e308"]
        else:
            argv = [*TRAIN, "--importance-lr", "1e308"]
            argv[0] = "build-terms"
        capsys.readouterr()
        assert invoke(*argv, "--output-dir", out) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: non-finite")
        assert not out.exists()

    @pytest.mark.parametrize("val_fraction", ["0.25", "0"])
    def test_beam_eval_below_1_is_refused_before_training(
        self, pipeline, tmp_path, capsys, monkeypatch, val_fraction
    ):
        # validation's beam search alone would refuse it, after training; at --val-fraction 0, never
        calls = []
        monkeypatch.setattr(cli, "run_training", lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        capsys.readouterr()
        rc = invoke(*TRAIN, "--index", pipeline / "index.txt", "--beam-eval", "0",
                    "--val-fraction", val_fraction, "--output-dir", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert "beam_eval must all be >= 1" in err
        assert "Traceback" not in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_refused_before_training(
        self, pipeline, tmp_path, capsys, monkeypatch, lr
    ):
        # NaN fails `lr <= 0` too; unrefused, training samples and forces before it diverges
        calls = []
        monkeypatch.setattr(cli, "run_training", lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        capsys.readouterr()
        rc = invoke(*TRAIN, "--index", pipeline / "index.txt", "--lr", lr, "--output-dir", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert "lr positive and finite" in err
        assert "Traceback" not in err
        assert calls == []
        assert not out.exists()

    def test_corrupt_index_is_data_error(self, tmp_path):
        fake = tmp_path / "fake_index.txt"
        fake.write_text("wrong-format/0\n", encoding="utf-8")
        rc = invoke("search", "--index", fake, "--scorer", fake,
                    "--queries", DATA / "toy_queries.jsonl", "--output", tmp_path / "r.txt")
        assert rc == 2

    @pytest.mark.parametrize("artifact", ["index.txt", "train/scorer.txt"], ids=["index", "scorer"])
    def test_version_1_file_is_refused(self, pipeline, capsys, artifact):
        path = pipeline / artifact
        if artifact == "index.txt":  # the binary index refuses both text versions
            old = [f"termset-index/{v}\nn\t1\ndocs\t1\nterms\t1\nT\ta\nD\tD1\t0\n" for v in (1, 2)]
            want = "not a termset-index/3 file (rebuild it with build-index)"
        else:
            header, rest = path.read_text(encoding="utf-8").split("\n", 1)
            assert header.endswith("/2")
            old = [header[:-1] + "1\n" + rest]
            want = f"not a {header} file"
        for text in old:
            path.write_text(text, encoding="utf-8")
            capsys.readouterr()
            rc = invoke("search", "--index", pipeline / "index.txt",
                        "--scorer", pipeline / "train/scorer.txt",
                        "--queries", DATA / "toy_queries.jsonl", "--output", pipeline / "r.txt")
            assert rc == 2
            err = capsys.readouterr().err
            assert want in err
            assert "Traceback" not in err

    # byte 56 of an index is its first term's, after the magic line and the header
    @pytest.mark.parametrize("artifact, at", [("index.txt", 56), ("scorer.txt", 40)],
                             ids=["index", "scorer"])
    def test_non_utf8_file_is_data_error(self, search_inputs, tmp_path, capsys, artifact, at):
        out, scorer = search_inputs
        files = {"index.txt": (out / "index.txt").read_bytes(), "scorer.txt": scorer}
        files[artifact] = files[artifact][:at] + b"\xff" + files[artifact][at + 1 :]
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        rc = invoke("search", "--index", tmp_path / "index.txt", "--scorer", tmp_path / "scorer.txt",
                    "--queries", out / "queries.jsonl", "--output", tmp_path / "r.txt")
        assert rc == 2
        assert f"{tmp_path / artifact}: byte {at} is not UTF-8 text" in capsys.readouterr().err

    def test_empty_run_tag_is_data_error(self, search_inputs, tmp_path, capsys, monkeypatch):
        # its run lines would have 5 fields, which `evaluate` refuses; the tag is
        # refused before anything is loaded or decoded, and no directory is made
        out, scorer = search_inputs
        calls = []
        monkeypatch.setattr(cli, "load_index", lambda *a: calls.append("load_index"))
        monkeypatch.setattr(cli, "search", lambda *a: calls.append("search"))
        rc = invoke("search", "--index", out / "index.txt", "--scorer", out / "scorer.txt",
                    "--queries", out / "queries.jsonl", "--output", tmp_path / "new" / "run.txt",
                    "--tag", "")
        assert rc == 2
        err = capsys.readouterr().err
        assert "run tag" in err
        assert "Traceback" not in err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_scorer_that_can_overflow_is_data_error(self, search_inputs, tmp_path, capsys):
        # finite weights whose product overflows: term_weight * 1e308 = inf for every term
        out, _ = search_inputs
        index = load_index(out / "index.txt")
        terms = index.dictionary.terms
        scorer = FeatureScorer(np.array([0.0, 0.0, 1e308, 0.0]), terms, np.full(len(terms), 2.0))
        save_scorer(scorer, tmp_path / "scorer.txt")
        rc = invoke("search", "--index", out / "index.txt", "--scorer", tmp_path / "scorer.txt",
                    "--queries", out / "queries.jsonl", "--output", tmp_path / "run.txt")
        assert rc == 2
        err = capsys.readouterr().err
        assert "can give a non-finite step score" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run.txt").exists()

    def test_a_numpy_overflow_is_data_error(self, search_inputs, tmp_path, capsys, monkeypatch):
        """A command runs under a raising numpy errstate. `check_compatible` keeps every valid
        input from an overflow, so the deeper steps' softmax is patched to meet one: exit 2,
        one error line, no traceback or warning, and no run file."""
        out, _ = search_inputs
        monkeypatch.setattr(scorer_module, "_log_softmax",
                            lambda scores, offsets: np.exp(scores + 1e3))
        capsys.readouterr()
        rc = invoke("search", "--index", out / "index.txt", "--scorer", out / "scorer.txt",
                    "--queries", out / "queries.jsonl", "--output", tmp_path / "run.txt")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: overflow encountered in exp\n"
        assert not (tmp_path / "run.txt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-terms", "--corpus", "{file}", "--queries", DATA / "toy_queries.jsonl",
             "--qrels", DATA / "toy_qrels.tsv", "--output-dir", "{tmp}/out"],
            ["build-terms", "--corpus", DATA / "toy_corpus.jsonl", "--queries", "{file}",
             "--qrels", DATA / "toy_qrels.tsv", "--output-dir", "{tmp}/out"],
            ["evaluate", "--run", "{tmp}/run.txt", "--qrels", "{file}", "--output-dir", "{tmp}/out"],
            ["evaluate", "--run", "{file}", "--qrels", DATA / "toy_qrels.tsv",
             "--output-dir", "{tmp}/out"],
            ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
            [*TRAIN, "--index", "{index}", "--model", "{file}", "--output-dir", "{tmp}/out"],
            [*TRAIN, "--index", "{index}", "--config", "{file}", "--output-dir", "{tmp}/out"],
            [*TRAIN, "--index", "{index}", "--pseudo-pairs", "{file}", "--output-dir", "{tmp}/out"],
        ],
        ids=["corpus", "queries", "qrels", "run", "identifiers", "model", "config", "pseudo-pairs"],
    )
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, argv):
        ids = tmp_path / "index-ids.tsv"
        ids.write_text("termset-identifiers/1\t2\nzz\talpha,omega\n", encoding="utf-8")
        assert invoke("build-index", "--identifiers", ids, "--output", tmp_path / "index.txt") == 0
        (tmp_path / "input").write_bytes(b"termset\xff\n")
        paths = {"file": tmp_path / "input", "tmp": tmp_path, "index": tmp_path / "index.txt"}
        capsys.readouterr()
        assert invoke(*(str(a).format(**paths) for a in argv)) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'input'}: byte 7 is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("read", [rerun_from_manifest], ids=["manifest"])
    def test_non_utf8_file_outside_the_commands_is_data_error(self, tmp_path, read):
        (tmp_path / "input").write_bytes(b"termset\xff\n")
        with pytest.raises(DataError, match="byte 7 is not UTF-8 text"):
            read(tmp_path / "input")

    def test_vocabulary_mismatch_is_data_error(self, pipeline, tmp_path):
        # rebuild an index from different identifiers and pair the old scorer with it
        other = tmp_path / "ids.tsv"
        other.write_text("termset-identifiers/1\t2\nzz\talpha,omega\n", encoding="utf-8")
        rc = invoke("build-index", "--identifiers", other, "--output", tmp_path / "other.txt")
        assert rc == 0
        rc = invoke("search", "--index", tmp_path / "other.txt",
                    "--scorer", pipeline / "train/scorer.txt",
                    "--queries", DATA / "toy_queries.jsonl", "--output", tmp_path / "r.txt")
        assert rc == 2

    @pytest.mark.parametrize(
        "name, text, argv, where",
        [
            ("ids.tsv", "termset-identifiers/1\tx\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv:1: identifier size 'x'"),
            ("ids.tsv", "termset-identifiers/1\t2\nzz\talpha,alpha\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv:2: identifier of zz repeats a term"),
            ("ids.tsv", "termset-identifiers/1\t2\nya\talpha,omega\nzz\tomega,alpha\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv:3: identifier collision between ya and zz"),
            ("ids.tsv", "termset-identifiers/1\t2\nzz\talpha,beta,omega\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv:2: identifier of zz has 3 terms, want 2"),
            ("ids.tsv", "termset-identifiers/1\t2\nzz\talpha,omega\n\nzz\tbeta,omega\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv:4: duplicate doc_id zz"),
            ("ids.tsv", "termset-identifiers/10\t2\nzz\talpha,omega\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv: not a termset-identifiers/1 file"),
            ("ids.tsv", "termset-identifiers/1x\t2\nzz\talpha,omega\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv: not a termset-identifiers/1 file"),
            ("ids.tsv", "termset-identifiers/1\t0\nzz\talpha,omega\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv:1: identifier size must be >= 1, got 0"),
            ("ids.tsv", "termset-identifiers/1\t2\n\n",
             ["build-index", "--identifiers", "{file}", "--output", "{tmp}/out.txt"],
             "ids.tsv: empty registry"),
            ("bad.model", "termset-importance/1\nschema\n",
             [*TRAIN, "--index", "{index}", "--model", "{file}", "--output-dir", "{tmp}/out"],
             "bad.model:2: model line"),
            ("bad.model", MODEL_TEXT.replace("idf\t0.5", "idf\tnan"),
             [*TRAIN, "--index", "{index}", "--model", "{file}", "--output-dir", "{tmp}/out"],
             "bad.model:5: feature weight 'nan' is not finite"),
            ("bad.model", MODEL_TEXT.replace("idf\t0.5", "idf\tinf"),
             [*TRAIN, "--index", "{index}", "--model", "{file}", "--output-dir", "{tmp}/out"],
             "bad.model:5: feature weight 'inf' is not finite"),
            ("bad.model", MODEL_TEXT.replace("tau\t1.0", "tau\tnan"),
             [*TRAIN, "--index", "{index}", "--model", "{file}", "--output-dir", "{tmp}/out"],
             "bad.model:3: tau 'nan' is not finite"),
            # finite weights whose sum overflows a term's score
            ("bad.model", MODEL_TEXT.replace("tf_norm\t1.0", "tf_norm\t1e308")
             .replace("idf\t0.5", "idf\t1e308"),
             [*TRAIN, "--index", "{index}", "--model", "{file}", "--output-dir", "{tmp}/out"],
             "importance weights [1e+308, 1e+308, 0.0, 0.0, 0.0, 0.0] overflow a term's score"),
            ("bad.cfg", "iterations = abc\n",
             [*TRAIN, "--index", "{index}", "--config", "{file}", "--output-dir", "{tmp}/out"],
             "bad.cfg: iterations 'abc' is not a valid int"),
            ("absent.txt", None,
             ["evaluate", "--run", "{file}", "--qrels", DATA / "toy_qrels.tsv",
              "--output-dir", "{tmp}/out"],
             "absent.txt"),
            ("pairs.jsonl", '{"query_id": "q1", "text": "a", "doc_id": "zz"}\nnot json\n',
             [*TRAIN, "--index", "{index}", "--pseudo-pairs", "{file}", "--output-dir", "{tmp}/out"],
             "pairs.jsonl:2: malformed record at line 2: Expecting value"),
            ("pairs.jsonl", '"query_id text doc_id"\n',
             [*TRAIN, "--index", "{index}", "--pseudo-pairs", "{file}", "--output-dir", "{tmp}/out"],
             "pairs.jsonl:1: pseudo pair is not a JSON object"),
            # nested deeper than the JSON decoder can recurse
            ("pairs.jsonl", '{"query_id": "q1", "text": "a", "doc_id": "zz"}\n' + "[" * 100_000,
             [*TRAIN, "--index", "{index}", "--pseudo-pairs", "{file}", "--output-dir", "{tmp}/out"],
             "pairs.jsonl:2: malformed record at line 2: nested too deeply"),
            ("queries.jsonl", '{"query_id": "q1", "text": "alpha"}\n' + "[" * 100_000,
             ["search", "--index", "{index}", "--scorer", "{scorer}", "--queries", "{file}",
              "--output", "{tmp}/run.txt"],
             "queries.jsonl:2: malformed record at line 2: nested too deeply"),
            ("scorer.txt", SCORER_HEADER + "weights\t0.5 nan 0.0 1.0\nterms\t2\nalpha\t0.0\n"
             "omega\t0.0\n", SEARCH, "scorer.txt:3: step weights '0.5 nan 0.0 1.0' are not all"),
            ("scorer.txt", SCORER_HEADER + "weights\t0.5 0.0 0.0 1.0\nterms\t2\nalpha\t0.0\n"
             "omega\t-inf\n", SEARCH, "scorer.txt:6: term weight '-inf' is not finite"),
            ("qrels.tsv", "q1\tD1\t1\nq1\tD2\n",
             ["build-terms", "--corpus", DATA / "toy_corpus.jsonl", "--queries",
              DATA / "toy_queries.jsonl", "--qrels", "{file}", "--output-dir", "{tmp}/out"],
             "qrels.tsv:2: malformed judgment at line 2: expected 3 tab-separated fields"),
            ("corpus.jsonl", '{"doc_id": "D1", "title": "t", "body": "b"}\n\n{"doc_id": "D2"}\n',
             ["build-terms", "--corpus", "{file}", "--queries", DATA / "toy_queries.jsonl",
              "--qrels", DATA / "toy_qrels.tsv", "--output-dir", "{tmp}/out"],
             "corpus.jsonl:3: malformed record at line 3: missing field(s) title, body"),
            ("run.txt", "q1 Q0 d1 1 -1.0 t\nq1 Q0 d2 two -2.0 t\n",
             ["evaluate", "--run", "{file}", "--qrels", DATA / "toy_qrels.tsv",
              "--output-dir", "{tmp}/out"],
             "run.txt:2: malformed run line 2: rank 'two' is not a valid int"),
            ("bad.cfg", "# seeds\nseed = 7\nno equals sign\n",
             [*TRAIN, "--index", "{index}", "--config", "{file}", "--output-dir", "{tmp}/out"],
             "bad.cfg:3: malformed config line 3"),
        ],
        ids=["identifier-size", "identifier-repeated-term", "identifier-same-set",
             "identifier-length", "identifier-duplicate-doc", "identifier-tag-suffix",
             "identifier-tag-letter", "identifier-size-zero", "identifier-header-only",
             "model-line", "model-nan-weight", "model-inf-weight", "model-nan-tau",
             "model-overflow", "config-value",
             "missing-run", "pseudo-pair-json", "pseudo-pair-string", "pseudo-pair-deep-nesting",
             "queries-deep-nesting", "scorer-nan-weight",
             "scorer-inf-term-weight", "build-terms-qrels", "build-terms-corpus", "run-rank",
             "config-line"],
    )
    def test_malformed_input_is_data_error(self, tmp_path, capsys, name, text, argv, where):
        ids = tmp_path / "index-ids.tsv"
        ids.write_text("termset-identifiers/1\t2\nzz\talpha,omega\n", encoding="utf-8")
        assert invoke("build-index", "--identifiers", ids, "--output", tmp_path / "index.txt") == 0
        save_scorer(FeatureScorer.zeros(load_index(tmp_path / "index.txt")), tmp_path / "scorer.txt")
        if text is not None:
            (tmp_path / name).write_text(text, encoding="utf-8")
        paths = {"file": tmp_path / name, "tmp": tmp_path, "index": tmp_path / "index.txt",
                 "scorer": tmp_path / "scorer.txt"}
        assert invoke(*(str(a).format(**paths) for a in argv)) == 2
        err = capsys.readouterr().err
        assert where in err
        assert "Warning" not in err
        assert not (tmp_path / "out" / "scorer.txt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--run", "r.txt", "--qrels", "q.tsv", "--cutoffs", "a,b"],
            ["ablate", "--index", "i.txt", "--scorer", "s.txt", "--queries", "q.jsonl",
             "--qrels", "q.tsv", "--cutoffs", "10,"],
            ["bench", "--index", "i.txt", "--scorer", "s.txt", "--queries", "q.jsonl",
             "--beams", "10;100"],
        ],
        ids=["evaluate-cutoffs", "ablate-cutoffs", "bench-beams"],
    )
    def test_malformed_integer_list_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            invoke(*argv, "--output-dir", tmp_path / "out")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "comma-separated integers" in err
        assert "Traceback" not in err

    def test_duplicate_docs_warning_and_placeholder(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            '{"doc_id": "A", "title": "", "body": "same"}\n'
            '{"doc_id": "B", "title": "", "body": "same"}\n',
            encoding="utf-8",
        )
        queries = tmp_path / "q.jsonl"
        queries.write_text('{"query_id": "q1", "text": "same"}\n', encoding="utf-8")
        qrels = tmp_path / "qr.tsv"
        qrels.write_text("q1\tA\t1\n", encoding="utf-8")
        rc = invoke("build-terms", "--corpus", corpus, "--queries", queries, "--qrels", qrels,
                    "--output-dir", tmp_path / "out", "--negatives", "1")
        assert rc == 0
        captured = capsys.readouterr()
        assert "placeholder" in captured.err
        idents = (tmp_path / "out" / "identifiers.tsv").read_text(encoding="utf-8")
        assert idents.count("⟂") == 1

    def test_empty_run_warning(self, tmp_path, capsys):
        run = tmp_path / "empty_run.txt"
        run.write_text("", encoding="utf-8")
        rc = invoke("evaluate", "--run", run, "--qrels", DATA / "toy_qrels.tsv",
                    "--output-dir", tmp_path / "out")
        assert rc == 0
        captured = capsys.readouterr()
        assert "no lines for any judged query" in captured.err
        summary = json.loads(
            (tmp_path / "out" / "report.jsonl").read_text(encoding="utf-8").splitlines()[0]
        )
        assert summary["MRR@10"] == 0.0


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "iterations = 1\n"
            "epochs = 3\n"
            "lr = 0.25\n"
            "seed = 11\n",
            encoding="utf-8",
        )
        parsed = parse_config_file(cfg)
        assert parsed == {"iterations": "1", "epochs": "3", "lr": "0.25", "seed": "11"}

    def test_flags_override_config(self, tmp_path, pipeline):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 1\nepochs = 2\nseed = 3\n", encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, extra in ((out_a, []), (out_b, ["--seed", "3"])):
            rc = invoke(
                "train",
                "--corpus", DATA / "toy_corpus.jsonl",
                "--queries", DATA / "toy_queries.jsonl",
                "--qrels", DATA / "toy_qrels.tsv",
                "--index", pipeline / "index.txt",
                "--config", cfg,
                "--output-dir", out,
                *extra,
            )
            assert rc == 0
        # same effective settings either way: identical artifacts
        assert (out_a / "scorer.txt").read_bytes() == (out_b / "scorer.txt").read_bytes()
        manifest = json.loads((out_b / "train.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["iterations"] == 1

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this has no equals sign\n", encoding="utf-8")
        rc = invoke("build-terms", "--corpus", DATA / "toy_corpus.jsonl",
                    "--queries", DATA / "toy_queries.jsonl",
                    "--qrels", DATA / "toy_qrels.tsv",
                    "--config", cfg, "--output-dir", tmp_path / "out")
        assert rc == 2


    @pytest.mark.parametrize("command", ["build-terms", "train"])
    def test_an_unknown_key_is_a_data_error(self, tmp_path, capsys, pipeline, command):
        """A misspelt key exits 2 with one error line that names the file and the key, and
        writes nothing; a key that only the other command reads is accepted."""
        inputs = ["--corpus", DATA / "toy_corpus.jsonl", "--queries", DATA / "toy_queries.jsonl",
                  "--qrels", DATA / "toy_qrels.tsv"]
        if command == "train":
            inputs += ["--index", pipeline / "index.txt"]
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("iterations = 1\niteration = 1\nimportance_epochs = 2\n", encoding="utf-8")
        capsys.readouterr()
        assert invoke(command, *inputs, "--config", cfg, "--output-dir", tmp_path / "bad") == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'iteration'\n"
        assert not (tmp_path / "bad").exists()
        # one file for both commands: each ignores the other's keys
        cfg.write_text("iterations = 1\nepochs = 1\nimportance_epochs = 2\n", encoding="utf-8")
        assert invoke(command, *inputs, "--config", cfg, "--output-dir", tmp_path / "good") == 0


class TestPseudoPairs:
    def test_pseudo_pairs_accepted(self, pipeline, tmp_path):
        pseudo = tmp_path / "pseudo.jsonl"
        pseudo.write_text(
            '{"query_id": "pq1", "text": "granite lighthouse harbor", "doc_id": "lighthouse"}\n',
            encoding="utf-8",
        )
        rc = invoke(
            "train",
            "--corpus", DATA / "toy_corpus.jsonl",
            "--queries", DATA / "toy_queries.jsonl",
            "--qrels", DATA / "toy_qrels.tsv",
            "--index", pipeline / "index.txt",
            "--pseudo-pairs", pseudo,
            "--output-dir", tmp_path / "out",
            "--iterations", "1", "--epochs", "2",
        )
        assert rc == 0
        stats = [
            json.loads(line)
            for line in (tmp_path / "out" / "training-stats.jsonl").read_text().splitlines()
        ]
        assert stats[0]["num_pseudo"] == 1
        assert len(stats[0]["epoch_losses"]) == 2  # one pre-update loss per epoch


class TestUnknownTrainingDocument:
    """A training pair whose document the index does not hold is a data error
    that names the document, not a traceback."""

    def test_pseudo_pair_document_not_in_the_index(self, pipeline, tmp_path, capsys):
        pseudo = tmp_path / "pseudo.jsonl"
        pseudo.write_text('{"query_id": "pq1", "text": "granite harbor", "doc_id": "no-such-doc"}\n',
                          encoding="utf-8")
        rc = invoke(*TRAIN, "--index", pipeline / "index.txt", "--pseudo-pairs", pseudo,
                    "--output-dir", tmp_path / "out", "--iterations", "1", "--epochs", "1")
        err = capsys.readouterr().err
        assert rc == 2
        assert "document 'no-such-doc' is not in the index" in err
        assert "Traceback" not in err

    def test_judged_corpus_document_not_in_the_index(self, tmp_path, capsys):
        """The toy qrels judge corpus documents; this index holds only `zz`."""
        ids = tmp_path / "ids.tsv"
        ids.write_text("termset-identifiers/1\t2\nzz\talpha,omega\n", encoding="utf-8")
        assert invoke("build-index", "--identifiers", ids, "--output", tmp_path / "index.txt") == 0
        rc = invoke(*TRAIN, "--index", tmp_path / "index.txt", "--output-dir", tmp_path / "out",
                    "--iterations", "1", "--epochs", "1")
        err = capsys.readouterr().err
        assert rc == 2
        assert re.search(r"document '[a-z]+' is not in the index", err), err


class TestAblateAndBench:
    def test_ablate_command(self, pipeline, tmp_path):
        rc = invoke("ablate", "--index", pipeline / "index.txt",
                    "--scorer", pipeline / "train/scorer.txt",
                    "--queries", DATA / "toy_queries.jsonl",
                    "--qrels", DATA / "toy_qrels.tsv",
                    "--output-dir", tmp_path / "ab", "--beam", "5")
        assert rc == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "ab" / "ablation.jsonl").read_text().splitlines()
        ]
        assert {r["identifier"] for r in records} == {"term_set", "sequence"}

    def test_bench_command(self, pipeline, tmp_path):
        rc = invoke("bench", "--index", pipeline / "index.txt",
                    "--scorer", pipeline / "train/scorer.txt",
                    "--queries", DATA / "toy_queries.jsonl",
                    "--beams", "2,5", "--output-dir", tmp_path / "bench")
        assert rc == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "bench" / "efficiency.jsonl").read_text().splitlines()
        ]
        assert [r["beam_size"] for r in records] == [2, 5]
        assert all(r["memory_mb"] > 0 for r in records)

    def test_ablate_and_bench_write_manifests(self, pipeline, tmp_path):
        for cmd, out in (("ablate", tmp_path / "ab"), ("bench", tmp_path / "be")):
            args = ["--index", pipeline / "index.txt",
                    "--scorer", pipeline / "train/scorer.txt",
                    "--queries", DATA / "toy_queries.jsonl",
                    "--output-dir", out]
            if cmd == "ablate":
                args += ["--qrels", DATA / "toy_qrels.tsv", "--beam", "3"]
            else:
                args += ["--beams", "2"]
            assert invoke(cmd, *args) == 0
            manifest = json.loads((out / f"{cmd}.manifest.json").read_text(encoding="utf-8"))
            assert manifest["command"] == cmd
            assert manifest["outputs"]


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic.write_text(target, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic.write_text(target, "partial \ud800 text\n")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_index_write_failing_part_way_keeps_the_old_index(self, tmp_path, monkeypatch):
        save_index(build_index(make_random_identifiers(30, 12, 3, seed=1)), tmp_path / "index.bin")
        old = (tmp_path / "index.bin").read_bytes()
        partial = []

        class HalfWrite(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[: len(data) // 2])
                self.flush()
                partial.append(os.path.getsize(self.name))
                raise OSError("disk full")

        monkeypatch.setattr(atomic, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_index(build_index(make_random_identifiers(40, 12, 3, seed=2)), tmp_path / "index.bin")
        assert partial and partial[0] > 0  # the temporary file held part of the new index
        assert (tmp_path / "index.bin").read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["index.bin"]

    def test_interrupted_command_leaves_no_artifact(self, tmp_path, monkeypatch):
        ids = tmp_path / "ids.tsv"
        ids.write_text("termset-identifiers/1\t2\nzz\talpha,omega\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", fail)
        assert invoke("build-index", "--identifiers", ids, "--output", tmp_path / "index.txt") == 2
        assert [p.name for p in tmp_path.iterdir()] == ["ids.tsv"]


@pytest.fixture(scope="module")
def search_inputs(tmp_path_factory):
    """An index, a valid scorer file's bytes and queries for fuzzing `search`."""
    out = tmp_path_factory.mktemp("fuzz")
    table = make_random_identifiers(30, 12, 3, seed=1)
    write_identifier_file(table, out / "ids.tsv")
    assert invoke("build-index", "--identifiers", out / "ids.tsv", "--output", out / "index.txt") == 0
    terms = sorted({t for ts in table.terms_by_doc.values() for t in ts})
    rng = np.random.default_rng(0)
    scorer = FeatureScorer(rng.normal(0, 1, len(STEP_FEATURES)), terms, rng.uniform(0, 2, len(terms)))
    save_scorer(scorer, out / "scorer.txt")
    queries = [{"query_id": f"q{i}", "text": " ".join(terms[i : i + 2] + ["zz"])} for i in range(4)]
    (out / "queries.jsonl").write_text("".join(json.dumps(q) + "\n" for q in queries), "utf-8")
    return out, (out / "scorer.txt").read_bytes()


# bytes that shift a scorer file's structure or numbers
FUZZ_BYTES = st.sampled_from(list(b"\t\n 0159.-+eEx") + [0x00, 0xFF, 0xC3])


@st.composite
def mutations(draw, size):
    """One truncation, replacement, insertion or deletion at a random offset."""
    kind = draw(st.sampled_from(["truncate", "replace", "insert", "delete"]))
    at = draw(st.integers(0, size))
    if kind == "truncate":
        return lambda data: data[:at]
    if kind == "delete":
        width = draw(st.integers(1, 8))
        return lambda data: data[:at] + data[at + width :]
    chunk = bytes(draw(st.lists(FUZZ_BYTES, min_size=1, max_size=4)))
    if kind == "insert":
        return lambda data: data[:at] + chunk + data[at:]
    return lambda data: data[:at] + chunk + data[at + len(chunk) :]


class TestScorerFileFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_scorer_exits_0_or_2_without_traceback(self, search_inputs, data):
        out, original = search_inputs
        mutated = original
        for _ in range(data.draw(st.integers(1, 3))):
            mutated = data.draw(mutations(len(mutated)))(mutated)
        with tempfile.TemporaryDirectory() as tmp:
            scorer = Path(tmp) / "scorer.txt"
            scorer.write_bytes(mutated)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = invoke("search", "--index", out / "index.txt", "--scorer", scorer,
                            "--queries", out / "queries.jsonl", "--output", Path(tmp) / "run.txt")
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def toy_search(tmp_path_factory):
    """A directory holding the toy corpus's index (`index.bin`) and a zero scorer for it."""
    out = tmp_path_factory.mktemp("toy-search")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert invoke("build-terms", "--corpus", DATA / "toy_corpus.jsonl",
                      "--queries", DATA / "toy_queries.jsonl", "--qrels", DATA / "toy_qrels.tsv",
                      "--output-dir", out / "terms", "--n-min", "2", "--n-max", "8") == 0
        assert invoke("build-index", "--identifiers", out / "terms/identifiers.tsv",
                      "--output", out / "index.bin") == 0
        save_scorer(FeatureScorer.zeros(load_index(out / "index.bin")), out / "scorer.txt")
    return out


@pytest.fixture(scope="module")
def evaluate_inputs(toy_search):
    """The toy qrels' bytes, and those of the run file `search` writes for the toy queries."""
    out = toy_search
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert invoke("search", "--index", out / "index.bin", "--scorer", out / "scorer.txt",
                      "--queries", DATA / "toy_queries.jsonl", "--output", out / "run.txt") == 0
    return {"qrels": (DATA / "toy_qrels.tsv").read_bytes(), "run": (out / "run.txt").read_bytes()}


class TestEvaluateInputFuzz:
    @pytest.mark.parametrize("kind", ["qrels", "run"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_file_exits_0_or_2_without_traceback(self, evaluate_inputs, kind, data):
        files = dict(evaluate_inputs)
        for _ in range(data.draw(st.integers(1, 3))):
            files[kind] = data.draw(file_mutations(files[kind]))
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                (Path(tmp) / name).write_bytes(content)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = invoke("evaluate", "--run", Path(tmp) / "run", "--qrels", Path(tmp) / "qrels",
                            "--output-dir", Path(tmp) / "out")
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


# each fuzzed input kind: the command that reads it, and the file it starts from
INPUT_FUZZ = {
    "corpus": (["build-terms", "--corpus", "{file}", "--queries", DATA / "toy_queries.jsonl",
                "--qrels", DATA / "toy_qrels.tsv", "--output-dir", "{tmp}/out",
                "--importance-epochs", "1", "--n-max", "4"],
               (DATA / "toy_corpus.jsonl").read_bytes()),
    "queries": (["search", "--index", "{toy}/index.bin", "--scorer", "{toy}/scorer.txt",
                 "--queries", "{file}", "--output", "{tmp}/run.txt"],
                (DATA / "toy_queries.jsonl").read_bytes()),
    "pseudo-pairs": ([*TRAIN, "--index", "{toy}/index.bin", "--pseudo-pairs", "{file}",
                      "--output-dir", "{tmp}/out", "--iterations", "1", "--epochs", "1"],
                     b'{"query_id": "p1", "text": "granite harbor lamp", "doc_id": "lighthouse"}\n'
                     b'{"query_id": "p2", "text": "wild yeast starter", "doc_id": "sourdough"}\n'),
}


class TestInputFileFuzz:
    @pytest.mark.parametrize("kind", list(INPUT_FUZZ))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_file_exits_0_or_2_without_traceback(self, toy_search, kind, data):
        argv, content = INPUT_FUZZ[kind]
        for _ in range(data.draw(st.integers(1, 3))):
            content = data.draw(file_mutations(content))
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "input").write_bytes(content)
            paths = {"file": Path(tmp) / "input", "tmp": tmp, "toy": toy_search}
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = invoke(*(str(a).format(**paths) for a in argv))
        assert rc in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestNegativeSeed:
    @pytest.mark.parametrize("by", ["flag", "config"])
    @pytest.mark.parametrize("command", ["build-terms", "train"])
    def test_a_negative_seed_is_a_data_error(self, toy_search, tmp_path, capsys, command, by):
        """Numpy's generators refuse it with a traceback; the command refuses it first, exit 2
        with one error line that names the seed, and writes nothing."""
        argv = [command, *TRAIN[1:]]
        if command == "train":
            argv += ["--index", toy_search / "index.bin"]
        if by == "flag":
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -1\n", encoding="utf-8")
            argv += ["--config", tmp_path / "run.cfg"]
        capsys.readouterr()
        assert invoke(*argv, "--output-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()


class TestTemperature:
    @pytest.mark.parametrize("tau", ["inf", "nan", "0", "-1"])
    def test_build_terms_and_train_refuse_the_same_tau(self, toy_search, tmp_path, capsys, tau):
        """build-terms refuses a temperature outside (0, inf) before it writes a model, and
        train --model refuses a model file that holds it: each exits 2 with one error line
        and writes nothing."""
        model = tmp_path / "importance.model"
        model.write_text(MODEL_TEXT.replace("tau\t1.0", f"tau\t{tau}"), encoding="utf-8")
        for argv in (["build-terms", *TRAIN[1:], "--tau", tau],
                     [*TRAIN, "--index", toy_search / "index.bin", "--model", model]):
            capsys.readouterr()
            assert invoke(*argv, "--output-dir", tmp_path / "out") == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert not (tmp_path / "out").exists()


# the config keys that set how long a run is, pinned small; the fuzz draws every other key
LENGTH_KEYS = "importance_epochs = 2\nn_max = 4\niterations = 1\nepochs = 1\nsamples = 1\n"
FUZZED_KEYS = ("seed", "negatives", "tau", "importance_lr", "n_min", "lr", "topk_sampling",
               "beam_eval", "val_fraction", "init")
CONFIG_VALUES = st.one_of(
    st.integers(-3, 5),
    st.sampled_from([-(2**63), 2**31, 2**63, 2**70, 10**400]),
    st.floats(),  # nan, infinities and subnormals included
    st.sampled_from(["nan", "-inf", "5e-324", "1e-310", "importance", "likelihood", "random"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=8),
)


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(values=st.fixed_dictionaries({}, optional={key: CONFIG_VALUES for key in FUZZED_KEYS}))
    def test_fuzzed_config_exits_0_or_2_with_one_error_line(self, toy_search, values):
        config = LENGTH_KEYS + "".join(f"{key} = {value}\n" for key, value in values.items())
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "run.cfg").write_text(config, encoding="utf-8")
            for argv in (["build-terms", *TRAIN[1:]],
                         [*TRAIN, "--index", toy_search / "index.bin"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    rc = invoke(*argv, "--config", Path(tmp) / "run.cfg",
                                "--output-dir", Path(tmp) / "out")
                assert rc in (0, 2), err.getvalue()
                assert "Traceback" not in err.getvalue()
                if rc:
                    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
                    assert len(errors) == 1, err.getvalue()
