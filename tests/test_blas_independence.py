"""Trained weights do not depend on the CPU's BLAS kernel: no sum in the package uses BLAS."""

import ast
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# numpy calls that hand a sum of products to BLAS
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


def blas_calls(tree: ast.AST):
    """(line, what) of every `@`, `@=` and BLAS-backed name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            yield node.lineno, node.id


def test_no_sum_of_products_goes_through_blas():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted((SRC / "termset_retrieval").glob("*.py"))
        for line, what in blas_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_scan_sees_each_form():
    code = ("a @ b\nc @= d\nnp.dot(a, b)\nx.dot(b)\nnp.einsum('i,i', a, b)\n"
            "from numpy import matmul\nmatmul(a, b)\n")
    assert [what for _, what in sorted(blas_calls(ast.parse(code)))] == [
        "@", "@", "dot", "dot", "einsum", "matmul"
    ]


def dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel by CPU at run time."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


def cpu_features() -> dict:
    """numpy's run-time CPU feature table; its module moved in numpy 2."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            return importlib.import_module(module).__cpu_features__
        except (ImportError, AttributeError):
            continue
    return {}


def coretypes() -> list[str]:
    """The OpenBLAS x86 kernels this CPU can run, each named by the feature it needs."""
    if platform.machine().lower() not in ("x86_64", "amd64") or not dynamic_openblas():
        return []
    needs = {"Prescott": "SSE3", "Sandybridge": "AVX", "Haswell": "AVX2", "SkylakeX": "AVX512_SKX"}
    features = cpu_features()
    return [core for core, feature in needs.items() if features.get(feature)]


# importance training and teacher forcing on a 200-document bridging corpus,
# printing both models' weights as hex
TRAIN = """
from termset_retrieval import (FeatureScorer, TrainingConfig, build_identifiers, build_index,
                               make_dataset, run_training, sample_negatives, train_importance)
from termset_retrieval.scorer import build_term_weights
from termset_retrieval.synthetic import make_bridging_corpus, split_by_wave

corpus, queries, judgments = make_bridging_corpus(num_docs=200, seed=0)
train_q, train_j, _, _ = split_by_wave(queries, judgments, test_wave=1)
pairs = sample_negatives(train_q, train_j, corpus, m=4, seed=1)
model = train_importance(pairs, corpus, epochs=10, lr=0.05, seed=1)
index = build_index(build_identifiers(corpus, model, n_min=2, n_max=8))
initial = FeatureScorer.zeros(index, build_term_weights(index, corpus, model))
config = TrainingConfig(iterations=2, samples=2, epochs=3, seed=1)
scorer, _ = run_training(make_dataset(train_q, train_j, val_fraction=0.05, seed=1), index,
                         config, initial)
print(model.weights.tobytes().hex(), scorer.weights.tobytes().hex())
"""


@pytest.mark.skipif(len(coretypes()) < 3, reason="needs a DYNAMIC_ARCH OpenBLAS on an x86 CPU "
                    "that runs at least three of its kernels")
def test_trained_weights_are_equal_under_every_blas_kernel():
    weights = {}
    for core in coretypes():
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", TRAIN], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        weights[core] = done.stdout.split()
    assert len({tuple(w) for w in weights.values()}) == 1, weights
