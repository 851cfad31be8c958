"""Shared fixtures: a small deterministic dataset/knowledge base pair for unit
tests, the full default synthetic benchmark shared by the acceptance suite, and
per-sample reference computations that the whole-matrix code is checked against.
"""

import math
import os
import shutil
import tempfile

import numpy as np
import pytest

from ifsl.knowledge import FeatureDataset, KnowledgeBase
from ifsl.synth import SynthConfig, gen_confounded

_HYPOTHESIS_DIR = pytest.StashKey[str]()


def pytest_configure(config):
    """Give hypothesis a temporary storage directory for the run.

    Its pytest plugin caches source constants on disk during collection, by
    default in ``.hypothesis/`` under the working directory. The property
    tests keep no example database, so nothing there outlives the run.
    """
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        config.stash[_HYPOTHESIS_DIR] = tempfile.mkdtemp(prefix="hypothesis-")
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = config.stash[_HYPOTHESIS_DIR]


def pytest_unconfigure(config):
    if _HYPOTHESIS_DIR in config.stash:
        del os.environ["HYPOTHESIS_STORAGE_DIRECTORY"]
        shutil.rmtree(config.stash[_HYPOTHESIS_DIR], ignore_errors=True)


def make_blob_dataset(
    n_classes: int = 10,
    per_class: int = 30,
    dim: int = 16,
    spread: float = 3.0,
    noise: float = 0.5,
    seed: int = 11,
) -> FeatureDataset:
    """Gaussian blobs around random class centers; easy but not trivial."""
    rng = np.random.default_rng(seed)
    centers = spread * rng.standard_normal((n_classes, dim))
    feats = np.concatenate(
        [c + noise * rng.standard_normal((per_class, dim)) for c in centers]
    )
    labels = np.repeat(np.arange(n_classes), per_class)
    return FeatureDataset(feats, labels, n_classes)


def make_kb(m: int = 4, dim: int = 16, seed: int = 5) -> KnowledgeBase:
    rng = np.random.default_rng(seed)
    return KnowledgeBase(
        class_means=rng.standard_normal((m, dim)),
        pre_weights=rng.standard_normal((m, dim)),
        pre_bias=rng.standard_normal(m),
    )


@pytest.fixture
def blob_ds() -> FeatureDataset:
    return make_blob_dataset()


@pytest.fixture
def small_kb() -> KnowledgeBase:
    return make_kb()


@pytest.fixture(scope="session")
def default_synth():
    """The default confounded benchmark (64-dim, 16+16 classes, 4 strata)."""
    return gen_confounded(SynthConfig())


# --- per-sample references -----------------------------------------------------


def reference_inputs(predictor, x) -> list:
    """Per-head inputs for one feature vector, built stratum by stratum.

    Block i of a vector keeps the entries whose magnitude exceeds the
    threshold t and zeroes the rest; the class-wise context is
    (1/m) sum_j P(a_j | x) * mean_j with P the pre-trained softmax.
    """
    x = np.asarray(x, dtype=np.float64)
    strategy = predictor.cfg.strategy
    if strategy in ("class", "combined"):
        kb = predictor.kb
        logits = kb.pre_weights @ x + kb.pre_bias
        e = np.exp(logits - logits.max())
        ctx = (e / e.sum()) @ kb.class_means / kb.m
    if strategy == "none":
        return [x]
    if strategy == "class":
        return [np.concatenate([x, ctx])]
    n, t = predictor.cfg.partition.n, predictor.cfg.partition.t
    width = x.size // n

    def stratum(v, i):
        out = np.zeros(width)
        for k in range(width):
            if abs(v[i * width + k]) > t:
                out[k] = v[i * width + k]
        return out

    if strategy == "feature":
        return [stratum(x, i) for i in range(n)]
    return [np.concatenate([stratum(x, i), stratum(ctx, i)]) for i in range(n)]


def reference_hardness(ep, kb) -> np.ndarray:
    """Per-query hardness, one query at a time.

    A query's rectified pre-trained logits are compared by cosine (0 for a
    zero-norm vector) with each class's rectified mean support logits; s is
    the true class's softmax share, clamped to [1e-12, 1 - 1e-12], and the
    hardness is log((1 - s) / s).
    """

    def response(x):
        return kb.pre_weights @ x + kb.pre_bias

    def cosine(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return 0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb))

    profiles = [
        np.mean([response(x) for x, y in zip(ep.support_x, ep.support_y) if y == k], axis=0)
        for k in range(ep.way)
    ]
    out = []
    for x, gt in zip(ep.query_x, ep.query_y):
        r = np.maximum(response(x), 0.0)
        sims = np.array([cosine(r, np.maximum(p, 0.0)) for p in profiles])
        e = np.exp(sims - sims.max())
        s = min(max(float(e[gt] / e.sum()), 1e-12), 1.0 - 1e-12)
        out.append(math.log((1.0 - s) / s))
    return np.array(out)
