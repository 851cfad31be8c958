"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Every test prints ``criterion N: PASS|FAIL`` with the measured numbers before
asserting, so a full run always shows the complete scoreboard.
"""

import json
import time

import numpy as np

from ifsl.adjust import AdjustmentConfig, Predictor, nwgm
from ifsl.causal_graph import (
    backdoor_admissible,
    d_separated,
    fsl_graph,
    fsl_sampling_graph,
    is_instrumental,
    msl_sampling_graph,
)
from ifsl.cli import main
from ifsl.evalmetrics import accuracy_report, hardness_report
from ifsl.heads import FitConfig, _logits, mixture_loss_and_grads
from ifsl.knowledge import PartitionConfig, save_features, save_features_csv, save_kb
from ifsl.meta import evaluate_inits, meta_train, zero_meta_init
from ifsl.numerics import softmax
from ifsl.synth import LinearScmConfig, iv_demo, run_confounded

from conftest import make_blob_dataset, make_kb
from test_causal_graph import _random_instance, oracle_d_separated
from test_heads import _random_heads, fd_gradient, flatten_grads


def _verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_01_nwgm_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        s = int(rng.integers(1, 33))
        logits = rng.standard_normal((s, k)) * rng.uniform(0.5, 5.0)
        priors = rng.dirichlet(np.ones(s))
        dev = float(np.max(np.abs(nwgm(logits, priors) - softmax(priors @ logits))))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 1.0
    assert _verdict(
        1, ok,
        f"max |nwgm - softmax(prior-weighted logits)| = {worst:.2e} over 1000 "
        f"instances (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_linear_head_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 10))
        m = int(rng.integers(1, 9))
        # one head [W | b] of a linear stack, scored on one-row blocks
        theta = np.column_stack([rng.standard_normal((k, 2 * dim)), rng.standard_normal(k)])
        x = rng.standard_normal(dim)
        contexts = rng.standard_normal((m, dim))
        priors = rng.dirichlet(np.ones(m))
        summed = np.sum(
            [p * _logits("linear", theta, np.concatenate([x, c])[None, :])[:, 0]
             for p, c in zip(priors, contexts)],
            axis=0,
        )
        pooled = _logits("linear", theta, np.concatenate([x, priors @ contexts])[None, :])[:, 0]
        worst = max(worst, float(np.max(np.abs(summed - pooled))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 1.0
    assert _verdict(
        2, ok,
        f"max |sum_d P(d) f(x,c_d) - f(x, sum_d P(d) c_d)| = {worst:.2e} over 1000 "
        f"linear heads (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_03_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    kb = make_kb(m=3, dim=8, seed=103)
    worst = 0.0
    for strategy in ("none", "feature", "class", "combined"):
        cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=2, t=1e-3))
        for kind in ("linear", "cosine"):
            predictor = Predictor(cfg, kb, 8, 3, kind)
            for _ in range(50):
                X = rng.standard_normal((3, 8)) + 0.2
                y = rng.integers(0, 3, size=3)
                blocks = predictor.support_inputs(X)
                heads = _random_heads(kind, predictor.n_heads, 3, predictor.head_input_dim, rng)
                _, grads = mixture_loss_and_grads(heads, blocks, y, 1e-3)
                analytic = flatten_grads(grads)
                numeric = fd_gradient(heads, blocks, y, 1e-3)
                rel = float(
                    np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
                )
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 10.0
    assert _verdict(
        3, ok,
        f"max relative gradient error = {worst:.2e} over 50 instances x "
        f"{{linear,cosine}} x 4 strategies (tol 1e-5, step 1e-6), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_04_adjustment_collapses():
    rng = np.random.default_rng(104)
    kb16 = make_kb(m=4, dim=16, seed=104)
    kb1 = make_kb(m=1, dim=16, seed=105)
    base = Predictor(AdjustmentConfig("none"), kb16, 16, 3, "linear")
    feat = Predictor(
        AdjustmentConfig("feature", partition=PartitionConfig(n=1, t=0.0)), kb16, 16, 3, "linear"
    )
    cls = Predictor(AdjustmentConfig("class"), kb1, 16, 3, "linear")
    comb = Predictor(
        AdjustmentConfig("combined", partition=PartitionConfig(n=1, t=0.0)), kb1, 16, 3, "linear"
    )
    heads_n = _random_heads("linear", 1, 3, 16, rng)
    heads_c = _random_heads("linear", 1, 3, cls.head_input_dim, rng)
    X = np.stack([rng.standard_normal(16) * rng.uniform(0.5, 3.0) for _ in range(200)])
    worst_feat = float(np.max(np.abs(base.probs_batch(heads_n, X) - feat.probs_batch(heads_n, X))))
    worst_comb = float(np.max(np.abs(cls.probs_batch(heads_c, X) - comb.probs_batch(heads_c, X))))
    ok = worst_feat <= 1e-15 and worst_comb <= 1e-15
    assert _verdict(
        4, ok,
        f"feature(n=1,t=0) vs none max dev = {worst_feat:.2e}, combined(m=1,n=1,t=0) vs "
        f"class max dev = {worst_comb:.2e} over 200 inputs (tol 1e-15)",
    )


def test_criterion_05_d_separation_oracle_and_graph_verdicts():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    agree = 0
    for _ in range(500):
        g, x, y, z = _random_instance(rng)
        agree += int(d_separated(g, x, y, z) == oracle_d_separated(g, x, y, z))
    verdicts = (
        is_instrumental(msl_sampling_graph(), "I", "X", "Y"),
        not is_instrumental(fsl_sampling_graph(), "I", "X", "Y"),
        backdoor_admissible(fsl_graph(), ["D"], "X", "Y"),
        not backdoor_admissible(fsl_graph(), [], "X", "Y"),
    )
    elapsed = time.perf_counter() - started
    ok = agree == 500 and all(verdicts) and elapsed < 10.0
    assert _verdict(
        5, ok,
        f"{agree}/500 random DAGs agree with path enumeration; built-in graph "
        f"verdicts (instrument yes/no, backdoor {{D}}/empty) = {verdicts}, "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_06_instrument_recovery():
    started = time.perf_counter()
    res = iv_demo(LinearScmConfig(), np.random.default_rng(1))
    elapsed = time.perf_counter() - started
    iv_err = abs(res.iv_estimate - 3.0)
    ols_err = abs(res.ols_slope - (3.0 + 10.0 / 6.0))
    ok = iv_err < 0.1 and ols_err < 0.1 and elapsed < 1.0
    assert _verdict(
        6, ok,
        f"iv = {res.iv_estimate:.4f} (|dev| = {iv_err:.4f} < 0.1), "
        f"ols = {res.ols_slope:.4f} (|dev from 4.667| = {ols_err:.4f} < 0.1), "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_07_confounding_hurts_baseline(default_synth):
    started = time.perf_counter()
    common = dict(
        novel=default_synth.novel, strata_tags=default_synth.novel_strata,
        kb=default_synth.kb, way=5, shot=1, query=15, count=500,
        classifier="linear", adj_cfg=AdjustmentConfig("none"),
        fit_cfg=FitConfig(), seed=123,
    )
    matched_res, _ = run_confounded(**{**common, "mismatch_rate": 0.0})
    mismatched_res, _ = run_confounded(**{**common, "mismatch_rate": 1.0})
    acc0 = accuracy_report(matched_res).mean_acc
    acc1 = accuracy_report(mismatched_res).mean_acc
    h_matched = float(np.concatenate([r.hardness for r in matched_res]).mean())
    h_mismatched = float(np.concatenate([r.hardness for r in mismatched_res]).mean())
    elapsed = time.perf_counter() - started
    ok = (acc1 <= acc0 - 5.0) and (h_mismatched > h_matched) and elapsed < 120.0
    assert _verdict(
        7, ok,
        f"baseline accuracy {acc0:.2f} (matched) vs {acc1:.2f} (mismatched), "
        f"gap {acc0 - acc1:.2f} (>= 5 needed); mean hardness {h_mismatched:.3f} "
        f"(mismatched) > {h_matched:.3f} (matched); {elapsed:.1f}s (< 120s)",
    )


def test_criterion_08_adjustment_beats_baseline(default_synth):
    # Full mismatch: every query comes from a stratum other than its class's
    # support stratum (criterion 7's mismatched arm), so the confounder carries
    # no label information and removing it can only help. At mismatch 0.5 a
    # query keeps its support stratum half the time, against 1/4 by chance, and
    # even a stratum oracle that projects the true confounder directions out of
    # the features loses to the baseline there (test_synth.py,
    # test_stratum_oracle_gains_only_at_full_mismatch).
    started = time.perf_counter()
    common = dict(
        novel=default_synth.novel, strata_tags=default_synth.novel_strata,
        kb=default_synth.kb, way=5, shot=1, query=15, count=1000,
        mismatch_rate=1.0, classifier="linear", seed=123,
    )
    base_res, _ = run_confounded(
        **common, adj_cfg=AdjustmentConfig("none"),
        fit_cfg=FitConfig(learning_rate=1e-2),
    )
    adj_res, _ = run_confounded(
        **common,
        adj_cfg=AdjustmentConfig("combined", partition=PartitionConfig(n=8, t=1e-3)),
        fit_cfg=FitConfig(learning_rate=5e-3),
    )
    diffs = 100.0 * np.array([a.accuracy - b.accuracy for a, b in zip(adj_res, base_res)])
    gap = float(diffs.mean())
    ci = 1.96 * float(np.std(diffs, ddof=1)) / float(np.sqrt(diffs.size))
    base_bins = hardness_report(base_res, 10)
    adj_bins = hardness_report(adj_res, 10)
    wins = sum(int(a.acc >= b.acc) for a, b in zip(adj_bins, base_bins))
    elapsed = time.perf_counter() - started
    ok = (gap > 0.0) and (gap - ci > 0.0) and (wins >= 8) and elapsed < 300.0
    assert _verdict(
        8, ok,
        f"paired gap (combined - baseline) = {gap:+.3f} ± {ci:.3f} points over 1000 "
        f"episodes (needs > 0 with CI excluding 0); adjusted >= baseline in "
        f"{wins}/10 hardness bins (needs >= 8); {elapsed:.1f}s (< 300s)",
    )


def test_criterion_09_meta_initialization_transfers(default_synth):
    started = time.perf_counter()
    novel = default_synth.novel
    cfg = AdjustmentConfig("none")
    predictor = Predictor(cfg, None, novel.dim, 5, "linear")
    mi = zero_meta_init(5, novel.dim)
    trained = meta_train(
        novel, 5, 1, 15, cfg, mi, None,
        np.random.default_rng(np.random.SeedSequence((77, 0))),
    )
    meta_accs, zero_accs = evaluate_inits(
        novel, 5, 1, 15, predictor, [trained.theta, mi.theta],
        trained.inner_lr, trained.inner_steps, 500, 78,
    )
    meta_acc = float(np.mean(meta_accs))
    zero_acc = float(np.mean(zero_accs))
    gap = meta_acc - zero_acc
    elapsed = time.perf_counter() - started
    ok = gap >= 3.0 and elapsed < 300.0
    assert _verdict(
        9, ok,
        f"adapted accuracy {meta_acc:.2f} (meta-trained) vs {zero_acc:.2f} (zero init) "
        f"over 500 held-out tasks, gap {gap:+.2f} (needs >= 3); {elapsed:.1f}s (< 300s)",
    )


def _doc_sans_meta(path):
    doc = json.loads(path.read_text())
    doc.pop("meta", None)
    return json.dumps(doc, sort_keys=True)


def _printed(capsys) -> list[str]:
    """The stdout lines printed since the last read; nothing went to stderr."""
    out, err = capsys.readouterr()
    assert err == ""
    return out.splitlines()


def test_criterion_10_cli_determinism(tmp_path, capsys):
    # each run's summary line is captured and checked against the report it wrote
    ds = make_blob_dataset(n_classes=6, per_class=30, dim=16, seed=110)
    kb = make_kb(m=4, dim=16, seed=111)
    save_features(ds, tmp_path / "novel.features")
    save_features_csv(ds, tmp_path / "novel.csv")
    save_kb(kb, tmp_path / "kb.bin")
    ep_args = [
        "episodes", "--features", str(tmp_path / "novel.features"),
        "--kb", str(tmp_path / "kb.bin"), "--way", "3", "--query", "4",
        "--episodes", "5", "--iterations", "10", "--seed", "9",
    ]
    checks = {}

    for name in ("a", "b"):
        assert main([*ep_args, "--out", str(tmp_path / f"{name}.json")]) == 0
    checks["episodes rerun"] = _doc_sans_meta(tmp_path / "a.json") == _doc_sans_meta(
        tmp_path / "b.json"
    )
    docs = [json.loads((tmp_path / f"{name}.json").read_text()) for name in ("a", "b")]
    assert _printed(capsys) == [
        f"mean_acc={d['mean_acc']:.2f} ci95={d['ci95']:.2f} episodes={d['episodes']}" for d in docs
    ]

    synth_args = [
        "synth", "--dim", "16", "--pretrain-classes", "3", "--novel-classes", "4",
        "--conf-strata", "2", "--samples-per-class", "40", "--episodes", "6",
        "--way", "3", "--query", "5", "--iterations", "5", "--strata", "4",
        "--bins", "3", "--seed", "3",
    ]
    for name in ("s1", "s2"):
        assert main([*synth_args, "--out-dir", str(tmp_path / name),
                     "--out", str(tmp_path / f"{name}.json")]) == 0
    checks["synth rerun"] = _doc_sans_meta(tmp_path / "s1.json") == _doc_sans_meta(
        tmp_path / "s2.json"
    ) and all(
        (tmp_path / "s1" / f).read_bytes() == (tmp_path / "s2" / f).read_bytes()
        for f in ("pretrain.features", "novel.features", "kb.bin", "synth.json")
    )
    docs = [json.loads((tmp_path / f"{name}.json").read_text()) for name in ("s1", "s2")]
    assert _printed(capsys) == [
        f"baseline={d['baseline']['mean_acc']:.2f}±{d['baseline']['ci95']:.2f} "
        f"adjusted={d['adjusted']['mean_acc']:.2f}±{d['adjusted']['ci95']:.2f} "
        f"gap={d['gap']:.2f}±{d['gap_ci95']:.2f}"
        for d in docs
    ]

    for name in ("q1", "q2"):
        assert main(["scm", "dsep", "--x", "X", "--y", "Y", "--z", "D",
                     "--out", str(tmp_path / f"{name}.json")]) == 0
    checks["scm rerun"] = (tmp_path / "q1.json").read_bytes() == (
        tmp_path / "q2.json"
    ).read_bytes()
    assert _printed(capsys) == ["['X'] and ['Y'] are NOT d-separated given ['D']"] * 2
    assert json.loads((tmp_path / "q1.json").read_text())["result"] is False

    meta_args = [
        "meta", "--features", str(tmp_path / "novel.features"), "--way", "3",
        "--query", "4", "--tasks", "20", "--eval-tasks", "10",
        "--inner-steps", "5", "--seed", "4",
    ]
    for name in ("m1", "m2"):
        assert main([*meta_args, "--out", str(tmp_path / f"{name}.json")]) == 0
    checks["meta rerun"] = _doc_sans_meta(tmp_path / "m1.json") == _doc_sans_meta(
        tmp_path / "m2.json"
    )
    docs = [json.loads((tmp_path / f"{name}.json").read_text()) for name in ("m1", "m2")]
    assert _printed(capsys) == [
        f"meta_acc={d['mean_acc']:.2f} zero_acc={d['zero_mean_acc']:.2f} gap={d['gap']:.2f}"
        for d in docs
    ]

    ok = all(checks.values())
    with capsys.disabled():  # the verdict line is printed, as every criterion's is
        assert _verdict(
            10, ok,
            "; ".join(f"{k}: {'ok' if v else 'MISMATCH'}" for k, v in checks.items()),
        )
