"""End-to-end command-line behavior: reports, determinism, exit codes."""

import csv
import json

import struct

import jsonschema
import numpy as np
import pytest

import ifsl.synth
from ifsl.cli import REPORT_SCHEMA, main
from ifsl.knowledge import (
    FEATURE_MAGIC, load_features, load_kb, save_features, save_features_csv, save_kb,
)
from ifsl.meta import load_meta
from ifsl.synth import SynthConfig, fit_kb, gen_confounded

from conftest import make_blob_dataset, make_kb


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    ds = make_blob_dataset(n_classes=6, per_class=30, dim=16, seed=51)
    kb = make_kb(m=4, dim=16, seed=52)
    save_features(ds, root / "novel.features")
    save_features_csv(ds, root / "novel.csv")
    save_kb(kb, root / "kb.bin")
    return root


EPISODE_ARGS = [
    "--way", "3", "--shot", "1", "--query", "4", "--episodes", "5",
    "--iterations", "10", "--seed", "9",
]


def _episodes(data_dir, out, extra=()):
    return main(
        ["episodes", "--features", str(data_dir / "novel.features"),
         "--kb", str(data_dir / "kb.bin"), "--out", str(out), *EPISODE_ARGS, *extra]
    )


def _doc_sans_meta(path):
    doc = json.loads(path.read_text())
    doc.pop("meta")
    return doc


def _assert_summaries(capsys, *reports):
    # each episodes or hardness run with --out printed one summary line of the
    # report it wrote there on stdout, and nothing on stderr
    out, err = capsys.readouterr()
    docs = [json.loads(r.read_text()) for r in reports]
    assert err == "" and out.splitlines() == [
        f"mean_acc={d['mean_acc']:.2f} ci95={d['ci95']:.2f} episodes={d['episodes']}" for d in docs
    ]


# --- reports -----------------------------------------------------------------------


def test_episodes_report_validates_against_schema(data_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _episodes(data_dir, out) == 0
    _assert_summaries(capsys, out)
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["episodes"] == 5
    assert doc["config"]["command"] == "episodes"
    assert doc["hardness_bins"] == []
    assert 0.0 <= doc["mean_acc"] <= 100.0


def test_hardness_report_validates_and_bins(data_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["hardness", "--features", str(data_dir / "novel.features"),
         "--kb", str(data_dir / "kb.bin"), "--out", str(out), "--bins", "4", *EPISODE_ARGS]
    )
    assert code == 0
    _assert_summaries(capsys, out)
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert len(doc["hardness_bins"]) == 4
    assert sum(b["count"] for b in doc["hardness_bins"]) == 5 * 3 * 4
    assert doc["config"]["command"] == "hardness"


def test_rerun_is_byte_identical_outside_meta(data_dir, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _episodes(data_dir, a) == 0
    assert _episodes(data_dir, b) == 0
    _assert_summaries(capsys, a, b)
    da, db = _doc_sans_meta(a), _doc_sans_meta(b)
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_ifsl_threads_environment_variable_is_ignored(data_dir, tmp_path, monkeypatch, capsys):
    # no input names a thread count: IFSL_THREADS changes neither the exit code nor the report
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.delenv("IFSL_THREADS", raising=False)
    assert _episodes(data_dir, a) == 0
    monkeypatch.setenv("IFSL_THREADS", "lots")
    assert _episodes(data_dir, b) == 0
    assert _doc_sans_meta(a) == _doc_sans_meta(b)
    _assert_summaries(capsys, a, b)


@pytest.mark.parametrize("command, flags, message", [
    ("episodes", ["--threads", "1"], "unrecognized arguments: --threads 1"),
    ("hardness", ["--threads", "1"], "unrecognized arguments: --threads 1"),
    ("hardness", ["--bins", "61"], "60 queries cannot fill 61 bins"),  # 5 * 3 * 4 queries
    ("hardness", ["--bins", "0"], "bin count must be >= 1, got 0"),
    ("episodes", ["--iterations", "-1"], "iterations must be >= 0, got -1"),
    ("hardness", ["--episodes", "0"], "episode count must be >= 1, got 0"),
    ("episodes", ["--way", "1"], "episodes need at least 2 classes, got way=1"),
    ("hardness", ["--adjust", "feature", "--strata", "0"],
     "stratum count must be a positive integer, got 0"),
    ("meta", ["--eval-tasks", "0"], "evaluation task count must be >= 1, got 0"),
    ("meta", ["--tasks", "-1"], "step and task counts must be >= 0"),
    ("meta", ["--inner-lr", "0"], "inner_lr > 0, got inner_lr=0.0"),
    ("meta", ["--adjust", "class"], "--adjust class requires --kb"),
])
def test_episode_commands_refuse_bad_counts_before_reading(
    data_dir, tmp_path, capsys, monkeypatch, command, flags, message
):
    # every flag check that needs no data runs before --features and --kb are read
    def no_read(*args, **kwargs):
        raise AssertionError("input file read")

    monkeypatch.setattr("ifsl.cli._load_features_any", no_read)
    monkeypatch.setattr("ifsl.cli.load_kb", no_read)
    out, bins_csv, init = tmp_path / "r.json", tmp_path / "bins.csv", tmp_path / "meta.init"
    if command == "hardness":
        flags = [*flags, "--bins-csv", str(bins_csv)]
    if command == "meta":  # no --kb: --adjust none needs none
        flags = ["--way", "3", "--query", "4", "--tasks", "5", "--eval-tasks", "5",
                 "--out-init", str(init), *flags]
    else:
        flags = ["--kb", str(data_dir / "kb.bin"), *EPISODE_ARGS, *flags]
    code = main([command, "--features", str(data_dir / "novel.features"), "--out", str(out),
                 *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not bins_csv.exists() and not init.exists()


def test_csv_feature_input(data_dir, tmp_path, capsys):
    out_bin, out_csv = tmp_path / "bin.json", tmp_path / "csv.json"
    assert _episodes(data_dir, out_bin) == 0
    code = main(
        ["episodes", "--features", str(data_dir / "novel.csv"),
         "--kb", str(data_dir / "kb.bin"), "--out", str(out_csv), *EPISODE_ARGS]
    )
    assert code == 0
    _assert_summaries(capsys, out_bin, out_csv)
    da, db = _doc_sans_meta(out_bin), _doc_sans_meta(out_csv)
    # same data, same results; only the recorded input path differs
    da["config"].pop("features")
    db["config"].pop("features")
    assert da == db


def test_query_and_bin_csv_dumps(data_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    qcsv = tmp_path / "queries.csv"
    bcsv = tmp_path / "bins.csv"
    code = main(
        ["hardness", "--features", str(data_dir / "novel.features"),
         "--kb", str(data_dir / "kb.bin"), "--out", str(out), "--bins", "4",
         "--query-csv", str(qcsv), "--bins-csv", str(bcsv), *EPISODE_ARGS]
    )
    assert code == 0
    _assert_summaries(capsys, out)
    with open(qcsv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "query", "true", "predicted", "correct", "hardness"]
    assert len(rows) == 1 + 5 * 3 * 4
    with open(bcsv) as fh:
        brows = list(csv.reader(fh))
    assert brows[0] == ["lo", "hi", "count", "acc"]
    assert len(brows) == 1 + 4


def test_adjusted_run_defaults_to_lower_lr(data_dir, tmp_path, capsys):
    out = tmp_path / "adj.json"
    assert _episodes(data_dir, out, ["--adjust", "feature", "--strata", "4"]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["lr"] == 5e-3
    assert doc["config"]["adjust"] == "feature"
    plain = tmp_path / "plain.json"
    assert _episodes(data_dir, plain) == 0
    assert json.loads(plain.read_text())["config"]["lr"] == 1e-2
    _assert_summaries(capsys, out, plain)


def test_stdout_report_when_no_out(data_dir, capsys):
    code = main(
        ["episodes", "--features", str(data_dir / "novel.features"),
         "--kb", str(data_dir / "kb.bin"), *EPISODE_ARGS]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)


# --- exit codes ---------------------------------------------------------------------


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_config_errors_exit_2(data_dir, tmp_path, capsys):
    # stratum count that does not divide the feature dimension
    assert _episodes(data_dir, tmp_path / "x.json", ["--adjust", "feature", "--n", "7"]) == 2
    # degenerate episode shape
    assert _episodes(data_dir, tmp_path / "y.json", ["--way", "1"]) == 2
    # unknown built-in graph
    assert main(["scm", "dsep", "--graph", "loopy", "--x", "X", "--y", "Y"]) == 2
    # a graph file whose nodes are not a list of names
    gpath = tmp_path / "bad-graph.json"
    gpath.write_text(json.dumps({"nodes": None, "edges": []}))
    assert main(["scm", "dsep", "--graph-file", str(gpath), "--x", "X", "--y", "Y"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "config error: stratum count 7 does not divide feature dimension 16",
        "config error: episodes need at least 2 classes, got way=1",
        "config error: unknown graph 'loopy', expected one of "
        "['fsl', 'fsl-sampling', 'msl-sampling']",
        "config error: malformed graph document: nodes must be a list of names",
    ]


def test_format_errors_exit_3(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.features"
    bad.write_bytes(b"junkjunkjunkjunk")
    code = main(["episodes", "--features", str(bad), "--kb", str(data_dir / "kb.bin"),
                 *EPISODE_ARGS])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"format error: {bad}: bad magic at byte 0, expected b'IFSLFEA1'\n"
    badkb = tmp_path / "bad.kb"
    badkb.write_bytes(b"\x00" * 24)
    code = main(["episodes", "--features", str(data_dir / "novel.features"),
                 "--kb", str(badkb), *EPISODE_ARGS])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"format error: {badkb}: bad magic at byte 0, expected b'IFSLKB01'\n"


def test_missing_file_exits_1(data_dir, tmp_path, capsys):
    missing = tmp_path / "nope.features"
    code = main(["episodes", "--features", str(missing), "--kb", str(data_dir / "kb.bin"),
                 *EPISODE_ARGS])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_argparse_rejection_exits_2(data_dir, tmp_path, monkeypatch, capsys):
    def last_error():  # argparse prints a usage block, then one error line
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ifsl")
        return err.splitlines()[-1]

    assert main(["episodes", "--features", "x"]) == 2  # --kb missing
    assert last_error() == "ifsl episodes: error: the following arguments are required: --kb"
    assert main(["definitely-not-a-command"]) == 2
    assert last_error().startswith(
        "ifsl: error: argument command: invalid choice: 'definitely-not-a-command'"
    )
    # episodes has no hardness bins to write; --bins-csv belongs to hardness
    bins = tmp_path / "bins.csv"
    assert _episodes(data_dir, tmp_path / "r.json", ["--bins-csv", str(bins)]) == 2
    assert last_error() == f"ifsl: error: unrecognized arguments: --bins-csv {bins}"
    assert not bins.exists()
    # synth takes no thread count; the flag is refused before any data is generated
    def no_data(*args, **kwargs):
        raise AssertionError("dataset generated")

    monkeypatch.setattr("ifsl.cli.gen_confounded", no_data)
    outdir = tmp_path / "gen"
    assert main(["synth", "--out-dir", str(outdir), *SYNTH_ARGS, "--threads", "1"]) == 2
    assert last_error() == "ifsl: error: unrecognized arguments: --threads 1"
    assert not outdir.exists()


# --- scm queries -------------------------------------------------------------------


def test_scm_dsep_verdicts(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["scm", "dsep", "--x", "X", "--y", "Y", "--out", str(out)]) == 0
    assert "NOT d-separated" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["result"] is False
    assert doc["query"] == {"graph": "fsl", "check": "dsep", "x": ["X"], "y": ["Y"], "z": []}

    assert main(["scm", "dsep", "--x", "D", "--y", "Y", "--z", "X,C", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"] is True
    assert "are d-separated" in capsys.readouterr().out


def test_scm_iv_verdicts(tmp_path, capsys):
    out = tmp_path / "q.json"
    args = ["--instrument", "I", "--treatment", "X", "--outcome", "Y", "--out", str(out)]
    assert main(["scm", "iv", "--graph", "msl-sampling", *args]) == 0
    assert json.loads(out.read_text())["result"] is True
    assert "is an instrument" in capsys.readouterr().out

    assert main(["scm", "iv", "--graph", "fsl-sampling", *args]) == 0
    assert json.loads(out.read_text())["result"] is False
    assert "is NOT an instrument" in capsys.readouterr().out


def test_scm_rule_verdicts(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["scm", "rule", "--rule", "2", "--y", "Y", "--z", "X", "--w", "D",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"] is True
    assert "condition holds" in capsys.readouterr().out

    assert main(["scm", "rule", "--rule", "1", "--y", "Y", "--z", "X", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"] is False
    assert "does NOT hold" in capsys.readouterr().out


def test_scm_backdoor_verdicts(tmp_path, capsys):
    out = tmp_path / "q.json"
    common = ["--treatment", "X", "--outcome", "Y", "--out", str(out)]
    assert main(["scm", "backdoor", "--z", "D", *common]) == 0
    assert json.loads(out.read_text())["result"] is True
    assert "is backdoor-admissible" in capsys.readouterr().out

    assert main(["scm", "backdoor", *common]) == 0
    assert json.loads(out.read_text())["result"] is False
    assert capsys.readouterr().out == "[] is NOT backdoor-admissible for X -> Y\n"


def test_scm_graph_file_override(tmp_path, capsys):
    gpath = tmp_path / "chain.json"
    gpath.write_text(json.dumps({"nodes": ["A", "B", "C"], "edges": [["A", "B"], ["B", "C"]]}))
    out = tmp_path / "q.json"
    assert main(["scm", "dsep", "--graph-file", str(gpath), "--x", "A", "--y", "C",
                 "--z", "B", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"] is True
    assert doc["query"]["graph"] == str(gpath)
    capsys.readouterr()


# --- synth -------------------------------------------------------------------------


SYNTH_ARGS = [
    "--dim", "16", "--pretrain-classes", "3", "--novel-classes", "4",
    "--conf-strata", "2", "--samples-per-class", "40", "--episodes", "6",
    "--way", "3", "--shot", "1", "--query", "5", "--iterations", "5",
    "--strata", "4", "--bins", "3", "--seed", "3",
]


def test_synth_writes_artifacts_and_report(tmp_path, capsys):
    outdir = tmp_path / "gen"
    report = tmp_path / "synth-report.json"
    code = main(["synth", "--out-dir", str(outdir), "--out", str(report), *SYNTH_ARGS])
    assert code == 0
    pretrain = load_features(outdir / "pretrain.features")
    novel = load_features(outdir / "novel.features")
    kb = load_kb(outdir / "kb.bin")
    assert pretrain.n_classes == 3 and pretrain.dim == 16
    assert novel.n_classes == 4 and novel.n_samples == 4 * 40
    assert kb.m == 3 and kb.dim == 16

    sidecar = json.loads((outdir / "synth.json").read_text())
    assert sidecar["config"]["strata"] == 2
    assert np.asarray(sidecar["class_dirs"]).shape == (7, 16)
    assert sidecar["novel_strata"] == (list(np.arange(40) % 2) * 4)

    doc = json.loads(report.read_text())
    assert set(doc) == {"adjusted", "baseline", "config", "gap", "gap_ci95", "meta"}
    for arm in ("baseline", "adjusted"):
        assert "meta" not in doc[arm]
        assert len(doc[arm]["hardness_bins"]) == 3
        assert doc[arm]["episodes"] == 6
    assert doc["baseline"]["config"]["adjust"] == "none"
    assert doc["adjusted"]["config"]["adjust"] == "combined"
    base, adj = doc["baseline"], doc["adjusted"]
    assert capsys.readouterr() == (
        f"baseline={base['mean_acc']:.2f}±{base['ci95']:.2f} "
        f"adjusted={adj['mean_acc']:.2f}±{adj['ci95']:.2f} "
        f"gap={doc['gap']:.2f}±{doc['gap_ci95']:.2f}\n", "")


@pytest.mark.parametrize("flags", [
    ["--episodes", "0"],
    ["--bins", "-1"],
    ["--batch-size", "0"],
    ["--way", "17", "--novel-classes", "16"],
    ["--strata", "3"],
    ["--adjust", "feature", "--strata", "5"],
    ["--weight-decay", "-1"],
    ["--threshold", "-1"],
    ["--mismatch", "1.5"],
    ["--bins", "100"],  # SYNTH_ARGS give 6 * 3 * 5 = 90 queries
    ["--beta", "nan"],
    ["--sigma", "inf"],
])
def test_synth_bad_flag_is_refused_before_any_data(tmp_path, capsys, monkeypatch, flags):
    def no_data(*args, **kwargs):
        raise AssertionError("dataset generated")

    monkeypatch.setattr("ifsl.cli.gen_confounded", no_data)
    outdir, report = tmp_path / "gen", tmp_path / "r.json"
    code = main(["synth", "--out-dir", str(outdir), "--out", str(report), *SYNTH_ARGS, *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists() and not report.exists()


def test_synth_short_cell_writes_no_files(tmp_path, capsys, monkeypatch):
    # 40 samples over 4 strata leave 10 per cell, fewer than a 1-shot
    # 15-query episode can need; every episode's cells are checked before the
    # knowledge base is fitted, so a short cell is refused before any file is
    # written, in the first episode or in a later one (at mismatch 0.5 and
    # 12 queries, episode 0 fits its cells)
    def no_fit(pretrain):
        raise AssertionError("the knowledge base was fitted")

    monkeypatch.setattr(ifsl.synth, "fit_kb", no_fit)
    outdir, report = tmp_path / "gen", tmp_path / "r.json"
    for flags, message in (
        (["--mismatch", "0", "--episodes", "5"],
         "class 4 stratum 3 holds 10 samples, episode needs 16"),
        (["--mismatch", "0.5", "--episodes", "50", "--query", "12"],
         "class 0 stratum 2 holds 10 samples, episode needs 11"),
    ):
        code = main(
            ["synth", "--out-dir", str(outdir), "--out", str(report), "--samples-per-class",
             "40", "--conf-strata", "4", "--bins", "0", *flags]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()
        assert not report.exists()


def test_synth_value_beyond_f32_writes_no_files(tmp_path, capsys):
    # beta 1e40 gives features and a knowledge base beyond f32, which the
    # loaders would refuse; every file is encoded before --out-dir is made
    outdir, report = tmp_path / "gen", tmp_path / "r.json"
    code = main(
        ["synth", "--out-dir", str(outdir), "--out", str(report), "--beta", "1e40",
         "--samples-per-class", "80", "--mismatch", "1.0", "--episodes", "2", "--bins", "0"]
    )
    assert code == 2
    assert "must be finite once rounded to f32" in capsys.readouterr().err
    assert not outdir.exists()
    assert not report.exists()


def test_synth_rerun_identical_outside_meta(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["synth", "--out-dir", str(tmp_path / "g1"), "--out", str(a), *SYNTH_ARGS]) == 0
    assert main(["synth", "--out-dir", str(tmp_path / "g2"), "--out", str(b), *SYNTH_ARGS]) == 0
    out, err = capsys.readouterr()
    first, second = out.splitlines()  # one summary line per run, the same for both
    assert err == "" and first.startswith("baseline=") and first == second
    da, db = _doc_sans_meta(a), _doc_sans_meta(b)
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    # the generated binaries are byte-identical too
    for name in ("pretrain.features", "novel.features", "kb.bin", "synth.json"):
        assert (tmp_path / "g1" / name).read_bytes() == (tmp_path / "g2" / name).read_bytes()


def test_synth_kb_file_is_the_pretrain_knowledge_base(tmp_path, capsys):
    # kb.bin holds fit_kb of the generated pretrain set, byte for byte
    outdir, report = tmp_path / "gen", tmp_path / "r.json"
    assert main(["synth", "--out-dir", str(outdir), "--out", str(report), *SYNTH_ARGS]) == 0
    assert capsys.readouterr().err == ""
    cfg = SynthConfig(**json.loads((outdir / "synth.json").read_text())["config"])
    save_kb(fit_kb(gen_confounded(cfg).pretrain), tmp_path / "expected.kb")
    assert (outdir / "kb.bin").read_bytes() == (tmp_path / "expected.kb").read_bytes()


# --- meta --------------------------------------------------------------------------


def test_meta_command_trains_and_serializes(data_dir, tmp_path, capsys):
    report = tmp_path / "meta.json"
    blob = tmp_path / "init.meta"
    code = main(
        ["meta", "--features", str(data_dir / "novel.features"), "--out", str(report),
         "--out-init", str(blob), "--way", "3", "--shot", "1", "--query", "4",
         "--tasks", "30", "--eval-tasks", "20", "--inner-steps", "5", "--seed", "4"]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert capsys.readouterr() == (
        f"meta_acc={doc['mean_acc']:.2f} zero_acc={doc['zero_mean_acc']:.2f} "
        f"gap={doc['gap']:.2f}\n", "")
    assert doc["episodes"] == 20
    assert set(doc) >= {"mean_acc", "zero_mean_acc", "gap", "ci95", "zero_ci95"}
    assert doc["gap"] == pytest.approx(doc["mean_acc"] - doc["zero_mean_acc"], abs=1e-9)
    mi = load_meta(blob)
    assert mi.theta0[0].W.shape == (3, 16)
    assert mi.tasks == 30 and mi.inner_steps == 5


def test_meta_takes_the_strata_and_threshold_aliases(data_dir, tmp_path, capsys):
    # --n and --t name --strata and --threshold in meta as in the other commands
    def run(name, *flags):
        out, blob = tmp_path / f"{name}.json", tmp_path / f"{name}.meta"
        code = main(
            ["meta", "--features", str(data_dir / "novel.features"),
             "--kb", str(data_dir / "kb.bin"), "--adjust", "combined", "--out", str(out),
             "--out-init", str(blob), "--way", "3", "--shot", "1", "--query", "4",
             "--tasks", "9", "--eval-tasks", "5", "--inner-steps", "3", "--seed", "4", *flags]
        )
        assert code == 0
        stdout, err = capsys.readouterr()
        assert err == "" and stdout.startswith("meta_acc=")
        return _doc_sans_meta(out), blob.read_bytes()

    short = run("short", "--n", "4", "--t", "1e-3")
    assert short == run("long", "--strata", "4", "--threshold", "1e-3")
    assert short != run("default")  # 8 strata by default


def test_meta_requires_kb_for_class_adjustment(data_dir, tmp_path, capsys):
    code = main(
        ["meta", "--features", str(data_dir / "novel.features"),
         "--adjust", "class", "--tasks", "1", "--eval-tasks", "1"]
    )
    assert code == 2
    assert capsys.readouterr() == ("", "config error: --adjust class requires --kb\n")


def test_meta_without_eval_tasks_is_a_config_error(data_dir, tmp_path, monkeypatch, capsys):
    # no held-out task leaves no accuracy to average; the report must not
    # carry NaN, and the count is refused before any training or file
    def no_training(*args, **kwargs):
        raise AssertionError("meta-training started")

    monkeypatch.setattr("ifsl.cli.meta_train", no_training)
    out, blob = tmp_path / "meta.json", tmp_path / "init.meta"
    code = main(
        ["meta", "--features", str(data_dir / "novel.features"), "--out", str(out),
         "--out-init", str(blob), "--way", "3", "--query", "4", "--tasks", "2",
         "--eval-tasks", "0"]
    )
    assert code == 2
    assert capsys.readouterr() == ("", "config error: evaluation task count must be >= 1, got 0\n")
    assert not out.exists() and not blob.exists()


@pytest.mark.parametrize("flag", ["--inner-lr", "--outer-lr"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_meta_non_finite_rate_is_a_config_error(
    data_dir, tmp_path, capsys, monkeypatch, flag, value
):
    def no_training(*args, **kwargs):
        raise AssertionError("meta-training started")

    monkeypatch.setattr("ifsl.cli.meta_train", no_training)
    out = tmp_path / "meta.json"
    code = main(
        ["meta", "--features", str(data_dir / "novel.features"), "--out", str(out),
         "--way", "3", "--query", "4", "--tasks", "2", "--eval-tasks", "2", f"{flag}={value}"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{flag[2:].replace('-', '_')}={value}" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--inner-lr=1e-50"], ["--tasks", str(2**32)]])
def test_meta_init_the_file_cannot_hold_is_refused_before_training(
    data_dir, tmp_path, capsys, monkeypatch, flags
):
    def no_training(*args, **kwargs):
        raise AssertionError("meta-training started")

    monkeypatch.setattr("ifsl.cli.meta_train", no_training)
    out, blob = tmp_path / "meta.json", tmp_path / "init.meta"
    code = main(
        ["meta", "--features", str(data_dir / "novel.features"), "--out", str(out),
         "--out-init", str(blob), "--way", "3", "--query", "4", "--eval-tasks", "2", *flags]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() and not blob.exists()


@pytest.mark.parametrize("dim", [2**29, 2**30, 2**31, 2**32 - 1])
def test_huge_feature_dimension_exits_3(data_dir, tmp_path, capsys, dim):
    bad = tmp_path / "huge.features"
    bad.write_bytes(FEATURE_MAGIC + struct.pack("<IIQ", dim, 2, 3) + bytes(3 * 12))
    code = main(["episodes", "--features", str(bad), "--kb", str(data_dir / "kb.bin"),
                 *EPISODE_ARGS])
    assert code == 3
    assert f"dimension {dim} (header at byte 8)" in capsys.readouterr().err
