import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsdlab as package
from wsdlab import cli, evaluation
from wsdlab.cli import COMMANDS, EXPERIMENTS, RunConfig, build_parser, main, run
from wsdlab.criteria import Criterion, parse_grid_config
from test_acceptance import SMALL_GRID, _build_three_category_workspace

# The subprocesses run in other directories, so the package is put on their
# path by its absolute location.
SRC = str(Path(package.__file__).resolve().parent.parent)

PW_CONFIG = """
sources = banane, porte
counts = 30
signal_offsets = -1
noise = 0.2
vocabulary = 20
width = 6
category = noun
seed = 5
"""


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def wsdlab(*args, cwd):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "wsdlab", *args],
        cwd=cwd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "pw.cfg").write_text(PW_CONFIG, encoding="utf-8")
    generated = wsdlab("pseudoword", "--config", "pw.cfg", "-o", "gen", cwd=root)
    assert generated.returncode == 0, generated.stderr
    return root


def test_pseudoword_outputs(workspace):
    assert (workspace / "gen" / "corpus.tsv").is_file()
    assert (workspace / "gen" / "targets.tsv").read_text() == "bananeporte\tnoun\n"
    meta = json.loads((workspace / "gen" / "run.meta").read_text())
    assert meta["subcommand"] == "pseudoword"
    assert meta["occurrences"] == 60
    assert meta["pseudoword_seed"] == 5
    assert meta["inputs"] == {"pw.cfg": _sha256(workspace / "pw.cfg")}


def test_pseudoword_deterministic(workspace):
    again = wsdlab("pseudoword", "--config", "pw.cfg", "-o", "gen2", cwd=workspace)
    assert again.returncode == 0
    assert (workspace / "gen" / "corpus.tsv").read_bytes() == (
        workspace / "gen2" / "corpus.tsv"
    ).read_bytes()


def test_stats_output(workspace):
    result = wsdlab("stats", "--corpus", "gen/corpus.tsv", "--targets",
                    "gen/targets.tsv", "-o", "stats", cwd=workspace)
    assert result.returncode == 0
    lines = (workspace / "stats" / "stats.csv").read_text().splitlines()
    assert lines[0] == "word,category,frequency,senses,entropy,mfs"
    assert lines[1].startswith("bananeporte,noun,60,2,")
    assert lines[2].startswith("AVERAGE,noun,")


def test_evaluate_single_row(workspace):
    result = wsdlab(
        "evaluate", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
        "--criterion", "[1gr|lemma|ordered|all]@1", "--classifier", "dl",
        "--seed", "3", "-o", "eval", cwd=workspace,
    )
    assert result.returncode == 0
    lines = (workspace / "eval" / "evaluate.csv").read_text().splitlines()
    assert lines[0] == "word,category,criterion,size,classifier,precision,fold_precisions"
    assert len(lines) == 2
    assert lines[1].startswith("bananeporte,noun,[1gr|lemma|ordered|all]@1,1,dl,")


def test_grid_jobs_byte_identical(workspace):
    grid_cfg = workspace / "small.grid"
    grid_cfg.write_text(
        "orders = 1,2\ntags = lemma\npositionings = ordered,leftright\n"
        "filters = all,content\nsizes = 1,2\n"
    )
    common = ("--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
              "--grid", "small.grid", "--classifier", "nb", "--k", "5",
              "--seed", "42")
    one = wsdlab("grid", *common, "--jobs", "1", "-o", "g1", cwd=workspace)
    eight = wsdlab("grid", *common, "--jobs", "8", "-o", "g8", cwd=workspace)
    assert one.returncode == 0 and eight.returncode == 0
    for name in ("grid.csv", "context.csv", "context_curves.csv"):
        assert (workspace / "g1" / name).read_bytes() == (
            workspace / "g8" / name
        ).read_bytes()
    for run, workers in (("g1", 1), ("g8", evaluation.worker_count(8, 16))):
        meta = json.loads((workspace / run / "run.meta").read_text())
        assert (meta["jobs"], meta["workers"], meta["cells"]) == (int(run[1:]), workers, 16)


def test_run_meta_supports_exact_replay(workspace):
    meta = json.loads((workspace / "g1" / "run.meta").read_text())
    replay = wsdlab(
        meta["subcommand"],
        "--corpus", meta["corpus"], "--targets", meta["targets"],
        "--grid", meta["grid"], "--classifier", meta["classifier"],
        "--m", str(meta["m"]), "--prior-mode", meta["prior_mode"],
        "--k", str(meta["k"]), "--seed", str(meta["seed"]),
        "--content-mode", meta["content_mode"],
        "-o", "replay", cwd=workspace,
    )
    assert replay.returncode == 0, replay.stderr
    assert (workspace / "replay" / "grid.csv").read_bytes() == (
        workspace / "g1" / "grid.csv"
    ).read_bytes()
    # The recorded hashes check the replayed files, not just their paths.
    assert meta["inputs"].keys() == {meta["corpus"], meta["targets"], meta["grid"]}
    for path, digest in meta["inputs"].items():
        assert _sha256(workspace / path) == digest
    replayed = json.loads((workspace / "replay" / "run.meta").read_text())
    assert replayed["inputs"] == meta["inputs"]


def test_run_meta_replays_as_a_run_config(workspace, monkeypatch):
    """``run.meta`` gives the paths back as strings and the shifts as a list;
    ``run`` converts them, so its configuration replays as a ``RunConfig``."""
    (workspace / "replay.grid").write_text("orders = 1,2\ntags = lemma\nsizes = 1-2\n")
    monkeypatch.chdir(workspace)
    assert main(["grid", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                 "--grid", "replay.grid", "--k", "5", "--seed", "4", "-o", "replay-first"]) == 0
    first, second = workspace / "replay-first", workspace / "replay-second"
    meta = json.loads((first / "run.meta").read_text())
    config = RunConfig(**{field.name: meta[field.name] for field in dataclasses.fields(RunConfig)})
    config.output = "replay-second"
    assert run(config) == 0
    assert sorted(path.name for path in second.iterdir()) == sorted(
        path.name for path in first.iterdir())
    for path in first.glob("*.csv"):
        assert (second / path.name).read_bytes() == path.read_bytes(), path.name
    replayed = json.loads((second / "run.meta").read_text())
    assert replayed["output"] == "replay-second"
    assert {**replayed, "output": None} == {**meta, "output": None}


def test_run_meta_holds_exactly_the_configuration(workspace):
    (workspace / "meta.grid").write_text(
        "orders = 1\ntags = lemma\npositionings = ordered\nfilters = all\nsizes = 1,2\n")
    result = wsdlab("grid", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                    "--grid", "meta.grid", "--classifier", "dl", "--m", "0.5",
                    "--prior-mode", "senses", "--k", "5", "--seed", "3", "--jobs", "2",
                    "--content-mode", "keep_gaps", "-o", "meta", cwd=workspace)
    assert result.returncode == 0, result.stderr
    evidence = wsdlab("evidence", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                      "--criterion", "[1gr|lemma|ordered|content]@1", "--m", "0.5", "--k", "5",
                      "--seed", "3", "--jobs", "2", "--content-mode", "keep_gaps",
                      "-o", "meta-evidence", cwd=workspace)
    assert evidence.returncode == 0, evidence.stderr
    adjacency = wsdlab("adjacency", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                       "--classifier", "dl", "--m", "0.5", "--prior-mode", "senses", "--k", "5",
                       "--seed", "3", "--jobs", "2", "-o", "meta-adjacency", cwd=workspace)
    assert adjacency.returncode == 0, adjacency.stderr
    inputs = {name: _sha256(workspace / name) for name in ("gen/corpus.tsv", "gen/targets.tsv")}
    defaults = {
        "tool": "wsdlab", "version": package.__version__, "corpus": None, "targets": None,
        "criterion": None, "grid": None, "classifier": "nb", "m": 1.0,
        "prior_mode": "feature-values", "k": 10, "seed": 0, "jobs": 1, "shifts": [0, 1],
        "content_mode": "reindex", "config": None,
    }
    expected = {
        "gen": {  # pseudoword without --seed: the seed comes from the config file
            **defaults, "subcommand": "pseudoword", "seed": None, "config": "pw.cfg",
            "output": "gen", "inputs": {"pw.cfg": _sha256(workspace / "pw.cfg")},
            "pseudoword_seed": 5, "occurrences": 60,
        },
        "meta": {
            **defaults, "subcommand": "grid", "corpus": "gen/corpus.tsv",
            "targets": "gen/targets.tsv", "grid": "meta.grid", "classifier": "dl", "m": 0.5,
            "prior_mode": "senses", "k": 5, "seed": 3, "jobs": 2, "content_mode": "keep_gaps",
            "output": "meta",
            "inputs": {name: _sha256(workspace / name)
                       for name in ("gen/corpus.tsv", "gen/targets.tsv", "meta.grid")},
            "skipped": [], "workers": evaluation.worker_count(2, 2), "cells": 2,
        },
        "meta-evidence": {  # the decision list, fixed in its configuration
            **defaults, "subcommand": "evidence", "corpus": "gen/corpus.tsv",
            "targets": "gen/targets.tsv", "criterion": "[1gr|lemma|ordered|content]@1",
            "classifier": "dl", "m": 0.5, "k": 5, "seed": 3, "jobs": 2,
            "content_mode": "keep_gaps", "output": "meta-evidence", "inputs": inputs,
            "skipped": [], "workers": 1, "cells": 1,
        },
        "meta-adjacency": {
            **defaults, "subcommand": "adjacency", "corpus": "gen/corpus.tsv",
            "targets": "gen/targets.tsv", "classifier": "dl", "m": 0.5, "prior_mode": "senses",
            "k": 5, "seed": 3, "jobs": 2, "output": "meta-adjacency", "inputs": inputs,
            "skipped": [], "workers": evaluation.worker_count(2, 2), "cells": 2,
        },
    }
    for run, meta in expected.items():
        assert (workspace / run / "run.meta").read_text() == (
            json.dumps(meta, indent=2, sort_keys=True) + "\n")
    usage = wsdlab("grid", "--help", cwd=workspace).stdout
    for mode in ("feature-values", "senses", "reindex", "keep_gaps"):
        assert mode in usage


def test_every_bad_option_value_is_listed_without_usage(workspace, capsys):
    status = main(["grid", "--corpus", str(workspace / "gen" / "corpus.tsv"),
                   "--targets", str(workspace / "gen" / "targets.tsv"),
                   "--k", "x", "--m", "abc", "--prior-mode", "bogus", "--content-mode", "bogus",
                   "--classifier", "svm", "-o", str(workspace / "nothing10")])
    assert status == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: m must be a number, not 'abc'",
        "error: k must be an integer, not 'x'",
        "error: prior_mode must be one of ('feature-values', 'senses')",
        "error: unknown classifier 'svm': valid ids are nb, dl",
        "error: content mode must be one of ('reindex', 'keep_gaps')",
    ]
    assert not (workspace / "nothing10").exists()


def test_missing_corpus_exits_2_without_outputs(workspace):
    result = wsdlab(
        "evaluate", "--corpus", "missing.tsv", "--targets", "gen/targets.tsv",
        "--criterion", "[1gr|lemma|ordered|all]@1", "-o", "nothing", cwd=workspace,
    )
    assert result.returncode == 2
    assert "corpus file not found" in result.stderr
    assert not (workspace / "nothing").exists()


def test_corpus_parse_error_exits_3(workspace):
    bad = workspace / "bad.tsv"
    bad.write_text("#doc d\nok\tok\tA\tB\t\nbroken line\n", encoding="utf-8")
    result = wsdlab(
        "stats", "--corpus", "bad.tsv", "--targets", "gen/targets.tsv",
        "-o", "nothing3", cwd=workspace,
    )
    assert result.returncode == 3
    assert "line 3" in result.stderr
    assert not (workspace / "nothing3").exists()


@pytest.mark.parametrize("name, content, expected", [
    ("dup.tsv", "#doc a\nx\tx\tA\tB\t\n#doc a\ny\ty\tA\tB\t\n".encode(),
     "dup.tsv: line 3: duplicate document id 'a'"),
    ("dup0.tsv", "x\tx\tA\tB\t\n#doc doc0\ny\ty\tA\tB\t\n".encode(),
     "dup0.tsv: line 2: duplicate document id 'doc0'"),
    ("latin1.tsv", "#doc d\nd\u00e9j\u00e0\tx\tA\tB\t\n".encode("latin-1"),
     "latin1.tsv: 'utf-8' codec can't decode"),
])
def test_bad_corpus_exits_3_with_its_path(workspace, name, content, expected):
    (workspace / name).write_bytes(content)
    result = wsdlab(
        "stats", "--corpus", name, "--targets", "gen/targets.tsv",
        "-o", "nothing-" + name, cwd=workspace,
    )
    assert result.returncode == 3
    assert f"error: corpus {expected}" in result.stderr
    assert not (workspace / ("nothing-" + name)).exists()


BOM = "\ufeff".encode()


def test_bom_prefixed_corpus_and_targets_give_the_same_reports(workspace):
    for name in ("corpus.tsv", "targets.tsv"):
        (workspace / f"bom-{name}").write_bytes(BOM + (workspace / "gen" / name).read_bytes())
    for command, report, extra in (
        ("stats", "stats.csv", ()),
        ("evaluate", "evaluate.csv", ("--criterion", "[1gr|lemma|ordered|all]@1")),
    ):
        for name, prefix in (("plain", "gen/"), ("bom", "bom-")):
            result = wsdlab(command, "--corpus", f"{prefix}corpus.tsv",
                            "--targets", f"{prefix}targets.tsv", *extra,
                            "-o", f"{command}-{name}", cwd=workspace)
            assert result.returncode == 0, result.stderr
        assert (workspace / f"{command}-plain" / report).read_bytes() == (
            workspace / f"{command}-bom" / report
        ).read_bytes()


def test_crlf_and_cr_line_ends_give_the_same_reports(workspace, monkeypatch):
    monkeypatch.chdir(workspace)
    for tag, end in (("crlf", b"\r\n"), ("cr", b"\r")):
        for name in ("corpus.tsv", "targets.tsv"):
            text = (workspace / "gen" / name).read_bytes()
            (workspace / f"{tag}-{name}").write_bytes(text.replace(b"\n", end))
    for command, report, extra in (
        ("stats", "stats.csv", ()),
        ("evaluate", "evaluate.csv", ("--criterion", "[1gr|lemma|ordered|all]@1")),
    ):
        for name, prefix in (("lf", "gen/"), ("crlf", "crlf-"), ("cr", "cr-")):
            assert main([command, "--corpus", f"{prefix}corpus.tsv",
                         "--targets", f"{prefix}targets.tsv", *extra,
                         "-o", f"{command}-ends-{name}"]) == 0
        reports = {(workspace / f"{command}-ends-{name}" / report).read_bytes()
                   for name in ("lf", "crlf", "cr")}
        assert len(reports) == 1


def test_bom_prefixed_configs_parse(workspace):
    (workspace / "bom.grid").write_bytes(BOM + b"orders = 1\nsizes = 1-2\n")
    result = wsdlab("grid", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                    "--grid", "bom.grid", "--k", "5", "-o", "grid-bom", cwd=workspace)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads((workspace / "grid-bom" / "run.meta").read_text())["cells"] == 48
    (workspace / "bom-pw.cfg").write_bytes(BOM + PW_CONFIG.encode())
    result = wsdlab("pseudoword", "--config", "bom-pw.cfg", "-o", "gen-bom", cwd=workspace)
    assert result.returncode == 0, result.stderr
    assert (workspace / "gen-bom" / "corpus.tsv").read_bytes() == (
        workspace / "gen" / "corpus.tsv"
    ).read_bytes()


def test_empty_targets_exits_4(workspace):
    empty = workspace / "empty.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    (workspace / "unparsable.tsv").write_text("one column only\n")  # exit 3 if parsed
    for corpus in ("gen/corpus.tsv", "unparsable.tsv"):
        result = wsdlab(
            "stats", "--corpus", corpus, "--targets", "empty.tsv",
            "-o", "nothing4", cwd=workspace,
        )
        assert result.returncode == 4
        assert result.stderr == "error: the targets file lists no targets\n"
        assert not (workspace / "nothing4").exists()


def test_all_words_skipped_exits_4(workspace):
    rare = workspace / "rare.tsv"
    rare.write_text("bananeporte\tnoun\n", encoding="utf-8")
    result = wsdlab(
        "evaluate", "--corpus", "gen/corpus.tsv", "--targets", "rare.tsv",
        "--criterion", "[1gr|lemma|ordered|all]@1", "--k", "500",
        "-o", "nothing5", cwd=workspace,
    )
    assert result.returncode == 4
    assert "warning: skipping" in result.stderr


def test_killed_worker_exits_5_without_reports(workspace, monkeypatch):
    if evaluation.worker_count(2, 2) < 2:
        pytest.skip("needs two CPUs for a worker pool")
    (workspace / "killed.grid").write_text("orders = 1\ntags = lemma\nsizes = 1,2\n")
    parent = os.getpid()

    def killed(*args, **kwargs):
        if os.getpid() != parent:  # only ever in a forked worker
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("cross_validate ran in the parent")

    monkeypatch.setattr(evaluation, "cross_validate", killed)
    monkeypatch.chdir(workspace)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = main(["grid", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                       "--grid", "killed.grid", "--k", "5", "--jobs", "2", "-o", "killed"])
    assert status == 5
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: a worker process died")
    assert lines[0].endswith("; no reports written")
    assert not (workspace / "killed").exists()


def test_interrupt_exits_130_without_reports(workspace, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluation, "cross_validate", interrupted)
    monkeypatch.chdir(workspace)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = main(["grid", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                       "--grid", "default", "--k", "5", "--jobs", "1", "-o", "interrupted"])
    assert status == 130
    assert stderr.getvalue().splitlines() == ["error: interrupted"]
    assert not (workspace / "interrupted").exists()


# The CLI with Python's own SIGINT handler, as a terminal starts it, even when
# the test itself runs with SIGINT ignored.
_INTERRUPTIBLE = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                  "from wsdlab.cli import main; sys.exit(main())")


def test_interrupt_at_jobs_2_exits_130_with_one_line(tmp_path):
    if evaluation.worker_count(2, 2) < 2:
        pytest.skip("needs two CPUs for a worker pool")
    # 8,000 occurrences. The eight-cell grid is one chunk, so one worker is
    # busy for a second or more while the other waits for work; the default
    # grid keeps both busy for minutes.  With 4,000 a fast machine ended the
    # eight-cell run at about 1.0 s, before the last interrupt below.
    (tmp_path / "pw.cfg").write_text(PW_CONFIG.replace("counts = 30", "counts = 4000"))
    (tmp_path / "eight.grid").write_text(
        "orders = 3\ntags = lemma\npositionings = unordered\nfilters = all\n"
        "sizes = 1,2,3,4,5,6,7,8\n"
    )
    assert wsdlab("pseudoword", "--config", "pw.cfg", "-o", "gen", cwd=tmp_path).returncode == 0
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    for grid, delay in (("eight.grid", 0.6), ("eight.grid", 1.0), ("default", 0.8),
                        ("default", 1.6)):
        output = tmp_path / f"interrupted-{grid}-{delay}"
        run = subprocess.Popen(
            [sys.executable, "-c", _INTERRUPTIBLE, "grid", "--corpus", "gen/corpus.tsv",
             "--targets", "gen/targets.tsv", "--grid", grid, "--k", "5",
             "--jobs", "2", "-o", str(output)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        time.sleep(delay)
        os.killpg(run.pid, signal.SIGINT)  # what Ctrl-C sends to the foreground group
        stdout, stderr = run.communicate(timeout=120)
        assert (run.returncode, stderr) == (130, "error: interrupted\n"), (grid, delay)
        assert not output.exists()


def test_bad_criterion_exits_2(workspace):
    result = wsdlab(
        "evaluate", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
        "--criterion", "[9zz|lemma|x|all]@1", "-o", "nothing6", cwd=workspace,
    )
    assert result.returncode == 2
    assert "9zz" in result.stderr


def test_bad_criterion_names_every_bad_field(workspace):
    result = wsdlab(
        "evaluate", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
        "--criterion", "[1gr|word|bogus|none]@1", "-o", "nothing7", cwd=workspace,
    )
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 3
    for line, field in zip(lines, ("tag 'word'", "positioning 'bogus'", "filter 'none'")):
        assert line.startswith(f"error: '[1gr|word|bogus|none]@1': unknown {field};")


def test_repeated_criterion_in_a_cell_exits_2(workspace):
    result = wsdlab(
        "evaluate", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
        "--criterion", "[1gr|lemma|ordered|all]@1+[1gr|lemma|ordered|all]@1",
        "-o", "nothing8", cwd=workspace,
    )
    assert result.returncode == 2
    assert "repeats [1gr|lemma|ordered|all]@1" in result.stderr
    assert not (workspace / "nothing8").exists()


@pytest.mark.parametrize("command", [
    ["stats"],
    ["evaluate", "--criterion", "[1gr|lemma|ordered|all]@1"],
    ["grid", "--grid", "default"],
    ["pseudoword", "--config", "pw.cfg"],
])
@pytest.mark.parametrize("output", ["afile", "afile/sub"])
def test_output_over_a_file_exits_2_before_reading_the_corpus(tmp_path, command, output):
    (tmp_path / "afile").write_text("keep\n")
    (tmp_path / "pw.cfg").write_text(PW_CONFIG)
    (tmp_path / "bad.tsv").write_text("one column only\n")  # exit 3 if parsed
    (tmp_path / "t.tsv").write_text("w\tnoun\n")
    inputs = [] if command[0] == "pseudoword" else ["--corpus", "bad.tsv", "--targets", "t.tsv"]
    result = wsdlab(*command, *inputs, "-o", output, cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr == (
        f"error: --output {output}: afile exists and is not a directory\n"
    )
    assert (tmp_path / "afile").read_text() == "keep\n"


def test_validate_config_lists_all_problems(tmp_path, capsys):
    config = RunConfig(
        subcommand="evaluate",
        output=tmp_path / "out",
        corpus=tmp_path / "missing.tsv",
        targets=tmp_path / "missing-targets.tsv",
        criterion="[1gr|lemma|ordered|all]@1",
        classifier="svm",
        k=1,
        m=-2.0,
    )
    assert run(config) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: corpus file not found: {tmp_path / 'missing.tsv'}",
        f"error: targets file not found: {tmp_path / 'missing-targets.tsv'}",
        "error: smoothing strength m must be >= 0",
        "error: unknown classifier 'svm': valid ids are nb, dl",
        "error: k must be >= 2",
    ]
    assert not (tmp_path / "out").exists()


def test_pseudoword_reports_every_bad_value_with_its_key(tmp_path):
    (tmp_path / "bad.cfg").write_text("sources = a, b\ncounts = x\nnoise = lots\n")
    result = wsdlab("pseudoword", "--config", "bad.cfg", "-o", "gen", cwd=tmp_path)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: config counts: ") and "'x'" in lines[0]
    assert lines[1].startswith("error: config noise: ") and "'lots'" in lines[1]
    assert not (tmp_path / "gen").exists()


def test_validate_config_accepts_good(workspace, capsys):
    config = RunConfig(
        subcommand="evaluate", output=workspace / "good",
        corpus=workspace / "gen" / "corpus.tsv", targets=workspace / "gen" / "targets.tsv",
        criterion="[1gr|lemma|ordered|all]@1", k=5,
    )
    assert run(config) == 0
    assert capsys.readouterr().err == ""
    assert (workspace / "good" / "evaluate.csv").is_file()


def test_evidence_rejects_non_unigram(workspace):
    result = wsdlab(
        "evidence", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
        "--criterion", "[2gr|lemma|leftright|all]@2", "-o", "nothing7", cwd=workspace,
    )
    assert result.returncode == 2
    assert "unigram" in result.stderr


def test_each_subcommand_takes_only_the_settings_it_reads():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: [option for action in parser._actions for option in action.option_strings
                      if option not in ("-h", "--help")]
               for name, parser in subparsers.choices.items()}
    inputs = ["--corpus", "--targets", "-o", "--output"]
    every = ["--classifier", "--m", "--prior-mode", "--k", "--seed", "--jobs", "--content-mode"]
    assert options == {
        "stats": inputs,
        "evaluate": inputs + every + ["--criterion"],
        "grid": inputs + every + ["--grid"],
        # The decision list reads neither a classifier id nor an NB prior mode.
        "evidence": inputs + ["--m", "--k", "--seed", "--jobs", "--content-mode", "--criterion"],
        "ablation": inputs + every + ["--grid"],
        "selection": inputs + every + ["--criterion"],
        "shift": inputs + every + ["--criterion", "--shifts"],
        # Both adjacency cells keep every token, so no content mode applies.
        "adjacency": inputs + ["--classifier", "--m", "--prior-mode", "--k", "--seed", "--jobs"],
        "pseudoword": ["--config", "--seed", "-o", "--output"],
    }


@pytest.mark.parametrize("argv", [
    ["evidence", "--classifier", "nb"],
    ["evidence", "--classifier", "dl"],
    ["evidence", "--prior-mode", "senses"],
    ["adjacency", "--content-mode", "keep_gaps"],
])
def test_a_setting_the_subcommand_does_not_read_is_an_unknown_option(workspace, capsys, argv):
    out = workspace / "unread"
    with pytest.raises(SystemExit) as raised:
        main([*argv, "--corpus", str(workspace / "gen" / "corpus.tsv"),
              "--targets", str(workspace / "gen" / "targets.tsv"), "-o", str(out)])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err
    assert not out.exists()


def test_an_evidence_config_runs_the_decision_list_only(workspace, capsys):
    inputs = {"corpus": workspace / "gen" / "corpus.tsv",
              "targets": workspace / "gen" / "targets.tsv",
              "criterion": "[1gr|mform|ordered|all]@2"}
    bad = RunConfig("evidence", workspace / "evidence-nb", **inputs, k=1)
    assert run(bad) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: evidence runs the dl classifier only", "error: k must be >= 2"]
    assert not (workspace / "evidence-nb").exists()
    good = RunConfig("evidence", workspace / "evidence-dl", **inputs, classifier="dl", k=5)
    assert run(good) == 0
    meta = json.loads((workspace / "evidence-dl" / "run.meta").read_text())
    assert meta["classifier"] == "dl" and meta["cells"] == 1


# Each evaluation subcommand's options beyond the inputs in the walk below.
_CELL_OPTIONS = {
    "evaluate": {"criterion": "[1gr|lemma|ordered|all]@2+[2gr|lemma|leftright|all]@3"},
    "grid": {"grid": "small.grid"},
    "evidence": {"classifier": "dl"},
    "ablation": {"grid": "small.grid"},
    "shift": {"shifts": (0, 1, -1)},
}


def test_every_experiment_cross_validates_its_cells_for_each_word(three_categories,
                                                                  monkeypatch):
    """A cell is a tuple of criteria from an experiment's cell list to each
    word's results, in the same order."""
    results = []

    def recording(*args, **kwargs):
        results.append(evaluation.grid_search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "grid_search", recording)
    grid = parse_grid_config(SMALL_GRID)
    words = len((three_categories / "targets.tsv").read_text().splitlines())
    for command, experiment in EXPERIMENTS.items():
        options = {"criterion": experiment.criterion, **_CELL_OPTIONS.get(command, {})}
        if "grid" in options:
            options["grid"] = str(three_categories / options["grid"])
        config = RunConfig(command, three_categories / f"cells-{command}",
                           three_categories / "corpus.tsv", three_categories / "targets.tsv",
                           k=5, **options)
        cells = experiment.cells(config, grid)
        assert type(cells) is list and cells, command
        assert all(type(cell) is tuple and cell
                   and all(type(c) is Criterion for c in cell) for cell in cells), command
        assert run(config) == 0, command
        by_word = {}
        for result in results.pop().results:
            by_word.setdefault(result.lemma, []).append(result.cell)
        assert list(by_word.values()) == [cells] * words, command


def test_no_run_meta_key_names_a_setting(three_categories, tmp_path, monkeypatch):
    """``run.meta`` is the ``RunConfig``'s fields and then the keys a run
    adds; an added key that named a field would silently replace that
    setting.  Every subcommand's added keys are checked."""
    settings = {field.name for field in dataclasses.fields(RunConfig)}
    added = {}
    write_meta = cli._write_meta

    def recording(config, extra):
        added[config.subcommand] = {"tool", "version", *extra}
        write_meta(config, extra)

    monkeypatch.setattr(cli, "_write_meta", recording)
    (tmp_path / "pw.cfg").write_text(PW_CONFIG, encoding="utf-8")
    inputs = {"corpus": three_categories / "corpus.tsv",
              "targets": three_categories / "targets.tsv"}
    for command in COMMANDS:
        out = tmp_path / command
        if command == "pseudoword":
            config = RunConfig(command, out, config=tmp_path / "pw.cfg", seed=None)
        else:
            options = dict(_CELL_OPTIONS.get(command, {}))
            if "grid" in options:
                options["grid"] = str(three_categories / options["grid"])
            config = RunConfig(command, out, **inputs, k=5, **options)
        assert run(config) == 0, command
        assert not added[command] & settings, command
        meta = json.loads((out / "run.meta").read_text(encoding="utf-8"))
        assert set(meta) == settings | added[command], command
    assert set(added) == set(COMMANDS)
    assert set().union(*added.values()) == {
        "tool", "version", "inputs", "skipped", "workers", "cells", "pseudoword_seed",
        "occurrences"}


@pytest.mark.parametrize("command", ["evidence", "selection", "shift"])
def test_a_config_without_a_criterion_runs_the_cli_default(workspace, command):
    """The default --criterion is the subcommand's, not argparse's: a
    RunConfig built without one runs it and writes the CLI's run.meta."""
    out = workspace / f"default-{command}"
    inputs = {"corpus": workspace / "gen" / "corpus.tsv",
              "targets": workspace / "gen" / "targets.tsv"}
    assert main([command, "--corpus", str(inputs["corpus"]), "--targets",
                 str(inputs["targets"]), "--k", "5", "-o", str(out)]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert json.loads(written["run.meta"])["criterion"] == EXPERIMENTS[command].criterion
    for path in out.iterdir():
        path.unlink()
    config = RunConfig(command, out, **inputs, k=5,
                       classifier=EXPERIMENTS[command].classifier or "nb")
    assert run(config) == 0
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written


def test_a_default_grid_run_records_no_grid(workspace):
    """The default grid has one record, a ``RunConfig`` grid of None: ``grid``
    without --grid, ``grid --grid default`` and a ``RunConfig`` built without
    a grid write the same run.meta, apart from the output directory."""
    inputs = {"corpus": workspace / "gen" / "corpus.tsv",
              "targets": workspace / "gen" / "targets.tsv"}
    outputs = (workspace / "default-grid-cli", workspace / "default-grid-named",
               workspace / "default-grid-config")
    command = ["grid", "--corpus", str(inputs["corpus"]), "--targets", str(inputs["targets"]),
               "--k", "5"]
    assert main([*command, "-o", str(outputs[0])]) == 0
    assert main([*command, "--grid", "default", "-o", str(outputs[1])]) == 0
    assert run(RunConfig("grid", outputs[2], **inputs, k=5)) == 0
    metas = [json.loads((out / "run.meta").read_text()) for out in outputs]
    assert metas[0]["grid"] is None
    assert all({**meta, "output": None} == {**metas[0], "output": None} for meta in metas)


def test_evaluate_still_needs_a_criterion(workspace, capsys):
    out = workspace / "no-criterion"
    config = RunConfig("evaluate", out, workspace / "gen" / "corpus.tsv",
                       workspace / "gen" / "targets.tsv")
    assert run(config) == 2
    assert capsys.readouterr().err == "error: a criterion is required (--criterion)\n"
    assert not out.exists()


def test_an_evaluation_without_a_fold_seed_writes_nothing(workspace, capsys):
    """Only pseudoword takes its seed from elsewhere, its config file; folds
    drawn from no seed would differ from run to run."""
    out = workspace / "no-seed"
    config = RunConfig("evaluate", out, workspace / "gen" / "corpus.tsv",
                       workspace / "gen" / "targets.tsv", "[1gr|lemma|ordered|all]@1",
                       k=5, seed=None)
    assert run(config) == 2
    assert capsys.readouterr().err == "error: seed must be an integer, not None\n"
    assert not out.exists()


def test_a_k_that_is_not_an_integer_is_listed_with_the_other_problems(workspace, capsys):
    out = workspace / "text-k"
    config = RunConfig("evaluate", out, workspace / "gen" / "corpus.tsv",
                       workspace / "gen" / "targets.tsv", "[1gr|lemma|ordered|all]@1",
                       classifier="svm", k="5")
    assert run(config) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: k must be an integer, not '5'",
        "error: unknown classifier 'svm': valid ids are nb, dl",
    ]
    assert not out.exists()


def _typed_config(command, tmp_path, field, value):
    """A configuration that runs, on the workspace corpus (its paths relative
    to the workspace), with ``value`` in ``field``."""
    config = RunConfig(command, tmp_path / "out", config=Path("pw.cfg"))
    if command != "pseudoword":
        config = RunConfig(command, tmp_path / "out", Path("gen/corpus.tsv"),
                           Path("gen/targets.tsv"), k=5, classifier="dl")
        config.criterion = "[1gr|lemma|ordered|all]@1" if command == "evaluate" else None
    setattr(config, field, value)
    return config


@pytest.mark.parametrize("command, field, value, recorded", [
    ("evaluate", "corpus", "gen/corpus.tsv", "gen/corpus.tsv"),
    ("pseudoword", "config", "pw.cfg", "pw.cfg"),
    ("evaluate", "output", "typed-output", "typed-output"),
    ("shift", "shifts", [0, 1], [0, 1]),
    ("evaluate", "m", 1, 1.0),
])
def test_run_converts_the_values_run_meta_gives_back(workspace, tmp_path, monkeypatch, capsys,
                                                     command, field, value, recorded):
    """A path may be a ``str``, a number an int and a tuple a list: each is
    recorded as the command line's value would be."""
    monkeypatch.chdir(workspace)
    config = _typed_config(command, tmp_path, field, value)
    assert run(config) == 0
    assert capsys.readouterr().err == ""
    meta = json.loads((Path(config.output) / "run.meta").read_text())
    assert json.dumps(meta[field]) == json.dumps(recorded)


@pytest.mark.parametrize("command, field, value, problem", [
    ("evaluate", "jobs", "2", "jobs must be an integer, not '2'"),
    ("evaluate", "m", "1", "m must be a number, not '1'"),
    ("evaluate", "k", 5.0, "k must be an integer, not 5.0"),
    ("evaluate", "k", True, "k must be an integer, not True"),
    ("evaluate", "seed", "0", "seed must be an integer, not '0'"),
    ("shift", "shifts", "0,1", "shifts must be comma-separated integers, not '0,1'"),
    ("shift", "shifts", [0, True], "shifts must be comma-separated integers, not [0, True]"),
    ("evaluate", "content_mode", None, "content_mode must be text, not None"),
    # A field whose default would be a problem of its own: nothing reads it.
    ("evaluate", "criterion", 5, "criterion must be text, not 5"),
    ("evaluate", "corpus", 5, "corpus must be a path, not 5"),
    ("evaluate", "targets", b"t.tsv", "targets must be a path, not b't.tsv'"),
    ("evidence", "classifier", 5, "classifier must be text, not 5"),
    ("pseudoword", "config", 5, "config must be a path, not 5"),
    ("evaluate", "output", None, "output must be a path, not None"),
    ("evaluate", "subcommand", ["grid"], "subcommand must be text, not ['grid']"),
])
def test_a_field_of_another_type_is_one_problem(workspace, tmp_path, monkeypatch, capsys,
                                                command, field, value, problem):
    monkeypatch.chdir(workspace)
    assert run(_typed_config(command, tmp_path, field, value)) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "out").exists()


def test_shifts_read_the_config_files_list_syntax(workspace, monkeypatch, capsys):
    """Items are stripped, ascending ranges allowed, and an empty item is a
    problem, as in a grid config's ``orders``."""
    monkeypatch.chdir(workspace)
    argv = ["shift", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv", "--k", "5"]
    assert main([*argv, "--shifts", "0,1", "-o", "shifts-list"]) == 0
    assert main([*argv, "--shifts", " 0-1 ", "-o", "shifts-range"]) == 0
    assert (workspace / "shifts-range" / "shift.csv").read_bytes() == (
        workspace / "shifts-list" / "shift.csv").read_bytes()
    capsys.readouterr()
    assert main([*argv, "--shifts", "0,,1", "-o", "shifts-empty"]) == 2
    assert capsys.readouterr().err == (
        "error: shifts must be comma-separated integers, not '0,,1'\n")
    assert not (workspace / "shifts-empty").exists()


def test_pseudoword_values_are_single_columns(tmp_path, monkeypatch, capsys):
    """A value that is empty, or holds a tab or a line break, would break the
    corpus or targets line it is written to: each is listed with the other
    problems, and nothing is written."""
    (tmp_path / "tabs.cfg").write_text(
        "sources = a\tz, b\ncounts = 10\ntarget = w\tx\ntarget_pos =\n"
        "signal_pos = NCOM\tX\nfiller_pos = DET, A\tB\nnoise = 2\n")
    monkeypatch.chdir(tmp_path)
    assert main(["pseudoword", "--config", "tabs.cfg", "--seed", "y", "-o", "gen"]) == 2
    rule = "must be non-empty, with no tab or line break"
    assert capsys.readouterr().err.splitlines() == [
        "error: seed must be an integer, not 'y'",
        "error: noise must be in [0, 1]",
        f"error: sources value 'a\\tz' {rule}",
        f"error: target value 'w\\tx' {rule}",
        f"error: target_pos value '' {rule}",
        f"error: signal_pos value 'NCOM\\tX' {rule}",
        f"error: filler_pos value 'A\\tB' {rule}",
    ]
    assert not (tmp_path / "gen").exists()
    # Line breaks can only come through the API: the config reader splits lines.
    with pytest.raises(ValueError) as raised:
        package.PseudowordConfig(sources=("a", "b\u2028c"), counts=(5, 5),
                                 signal_values=("x\r", ""))
    assert str(raised.value).splitlines() == [
        f"sources value 'b\\u2028c' {rule}",
        f"signal_values value 'x\\r' {rule}", f"signal_values value '' {rule}"]
    # An empty target is unset: the pseudo-target joins the sources.
    assert package.PseudowordConfig(("a", "b"), (5, 5), target="").target_lemma == "ab"


@pytest.mark.parametrize("config, expected", [
    ("sources = a, b\ntarget = #doc x\nsignal_values = #doc q, r\n", [
        "target lemma '#doc x' must not start with '#', which opens a comment in the "
        "targets file",
        "target lemma '#doc x' must not start with '#doc ', which opens a document in the "
        "corpus file",
        "signal_values value '#doc q' must not start with '#doc ', which opens a document "
        "in the corpus file",
    ]),
    ("sources = #a, b\n", [
        "target lemma '#ab' must not start with '#', which opens a comment in the "
        "targets file",
    ]),
])
def test_pseudoword_values_the_generated_files_would_misread(tmp_path, monkeypatch, capsys,
                                                             config, expected):
    """The targets file reads a line that starts with '#' as a comment, and
    the corpus file one that starts with '#doc ' as a document header."""
    (tmp_path / "pw.cfg").write_text(config)
    monkeypatch.chdir(tmp_path)
    assert main(["pseudoword", "--config", "pw.cfg", "-o", "gen"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in expected]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("config, expected", [
    # The default offset, -1, stands in for the one that does not convert, so
    # pair mode's offset problem would be about it, not about the value given.
    ("sources = a, b\nsignal_mode = pair\nsignal_offsets = -2, x\n",
     ["config signal_offsets: invalid literal for int() with base 10: 'x'"]),
    # The problems that read no such value are still listed.
    ("sources = a\nsignal_mode = pair\nsignal_offsets = -2, x\nnoise = 2\n", [
        "config signal_offsets: invalid literal for int() with base 10: 'x'",
        "a pseudo-word needs at least 2 source lemmas",
        "pair mode supports exactly 2 sources",
        "noise must be in [0, 1]",
    ]),
    # Nor are the offsets given judged against the default width.
    ("sources = a, b\nsignal_offsets = -12, 3\nwidth = w\n",
     ["config width: invalid literal for int() with base 10: 'w'"]),
])
def test_no_problem_reads_the_default_behind_a_value_that_does_not_convert(
        tmp_path, monkeypatch, capsys, config, expected):
    (tmp_path / "pw.cfg").write_text(config)
    monkeypatch.chdir(tmp_path)
    assert main(["pseudoword", "--config", "pw.cfg", "-o", "gen"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in expected]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("command, name, config, expected", [
    ("pseudoword", "pw.cfg", "sources = a,,b\n", ["config sources: empty item in 'a,,b'"]),
    ("pseudoword", "pw.cfg", "sources = a, b\ncounts = 10,,20\nfiller_pos = NCOM, DET,\n", [
        "config counts: empty item in '10,,20'",
        "config filler_pos: empty item in 'NCOM, DET,'",
    ]),
    # An empty value is still an empty set, with its own problem.
    ("grid", "bad.grid", "orders = 1,,2\nsizes = 1,2,\nfilters =\n", [
        "grid config orders: empty item in '1,,2'",
        "grid config sizes: empty item in '1,2,'",
        "grid parameter set 'filters' is empty",
    ]),
])
def test_an_empty_list_item_is_a_problem(workspace, tmp_path, monkeypatch, capsys,
                                         command, name, config, expected):
    (tmp_path / name).write_text(config)
    monkeypatch.chdir(tmp_path)
    argv = (["pseudoword", "--config", name] if command == "pseudoword" else
            ["grid", "--corpus", str(workspace / "gen" / "corpus.tsv"),
             "--targets", str(workspace / "gen" / "targets.tsv"), "--grid", name])
    assert main([*argv, "-o", "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in expected]
    assert not (tmp_path / "out").exists()


def test_validate_config_rejects_bad_evaluation_inputs(tmp_path, capsys):
    grid = tmp_path / "bad.grid"
    grid.write_text("tags = lemma, bogus\nsizes = 1, 0\norders = 1, 1\n")
    all_only = tmp_path / "all-only.grid"
    all_only.write_text("orders = 1\ntags = lemma\nfilters = all\nsizes = 1\n")
    targets = tmp_path / "t.tsv"
    targets.write_text("w\tnoun\n")
    cases = [
        (["selection", "--criterion", "[1gr|lemma|ordered|content]@1"], ["filter 'all'"]),
        (["shift", "--criterion", "[1gr|lemma|ordered|all]@1", "--shifts", "0,1,1"],
         ["repeats 1"]),
        (["shift", "--criterion", "[1gr|lemma|ordered|all]@2shift+1", "--shifts", "1,1",
          "--k", "1"],
         ["k must be >= 2", "the base criterion must have no shift",
          "the shift list must include 0 (the symmetric reference)", "repeats 1"]),
        (["evaluate", "--criterion", "[1gr|lemma|ordered|all]@1", "--m", "nan"],
         ["m must be finite"]),
        (["grid", "--grid", str(grid)],
         ["orders: repeated 1", "unknown tag 'bogus'", "context size must be >= 1"]),
        (["ablation", "--grid", str(grid), "--m", "-1"],
         ["m must be >= 0", "orders: repeated 1", "unknown tag 'bogus'",
          "context size must be >= 1"]),
        (["ablation", "--grid", str(all_only)], ["the grid lacks content"]),
        (["grid", "--m", "-1", "--prior-mode", "bogus"],
         ["m must be >= 0", "prior_mode must be one of ('feature-values', 'senses')"]),
    ]
    for argv, expected in cases:
        # The corpus is never read: every case fails the checks first.
        status = main([*argv, "--corpus", str(grid), "--targets", str(targets),
                       "-o", str(tmp_path / "out")])
        problems = capsys.readouterr().err.splitlines()
        assert status == 2, argv
        assert len(problems) == len(expected), (argv, problems)
        for problem, text in zip(problems, expected):
            assert problem.startswith("error: ") and text in problem, (argv, problems)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, output, expected", [
    (["--seed", "y"], "gen", ["error: seed must be an integer, not 'y'"]),
    ([], "afile/gen", ["error: --output afile/gen: afile exists and is not a directory"]),
], ids=["seed", "output"])
def test_pseudoword_config_problems_are_listed_with_the_others(tmp_path, monkeypatch, capsys,
                                                               args, output, expected):
    (tmp_path / "afile").write_text("keep\n")
    (tmp_path / "bad.cfg").write_text("sources = a\nbogus = 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["pseudoword", "--config", "bad.cfg", *args, "-o", output]) == 2
    assert capsys.readouterr().err.splitlines() == expected + [
        "error: unknown config keys: bogus",
        "error: a pseudo-word needs at least 2 source lemmas",
    ]
    assert not (tmp_path / "gen").exists() and (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.parametrize("command, read", [
    (["grid", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
      "--grid", "once.grid", "--k", "5"], ["corpus.tsv", "once.grid", "targets.tsv"]),
    (["pseudoword", "--config", "once.cfg"], ["once.cfg"]),
], ids=["grid", "pseudoword"])
def test_grid_config_is_read_once(workspace, monkeypatch, command, read):
    (workspace / "once.grid").write_text("orders = 1\ntags = lemma\nsizes = 1\n")
    (workspace / "once.cfg").write_text(PW_CONFIG)
    reads = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(self):
        reads.append(self.name)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.chdir(workspace)
    with contextlib.redirect_stderr(io.StringIO()):
        status = main([*command, "-o", f"once-{command[0]}"])
    assert status == 0
    assert sorted(reads) == read


@pytest.mark.parametrize("k", ["10", "1"])
def test_bad_targets_are_listed_with_the_other_problems_before_the_corpus(workspace, k):
    (workspace / "bad-targets.tsv").write_text("mot\tnoun\nmot\tnoum\n")
    (workspace / "bad-corpus.tsv").write_text("one column only\n")  # exit 3 if parsed
    result = wsdlab("evaluate", "--corpus", "bad-corpus.tsv", "--targets", "bad-targets.tsv",
                    "--criterion", "[1gr|lemma|ordered|all]@1", "--k", k,
                    "-o", "nothing9", cwd=workspace)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: targets bad-targets.tsv: targets line 2: unknown category 'noum'; "
        "expected one of ('noun', 'adjective', 'verb')",
    ] + ["error: k must be >= 2"] * (k == "1")
    assert not (workspace / "nothing9").exists()


def test_an_empty_target_lemma_is_listed_with_the_other_problems(workspace):
    (workspace / "empty-lemma.tsv").write_text("mot\tnoun\n\tnoun\n")
    result = wsdlab("grid", "--corpus", "gen/corpus.tsv", "--targets", "empty-lemma.tsv",
                    "--k", "1", "-o", "nothing-empty-lemma", cwd=workspace)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: targets empty-lemma.tsv: targets line 2: empty lemma",
        "error: k must be >= 2",
    ]
    assert not (workspace / "nothing-empty-lemma").exists()


def _pipe(data: bytes) -> int:
    """The read end of a pipe that holds ``data``, its write end closed."""
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    return read


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_an_inherited_pipe_is_an_input_read_once(workspace, monkeypatch, capsys):
    monkeypatch.chdir(workspace)
    targets = (workspace / "gen" / "targets.tsv").read_bytes()
    fd = _pipe(targets)
    try:
        piped = main(["stats", "--corpus", "gen/corpus.tsv", "--targets", f"/dev/fd/{fd}",
                      "-o", "stats-piped"])
    finally:
        os.close(fd)
    assert piped == 0
    assert main(["stats", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                 "-o", "stats-filed"]) == 0
    assert ((workspace / "stats-piped" / "stats.csv").read_bytes()
            == (workspace / "stats-filed" / "stats.csv").read_bytes())
    # The digest is of the bytes the run read: a second read of the pipe
    # would find it empty.
    meta = json.loads((workspace / "stats-piped" / "run.meta").read_text())
    assert meta["inputs"][f"/dev/fd/{fd}"] == hashlib.sha256(targets).hexdigest()
    capsys.readouterr()

    fd = _pipe(b"chef\tadverb\n\tnoun\nmot\tnoun\nmot\tnoun\n")
    try:
        status = main(["stats", "--corpus", "gen/corpus.tsv", "--targets", f"/dev/fd/{fd}",
                       "-o", "stats-piped-bad"])
    finally:
        os.close(fd)
    assert status == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: targets /dev/fd/{fd}: targets line 1: unknown category 'adverb'; "
        "expected one of ('noun', 'adjective', 'verb')",
        f"error: targets /dev/fd/{fd}: targets line 2: empty lemma",
        f"error: targets /dev/fd/{fd}: targets line 4: duplicate target 'mot'",
    ]
    assert not (workspace / "stats-piped-bad").exists()


def test_bad_grid_values_exit_2_before_work(workspace):
    (workspace / "bad.grid").write_text("tags = lemma, bogus\nsizes = 1, 0\n")
    result = wsdlab("grid", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
                    "--grid", "bad.grid", "-o", "nothing8", cwd=workspace)
    assert result.returncode == 2
    assert "bogus" in result.stderr and "context size must be >= 1" in result.stderr
    assert not (workspace / "nothing8").exists()


# Report sha256s of every evaluation subcommand, recorded before the
# subcommands were moved onto one grid_search call; the same at every --jobs.
GOLDEN = {
    ("cli", "evaluate"): {"evaluate.csv": "4b2fbf572eba6a39b2e0a588efe7b372a841f01011e3c7ecece8640d6d48e7e0"},
    ("cli", "grid"): {
        "context.csv": "8a0f6f80d53092d624cb833eea5c2bfd2378a24af089bad64743137f7119fa45",
        "context_curves.csv": "4acab87ddee9ebf89223cdc988e111d7b6a6e2462fe0ec9c43c9d986da2aad2e",
        "grid.csv": "ff47ba19e1013ae1160ac5dcedea1cbe20f0ceed592efecc6d13e4db25a5d38d",
    },
    ("cli", "evidence"): {
        "evidence_profile.csv": "31e513d692a5b73496ed4cc64e3752b060ee8a2d7923e74d3bf0f3369111e5ab",
        "evidence_space.csv": "d84026c40b31743224b9f9c7bf46593a2d034924e341c1e5d02d7675a53eb73b",
        "evidence_summary.csv": "cd39ca6e1a1fe1dc83345d0428de17e1c5f0bc3aa6288beca91baa34d581ab64",
    },
    ("cli", "evidence-unordered"): {
        "evidence_profile.csv": "8c2a9b88efa525d68be1fae88c0c32165526562a6fc797e78a54855b75223685",
        "evidence_space.csv": "895fdda30f67021afcf70710b188512fb213e1f2fc86dc09d0ed1259e65cd6fa",
        "evidence_summary.csv": "d1d9edb47d9646381c9e7f7e6ea116a87f5b090c0f65dea218fcfd0093e62cb9",
    },
    ("cli", "ablation"): {"ablation.csv": "4bdde24ee5ee4129dd9c3f145b892bb2247186c3f165c288aaa1d8a4fd8e9e8b"},
    ("cli", "selection"): {"selection.csv": "a642fab6a04696ae277688cd65a3e6d68153582ba99283519610bf30b08c6f6c"},
    ("cli", "shift"): {"shift.csv": "d77407a099312e0901cdc99054d5d1e9bf7598e2b91406ed88133410cd357181"},
    ("cli", "adjacency"): {"adjacency.csv": "d403e10848dd031ff860d8b6799be1b3a244016a06351462d365773c09dcd2bb"},
    ("three", "evaluate"): {"evaluate.csv": "a7701a4d97b3d22471d46c87e16bded181bc7e7a7f73d79a7f6e8fd0bb57a166"},
    ("three", "grid"): {
        "context.csv": "fc21ed69caa228e06e7f18bfc39a4958ee3b468520c006fb250f2330bab92789",
        "context_curves.csv": "2e5d46c3eefcb1924c305783d609663d942212988834e7fa01012778121ea84e",
        "grid.csv": "3cb3d44bc0ac51a3917cd9b9cf4cf8ef3560f42e7ffb6b010abc338b33d4573f",
    },
    ("three", "evidence"): {
        "evidence_profile.csv": "141baa321fe6cdc3543d6a7adad52a47ccdf819bdc4d55679ed865eefb7edc7c",
        "evidence_space.csv": "d0992f88e3f4566e6cf06743ad805f84b6e1ad2216944cbb9e04308a7f460954",
        "evidence_summary.csv": "a4dc51d97ba5a5f3a70fabc074e4d12d5466ac66e54d059b35032de978f66e0a",
    },
    ("three", "evidence-unordered"): {
        "evidence_profile.csv": "abc1c26f969519368a2467234f50d25b25b482b0251f7ede19e8e377ad50d64a",
        "evidence_space.csv": "ab88b82ac0bf2d4ab5ce12c9fc2f1d2fc0168bdba715719cec80acb05d4fac8c",
        "evidence_summary.csv": "2fcdcc025e17399fadb3a192d0a905e92a47bc8df639ac87ba57642e03a43099",
    },
    ("three", "ablation"): {"ablation.csv": "074acd208a64459447fb3fe8e7c5c221023fa9a36b17c0130bc8ca73eff67c3d"},
    ("three", "selection"): {"selection.csv": "4537c599c2c0bcdca33b0d81000b373dea3041434b5ae18b253870486427d726"},
    ("three", "shift"): {"shift.csv": "6c1b7babe6538d6702cfeceb97de3d75536fe48764033e77175702b2bfc87bef"},
    ("three", "adjacency"): {"adjacency.csv": "7dd3547435f25baeb61d6a284f404dd830593b22d64acc1a08ea6cbaecc2f15a"},
}

# Each golden run: its subcommand and options.  The unordered unigram of
# "evidence-unordered" repeats keys within a window, so its evidence offsets
# pin which span of a repeated key is kept (the first).
GOLDEN_ARGS = {
    "evaluate": ["evaluate", "--criterion",
                 "[1gr|lemma|ordered|all]@2+[2gr|lemma|leftright|all]@3"],
    "grid": ["grid", "--grid", "small.grid"],
    "evidence": ["evidence"],
    "evidence-unordered": ["evidence", "--criterion", "[1gr|lemma|unordered|all]@4"],
    "ablation": ["ablation", "--grid", "small.grid", "--classifier", "dl"],
    "selection": ["selection"],
    "shift": ["shift", "--shifts", "0,1,-1"],
    "adjacency": ["adjacency"],
}


@pytest.fixture(scope="module")
def three_categories(tmp_path_factory):
    root = tmp_path_factory.mktemp("three")
    _build_three_category_workspace(root)
    return root


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("run", list(GOLDEN_ARGS))
@pytest.mark.parametrize("space", ["cli", "three"])
def test_evaluation_reports_match_golden_bytes(space, run, jobs, request):
    if space == "cli":
        root = request.getfixturevalue("workspace")
        inputs = ("--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv")
        (root / "small.grid").write_text(
            "orders = 1,2\ntags = lemma\npositionings = ordered,leftright\n"
            "filters = all,content\nsizes = 1,2\n"
        )
    else:
        root = request.getfixturevalue("three_categories")
        inputs = ("--corpus", "corpus.tsv", "--targets", "targets.tsv")
        assert (root / "small.grid").read_text() == SMALL_GRID
    subcommand, *options = GOLDEN_ARGS[run]
    out = f"golden-{run}-{jobs}"
    result = wsdlab(subcommand, *inputs, "--seed", "7", "--jobs", jobs, *options,
                    "-o", out, cwd=root)
    assert result.returncode == 0, result.stderr
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in (root / out).glob("*.csv")}
    assert hashes == GOLDEN[(space, run)]


# stats.csv sha256s per input set.  "absent" lists a lemma the corpus lacks,
# so its row has empty entropy/mfs cells and it counts in no AVERAGE row.
GOLDEN_STATS = {
    "cli": "11d9bcda16f9aa1dceb2b441e61a937f9252452de4be09830c8828537b61d7ee",
    "three": "eec8d739e4bcae586249a80b4bf7c5d28886cc7a186f51d71e71e770b02d0147",
    "absent": "268839eb246d9b7f747ba4b94eab93d2e5896bf52c6246c94a42ee4d2728478b",
}


@pytest.mark.parametrize("space", list(GOLDEN_STATS))
def test_stats_report_matches_golden_bytes(space, request):
    if space == "cli":
        root = request.getfixturevalue("workspace")
        inputs = ("--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv")
    else:
        root = request.getfixturevalue("three_categories")
        targets = "targets.tsv"
        if space == "absent":
            targets = "absent-targets.tsv"
            (root / targets).write_text(
                (root / "targets.tsv").read_text() + "introuvable\tverb\n"
            )
        inputs = ("--corpus", "corpus.tsv", "--targets", targets)
    out = f"golden-stats-{space}"
    result = wsdlab("stats", *inputs, "-o", out, cwd=root)
    assert result.returncode == 0, result.stderr
    stats = (root / out / "stats.csv").read_bytes()
    if space == "absent":
        assert b"\nintrouvable,verb,0,0,,\n" in stats
    assert hashlib.sha256(stats).hexdigest() == GOLDEN_STATS[space]


def test_version_flag(workspace):
    result = wsdlab("--version", cwd=workspace)
    assert result.returncode == 0
    assert result.stdout.startswith("wsdlab ")


# --- no input ends in a traceback ------------------------------------------------

# A corpus with 12 occurrences of "cible" (noun), enough for the default k.
_GOOD_CORPUS = [b"#doc d1"] + [
    line
    for i in range(12)
    for line in (f"w{i % 3}\tw{i % 3}\tNCFS\tNCOM\t".encode(), b"le\tle\tDET\tDET\t",
                 f"cible\tcible\tNCFS\tNCOM\ts{i % 2}".encode())
]
_CORPUS_LINES = st.sampled_from([
    b"#doc d1", b"#doc d2", b"\xef\xbb\xbf#doc d3", b"", b"x\tx\tNCFS\tNCOM\t",
    b"cible\tcible\tNCFS\tNCOM\ts1", b"cible\tcible\tVINF\tVINF\ts2",
    b"only\tthree\tcolumns", b"a\tb\tc\td\te\tf", b"d\xe9j\xe0\tx\tA\tB\t", b"\xff\xfe",
])
_TARGET_LINES = st.sampled_from([
    "cible\tnoun", "cible\tverb", "absent\tadjective", "cible\tbogus", "cible",
    "# comment", "", "\ufeffcible\tnoun",
])
_GRID_CONFIG = "orders = 1\ntags = lemma\nsizes = 1-2"
_PSEUDOWORD_CONFIG = "sources = cible, autre\ncounts = 6\nwidth = 3\nvocabulary = 4"
_CONFIG_LINES = st.sampled_from([
    "orders = 1", "orders = 0", "orders = 1,1", "sizes = 1-2", "sizes = x",
    "tags = lemma", "tags = bogus", "positionings = position", "filters = all,content",
    "filters = ", "\ufefforders = 1", "no separator", "# comment",
    "sources = cible, autre", "counts = 6", "width = 3", "vocabulary = 4",
    "noise = 2", "seed = 1",
])
_CRITERIA = [("--criterion", text) for text in (
    "[1gr|lemma|ordered|all]@1", "[2gr|mform|leftright|content]@2",
    "[1gr|lemma|ordered|selected]@1shift+1", "[2gr|lemma|leftright|all]@1anchored",
    "[1gr|lemma|ordered|all]@1+[1gr|cgems|unordered|all]@2",
    "[1gr|lemma|ordered|all]@1+[1gr|lemma|ordered|all]@1", "[9gr|x]@",
)]
_EVALUATION = [
    ("--classifier", "dl"), ("--classifier", "svm"), ("--k", "2"), ("--k", "1"),
    ("--m", "0"), ("--m", "-1"), ("--m", "nan"), ("--prior-mode", "senses"),
    ("--seed", "3"), ("--jobs", "1"), ("--jobs", "2"), ("--jobs", "0"),
    ("--content-mode", "keep_gaps"), ("--k", "x"), ("--m", "abc"), ("--jobs", "x"),
    ("--prior-mode", "bogus"), ("--content-mode", "bogus"),
]
_ODD = [("--bogus",), ("--corpus", "{dir}/missing.tsv"), ("--grid", "{dir}/missing.cfg")]
_OPTIONS = {
    "stats": _ODD,
    "evaluate": _EVALUATION + _CRITERIA + _ODD,
    "grid": _EVALUATION + _ODD,
    "evidence": [o for o in _EVALUATION if o[0] not in ("--classifier", "--prior-mode")]
    + _CRITERIA + _ODD,
    "ablation": _EVALUATION + _ODD,
    "selection": _EVALUATION + _CRITERIA + _ODD,
    "shift": _EVALUATION + _CRITERIA + _ODD + [("--shifts", v) for v in ("0,1", "1", "x")],
    "adjacency": [o for o in _EVALUATION if o[0] != "--content-mode"] + _ODD,
    "pseudoword": [("--seed", "3"), ("--seed", "x"), ("--config", "{dir}/missing.cfg")],
}


@settings(max_examples=100, deadline=None)
@given(
    invocation=st.sampled_from(COMMANDS).flatmap(lambda command: st.tuples(
        st.just(command), st.lists(st.sampled_from(_OPTIONS[command]), max_size=2))),
    corpus=st.tuples(st.booleans(), st.lists(_CORPUS_LINES, max_size=3)),
    targets=st.lists(_TARGET_LINES, max_size=2),
    config=st.tuples(st.booleans(), st.lists(_CONFIG_LINES, max_size=3)),
)
def test_cli_exits_with_a_code_not_a_traceback(invocation, corpus, targets, config):
    """Whatever the arguments, config text and corpus bytes, ``main`` returns
    an exit code (argparse's own exit counting as 2) and raises nothing."""
    command, options = invocation
    good_corpus, corpus_lines = corpus
    good_config, config_lines = config
    if good_config:
        config_lines = [_PSEUDOWORD_CONFIG if command == "pseudoword" else _GRID_CONFIG,
                        *config_lines]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus.tsv").write_bytes(
            b"\n".join((_GOOD_CORPUS if good_corpus else []) + corpus_lines))
        (root / "targets.tsv").write_text("\n".join(["cible\tnoun", *targets]),
                                          encoding="utf-8")
        (root / "grid.cfg").write_text("\n".join(config_lines), encoding="utf-8")
        argv = [command, "-o", str(root / "out")]
        if command == "pseudoword":
            argv += ["--config", str(root / "grid.cfg")]
        else:
            argv += ["--corpus", str(root / "corpus.tsv"), "--targets", str(root / "targets.tsv")]
        if command in ("grid", "ablation"):
            argv += ["--grid", str(root / "grid.cfg")]
        if command == "evaluate":
            argv += list(_CRITERIA[0])
        for option in options:
            argv += [part.format(dir=tmp) for part in option]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 2, 3, 4)


def _field_values(root: Path, command: str) -> dict[str, tuple]:
    """Each ``RunConfig`` field's four kinds of value: a valid one, one of
    another type, its text form and None."""
    paths = {"output": root / "out", "corpus": root / "corpus.tsv",
             "targets": root / "targets.tsv", "config": root / "pw.cfg"}
    grid, criterion = str(root / "grid.cfg"), "[1gr|lemma|ordered|all]@1"
    return {
        **{name: (path, 5, str(path), None) for name, path in paths.items()},
        "subcommand": (command, 5, command, None),
        "criterion": (criterion, 5, criterion, None),
        "grid": (grid, Path(grid), grid, None),
        "classifier": ("dl", 5, "dl", None),
        "m": (0.5, True, "0.5", None),
        "prior_mode": ("senses", 5, "senses", None),
        "k": (3, 3.0, "3", None),
        "seed": (1, 1.0, "1", None),
        "jobs": (1, True, "1", None),
        "shifts": ((0, 1), 1, "0,1", None),
        "content_mode": ("keep_gaps", 5, "keep_gaps", None),
    }


_FIELDS = [field.name for field in dataclasses.fields(RunConfig)]


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(COMMANDS),
       kinds=st.dictionaries(st.sampled_from(_FIELDS), st.integers(0, 3), max_size=4))
def test_run_exits_with_a_code_whatever_each_field_holds(command, kinds):
    """A ``RunConfig`` built in Python ends ``run`` in an exit code, not an
    exception, whatever kind of value each field holds: each field holds its
    valid value but up to four, which hold a kind drawn for them."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        pseudoword = "sources = cible, autre\ncounts = 3\nwidth = 2\nvocabulary = 4\n"
        (root / "pw.cfg").write_text(pseudoword, encoding="utf-8")
        corpus = package.generate_pseudoword_corpus(package.parse_pseudoword_config(pseudoword), 1)
        (root / "corpus.tsv").write_text(package.serialize_corpus(corpus), encoding="utf-8")
        (root / "targets.tsv").write_text("cibleautre\tnoun\n", encoding="utf-8")
        (root / "grid.cfg").write_text("orders = 1\ntags = lemma\nsizes = 1-2\n", encoding="utf-8")
        values = _field_values(root, command)
        config = RunConfig(**{name: kinds_of[kinds.get(name, 0)]
                              for name, kinds_of in values.items()})
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(config)
    assert code in (0, 2, 3, 4)
