import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsdlab as package
from wsdlab.cli import COMMANDS, RunConfig, main, validate_config
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


def test_bom_prefixed_configs_parse(workspace):
    (workspace / "bom.grid").write_bytes(BOM + b"orders = 1\nsizes = 1-2\n")
    config = RunConfig("grid", workspace / "unused", corpus=workspace / "gen" / "corpus.tsv",
                       targets=workspace / "gen" / "targets.tsv",
                       grid=str(workspace / "bom.grid"))
    assert validate_config(config) == []
    (workspace / "bom-pw.cfg").write_bytes(BOM + PW_CONFIG.encode())
    result = wsdlab("pseudoword", "--config", "bom-pw.cfg", "-o", "gen-bom", cwd=workspace)
    assert result.returncode == 0, result.stderr
    assert (workspace / "gen-bom" / "corpus.tsv").read_bytes() == (
        workspace / "gen" / "corpus.tsv"
    ).read_bytes()


def test_empty_targets_exits_4(workspace):
    empty = workspace / "empty.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    result = wsdlab(
        "stats", "--corpus", "gen/corpus.tsv", "--targets", "empty.tsv",
        "-o", "nothing4", cwd=workspace,
    )
    assert result.returncode == 4
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


def test_validate_config_lists_all_problems(tmp_path):
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
    problems = validate_config(config)
    assert len(problems) >= 5
    text = "\n".join(problems)
    assert "svm" in text and "nb, dl" in text
    assert "k must be >= 2" in text
    assert "m must be >= 0" in text
    assert "corpus file not found" in text
    assert "targets file not found" in text


def test_pseudoword_reports_every_bad_value_with_its_key(tmp_path):
    (tmp_path / "bad.cfg").write_text("sources = a, b\ncounts = x\nnoise = lots\n")
    result = wsdlab("pseudoword", "--config", "bad.cfg", "-o", "gen", cwd=tmp_path)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: config counts: ") and "'x'" in lines[0]
    assert lines[1].startswith("error: config noise: ") and "'lots'" in lines[1]
    assert not (tmp_path / "gen").exists()


def test_validate_config_accepts_good(tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("w\tw\tA\tB\ts\n")
    targets = tmp_path / "t.tsv"
    targets.write_text("w\tnoun\n")
    config = RunConfig(
        subcommand="evaluate", output=tmp_path / "out",
        corpus=corpus, targets=targets, criterion="[1gr|lemma|ordered|all]@1",
    )
    assert validate_config(config) == []


def test_evidence_rejects_non_unigram(workspace):
    result = wsdlab(
        "evidence", "--corpus", "gen/corpus.tsv", "--targets", "gen/targets.tsv",
        "--criterion", "[2gr|lemma|leftright|all]@2", "-o", "nothing7", cwd=workspace,
    )
    assert result.returncode == 2
    assert "unigram" in result.stderr


def test_validate_config_rejects_bad_evaluation_inputs(tmp_path):
    grid = tmp_path / "bad.grid"
    grid.write_text("tags = lemma, bogus\nsizes = 1, 0\norders = 1, 1\n")
    all_only = tmp_path / "all-only.grid"
    all_only.write_text("orders = 1\ntags = lemma\nfilters = all\nsizes = 1\n")
    cases = [
        ("selection", dict(criterion="[1gr|lemma|ordered|content]@1"), ["filter 'all'"]),
        ("shift", dict(criterion="[1gr|lemma|ordered|all]@1", shifts=(0, 1, 1)),
         ["repeats 1"]),
        ("evaluate", dict(criterion="[1gr|lemma|ordered|all]@1", m=float("nan")),
         ["m must be finite"]),
        ("grid", dict(grid=str(grid)),
         ["orders: repeated 1", "unknown tag 'bogus'", "context size must be >= 1"]),
        ("ablation", dict(grid=str(grid), m=-1.0),
         ["m must be >= 0", "orders: repeated 1", "unknown tag 'bogus'",
          "context size must be >= 1"]),
        ("ablation", dict(grid=str(all_only)), ["the grid lacks content"]),
    ]
    for subcommand, fields, expected in cases:
        config = RunConfig(subcommand=subcommand, output=tmp_path / "out",
                           corpus=grid, targets=grid, **fields)
        problems = validate_config(config)
        assert len(problems) == len(expected), (subcommand, problems)
        for problem, text in zip(problems, expected):
            assert text in problem, (subcommand, problems)


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
    ("three", "ablation"): {"ablation.csv": "074acd208a64459447fb3fe8e7c5c221023fa9a36b17c0130bc8ca73eff67c3d"},
    ("three", "selection"): {"selection.csv": "4537c599c2c0bcdca33b0d81000b373dea3041434b5ae18b253870486427d726"},
    ("three", "shift"): {"shift.csv": "6c1b7babe6538d6702cfeceb97de3d75536fe48764033e77175702b2bfc87bef"},
    ("three", "adjacency"): {"adjacency.csv": "7dd3547435f25baeb61d6a284f404dd830593b22d64acc1a08ea6cbaecc2f15a"},
}

GOLDEN_ARGS = {
    "evaluate": ["--criterion", "[1gr|lemma|ordered|all]@2+[2gr|lemma|leftright|all]@3"],
    "grid": ["--grid", "small.grid"],
    "evidence": [],
    "ablation": ["--grid", "small.grid", "--classifier", "dl"],
    "selection": [],
    "shift": ["--shifts", "0,1,-1"],
    "adjacency": [],
}


@pytest.fixture(scope="module")
def three_categories(tmp_path_factory):
    root = tmp_path_factory.mktemp("three")
    _build_three_category_workspace(root)
    return root


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("subcommand", list(GOLDEN_ARGS))
@pytest.mark.parametrize("space", ["cli", "three"])
def test_evaluation_reports_match_golden_bytes(space, subcommand, jobs, request):
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
    out = f"golden-{subcommand}-{jobs}"
    result = wsdlab(subcommand, *inputs, "--seed", "7", "--jobs", jobs,
                    *GOLDEN_ARGS[subcommand], "-o", out, cwd=root)
    assert result.returncode == 0, result.stderr
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in (root / out).glob("*.csv")}
    assert hashes == GOLDEN[(space, subcommand)]


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
    ("--content-mode", "keep_gaps"),
]
_ODD = [("--bogus",), ("--corpus", "{dir}/missing.tsv"), ("--grid", "{dir}/missing.cfg")]
_OPTIONS = {
    "stats": _ODD,
    "evaluate": _EVALUATION + _CRITERIA + _ODD,
    "grid": _EVALUATION + _ODD,
    "evidence": _EVALUATION + _CRITERIA + _ODD,
    "ablation": _EVALUATION + _ODD,
    "selection": _EVALUATION + _CRITERIA + _ODD,
    "shift": _EVALUATION + _CRITERIA + _ODD + [("--shifts", v) for v in ("0,1", "1", "x")],
    "adjacency": _EVALUATION + _ODD,
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
