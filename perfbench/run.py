"""Benchmark of the wsdlab CLI on seeded pseudo-word corpora.

    python3 perfbench/run.py --workload grid-nb --seed 5 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With ``--trace 0`` the CLI runs end to end in a subprocess, in a closed loop,
for ``--seconds``; the end-to-end metrics come from those runs.  With
``--trace 1`` the same command runs in process through ``wsdlab.cli.main``
with ``--jobs 1`` and spans around the calls into each module, which gives
the per-layer metrics.  Every run's reports are hashed and checked; the last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import wsdlab
    from wsdlab import cli, evaluation
except ImportError as exc:
    sys.exit(f"error: cannot import wsdlab from {SRC}: {exc}")

from spans import Hook, Tracer, totals_by_name  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, FOLD_SEED, K, WORKLOADS, make_inputs, write_inputs,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK = ROOT / ".perfbench-work"

# setup_s repeats the in-process set-up at least this often and for at
# least this long, and reports the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


def report_hashes(output: Path) -> dict[str, str]:
    """sha256 of every CSV report; run.meta is left out, it records paths."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(output.glob("*.csv"))
    }


def cli_env() -> dict[str, str]:
    """The caller's environment with the imported package's source directory,
    as an absolute path, at the front of PYTHONPATH."""
    src = str(Path(wsdlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@dataclass(frozen=True)
class CliRun:
    wall_s: float
    status: int
    peak_rss_mb: float  # largest single process of the CLI's process tree
    hashes: dict[str, str]


def run_cli(command: list[str], output: Path, env: dict[str, str], log: Path) -> CliRun:
    """Run the CLI once in a subprocess and wait for it and its children."""
    shutil.rmtree(output, ignore_errors=True)
    with open(log, "wb") as stream:
        start = time.perf_counter()
        process = subprocess.Popen(command, env=env, stdout=stream, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-2000:])
    # ru_maxrss of a waited-for child covers the child and its own waited-for
    # children, each taken alone: it is the largest process, not their sum.
    return CliRun(wall, process.returncode, usage.ru_maxrss / 1024, report_hashes(output))


def measure_cli(command, output, env, log, seconds: float) -> list[CliRun]:
    """Closed loop: start the next CLI run when the last one ends, until
    ``seconds`` have passed; at least one run."""
    runs: list[CliRun] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_cli(command, output, env, log))
    return runs


def set_up(corpus_text: str, targets_text: str) -> None:
    """Everything the CLI does before its first cell."""
    corpus = wsdlab.parse_corpus(corpus_text)
    for lemma, category in sorted(wsdlab.parse_targets(targets_text)):
        occurrences = wsdlab.extract_occurrences(corpus, lemma, category)
        if len(occurrences) >= K:
            wsdlab.kfold_split(occurrences, K, FOLD_SEED)


def time_set_up(inputs) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        gc.collect()  # each repeat starts without the last one's garbage
        begin = time.perf_counter()
        set_up(inputs.corpus_text, inputs.targets_text)
        times.append(time.perf_counter() - begin)
    return times


def _count_tokens(counts: Counter, args, corpus) -> None:
    counts["corpus.tokens"] += sum(len(doc.tokens) for doc in corpus.documents)


def _count_features(counts: Counter, args, vector) -> None:
    counts["criteria.features"] += len(vector)


def _count_instances(counts: Counter, args, model) -> None:
    counts["classifiers.train_instances"] += len(args[0])


def _count_fallbacks(counts: Counter, args, prediction) -> None:
    counts["classifiers.fallbacks"] += prediction.used_fallback


def hooks() -> list[Hook]:
    """Spans around the public functions, at the module each caller looks
    them up in: the CLI's own names, and the evaluation module's names that
    grid_search and cross_validate call."""
    writers = sorted(
        name for name in vars(cli) if name.startswith("write_") and name.endswith("_csv")
    )
    return [
        Hook(cli, "parse_corpus", "corpus.parse", _count_tokens),
        Hook(cli, "extract_occurrences", "corpus.occurrences"),
        Hook(evaluation, "extract_occurrences", "corpus.occurrences"),
        Hook(cli, "cross_validate", "evaluation.cv"),
        Hook(evaluation, "cross_validate", "evaluation.cv"),
        Hook(evaluation, "extract_features", "criteria.extract", _count_features),
        Hook(evaluation, "train_nb", "classifiers.train", _count_instances),
        Hook(evaluation, "train_dl", "classifiers.train", _count_instances),
        Hook(evaluation, "classify_nb", "classifiers.classify", _count_fallbacks),
        Hook(evaluation, "classify_dl", "classifiers.classify", _count_fallbacks),
        Hook(cli, "context_report", "analysis.report"),
    ] + [Hook(cli, name, "cli.write") for name in writers]


def in_process(argv: list[str], output: Path, tracer: Tracer | None = None):
    shutil.rmtree(output, ignore_errors=True)
    start = time.perf_counter()
    status = (tracer.traced("cli.main", cli.main) if tracer else cli.main)(argv)
    return time.perf_counter() - start, status, report_hashes(output)


def layer_metrics(seconds, calls, counts, output: Path) -> dict[str, tuple[float, str]]:
    classify_calls = calls["classifiers.classify"]
    return {
        "corpus.parse_s": (seconds["corpus.parse"], "s"),
        "corpus.tokens": (counts["corpus.tokens"], "count"),
        "corpus.occurrences_s": (seconds["corpus.occurrences"], "s"),
        "corpus.occurrences_calls": (calls["corpus.occurrences"], "count"),
        "criteria.extract_s": (seconds["criteria.extract"], "s"),
        "criteria.extract_calls": (calls["criteria.extract"], "count"),
        "criteria.features": (counts["criteria.features"], "count"),
        "classifiers.train_s": (seconds["classifiers.train"], "s"),
        "classifiers.train_calls": (calls["classifiers.train"], "count"),
        "classifiers.train_instances": (counts["classifiers.train_instances"], "count"),
        "classifiers.classify_s": (seconds["classifiers.classify"], "s"),
        "classifiers.classify_calls": (classify_calls, "count"),
        "classifiers.fallback_frac": (
            counts["classifiers.fallbacks"] / classify_calls if classify_calls else 0.0, "ratio"),
        "evaluation.cells": (calls["evaluation.cv"], "count"),
        "evaluation.cv_self_s": (seconds["evaluation.cv"], "s"),
        "analysis.report_s": (seconds["analysis.report"], "s"),
        "cli.write_s": (seconds["cli.write"], "s"),
        "cli.report_bytes": (sum(p.stat().st_size for p in output.glob("*.csv")), "B"),
    }


def check(outcomes, expected) -> tuple[int, dict]:
    """Failed outcomes among ``(status, hashes)`` pairs; with no stored
    reference the first successful outcome is the reference."""
    failed = 0
    for status, hashes in outcomes:
        if expected is None and status == 0:
            expected = hashes
        if status != 0 or hashes != expected:
            failed += 1
    return failed, expected


def end_to_end(workload, inputs, in_dir: Path, work: Path, seconds: float):
    """Untraced CLI runs in a subprocess, plus the in-process set-up time."""
    setup = time_set_up(inputs)
    argv = workload.cli_args(in_dir, work / "out", workload.cli_jobs)
    runs = measure_cli([sys.executable, "-m", "wsdlab", *argv], work / "out", cli_env(),
                       work / "cli.log", seconds)
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "wall_s": (wall, "s", len(runs)),
        "decisions_per_s": (inputs.decisions / wall, "1/s", len(runs)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB", len(runs)),
    }
    return [(r.status, r.hashes) for r in runs], metrics, True


def per_layer(workload, in_dir: Path, work: Path):
    """In-process runs of the same command: untraced at --jobs 1 and 2, then
    traced at --jobs 1; and one CLI run whose reports must match theirs."""
    # Untraced first, so the traced run's spans do not weigh on them.
    j1 = in_process(workload.cli_args(in_dir, work / "j1", 1), work / "j1")
    j2 = in_process(workload.cli_args(in_dir, work / "j2", 2), work / "j2")
    tracer = Tracer()
    with tracer.hooked(hooks()) as missing:
        traced = in_process(workload.cli_args(in_dir, work / "traced", 1), work / "traced",
                            tracer)
    for name in missing:
        print(f"warning: no {name} to trace", file=sys.stderr)
    argv = workload.cli_args(in_dir, work / "out", workload.cli_jobs)
    run = run_cli([sys.executable, "-m", "wsdlab", *argv], work / "out", cli_env(),
                  work / "cli.log")

    spans = tracer.spans
    seconds, calls = totals_by_name(spans)
    metrics = layer_metrics(seconds, calls, tracer.counts, work / "traced")
    metrics["evaluation.jobs_speedup"] = (j1[0] / j2[0], "ratio")
    metrics["trace.overhead_frac"] = (traced[0] / j1[0] - 1.0, "ratio")
    share = sum(t for name, t in seconds.items() if name.startswith(workload.layer_share))
    share /= spans[0].end - spans[0].start
    held = share > workload.min_share
    print(f"# layer share {'+'.join(workload.layer_share)} = {share:.3f} of traced "
          f"wall time (must exceed {workload.min_share}): {'ok' if held else 'FAILED'}")
    if not held:
        print(f"error: {workload.name} no longer loads the layer it was chosen for",
              file=sys.stderr)
    outcomes = [j1[1:], j2[1:], traced[1:], (run.status, run.hashes)]
    return outcomes, {name: (value, unit, 1) for name, (value, unit) in metrics.items()}, held


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns (correct, attempted, failed, metrics), each
    metric a (value, unit, samples) triple."""
    inputs = make_inputs(workload, seed)
    in_dir = work / "inputs"
    write_inputs(workload, inputs, in_dir)
    stored = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = stored["reports"][workload.name] if seed == stored["seed"] else None
    print(f"# workload {workload.name} seed={seed}: {workload.why}")
    print("# inputs " + " ".join(f"{k}={v}" for k, v in inputs.facts().items()))
    print("# reference: " + ("hashes stored in reference.json" if expected
                             else "none stored for this seed; runs must agree"))
    if trace:
        outcomes, metrics, held = per_layer(workload, in_dir, work)
    else:
        outcomes, metrics, held = end_to_end(workload, inputs, in_dir, work, seconds)
    failed, expected = check(outcomes, expected)
    seen: list[dict] = []
    for _, hashes in outcomes:
        if hashes not in seen:
            seen.append(hashes)
            verdict = "matches the reference" if hashes == expected else "DIFFERS"
            for name, digest in sorted(hashes.items()):
                print(f"# report {name} sha256={digest} {verdict}")
    print(f"{workload.name:16} {'failed_frac':28} {failed / len(outcomes):>14.6g} "
          f"{'ratio':6} n={len(outcomes)}")
    return held and failed == 0, len(outcomes), failed, metrics


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed for the generated corpora")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the closed loop of CLI runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(wsdlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: wsdlab was imported from {wsdlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"# machine cpu_count={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} platform={platform.platform()} "
          f"wsdlab={wsdlab.__version__} commit={git_commit()}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        work = WORK / f"{name}-{os.getpid()}"
        try:
            ok, tried, bad, values = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        for metric, (value, unit, samples) in values.items():
            print(f"{name:16} {metric:28} {value:>14.6g} {unit:6} n={samples}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    try:
        WORK.rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
