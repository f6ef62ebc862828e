"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import sys
import tempfile
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the package's src directory on sys.path)
import workloads  # noqa: E402
from spans import Hook, Span, Tracer, self_times  # noqa: E402

TAMPER = """\
import sys
from wsdlab.cli import main
status = main(sys.argv[1:])
with open(sys.argv[sys.argv.index("-o") + 1] + "/grid.csv", "a") as report:
    report.write("0\\n")
sys.exit(status)
"""


class FailedFracTest(unittest.TestCase):
    def test_tampered_report_raises_failed_frac(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            corpus = workloads._pseudoword(1, counts=(10, 10))
            (tmp / "corpus.tsv").write_text(run.wsdlab.serialize_corpus(corpus))
            (tmp / "targets.tsv").write_text("bananeporte\tnoun\n")
            (tmp / "grid.conf").write_text(
                "orders = 1\ntags = lemma\npositionings = ordered\nfilters = all\nsizes = 1\n"
            )
            argv = ["grid", "--corpus", str(tmp / "corpus.tsv"),
                    "--targets", str(tmp / "targets.tsv"), "-o", str(tmp / "out"),
                    "--grid", str(tmp / "grid.conf"), "--k", "2"]
            env = run.cli_env()

            def failed_frac(command, expected):
                runs = run.measure_cli(command, tmp / "out", env, tmp / "log", 0)
                failed, _ = run.check([(r.status, r.hashes) for r in runs], expected)
                return failed / len(runs)

            honest = [sys.executable, "-m", "wsdlab", *argv]
            reference = run.run_cli(honest, tmp / "out", env, tmp / "log").hashes
            self.assertIn("grid.csv", reference)
            self.assertEqual(failed_frac(honest, reference), 0.0)
            self.assertEqual(failed_frac([sys.executable, "-c", TAMPER, *argv], reference), 1.0)


class SpanTest(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 1.0, 3.0, 0),
            Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
            Span("c", 8.0, 12.0, 0),  # outlasts root: only [8, 10] counts
            Span("a.child", 1.5, 2.5, 1),  # covers part of a, not of root again
        ]
        self.assertEqual([round(t, 9) for t in self_times(spans)], [4.0, 1.0, 3.0, 4.0, 1.0])

    def test_hooks_nest_spans_and_restore_the_module(self):
        module = types.ModuleType("fake")
        module.inner = lambda x: x + 1
        module.outer = lambda x: module.inner(x) * 2
        tracer = Tracer()
        original = module.inner
        hooks = [Hook(module, "outer", "outer"), Hook(module, "inner", "inner"),
                 Hook(module, "absent", "absent")]
        with tracer.hooked(hooks) as missing:
            self.assertEqual(module.outer(1), 4)
        self.assertEqual(missing, ["fake.absent"])
        self.assertIs(module.inner, original)
        self.assertEqual([(s.name, s.parent) for s in tracer.spans],
                         [("outer", -1), ("inner", 0)])


if __name__ == "__main__":
    unittest.main()
