"""Self-test of the benchmark harness (stdlib only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs a one-operation workload and checks that every metric named in
BENCHMARK.json is printed, that a wrong expected value counts as a failed
operation, and that every call of a traced function goes through its wrapper.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layer_trace import Tracer  # noqa: E402
from workloads import Op, Workload, build_graphs  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CLI = run.load_drgkit()


def tiny(expected_pvt) -> Workload:
    op = Op(("pvt", "@shrikhande"), {"pvt": expected_pvt})
    return Workload("selftest", ("shrikhande",), (op,))


class HarnessTest(unittest.TestCase):
    def report(self, workload, trace):
        metrics, runner = run.run_benchmark(CLI, workload, seconds=0.2, trace=trace)
        lines = run.format_report("selftest", metrics, runner)
        return "\n".join(lines[:-1]), json.loads(lines[-1])

    def assert_metrics_printed(self, names, text, result):
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name in names + ["op_s_p50", "ops", "ops_failed"]:
            self.assertIn(f"  {name} = ", text)

    def test_every_end_to_end_metric_is_printed(self):
        text, result = self.report(tiny(("pvt", "srg_theorem")), trace=False)
        self.assert_metrics_printed([m["name"] for m in SPEC["end_to_end"]], text, result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_every_per_layer_metric_is_printed(self):
        text, result = self.report(tiny(("pvt", "srg_theorem")), trace=True)
        self.assert_metrics_printed([m["name"] for m in SPEC["per_layer"]], text, result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["pvt.check_pvt.calls"]["value"], 1)

    def test_wrong_expected_value_counts_as_failed(self):
        text, result = self.report(tiny(("not_pvt", "srg_theorem")), trace=False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_every_call_of_a_traced_function_goes_through_its_wrapper(self):
        """A binding the tracer missed would show as a call without a span."""
        tracer = Tracer()
        codes = {f.__code__: name for name, f in tracer.originals.items()}
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code]] += 1

        argvs = [["analyze", "@shrikhande", "--all-vertices"], ["analyze", "@icosahedron"],
                 ["analyze", "@j84"], ["analyze", "@c7", "--float-fallback"],
                 ["tiso", "@shrikhande", "@rook4"]]
        run.SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
            build_graphs(["shrikhande", "rook4", "icosahedron", "j84", "c7"], Path(tmp))
            tracer.install()
            sys.setprofile(profile)
            try:
                for argv in argvs:
                    with contextlib.redirect_stdout(io.StringIO()):
                        self.assertEqual(CLI.main(Op(tuple(argv), {}).resolve(Path(tmp))), 0)
            finally:
                sys.setprofile(None)
                tracer.uninstall()
        spans = Counter(span[0] for span in tracer.take())
        self.assertEqual(set(calls), set(tracer.originals))
        self.assertEqual(spans, calls)
        self.assertIs(sys.modules["drgkit.spectra"].charpoly_int, tracer.originals["exactla.charpoly_int"])

if __name__ == "__main__":
    unittest.main()
