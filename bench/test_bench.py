"""Tests of the benchmark itself: generator determinism, the digest
check, self-time arithmetic and failure accounting.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import run  # noqa: E402
from spans import Recorder, self_times, totals  # noqa: E402


def test_generator_is_deterministic():
    a = gen.uniform("k/1", 30, 6, 60, 0.3)
    assert a == gen.uniform("k/1", 30, 6, 60, 0.3)
    assert a != gen.uniform("k/2", 30, 6, 60, 0.3)
    p, planted = gen.planted_sparse("k/1", 50, 4, 10, 0.3, 0.25)
    assert (p, planted) == gen.planted_sparse("k/1", 50, 4, 10, 0.3, 0.25)
    for name in ("mid", "large-sparse"):
        first = run.WORKLOADS[name](7)
        assert run.inputs_digest(first) == \
            run.inputs_digest(run.WORKLOADS[name](7))
        assert run.inputs_digest(first) != \
            run.inputs_digest(run.WORKLOADS[name](8))


def test_generator_shape():
    text = gen.uniform("shape", 20, 5, 30, 0.4)
    assert text.count("\ncon ") == 30
    # exactly round(0.4 * 25) = 10 of the 25 value pairs forbidden
    assert all(line.split()[3] == "15" for line in text.splitlines()
               if line.startswith("con "))
    _, planted = gen.planted_sparse("shape", 40, 4, 8, 0.3, 0.25)
    assert len(planted) == 40


def test_tampered_reduced_instance_fails_digest(tmp_path):
    import cspelim
    from cspelim.cli import main

    case = run.Case("c00", gen.uniform("tamper", 20, 4, 30, 0.2),
                    (("preprocess", "de-snake"),))
    (tmp_path / "c00.bcsp").write_text(case.text)
    op = case.ops[0]
    outcome = run.run_cli(main, run.op_argv(str(tmp_path), case, op))
    assert outcome.error is None
    original = cspelim.load_instance(str(tmp_path / "c00.bcsp"))
    paths = run.op_paths(str(tmp_path), case, op)
    digest, problems = run.check_op(cspelim, original, case, op, outcome,
                                    paths)
    assert problems == []
    key = run.op_key(case, op)
    inputs = run.inputs_digest([case])
    expected = {"inputs": inputs, "ops": {key: digest}}
    assert run.compare_digests(expected, inputs, {key: digest}) == []

    with open(paths["out"], "a", encoding="utf-8") as fh:
        fh.write("# tampered\n")
    tampered, _ = run.check_op(cspelim, original, case, op, outcome, paths)
    assert run.compare_digests(expected, inputs, {key: tampered}) == \
        ["output digest mismatch at %s" % key]


def test_self_time_subtracts_covered_child_time():
    # root [0, 10]: children [1, 4] and [3, 6] overlap, [9, 12] sticks out
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 3.0, 1.0]
    dur, own = totals(spans + [["a", 20.0, 21.0, None, 1]])
    assert dur["a"] == 4.0 and own["a"] == 3.0


def test_recorder_nests_spans():
    rec = Recorder()
    inner = rec.wrap(lambda x: x + 1, lambda args: "inner.%d" % args[0])
    with rec.span("outer"):
        assert inner(1) == 2
    assert [(s[0], s[3]) for s in rec.spans] == [("outer", None),
                                                 ("inner.1", 0)]


def test_raising_op_counts_as_failed_and_is_not_timed():
    def main(argv):
        if argv[0] == "boom":
            raise RecursionError("deep")
        return 20 if argv[0] == "unsat" else 0

    keys = ["x/solve/none", "y/solve/none", "z/solve/none"]
    argv = {"x/solve/none": ["ok"], "y/solve/none": ["boom"],
            "z/solve/none": ["unsat"]}
    samples = run.measure(keys, lambda k: run.run_cli(main, argv[k]), 0)
    assert [len(v) for v in samples.values()] == [1, 1, 1]
    assert samples["y/solve/none"][0].error == "RecursionError"
    samples["y/solve/none"][0].seconds = 1000.0
    timings, attempted, failed = run.summarise(samples, lambda k: "solve_s")
    assert (attempted, failed) == (3, 1)
    assert timings["solve_s"].ops == 2
    assert timings["solve_s"].value < 1000.0

    samples = run.measure(["y/solve/none"],
                          lambda k: run.run_cli(main, ["boom"]), 0)
    timings, _, _ = run.summarise(samples, lambda k: "solve_s")
    assert timings["solve_s"].value is None
