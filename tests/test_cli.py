"""End-to-end checks of the command-line interface."""

import csv
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

import cspelim.solver
from cspelim import (RULES, brute_force_solve, eliminate_singletons,
                     enforce_ac, format_trace, is_solution, load_instance,
                     naive_fixpoint, parse_trace, save_instance,
                     solve_with_preprocessing)
from cspelim.cli import main
from conftest import (broken_triangle_instance, clique_instance,
                      degree_gap_instance, small_random, star_instance)


def write_instance(tmp_path, inst, name="inst.bcsp"):
    path = str(tmp_path / name)
    save_instance(inst, path)
    return path


def parse_report(out):
    """Report lines back into a dict; repeated keys collect into a dict."""
    report = {"eliminations": {}, "times": {}}
    for line in out.strip().splitlines():
        key, rest = line.split(" ", 1)
        if key == "eliminations":
            rule, count = rest.rsplit(" ", 1)
            report["eliminations"][rule] = int(count)
        elif key.startswith("time-"):
            report["times"][key[5:]] = float(rest)
        else:
            report[key] = rest
    return report


def test_preprocess_reports_full_elimination(tmp_path, capsys):
    path = write_instance(tmp_path, star_instance(5))
    assert main(["preprocess", path, "--rule", "de-snake"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["vars-before"] == "5"
    assert report["vars-after"] == "0"
    assert report["values-deleted"] == "0"
    assert report["eliminations"] == {"de-snake": 5}
    assert report["verdict"] == "reduced"
    assert set(report["times"]) == {"ac", "singletons", "engine"}
    total = int(report["vars-after"]) + sum(report["eliminations"].values())
    assert total == int(report["vars-before"])


def test_preprocess_partial_elimination(tmp_path, capsys):
    path = write_instance(tmp_path, star_instance(5))
    assert main(["preprocess", path, "--rule", "triangle"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["vars-after"] == "1"
    assert report["eliminations"] == {"triangle": 4}


def test_preprocess_unsat_instance(tmp_path, capsys):
    path = write_instance(tmp_path, broken_triangle_instance())
    assert main(["preprocess", path, "--rule", "triangle"]) == 20
    report = parse_report(capsys.readouterr().out)
    assert report["verdict"] == "unsat"


def test_preprocess_writes_reduced_instance_and_trace(tmp_path, capsys):
    original = degree_gap_instance()
    path = write_instance(tmp_path, original)
    out = str(tmp_path / "reduced.bcsp")
    trace = str(tmp_path / "trace.txt")
    code = main(["preprocess", path, "--rule", "bt-degree",
                 "--out", out, "--trace", trace])
    assert code == 0
    report = parse_report(capsys.readouterr().out)

    reduced = load_instance(out)
    elim_total = sum(report["eliminations"].values())
    assert reduced.n == original.n - elim_total
    assert reduced.n == int(report["vars-after"])

    with open(trace, encoding="utf-8") as fh:
        entries, pre = parse_trace(fh.read(), original)
    assert len(pre) == int(report["values-deleted"]) - \
        sum(len(e.deletions) for e in entries)
    assert [e.rule for e in entries].count("singleton") == \
        report["eliminations"].get("singleton", 0)


def test_preprocess_ns_interleaving_runs(tmp_path, capsys, monkeypatch):
    """`--ns` runs through the engine, and its trace (AC deletions,
    singletons, eliminations with their NS deletions) is the reference
    fixpoint's."""
    import cspelim.oracle as oracle

    path = write_instance(tmp_path, small_random(6, n=6, d=3, p2=0.4))
    inst = load_instance(path)
    ac, ac_log, ok = enforce_ac(inst)
    reduced, singleton_entries = eliminate_singletons(ac)
    _, entries = naive_fixpoint(reduced, "triangle", ns_interleave=True)
    assert ok and ac_log and singleton_entries
    assert any(e.deletions for e in entries)
    expected = format_trace(singleton_entries + entries, inst,
                            pre_deletions=ac_log)

    def no_reference(*args, **kwargs):
        raise AssertionError("preprocess --ns ran the reference fixpoint")

    monkeypatch.setattr(oracle, "naive_fixpoint", no_reference)
    trace = str(tmp_path / "ns.trace")
    code = main(["preprocess", path, "--rule", "triangle", "--ns",
                 "--trace", trace])
    assert code == 0
    report = parse_report(capsys.readouterr().out)
    total = int(report["vars-after"]) + sum(report["eliminations"].values())
    assert total == int(report["vars-before"])
    with open(trace, encoding="utf-8") as fh:
        assert fh.read() == expected


def test_solve_prints_verifiable_solution(tmp_path, capsys):
    inst = star_instance(5)
    path = write_instance(tmp_path, inst)
    log = str(tmp_path / "search.log")
    assert main(["solve", path, "--rule", "de-snake", "--log", log]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sat"
    assignment = {}
    for line in lines[1:]:
        tag, var, name = line.split()
        assert tag == "v"
        i = int(var)
        assignment[i] = inst.value_names(i).index(int(name))
    assert is_solution(inst, assignment)
    with open(log, encoding="utf-8") as fh:
        assert fh.read().splitlines()[-1] == "verdict sat"


def test_solve_unsat(tmp_path, capsys):
    path = write_instance(tmp_path, broken_triangle_instance())
    assert main(["solve", path, "--rule", "triangle"]) == 20
    assert capsys.readouterr().out.strip() == "unsat"


@pytest.mark.parametrize("rule", RULES + ("none",))
def test_solve_logs_refutation_before_search(tmp_path, capsys, rule):
    # arc consistency refutes each instance before any rule or search
    # runs: the one constraint allows no pair, or x0's domain is empty
    # and on no constraint, so no arc revision sees it
    path = tmp_path / "refuted.bcsp"
    log = str(tmp_path / "search.log")
    for text in ("BCSP 1\nvars 2\ndom 0 2 0 1\ndom 1 2 0 1\ncon 0 1 0\nend\n",
                 "BCSP 1\nvars 2\ndom 0 0\ndom 1 2 0 1\nend\n"):
        path.write_text(text)
        assert main(["solve", str(path), "--rule", rule, "--log", log]) == 20
        assert capsys.readouterr().out.strip() == "unsat"
        with open(log, encoding="utf-8") as fh:
            assert fh.read().splitlines() == ["backtracks 0", "verdict unsat"]
        if rule != "none":
            assert main(["preprocess", str(path), "--rule", rule]) == 20
            assert parse_report(capsys.readouterr().out)["verdict"] == "unsat"


def test_solve_timeout(tmp_path, capsys):
    path = write_instance(tmp_path, clique_instance(6, 5))
    assert main(["solve", path, "--time-limit", "0.0"]) == 2
    assert capsys.readouterr().out.strip() == "timeout"


def test_solve_verdicts_match_brute_force(tmp_path, capsys):
    for seed in range(6):
        inst = small_random(seed, n=5, d=3, p2=0.55)
        path = write_instance(tmp_path, inst, "s%d.bcsp" % seed)
        code = main(["solve", path])
        verdict = capsys.readouterr().out.strip().splitlines()[0]
        expected = brute_force_solve(inst)
        if expected is None:
            assert (code, verdict) == (20, "unsat"), seed
        else:
            assert (code, verdict) == (0, "sat"), seed


def test_solve_writes_solution_file(tmp_path, capsys):
    path = write_instance(tmp_path, star_instance(4))
    out = str(tmp_path / "solution.txt")
    assert main(["solve", path, "--out", out]) == 0
    assert capsys.readouterr().out == ""
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sat" and len(lines) == 5


def test_verify_battery_csv(tmp_path, capsys):
    out = str(tmp_path / "verify.csv")
    code = main(["verify", "--count", "5", "--rules", "triangle", "aebtp",
                 "--out", out])
    assert code == 0
    capsys.readouterr()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        assert row["rule"] in ("triangle", "aebtp")
        assert row["n_eliminated_naive"] == row["n_eliminated_engine"]
        assert row["sat_before"] == row["sat_after"]
        assert row["reconstruction_ok"] == "1"


VERIFY_TOO_LARGE = ["verify", "--rules", "exists-snake", "--count", "2",
                    "--seed", "7", "--n-min", "12", "--n-max", "12",
                    "--d-min", "5", "--d-max", "5"]


def test_verify_size_guard_skip_is_not_a_discrepancy(capsys):
    assert main(VERIFY_TOO_LARGE) == 0
    out, err = capsys.readouterr()
    assert err.count("search space exceeds") == 2
    assert "discrepancy" not in err
    # the traces were compared, so each instance still gets its row
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2
    for row in rows:
        assert row["n_eliminated_naive"] == row["n_eliminated_engine"]
        assert row["sat_before"] == row["sat_after"] == ""
        assert row["reconstruction_ok"] == ""


def test_verify_discrepancy_fails_despite_size_guard(monkeypatch, capsys):
    import cspelim.oracle as oracle

    def wrong_fixpoint(inst, rule):
        # claims one elimination the engine does not make
        return inst.copy(), [SimpleNamespace(var=inst.variables[0])]

    monkeypatch.setattr(oracle, "naive_fixpoint", wrong_fixpoint)
    assert main(VERIFY_TOO_LARGE) == 1
    err = capsys.readouterr().err
    assert err.count("discrepancy") == 2
    assert "search space exceeds" not in err


def test_verify_empty_battery_prints_header(capsys):
    assert main(["verify", "--count", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["seed,rule,n_eliminated_naive,n_eliminated_engine,"
                   "sat_before,sat_after,reconstruction_ok"]


def test_verify_gives_up_when_every_draw_wipes_out(capsys):
    """p1 = p2 = 1 forbids every value pair, so every draw wipes out
    under AC: verify stops after a fixed number in a row and exits 1
    instead of drawing forever.  It runs in a thread so that a hang
    fails the test rather than stalling the suite."""
    codes = []
    worker = threading.Thread(daemon=True, target=lambda: codes.append(
        main(["verify", "--p1", "1", "--p2", "1", "--count", "1"])))
    worker.start()
    worker.join(30)
    assert codes == [1]
    err = capsys.readouterr().err
    assert "wiped out under arc consistency" in err
    assert "p1=1.0, p2_choices=(1.0,)" in err


def test_verify_rejects_empty_ranges(capsys):
    assert main(["verify", "--n-min", "5", "--n-max", "4"]) == 1
    assert capsys.readouterr().err == "error: --n-min 5 is above --n-max 4\n"
    assert main(["verify", "--d-min", "5", "--count", "1"]) == 1
    assert capsys.readouterr().err == "error: --d-min 5 is above --d-max 4\n"
    assert main(["verify", "--count", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --count -3 is below 0\n"
    assert captured.out == ""


def test_compare_pipeline_counts(tmp_path, capsys, monkeypatch):
    """compare, preprocess and solve run one pipeline: compare counts
    what preprocess eliminates, singleton removals included, and solve
    searches exactly the instance preprocess writes.  With no rule, the
    CLI and the library alike search the arc-consistent closure."""
    star_path = write_instance(tmp_path, star_instance(5), "star.bcsp")
    gap_path = write_instance(tmp_path, degree_gap_instance(), "gap.bcsp")
    out = str(tmp_path / "compare.csv")
    code = main(["compare", star_path, gap_path,
                 "--rules", "exists-snake", "de-snake", "--out", out])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "rule", "n", "eliminated", "pct",
                       "dom_hist", "deg_hist"]
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    star_row = by_key[(star_path, "de-snake")]
    assert star_row[2:5] == ["5", "5", "100.0"]
    assert star_row[5] == "2:5"        # every eliminated var had 2 values
    assert star_row[6] == "1:4;4:1"    # four leaves and the centre
    assert by_key[(star_path, "exists-snake")][3] == "5"

    # under every rule, on seeded files where arc consistency deletes
    # values and singleton removal eliminates variables
    searched = []
    real_mac_solve = cspelim.solver.mac_solve

    def recording_mac_solve(inst, *args):
        searched.append(inst)
        return real_mac_solve(inst, *args)

    monkeypatch.setattr(cspelim.solver, "mac_solve", recording_mac_solve)
    paths = []
    ac_deleted = singletons = 0
    for seed in (2, 3, 6):
        inst = small_random(seed, n=10, d=3, p1=0.4, p2=0.4)
        ac, log, ok = enforce_ac(inst)
        assert ok, seed
        ac_deleted += len(log)
        singletons += len(eliminate_singletons(ac)[1])
        paths.append(write_instance(tmp_path, inst, "r%d.bcsp" % seed))
    assert ac_deleted > 0 and singletons > 0, (ac_deleted, singletons)

    assert main(["compare", *paths, "--out", out]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        compared = {(r["instance"], r["rule"]): int(r["eliminated"])
                    for r in csv.DictReader(fh)}
    for path in paths:
        for rule in RULES:
            reduced = str(tmp_path / "reduced.bcsp")
            assert main(["preprocess", path, "--rule", rule,
                         "--out", reduced]) == 0
            report = parse_report(capsys.readouterr().out)
            assert compared[(path, rule)] == (int(report["vars-before"])
                                              - int(report["vars-after"]))
            searched.clear()
            assert main(["solve", path, "--rule", rule]) in (0, 20)
            capsys.readouterr()
            assert len(searched) == 1, (path, rule)
            handed = str(tmp_path / "searched.bcsp")
            save_instance(searched[0], handed)
            with open(reduced, encoding="utf-8") as want, \
                    open(handed, encoding="utf-8") as got:
                assert got.read() == want.read(), (path, rule)

        closure = str(tmp_path / "closure.bcsp")
        inst = load_instance(path)
        save_instance(enforce_ac(inst)[0], closure)
        searched.clear()
        assert main(["solve", path, "--rule", "none"]) in (0, 20)
        capsys.readouterr()
        solve_with_preprocessing(inst, None)
        assert len(searched) == 2, path
        for caller, handed_inst in zip(("cli", "library"), searched):
            handed = str(tmp_path / "searched.bcsp")
            save_instance(handed_inst, handed)
            with open(closure, encoding="utf-8") as want, \
                    open(handed, encoding="utf-8") as got:
                assert got.read() == want.read(), (path, caller)


def test_cli_error_handling(tmp_path, capsys):
    assert main(["preprocess", str(tmp_path / "missing.bcsp"),
                 "--rule", "triangle"]) == 1
    bad = tmp_path / "bad.bcsp"
    bad.write_text("not an instance\n")
    assert main(["solve", str(bad)]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["preprocess"]) == 1  # missing required arguments
    capsys.readouterr()
    # rejected by SearchConfig before any search starts
    path = write_instance(tmp_path, clique_instance(6, 5))
    for flag, field in (("--factor", "restart_factor"),
                        ("--time-limit", "time_limit")):
        assert main(["solve", path, flag, "nan"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: %s must be" % field), flag


def test_cli_reports_unexpected_errors(tmp_path, capsys, monkeypatch):
    def deep_search(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("cspelim.solver.mac_solve", deep_search)
    path = write_instance(tmp_path, star_instance(3))
    assert main(["solve", path, "--rule", "none"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "recursion" in err


def test_kept_parser_answers_as_fresh_ones(tmp_path, capsys, monkeypatch):
    """`main` builds its parser on the first call, not at import, and
    keeps it: `--help` twice, a bad command line, then a good
    `preprocess` give the exit codes and output of a parser built afresh
    for each call.  A `cmd_*` rebound after the parser was built is the
    one called."""
    import cspelim.cli as cli

    lazy = ("import cspelim.cli as cli; "
            "assert cli.build_parser.cache_info().currsize == 0")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", lazy], env=env, check=True)

    path = write_instance(tmp_path, star_instance(5))
    argvs = (["--help"], ["preprocess", "--help"], ["--help"],
             ["preprocess", path, "--rule", "no-such-rule"],
             ["preprocess", path, "--rule", "de-snake"])

    def session():
        answers = []
        for argv in argvs:
            code = main(argv)
            out, err = capsys.readouterr()
            out = [line for line in out.splitlines()
                   if not line.startswith("time-")]
            answers.append((code, out, err))
        return answers

    kept = session()
    assert [code for code, _, _ in kept] == [0, 0, 0, 1, 0]
    assert cli.build_parser() is cli.build_parser()
    with monkeypatch.context() as mp:
        mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert session() == kept
    called = []
    monkeypatch.setattr(cli, "cmd_preprocess",
                        lambda args: called.append(args.input) or 0)
    assert main(list(argvs[-1])) == 0 and called == [path]
