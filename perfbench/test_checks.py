"""Self-test of the benchmark's output checks, on tiny families.

Each test runs the real program, confirms that its outputs pass, then
feeds the check a deliberately wrong answer and asserts that the operation
is counted as failed.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads
from workloads import CliResult, Outcome


def checked(workload, raw) -> Outcome:
    outcome = Outcome()
    workload.check(raw, outcome)
    return outcome


def small_text_io(tmp_path: Path, pairs: int = 30) -> workloads.TextIO:
    wl = workloads.TextIO(7, tmp_path)
    wl.pairs = wl.pairs[:pairs]
    wl.commands = workloads.export_commands([(2, 1), (2, 2)], 4)
    return wl


def export_outcome(wl, mutate) -> Outcome:
    """Run the exports, let ``mutate(outdir)`` damage one file, check."""
    printed, outdir, exported = wl.run()
    mutate(outdir)
    return checked(wl, (printed, outdir, exported))


# -- word pairs -------------------------------------------------------------------


def test_text_io_passes_as_is(tmp_path):
    wl = small_text_io(tmp_path)
    outcome = checked(wl, wl.run())
    assert (outcome.attempted, outcome.failed) == (30 + 7, 0), outcome.messages


def test_swapped_join_and_meet_fail(tmp_path):
    wl = small_text_io(tmp_path)
    printed, outdir, exported = wl.run()
    swapped = [(mt, j, a, b, ja, ma) for j, mt, a, b, ja, ma in printed]
    outcome = checked(wl, (swapped, outdir, exported))
    assert outcome.failed == 30 and outcome.wrong == 30


def test_wrong_comparison_fails(tmp_path):
    wl = small_text_io(tmp_path, pairs=3)
    printed, outdir, exported = wl.run()
    j, mt, a, b, ja, ma = printed[1]  # pair kind 1: u below v
    printed[1] = (j, mt, not a, b, ja, ma)
    assert checked(wl, (printed, outdir, exported)).failed == 1


def test_comparable_pair_with_a_wrong_join_fails():
    u, v = "x1.x2.y1", "x1.y1"  # u <= v, so u v v = v and u ^ v = u
    assert oracle.check_pair(u, v, 2, 1, v, u, True, False, u, u) == []
    assert oracle.check_pair(u, v, 2, 1, "y1", u, True, False, u, u)


def test_broken_absorption_fails():
    u, v = "x1.y1", "y1.x2"
    good = oracle.check_pair(u, v, 2, 1, "y1", "x1.y1.x2", False, False, u, u)
    assert good == []
    assert oracle.check_pair(u, v, 2, 1, "y1", "x1.y1.x2", False, False, "x1", u)


def test_crashing_pair_fails(tmp_path):
    wl = small_text_io(tmp_path, pairs=2)
    printed, outdir, exported = wl.run()
    printed[0] = "ValueError: boom"
    outcome = checked(wl, (printed, outdir, exported))
    assert outcome.failed == 1 and outcome.wrong == 0


# -- exported files -----------------------------------------------------------------


def _rewrite(path: Path, edit) -> None:
    before = path.read_text()
    after = edit(before)
    assert after != before, f"the edit left {path.name} unchanged"
    path.write_text(after)


def _first_edge(text: str) -> str:
    return next(line for line in text.splitlines(keepends=True) if "->" in line)


def test_dropped_dot_edge_fails(tmp_path):
    def drop_edge(outdir):
        _rewrite(outdir / "bubble_2_2.dot", lambda t: t.replace(_first_edge(t), "", 1))

    assert export_outcome(small_text_io(tmp_path, 0), drop_edge).failed == 1


def test_reversed_shuffle_edge_fails(tmp_path):
    def reverse(outdir):
        def flip(text):
            edge = _first_edge(text)
            a, b = edge.strip().rstrip(";").split(" -> ")
            return text.replace(edge, f"  {b} -> {a};\n", 1)

        _rewrite(outdir / "shuffle_2_1.dot", flip)

    assert export_outcome(small_text_io(tmp_path, 0), reverse).failed == 1


def test_wrong_edge_label_fails(tmp_path):
    def relabel(outdir):
        _rewrite(outdir / "bubble_2_1_labeled.dot", lambda t: t.replace('[label="x1"]', '[label="x2"]', 1))

    assert export_outcome(small_text_io(tmp_path, 0), relabel).failed == 1


def test_wrong_inversion_column_fails(tmp_path):
    def alter(outdir):
        _rewrite(outdir / "bubble_2_2.csv", lambda t: t.replace("(x1,y1)", "(x2,y1)", 1))

    assert export_outcome(small_text_io(tmp_path, 0), alter).failed == 1


def test_dropped_cover_in_json_fails(tmp_path):
    def drop(outdir):
        path = outdir / "bubble_2_1_covers.json"
        data = json.loads(path.read_text())
        data["covers"] = data["covers"][1:]
        path.write_text(json.dumps(data))

    assert export_outcome(small_text_io(tmp_path, 0), drop).failed == 1


def test_altered_triword_row_fails(tmp_path):
    def alter(outdir):
        _rewrite(outdir / "triwords_4.csv", lambda t: t.replace("(1,1,1,1)", "(1,1,1,0)", 1))

    assert export_outcome(small_text_io(tmp_path, 0), alter).failed == 1


def test_wrong_galois_summary_fails(tmp_path):
    wl = small_text_io(tmp_path, 0)
    printed, outdir, exported = wl.run()
    argv, result = exported[2]
    assert argv[0] == "galois"
    summary = json.loads(result.out)
    summary["orthogonal_pairs"] -= 1
    exported[2] = (argv, CliResult(0, json.dumps(summary), result.err))
    assert checked(wl, (printed, outdir, exported)).failed == 1


def test_missing_file_fails(tmp_path):
    def remove(outdir):
        (outdir / "cu_report_2_2.json").unlink()

    assert export_outcome(small_text_io(tmp_path, 0), remove).failed == 1


# -- check reports --------------------------------------------------------------------


def report_outcome(edit, family=("2", "2")) -> Outcome:
    argv = ["check", *family, "--suite", "all"]
    result = workloads.run_cli(argv)
    result = CliResult(result.rc, edit(json.loads(result.out)), result.err)
    outcome = Outcome()
    workloads.check_command_report(argv, result, outcome)
    return outcome


def test_reports_pass_as_is():
    for family in (("2", "1"), ("2", "2")):
        outcome = report_outcome(json.dumps, family)
        assert (outcome.attempted, outcome.failed) == (len(oracle.EXPECTED_CHECKS), 0), outcome.messages


def _edit_check(cid, key, value):
    def edit(report):
        for entry in report["checks"]:
            if entry["id"] == cid:
                entry["detail"][key] = value
        return json.dumps(report)

    return edit


def test_wrong_report_details_fail():
    assert report_outcome(_edit_check("lattice.hasse_regular", "degree", 3)).failed == 1
    assert report_outcome(_edit_check("galois.graphs_coincide", "k", 7)).failed == 1
    assert report_outcome(_edit_check("crown.witness", "atoms", 3)).failed == 1
    assert report_outcome(_edit_check("lattice.irreducibles_poset", "component_sizes", [1, 1, 3])).failed == 1
    wrong_triwords = _edit_check("hochschild.iso", "triwords", 10)
    assert report_outcome(wrong_triwords, ("2", "1")).failed == 1


def test_missing_and_failing_checks_fail():
    def drop(report):
        report["checks"] = [c for c in report["checks"] if c["id"] != "order.axioms"]
        return json.dumps(report)

    def fail(report):
        report["checks"][-1]["status"] = "fail"
        return json.dumps(report)

    assert report_outcome(drop).failed == 1
    assert report_outcome(fail).failed == 1
    outcome = report_outcome(lambda report: "not json")
    assert outcome.failed == len(oracle.EXPECTED_CHECKS)


# -- big family ------------------------------------------------------------------------


@pytest.fixture
def tiny_big(tmp_path):
    return workloads.BigFamily(3, tmp_path, family=(2, 2))


def test_big_family_passes_as_is(tiny_big):
    outcome = checked(tiny_big, tiny_big.run())
    assert (outcome.attempted, outcome.failed) == (6, 0), outcome.messages


def test_swapped_tables_fail(tiny_big):
    raw = tiny_big.run()
    join, meet = raw["tables"]
    raw["tables"] = (meet, join)
    assert checked(tiny_big, raw).failed == 1


def test_wrong_table_entry_fails(tiny_big):
    raw = tiny_big.run()
    join, meet = (np.array(t) for t in raw["tables"])
    for a, b in tiny_big.pairs:
        if a != b:
            join[a, b] = join[b, a] = meet[a, b]
            break
    raw["tables"] = (join, meet)
    assert checked(tiny_big, raw).failed == 1


def test_wrong_kappa_fails(tiny_big):
    raw = tiny_big.run()
    witness = raw["crown"]
    raw["crown"] = replace(witness, kappas=witness.kappas[1:] + witness.kappas[:1])
    assert checked(tiny_big, raw).failed == 1


def test_dropped_polygon_fails(tiny_big):
    raw = tiny_big.run()
    raw["polygons"] = raw["polygons"][1:]
    assert checked(tiny_big, raw).failed == 1


def test_wrong_irreducible_count_fails(tiny_big):
    raw = tiny_big.run()
    jirr, mirr, extremal, length = raw["irreducibles"]
    raw["irreducibles"] = (jirr[1:], mirr, extremal, length)
    assert checked(tiny_big, raw).failed == 1


def test_crashed_stage_fails_the_rest(tiny_big):
    raw = tiny_big.run()
    for stage in ("polygons", "galois"):
        del raw[stage]
    raw["error"] = "RuntimeError: boom"
    outcome = checked(tiny_big, raw)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (6, 2, 0)
