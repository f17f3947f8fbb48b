"""The batch front-end: subcommands, reports, exports, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bubblelattice import bubble, checks, posets, words
from bubblelattice.cli import build_check_report, main
from bubblelattice.exports import element_table_csv, sigma_table_csv
from bubblelattice.bubble import build_bubble_lattice

from conftest import replace_everywhere

ROOT = Path(__file__).resolve().parents[1]

TABLE_21_CSV_ROWS = {
    ("-", ""),
    ("x1", ""),
    ("x2", ""),
    ("y1", ""),
    ("x1.x2", ""),
    ("x1.y1", ""),
    ("x2.y1", ""),
    ("y1.x1", "(x1,y1)"),
    ("y1.x2", "(x2,y1)"),
    ("x1.x2.y1", ""),
    ("x1.y1.x2", "(x2,y1)"),
    ("y1.x1.x2", "(x1,y1) (x2,y1)"),
}


def run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BUBBLELATTICE_OUTDIR", str(tmp_path))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_table_21(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["generate", "2", "1", "--csv"], tmp_path, monkeypatch, capsys)
        assert code == 0
        lines = (tmp_path / "bubble_2_1.csv").read_text().splitlines()
        assert lines[0] == "word,inversions"
        rows = {tuple(line.split(",", 1)) for line in lines[1:]}
        assert {(w, inv.strip('"')) for w, inv in rows} == TABLE_21_CSV_ROWS

    def test_single_node_family(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["generate", "0", "0"], tmp_path, monkeypatch, capsys)
        assert code == 0
        lines = (tmp_path / "bubble_0_0.csv").read_text().splitlines()
        assert lines == ["word,inversions", "-,"]

    def test_dot_export(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["generate", "2", "2", "--dot"], tmp_path, monkeypatch, capsys)
        assert code == 0
        dot = (tmp_path / "bubble_2_2.dot").read_text()
        assert dot.count("[label=") == 33
        assert dot.count("->") == 66
        assert (tmp_path / "shuffle_2_2.dot").exists()

    def test_cap_refusal(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["generate", "4", "4", "--cap", "100"], tmp_path, monkeypatch, capsys
        )
        assert code == 2 and "refused" in err

    @pytest.mark.parametrize("command", ["generate", "galois", "label"])
    def test_refused_family_creates_no_outdir(self, command, tmp_path, monkeypatch, capsys):
        target = tmp_path / "D"
        code, _, err = run([command, "6", "5", "--outdir", str(target)], tmp_path, monkeypatch, capsys)
        assert code == 2 and "refused" in err
        assert not target.exists()

    def test_covers_json(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["generate", "1", "1", "--json"], tmp_path, monkeypatch, capsys)
        assert code == 0
        data = json.loads((tmp_path / "bubble_1_1_covers.json").read_text())
        assert data["n"] == 5 and len(data["covers"]) == 5


class TestCheck:
    def test_trivial_family_passes(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["check", "1", "0"], tmp_path, monkeypatch, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["violations"] == []
        assert any(c["status"] == "skip" for c in report["checks"])  # hochschild

    def test_full_run_21(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["check", "2", "1", "--suite", "all", "--json"], tmp_path, monkeypatch, capsys
        )
        assert code == 0
        report = json.loads(out)
        ids = {c["id"] for c in report["checks"]}
        assert {
            "lattice.unique_joins",
            "lattice.extremal_counts",
            "lattice.semidistributive_trim",
            "labeling.cu_conditions",
            "galois.graphs_coincide",
            "hochschild.iso",
            "duality.anti_isomorphism",
            "crown.witness",
        } <= ids
        assert (tmp_path / "check_2_1.json").exists()
        cu = next(c for c in report["checks"] if c["id"] == "labeling.cu_conditions")
        assert set(cu["detail"]) == {"polygons"}

    def test_cap_admits_a_family_above_the_default(self, tmp_path, monkeypatch, capsys):
        # (2,2) has 33 words, above the default cap of 20 set here
        monkeypatch.setattr(bubble, "DEFAULT_CAP", 20)
        code, out, _ = run(
            ["check", "2", "2", "--cap", "100", "--suite", "order,duality"],
            tmp_path,
            monkeypatch,
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["suites"] == ["order", "duality"]
        ids = {c["id"] for c in report["checks"]}
        assert {"order.axioms", "duality.anti_isomorphism"} <= ids

    def test_refuses_6_5_before_building(self, tmp_path, monkeypatch, capsys):
        def forbidden(m, n):
            raise AssertionError("the family was enumerated before the cap check")

        monkeypatch.setattr(words, "enumerate_shuffle", forbidden)
        monkeypatch.setattr(bubble, "enumerate_shuffle", forbidden)
        code, out, err = run(["check", "6", "5"], tmp_path, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert "refused" in err and "43,620" in err and "7.6 GB" in err

    def test_refuses_past_the_table_limit_whatever_the_cap(self, tmp_path, monkeypatch, capsys):
        # N = 127,905: uint16 tables cannot index it, so no cap admits it
        def forbidden(m, n):
            raise AssertionError("the family was enumerated before the cap check")

        monkeypatch.setattr(words, "enumerate_shuffle", forbidden)
        monkeypatch.setattr(bubble, "enumerate_shuffle", forbidden)
        code, out, err = run(["check", "6", "6", "--cap", "1000000"], tmp_path, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert "refused" in err and "127,905" in err and "65,536" in err and "uint16" in err

    def test_suite_subset(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["check", "2", "1", "--suite", "galois"], tmp_path, monkeypatch, capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["suites"] == ["galois"]
        assert [c["id"] for c in report["checks"]] == ["galois.graphs_coincide"]

    def test_unknown_suite(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            run(["check", "1", "1", "--suite", "nope"], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("suites", [",", "order,order"])
    def test_empty_or_repeated_suite_list(self, suites, tmp_path, monkeypatch, capsys):
        # refused like an unknown suite, before anything is built or printed
        with pytest.raises(SystemExit) as exc:
            run(["check", "2", "1", "--suite", suites], tmp_path, monkeypatch, capsys)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and "bad suite list" in err
        assert out == ""

    @pytest.mark.parametrize("suites", ["nope", ",", "order,order"])
    def test_sweep_refuses_a_suite_list_as_check_does(self, suites, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "1", "1", "--suite", suites])
        refusal = capsys.readouterr().err.splitlines()[-1].split("error: ", 1)[1]
        sweep = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_checks.py"), "--suite", suites],
            capture_output=True,
            text=True,
        )
        assert exc.value.code == sweep.returncode == 2 and sweep.stdout == ""
        assert sweep.stderr.splitlines()[-1].split("error: ", 1)[1] == refusal

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "2", "1", "--dot"],
            ["check", "2", "1", "--csv"],
            ["galois", "2", "1", "--csv"],
            ["label", "2", "1", "--csv"],
            ["generate", "--m", "1", "--n", "1"],
            ["check", "2"],
        ],
        ids=["check-dot", "check-csv", "galois-csv", "label-csv", "m-n-flags", "check-without-n"],
    )
    def test_flags_a_command_does_not_read_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv, tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2

    def test_exit_code_tracks_violations(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["check", "1", "1"], tmp_path, monkeypatch, capsys)
        report = json.loads(out)
        assert (code == 0) == (report["violations"] == [])

    def test_report_byte_stable(self):
        a = json.dumps(build_check_report(1, 1, ["order", "crown"]), sort_keys=True)
        b = json.dumps(build_check_report(1, 1, ["order", "crown"]), sort_keys=True)
        assert a == b

    def test_timings_flag_adds_key(self):
        without = build_check_report(1, 0, ["crown"])
        with_timings = build_check_report(1, 0, ["crown"], timings=True)
        assert "timings" not in without
        assert set(with_timings["timings"]) == {"build", "crown", "peak_rss_mb"}
        # the process has imported numpy: its peak is some MB, not KiB or bytes
        assert 10 < with_timings["timings"]["peak_rss_mb"] < 10_000

    def test_parallel_flag_is_gone(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check", "1", "1", "--parallel"], tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2

    def test_bad_alphabet_size_exits_2(self, tmp_path, monkeypatch, capsys):
        code, out, err = run(["check", "-1", "2"], tmp_path, monkeypatch, capsys)
        assert code == 2 and out == "" and "error" in err

    @pytest.mark.parametrize(
        "m,n,expected", [(3, 3, {(3, 3): 1}), (2, 1, {(2, 1): 1})]
    )
    def test_one_build_per_family(self, m, n, expected, tmp_path, monkeypatch, capsys):
        builds = {}
        original = bubble.build_bubble_lattice

        def counted(m, n, cap=None):
            builds[(m, n)] = builds.get((m, n), 0) + 1
            return original(m, n, cap=cap)

        replace_everywhere(monkeypatch, original, counted)
        code, _, _ = run(["check", str(m), str(n)], tmp_path, monkeypatch, capsys)
        assert code == 0 and builds == expected

    def test_order_and_lattice_build_one_full_size_poset(self, tmp_path, monkeypatch, capsys):
        size = len(build_bubble_lattice(3, 3).words)
        sizes = []
        original = posets.FinitePoset.__init__

        def counted(self, n, cover_pairs):
            sizes.append(n)
            original(self, n, cover_pairs)

        monkeypatch.setattr(posets.FinitePoset, "__init__", counted)
        code, _, _ = run(["check", "3", "3", "--suite", "order,lattice"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert sizes.count(size) == 1

    def test_raising_check_is_a_failure_entry(self, tmp_path, monkeypatch, capsys):
        def broken(P):
            raise RuntimeError("no crown today")

        monkeypatch.setattr(posets, "find_crown", broken)
        code, out, err = run(
            ["check", "2", "1", "--suite", "crown,duality"], tmp_path, monkeypatch, capsys
        )
        report = json.loads(out)
        assert code == 1 and report["violations"] == ["crown.witness"]
        assert "RuntimeError: no crown today" in err
        assert report["checks"] == [
            {
                "id": "crown.witness",
                "status": "fail",
                "detail": {"error": "RuntimeError", "message": "no crown today"},
            },
            {"id": "duality.anti_isomorphism", "status": "pass", "detail": {}},
        ]

    def test_run_suite_calls_the_check_on_the_module(self, monkeypatch):
        # a check set on the module after import, as a tracer's wrapper is, is the one run
        stub = checks.CheckResult("lattice.hasse_regular", "fail", {"stub": True})
        family = build_bubble_lattice(2, 1)
        assert checks.run_suite("lattice", family)[1].status == "pass"
        monkeypatch.setattr(checks, "check_hasse_regular", lambda family: stub)
        results = checks.run_suite("lattice", family)
        assert results[1] is stub
        assert [r.id for r in results] == [check_id for check_id, _ in checks.SUITES["lattice"]]

    def test_family_that_fails_to_build_fails_every_check(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(words):
            raise RuntimeError("no covers")

        monkeypatch.setattr(bubble, "_cover_steps", broken)
        code, out, _ = run(
            ["check", "2", "1", "--suite", "order,crown"], tmp_path, monkeypatch, capsys
        )
        report = json.loads(out)
        assert code == 1
        assert report["violations"] == [
            "order.axioms",
            "order.move_closure",
            "order.shuffle_suborder",
            "order.covers_match_reduction",
            "crown.witness",
        ]
        assert {c["detail"]["message"] for c in report["checks"]} == {"no covers"}

    def test_galois_above_a_thousand_elements(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["check", "2", "6", "--suite", "galois"], tmp_path, monkeypatch, capsys)
        report = json.loads(out)
        assert code == 0
        assert report["checks"][0]["detail"] == {"k": 20, "reconstruction": "isomorphic"}


class TestHochschildCommand:
    def test_small(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["hochschild", "3", "--csv"], tmp_path, monkeypatch, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        table = (tmp_path / "triwords_3.csv").read_text()
        assert table == sigma_table_csv(build_bubble_lattice(2, 1))
        assert "x1.y1.x2,\"(1,1,0)\"" in table

    def test_csv_reuses_the_capped_build(self, tmp_path, monkeypatch, capsys):
        builds = []

        def recording(m, n, cap=None):
            builds.append((m, n, cap))
            return original(m, n, cap=cap)

        original = bubble.build_bubble_lattice
        replace_everywhere(monkeypatch, original, recording)
        code, _, _ = run(["hochschild", "4", "--csv", "--cap", "50"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert builds == [(3, 1, 50)]

    def test_trivial(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["hochschild", "1"], tmp_path, monkeypatch, capsys)
        assert code == 0

    def test_larger(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["hochschild", "7"], tmp_path, monkeypatch, capsys)
        assert code == 0


class TestLabelCommand:
    def test_writes_report_and_dot(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["label", "2", "1", "--json", "--dot"], tmp_path, monkeypatch, capsys
        )
        assert code == 0
        report = json.loads((tmp_path / "cu_report_2_1.json").read_text())
        assert all(not v for v in report["violations"].values())
        dot = (tmp_path / "bubble_2_1_labeled.dot").read_text()
        assert 'label="(x2,y1)"' in dot


class TestGaloisCommand:
    def test_summary_and_exports(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["galois", "2", "1", "--dot", "--json"], tmp_path, monkeypatch, capsys
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["k"] == 5 and summary["orthogonal_pairs"] == summary["elements"] == 12
        assert (tmp_path / "galois_2_1.dot").exists()
        assert (tmp_path / "galois_2_1.json").exists()


def test_export_figures_matches_the_golden_exports(tmp_path):
    script = ROOT / "scripts" / "export_figures.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True, capture_output=True)
    golden = ROOT / "tests" / "golden"
    expected = {
        "bubble_2_1.csv": golden / "generate_2_1",
        "shuffle_2_1.dot": golden / "generate_2_1",
        "bubble_2_2.dot": golden / "generate_2_2",
        "bubble_2_1_labeled.dot": golden / "label_2_1",
        "galois_2_1.dot": golden / "galois_2_1",
        "galois_2_2.dot": golden / "galois_2_2",
    }
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*expected, "triwords_3.csv"])
    for name, case in expected.items():
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), name
    assert (tmp_path / "triwords_3.csv").read_text() == sigma_table_csv(build_bubble_lattice(2, 1))


class TestOutdir:
    def test_env_var_respected(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "nested"
        monkeypatch.setenv("BUBBLELATTICE_OUTDIR", str(target))
        code = main(["generate", "1", "0", "--csv"])
        capsys.readouterr()
        assert code == 0 and (target / "bubble_1_0.csv").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BUBBLELATTICE_OUTDIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        code = main(["generate", "1", "0", "--csv", "--outdir", str(explicit)])
        capsys.readouterr()
        assert code == 0 and (explicit / "bubble_1_0.csv").exists()


class TestCsvHelpers:
    def test_element_table_deterministic(self):
        family = build_bubble_lattice(1, 1)
        assert element_table_csv(family) == element_table_csv(family)
