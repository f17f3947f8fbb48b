"""Check reports and exports match the committed golden files byte for byte.

Each case runs one command in an empty working directory, with neither
``--outdir`` nor ``$BUBBLELATTICE_OUTDIR``, so every path it prints is
relative.  ``tests/golden/<case>/`` holds the command's stdout (as the file
``stdout``) and every file it wrote.  After a deliberate change of output,
rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` and say
why in CHANGES.md.
"""

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from bubblelattice.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    "check_1_4": ["check", "1", "4"],
    "check_2_2": ["check", "2", "2"],
    "check_3_2": ["check", "3", "2"],
    "check_5_1": ["check", "5", "1"],
    "generate_2_1": ["generate", "2", "1", "--csv", "--dot", "--json"],
    "generate_2_2": ["generate", "2", "2", "--csv", "--dot", "--json"],
    "label_2_1": ["label", "2", "1", "--dot", "--json"],
    "label_2_2": ["label", "2", "2", "--dot", "--json"],
    "galois_2_1": ["galois", "2", "1", "--dot", "--json"],
    "galois_2_2": ["galois", "2", "2", "--dot", "--json"],
    "hochschild_4": ["hochschild", "4", "--csv"],
}


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """The stdout of ``main(argv)`` run in ``workdir``, and the files it wrote."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            main(argv)
    finally:
        os.chdir(cwd)
    produced = {path.name: path.read_bytes() for path in workdir.iterdir()}
    produced["stdout"] = out.getvalue().encode()
    return produced


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("BUBBLELATTICE_OUTDIR", raising=False)
    expected = {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}
    produced = run_case(CASES[case], tmp_path)
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, f"{case}/{name} differs"


if __name__ == "__main__":
    os.environ.pop("BUBBLELATTICE_OUTDIR", None)
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            produced = run_case(argv, Path(tmp))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        (GOLDEN / case).mkdir(parents=True)
        for name, data in produced.items():
            (GOLDEN / case / name).write_bytes(data)
