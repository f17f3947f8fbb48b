#!/usr/bin/env python3
"""Write the showcase artifacts: tables, labeled diagrams, Galois graphs.

Usage: python scripts/export_figures.py [outdir]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bubblelattice.bubble import build_bubble_lattice, build_shuffle_poset
from bubblelattice.exports import element_table_csv, hasse_dot, sigma_table_csv
from bubblelattice.galois import bubble_galois_explicit


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "figures")
    outdir.mkdir(parents=True, exist_ok=True)

    fam21 = build_bubble_lattice(2, 1)
    (outdir / "bubble_2_1.csv").write_text(element_table_csv(fam21))
    (outdir / "bubble_2_1_labeled.dot").write_text(hasse_dot(fam21, "bubble_2_1", labeled=True))
    (outdir / "shuffle_2_1.dot").write_text(hasse_dot(build_shuffle_poset(2, 1), "shuffle_2_1"))
    (outdir / "bubble_2_2.dot").write_text(hasse_dot(build_bubble_lattice(2, 2), "bubble_2_2"))
    (outdir / "galois_2_1.dot").write_text(bubble_galois_explicit(2, 1).to_dot("galois_2_1"))
    (outdir / "galois_2_2.dot").write_text(bubble_galois_explicit(2, 2).to_dot("galois_2_2"))
    (outdir / "triwords_3.csv").write_text(sigma_table_csv(fam21))
    for path in sorted(outdir.iterdir()):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
