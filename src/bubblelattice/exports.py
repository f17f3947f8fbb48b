"""CSV / DOT / JSON writers with deterministic ordering."""

from __future__ import annotations

import csv
import io

from .bubble import LatticeFamily
from .hochschild import sigma_tilde
from .labeling import edge_labels


def render_inversions(pairs) -> str:
    return " ".join(f"(x{s},y{t})" for s, t in sorted(pairs))


def element_table_csv(family: LatticeFamily) -> str:
    """Two columns, word and inversion set, one row per element."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["word", "inversions"])
    for w in family.words:
        writer.writerow([str(w), render_inversions(w.inversions)])
    return buf.getvalue()


def hasse_dot(family: LatticeFamily, name: str, labeled: bool = False) -> str:
    if not labeled:
        return family.poset.to_dot(labels=family.labels(), name=name)
    labels = edge_labels(family)
    return family.poset.to_dot(
        labels=family.labels(),
        edge_label=lambda a, b: str(labels[(a, b)]),
        name=name,
    )


def sigma_table_csv(family: LatticeFamily) -> str:
    """Word and triword columns for the single-y family (n-1, 1), whose
    words encode as triwords of length n."""
    n = family.m + 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["word", "triword"])
    for w in family.words:
        writer.writerow([str(w), str(sigma_tilde(w, n))])
    return buf.getvalue()
