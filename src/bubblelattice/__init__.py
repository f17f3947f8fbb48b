"""Bubble lattices and shuffle posets, with verification suites."""

from .bubble import (
    CoverStep,
    LatticeFamily,
    build_bubble_lattice,
    build_shuffle_poset,
    join,
    leq_bubble,
    leq_shuffle,
    meet,
)
from .hochschild import (
    Triword,
    enumerate_triwords,
    hochschild_lattice,
    sigma_tilde,
    verify_hochschild_iso,
)
from .labeling import BubbleLabel, build_label_poset, verify_cu_labeling
from .galois import (
    GaloisGraph,
    bubble_galois_explicit,
    galois_graph,
    galois_graph_sd,
    max_orthogonal_pairs,
    order_irreducibles,
)
from .posets import FinitePoset
from .words import (
    Letter,
    ShuffleWord,
    SupportProfile,
    count_shuffle,
    dualize,
    enumerate_shuffle,
    parse_word,
    profile,
    restriction,
    word_from_profile,
    word_text,
    x_fill,
    y_fill,
)

__version__ = "0.1.0"
