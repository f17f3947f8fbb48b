"""Irreducible orderings, Galois graphs, and orthogonal-pair reconstruction."""

import pytest
from hypothesis import given, settings, strategies as st

from bubblelattice.bubble import extremal_chain_words
from bubblelattice.errors import NotExtremal
from bubblelattice.galois import (
    GaloisGraph,
    bubble_galois_explicit,
    galois_graph,
    galois_graph_sd,
    max_orthogonal_pairs,
    order_irreducibles,
)
from bubblelattice.hochschild import hochschild_lattice
from bubblelattice.labeling import BubbleLabel, edge_labels
from bubblelattice.posets import FinitePoset, is_lattice, maximum_length_chain

from conftest import extent_poset, is_isomorphic, oracle_galois_graph_sd, oracle_order_irreducibles, splits

X, Y, XY = BubbleLabel.xlab, BubbleLabel.ylab, BubbleLabel.pairlab


def chain_poset(k):
    return FinitePoset(k + 1, [(i, i + 1) for i in range(k)])


def boolean_poset(n):
    return FinitePoset.from_leq(2 ** n, lambda i, j: i & j == i)


def label_map(family, ordering):
    P, labels = family.poset, edge_labels(family)
    return {s + 1: labels[(P.down_adj[j][0], j)] for s, j in enumerate(ordering.jseq)}


class TestOrdering:
    def test_bubble_21_k(self, bubble):
        ordering = order_irreducibles(bubble(2, 1).poset)
        assert ordering.k == 5

    def test_identities_asserted_on_22(self, bubble):
        # order_irreducibles checks that every step is a cover, which with
        # the pinning implies the prefix-join and suffix-meet identities
        ordering = order_irreducibles(bubble(2, 2).poset)
        assert len(set(ordering.jseq)) == ordering.k == 8

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1)])
    def test_different_chains_give_same_labeled_graph(self, m, n, bubble):
        # the orderings differ between chains, but after identifying vertex
        # s with the label of its join-irreducible the graphs coincide
        family = bubble(m, n)
        seed = [family.index(u) for u in extremal_chain_words(m, n)]
        o1 = order_irreducibles(family.poset, chain=seed)
        o2 = order_irreducibles(family.poset)
        g1 = galois_graph(family.poset, o1).relabeled(label_map(family, o1))
        g2 = galois_graph(family.poset, o2).relabeled(label_map(family, o2))
        assert g1.arcs == g2.arcs and set(g1.vertices) == set(g2.vertices)

    def test_chain_lattice_ordering(self):
        P = chain_poset(4)
        ordering = order_irreducibles(P)
        assert ordering.jseq == (1, 2, 3, 4)
        assert ordering.mseq == (0, 1, 2, 3)

    def test_non_extremal_rejected(self):
        P = FinitePoset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        with pytest.raises(NotExtremal):
            order_irreducibles(P)

    def test_longer_than_its_join_irreducibles_rejected(self):
        # length 2, one join-irreducible: a valid poset, not a lattice
        with pytest.raises(NotExtremal):
            order_irreducibles(FinitePoset(4, [(0, 1), (1, 2), (3, 2)]))


def outcome(f, *args, **kwargs):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except NotExtremal as exc:
        return type(exc), str(exc)


class TestUpSetsAgainstTables:
    """The ordering by covers and the Galois arcs on up-sets against the
    table-based versions they replaced."""

    @pytest.mark.parametrize("m,n", splits(5))
    def test_bubble_families(self, m, n, bubble):
        family = bubble(m, n)
        P = family.poset
        seed = [family.index(u) for u in extremal_chain_words(m, n)]
        for chain in (None, seed, seed[::-1]):
            assert outcome(order_irreducibles, P, chain) == outcome(oracle_order_irreducibles, P, chain)
        for ordering in (order_irreducibles(P), order_irreducibles(P, seed)):
            assert galois_graph_sd(P, ordering) == oracle_galois_graph_sd(P, ordering)

    @settings(max_examples=40)
    @given(mn=st.sampled_from([(2, 1), (2, 2), (3, 1), (1, 3)]), data=st.data())
    def test_random_maximum_chains(self, mn, data, bubble):
        # any maximum-length chain, not only the two the checks use
        P = bubble(*mn).poset
        k = P.length()
        chain = [next(i for i in range(P.n) if P.height_below[i] == 0)]
        while P.height_below[chain[-1]] < k:
            steps = [j for j in P.up_adj[chain[-1]] if P.height_below[j] + P.depth_above[j] == k]
            chain.append(data.draw(st.sampled_from(steps)))
        assert outcome(order_irreducibles, P, chain) == outcome(oracle_order_irreducibles, P, chain)


def assert_same_verdict(P, chain):
    """order_irreducibles and the oracle accept the same chains with the
    same ordering; where the oracle's identities refuse, the cover test does."""
    new, old = outcome(order_irreducibles, P, chain), outcome(oracle_order_irreducibles, P, chain)
    if isinstance(old, tuple) and old[1].startswith("ordering identities fail"):
        assert isinstance(new, tuple) and new[1].endswith("is not a cover")
    else:
        assert new == old
    return old


class TestCoverTestAgainstIdentities:
    """The cover test that replaced the prefix-join and suffix-meet
    identities accepts and refuses the same sequences."""

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_one_element_replaced(self, m, n, bubble):
        P = bubble(m, n).poset
        chain = maximum_length_chain(P)
        verdicts = [
            assert_same_verdict(P, chain[:s] + [x] + chain[s + 1 :]) for s in range(len(chain)) for x in range(P.n)
        ]
        # some replacements pass the pinning and fail only the identities
        assert any(isinstance(v, tuple) and v[1].startswith("ordering identities") for v in verdicts)

    @settings(max_examples=60)
    @given(mn=st.sampled_from([(2, 1), (2, 2)]), data=st.data())
    def test_random_sequences(self, mn, data, bubble):
        P = bubble(*mn).poset
        k = P.length()
        ids = st.integers(0, P.n - 1)
        assert_same_verdict(P, data.draw(st.lists(ids, min_size=k + 1, max_size=k + 1)))
        chain = maximum_length_chain(P)
        a, b = data.draw(st.integers(0, k)), data.draw(st.integers(0, k))
        chain[a], chain[b] = chain[b], chain[a]
        chain[data.draw(st.integers(0, k))] = data.draw(ids)
        assert_same_verdict(P, chain)


class TestGaloisGraphs:
    def test_bubble_21_arcs(self, bubble):
        family = bubble(2, 1)
        ordering = order_irreducibles(family.poset)
        G = galois_graph(family.poset, ordering)
        relabeled = G.relabeled(label_map(family, ordering))
        assert relabeled.arcs == {
            (X(1), XY(1, 1)),
            (X(2), XY(2, 1)),
            (XY(1, 1), Y(1)),
            (XY(2, 1), Y(1)),
            (XY(1, 1), XY(2, 1)),
        }

    def test_chain_lattice_arcs_point_down(self):
        # j_s below m_t exactly when s < t, so arcs go strictly downward;
        # reconstruction returns the chain, confirming the orientation
        P = chain_poset(3)
        ordering = order_irreducibles(P)
        G = galois_graph(P, ordering)
        assert G.arcs == {(s, t) for s in range(1, 4) for t in range(1, 4) if s > t}
        assert is_isomorphic(extent_poset(max_orthogonal_pairs(G)), P) is not None

    def test_boolean_graph_arcless(self):
        P = boolean_poset(3)
        G = galois_graph(P, order_irreducibles(P))
        assert G.arcs == frozenset()

    @pytest.mark.parametrize("m,n", splits(4))
    def test_sd_shortcut_agrees(self, m, n, bubble):
        family = bubble(m, n)
        ordering = order_irreducibles(family.poset)
        assert galois_graph(family.poset, ordering).arcs == galois_graph_sd(
            family.poset, ordering
        ).arcs

    def test_sd_shortcut_on_boolean(self):
        P = boolean_poset(3)
        ordering = order_irreducibles(P)
        assert galois_graph(P, ordering).arcs == galois_graph_sd(P, ordering).arcs

    def test_no_self_loops_allowed(self):
        with pytest.raises(ValueError):
            GaloisGraph((1, 2), frozenset({(1, 1)}))


class TestExplicitGraph:
    def test_vertices_21(self):
        G = bubble_galois_explicit(2, 1)
        assert set(G.vertices) == {X(1), X(2), Y(1), XY(1, 1), XY(2, 1)}

    def test_y_vertices_have_no_arcs_from_x(self):
        G = bubble_galois_explicit(3, 2)
        for a, b in G.arcs:
            if b.kind == "y":
                assert a.kind == "xy"
            assert a.kind != "y"    # y-vertices emit nothing
            assert b.kind != "x"    # x-vertices absorb nothing

    def test_pair_block_transitive(self):
        G = bubble_galois_explicit(3, 3)
        pair_arcs = {(a, b) for a, b in G.arcs if a.kind == b.kind == "xy"}
        for a, b in pair_arcs:
            for c, d in pair_arcs:
                if b == c:
                    assert (a, d) in pair_arcs

    @pytest.mark.parametrize("m,n", splits(4))
    def test_matches_generic_by_labels(self, m, n, bubble):
        family = bubble(m, n)
        ordering = order_irreducibles(family.poset)
        relabeled = galois_graph(family.poset, ordering).relabeled(
            label_map(family, ordering)
        )
        explicit = bubble_galois_explicit(m, n)
        assert set(relabeled.vertices) == set(explicit.vertices)
        assert relabeled.arcs == explicit.arcs

    def test_pure_x_family_arcless(self):
        G = bubble_galois_explicit(3, 0)
        assert G.arcs == frozenset() and len(G.vertices) == 3


class TestOrthogonalPairs:
    def test_reconstructs_bubble_21(self, bubble):
        family = bubble(2, 1)
        pairs = max_orthogonal_pairs(bubble_galois_explicit(2, 1))
        assert len(pairs) == 12
        assert is_isomorphic(extent_poset(pairs), family.poset) is not None

    def test_arcless_graph_gives_boolean(self):
        G = GaloisGraph(tuple(range(4)), frozenset())
        pairs = max_orthogonal_pairs(G)
        assert len(pairs) == 16
        extents = {frozenset(a) for a, _ in pairs}
        assert extents == {
            frozenset(s)
            for s in [
                [], [0], [1], [2], [3], [0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                [2, 3], [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 2, 3],
            ]
        }

    def test_empty_graph(self):
        pairs = max_orthogonal_pairs(GaloisGraph((), frozenset()))
        assert pairs == (((), ()),)
        assert extent_poset(pairs).n == 1

    def test_pairs_are_orthogonal_and_maximal(self, bubble):
        G = bubble_galois_explicit(2, 2)
        arcs = G.arcs
        verts = set(G.vertices)
        for A, B in max_orthogonal_pairs(G):
            sa, sb = set(A), set(B)
            assert not sa & sb
            assert all((a, b) not in arcs for a in sa for b in sb)
            for v in verts - sa - sb:
                can_join_a = all((a, b) not in arcs for a in sa | {v} for b in sb) and v not in sb
                can_join_b = all((a, b) not in arcs for a in sa for b in sb | {v})
                assert not can_join_a and not can_join_b

    @pytest.mark.parametrize("make", [lambda: chain_poset(4), lambda: boolean_poset(3)])
    def test_reconstruction_zoo(self, make):
        P = make()
        pairs = max_orthogonal_pairs(galois_graph(P, order_irreducibles(P)))
        assert is_isomorphic(extent_poset(pairs), P) is not None

    def test_reconstruction_triwords(self):
        _, H = hochschild_lattice(4)
        pairs = max_orthogonal_pairs(galois_graph(H, order_irreducibles(H)))
        assert is_isomorphic(extent_poset(pairs), H) is not None


def galois_of(P):
    return galois_graph(P, order_irreducibles(P))


def canonical_image(P, ordering, pairs):
    """The index in ``pairs`` of (J_p, M_p) for each p, on vertices 1..k,
    by ``P.leq``; None where no pair matches."""
    index = {(frozenset(a), frozenset(b)): i for i, (a, b) in enumerate(pairs)}
    return [
        index.get((
            frozenset(s + 1 for s, j in enumerate(ordering.jseq) if P.leq(j, p)),
            frozenset(t + 1 for t, m in enumerate(ordering.mseq) if P.leq(p, m)),
        ))
        for p in range(P.n)
    ]


class TestExtentOrder:
    """Extent inclusion, the order of the maximal orthogonal pairs, by the
    pairwise subset test of ``extent_poset``."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: bubble_galois_explicit(2, 1),
            lambda: bubble_galois_explicit(2, 2),
            lambda: bubble_galois_explicit(3, 0),
            lambda: GaloisGraph(tuple(range(4)), frozenset()),
            lambda: GaloisGraph((), frozenset()),
            lambda: galois_of(chain_poset(4)),
            lambda: galois_of(boolean_poset(3)),
            lambda: galois_of(hochschild_lattice(4)[1]),
        ],
    )
    def test_fixtures(self, make):
        # a lattice, in which extent inclusion reverses intent inclusion
        pairs = max_orthogonal_pairs(make())
        E = extent_poset(pairs)
        intents = [set(b) for _, b in pairs]
        assert is_lattice(E)
        assert all(E.leq(i, j) == (intents[j] <= intents[i]) for i in range(E.n) for j in range(E.n))

    @pytest.mark.parametrize("m,n", splits(5))
    def test_bubble_families(self, m, n, bubble):
        # Markowsky's canonical map is an order isomorphism onto the extents
        P = bubble(m, n).poset
        ordering = order_irreducibles(P)
        pairs = max_orthogonal_pairs(galois_graph(P, ordering))
        image, E = canonical_image(P, ordering, pairs), extent_poset(pairs)
        assert len(image) == len(pairs) and set(image) == set(range(len(pairs)))
        assert all(E.leq(image[p], image[q]) == P.leq(p, q) for p in range(P.n) for q in range(P.n))

    def test_more_than_63_vertices(self):
        k = 70
        arcs = frozenset((a, b) for a in range(k) for b in range(k) if a != b)
        pairs = max_orthogonal_pairs(GaloisGraph(tuple(range(k)), arcs))
        assert pairs == (((), tuple(range(k))), (tuple(range(k)), ()))


class TestExports:
    def test_dot(self):
        G = bubble_galois_explicit(1, 1)
        dot = G.to_dot("g")
        assert "digraph g" in dot and "->" in dot

    def test_adjacency_json(self):
        import json

        G = bubble_galois_explicit(1, 1)
        data = json.loads(G.adjacency_json())
        assert set(data) == {"vertices", "arcs"}
        assert len(data["vertices"]) == 3
