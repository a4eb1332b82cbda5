"""Degree-sequence toolkit tests.

Expected values for the non-obvious cases were computed by exhaustively
enumerating labeled simple graphs, the method of the tests' own oracle
`oracles.brute_force_realizable`, which is cross-checked here against the
analytic tests.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesim.degseq import (
    DegreeSequence,
    RealizedGraph,
    erdos_gallai,
    havel_hakimi,
    verify_degrees,
)
from oracles import (
    BRUTE_FORCE_MAX_NODES,
    brute_force_realizable,
    reference_erdos_gallai,
    reference_havel_hakimi,
)


class TestErdosGallai:
    def test_all_zero_is_graphic(self):
        assert erdos_gallai([0, 0, 0])

    def test_3331_is_not_graphic(self):
        assert not erdos_gallai([3, 3, 3, 1])

    def test_33222_is_graphic(self):
        assert erdos_gallai([3, 3, 2, 2, 2])

    def test_odd_sum_rejected(self):
        assert not erdos_gallai([1, 1, 1])

    def test_empty_sequence(self):
        assert erdos_gallai([])

    def test_degree_of_n_or_more_rejected(self):
        assert not erdos_gallai([3, 1, 1])
        assert not erdos_gallai([5, 5, 5, 5])


class TestHavelHakimi:
    def test_single_edge(self):
        outcome = havel_hakimi([1, 1])
        assert outcome.realizable
        assert outcome.graph.sorted_edges() == [(1, 2)]

    def test_triangle(self):
        outcome = havel_hakimi([2, 2, 2])
        assert outcome.graph.sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_3331_unrealizable(self):
        assert not havel_hakimi([3, 3, 3, 1]).realizable

    def test_deterministic_tie_break(self):
        a = havel_hakimi([1, 1, 1, 1])
        b = havel_hakimi([1, 1, 1, 1])
        assert a.graph.sorted_edges() == b.graph.sorted_edges() == [(1, 2), (3, 4)]

    def test_respects_node_ids(self):
        seq = DegreeSequence(((10, 1), (20, 1)))
        outcome = havel_hakimi(seq)
        assert outcome.graph.sorted_edges() == [(10, 20)]

    def test_constructed_graph_is_simple_and_exact(self):
        seq = DegreeSequence.from_degrees([3, 3, 2, 2, 2])
        outcome = havel_hakimi(seq)
        assert verify_degrees(outcome.graph, seq)

    def test_zero_degrees_leave_isolated_nodes(self):
        outcome = havel_hakimi([2, 1, 1, 0])
        assert outcome.realizable
        assert outcome.graph.degree_of(4) == 0

    @pytest.mark.parametrize(
        "entries, edges",
        [
            pytest.param([1, 1], [(1, 2)], id="one-peel"),
            pytest.param([1, 1, 2, 2], [(3, 4), (1, 3), (2, 4)], id="partners-below-and-above"),
            pytest.param([0, 1, 1], [(2, 3)], id="rest-already-met"),
            pytest.param([0, 1], None, id="zero-partner"),
            pytest.param([1], None, id="demand-above-nodes-left"),
            pytest.param(
                DegreeSequence(((7, 1), (2**40, 2), (2**41, 1))),
                [(7, 2**40), (2**40, 2**41)],
                id="sparse-ids",
            ),
        ],
    )
    def test_each_peel_exit(self, entries, edges):
        """The smallest demands that reach each way out of a peel, and sparse
        ids far above n. The edges hold the sequence's own id objects."""
        seq = DegreeSequence.coerce(entries)
        outcome = havel_hakimi(seq)
        assert outcome == reference_havel_hakimi(seq)
        if edges is None:
            assert not outcome.realizable
        else:
            assert list(outcome.graph.edges) == list(frozenset(edges))
            own = {id(i) for i in seq.node_ids}
            assert all(id(u) in own and id(v) in own for u, v in outcome.graph.edges)


class TestBruteForce:
    def test_single_isolated_node(self):
        assert brute_force_realizable([0])

    def test_odd_sum(self):
        assert not brute_force_realizable([1, 1, 1])

    def test_four_cycle(self):
        assert brute_force_realizable([2, 2, 2, 2])

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            brute_force_realizable([1] * (BRUTE_FORCE_MAX_NODES + 1))

    def test_degree_beyond_n_unrealizable(self):
        assert not brute_force_realizable([4, 1, 1])


class TestVerifyDegrees:
    def _triangle(self):
        return RealizedGraph(
            node_ids=(1, 2, 3), edges=frozenset({(1, 2), (1, 3), (2, 3)})
        )

    def test_matching_demands(self):
        assert verify_degrees(self._triangle(), [2, 2, 2])

    def test_wrong_demand(self):
        assert not verify_degrees(self._triangle(), [2, 2, 1])

    def test_node_set_mismatch(self):
        seq = DegreeSequence(((1, 2), (2, 2), (4, 2)))
        assert not verify_degrees(self._triangle(), seq)


class TestTypeInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            DegreeSequence(((1, 2), (1, 3)))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DegreeSequence(((1, -1),))

    def test_node_id_zero_rejected(self):
        with pytest.raises(ValueError, match="node id 0 must be >= 1"):
            DegreeSequence(((0, 1), (1, 1)))

    def test_edge_stored_as_max_min_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(2, 1\) must be stored"):
            RealizedGraph(node_ids=(1, 2), edges=frozenset({(2, 1)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            RealizedGraph(node_ids=(1,), edges=frozenset({(1, 1)}))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            RealizedGraph(node_ids=(1, 2), edges=frozenset({(1, 3)}))

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((1, 1.9), (2, 1.2)), "degree 1.9 of node 1 must be an integer"),
            (((1.0, 1), (2, 1)), "node id 1.0 must be an integer"),
            (((1, 1.0), (2, 1.0)), "degree 1.0 of node 1 must be an integer"),
            (((True, 1), (2, 1)), "node id True must be an integer"),
            (((1, 1), (2, False)), "degree False of node 2 must be an integer"),
        ],
    )
    def test_non_integer_id_or_degree_rejected(self, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DegreeSequence(entries)

    def test_non_integer_degrees_not_truncated(self):
        with pytest.raises(ValueError, match="degree 1.9 of node 1"):
            havel_hakimi([1.9, 1.2])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((3, 3), "self-loop at node 3"),
            ((3, 1), r"edge \(3, 1\) must be stored as \(min, max\)"),
            ((1, 4), r"edge \(1, 4\) references unknown node"),
            ((0, 2), r"edge \(0, 2\) references unknown node"),
        ],
    )
    def test_bad_edge_after_a_valid_one_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            RealizedGraph(node_ids=(1, 2, 3), edges=[(1, 2), bad])

    def test_edge_list_checked_in_order_then_frozen(self):
        graph = RealizedGraph(node_ids=(1, 2, 3), edges=[(1, 2), (2, 3)])
        assert graph.edges == frozenset({(1, 2), (2, 3)})
        assert isinstance(graph.edges, frozenset)
        assert graph == RealizedGraph(node_ids=(1, 2, 3), edges=graph.edges)
        assert isinstance(havel_hakimi([1, 1]).graph.edges, frozenset)
        with pytest.raises(ValueError, match=r"edge \(3, 1\) must be stored"):
            RealizedGraph(node_ids=(1, 2, 3), edges=[(1, 2), (3, 1), (2, 2)])


def all_degree_multisets(n):
    return itertools.combinations_with_replacement(range(n), n)


@pytest.mark.parametrize("n", range(1, 7))
def test_triple_agreement_up_to_six(n):
    """The analytic test, the construction, and the exhaustive oracle agree
    on every degree multiset (the length-7 tier runs in the acceptance
    suite)."""
    for degrees in all_degree_multisets(n):
        eg = erdos_gallai(degrees)
        hh = havel_hakimi(degrees)
        brute = brute_force_realizable(degrees)
        assert eg == brute == hh.realizable, degrees
        if hh.realizable:
            assert verify_degrees(hh.graph, DegreeSequence.from_degrees(degrees))


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8))
def test_permutation_invariance(degrees):
    base = erdos_gallai(degrees)
    rotated = degrees[1:] + degrees[:1]
    assert erdos_gallai(rotated) == base
    assert havel_hakimi(rotated).realizable == havel_hakimi(degrees).realizable


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12))
def test_odd_sum_never_graphic(degrees):
    if sum(degrees) % 2 == 1:
        assert not erdos_gallai(degrees)
        assert not havel_hakimi(degrees).realizable


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=12))
def test_construction_matches_test_and_demands(degrees):
    outcome = havel_hakimi(degrees)
    assert outcome.realizable == erdos_gallai(degrees)
    if outcome.realizable:
        assert verify_degrees(outcome.graph, DegreeSequence.from_degrees(degrees))
        for u, v in outcome.graph.edges:
            assert u < v


def random_graph_demands(rng: random.Random, ids: list[int], density: float) -> list[int]:
    """The degrees of a random simple graph on `ids`: realizable demands."""
    degree = dict.fromkeys(ids, 0)
    for u, v in itertools.combinations(ids, 2):
        if rng.random() < density:
            degree[u] += 1
            degree[v] += 1
    return [degree[i] for i in ids]


def random_sequences(seed: int, count: int):
    """Seeded degree sequences on n <= 40 nodes with non-contiguous ids:
    the degrees of random graphs (sparse ones have zero demands), those
    with one demand nudged, and uniform draws from [0, n + 2], which go
    above n."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 40)
        ids = sorted(rng.sample(range(1, 5 * n + 2), n))
        if i % 3 == 2:
            degrees = [rng.randint(0, n + 2) for _ in ids]
        else:
            degrees = random_graph_demands(rng, ids, rng.choice((0.05, 0.3, 0.7)))
            if i % 3 == 1 and n:
                k = rng.randrange(n)
                degrees[k] = max(degrees[k] + rng.choice((-1, 1)), 0)
        rng.shuffle(ids)
        yield DegreeSequence(tuple(zip(ids, degrees)))


@pytest.mark.parametrize("seed", range(3))
def test_kernels_match_their_references(seed):
    """The one-pass Erdős–Gallai and the list-built Havel–Hakimi give the
    references' verdicts and the same outcome, node ids and edge set."""
    verdicts = []
    for seq in random_sequences(seed, 300):
        outcome = havel_hakimi(seq)
        reference = reference_havel_hakimi(seq)
        assert outcome == reference, seq
        if outcome.realizable:
            assert list(outcome.graph.edges) == list(reference.graph.edges), seq
        assert erdos_gallai(seq) == reference_erdos_gallai(seq) == outcome.realizable
        verdicts.append(outcome.realizable)
    assert 50 < sum(verdicts) < 250  # both verdicts are well covered


@st.composite
def tied_sequences(draw):
    """Up to 24 nodes with shuffled sparse ids and their demands drawn from
    at most three levels in [0, n + 2]: heavy ties, zero demands and
    demands above n."""
    n = draw(st.integers(min_value=0, max_value=24))
    sparse_id = st.integers(min_value=1, max_value=4 * n + 1)
    ids = draw(st.lists(sparse_id, min_size=n, max_size=n, unique=True))
    level = st.integers(min_value=0, max_value=n + 2)
    levels = draw(st.lists(level, min_size=1, max_size=3))
    degrees = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    return DegreeSequence(tuple(zip(ids, degrees)))


@settings(max_examples=300)
@given(tied_sequences())
def test_kernel_matches_reference_on_tied_demands(seq):
    """The kernel gives the one-edge-at-a-time reference's outcome, with
    its edges in the same order, and Erdős–Gallai's verdict."""
    outcome = havel_hakimi(seq)
    reference = reference_havel_hakimi(seq)
    assert outcome == reference
    assert outcome.realizable == erdos_gallai(seq)
    if outcome.realizable:
        assert list(outcome.graph.edges) == list(reference.graph.edges)


@pytest.mark.parametrize(
    "degrees",
    [
        pytest.param([256] * 1024, id="n1024-d256"),
        pytest.param(
            random_graph_demands(random.Random(512), list(range(1, 513)), 0.5),
            id="random-n512",
        ),
    ],
)
def test_kernels_match_their_references_at_scale(degrees):
    outcome = havel_hakimi(degrees)
    reference = reference_havel_hakimi(degrees)
    assert outcome.realizable
    assert outcome == reference
    assert list(outcome.graph.edges) == list(reference.graph.edges)
    assert erdos_gallai(degrees) == reference_erdos_gallai(degrees)
