"""Arena-backed sketch query path: parity, postings, native kernel.

The arena layout (pooled tree arena + inverted membership index) and
the optional compiled tree-build kernel both promise *bit-identical*
answers to the historical per-sample Python path.  These tests pin
that promise down:

* ``build_packed`` (native kernel or Python fallback) against the
  per-sample reference builder, tree for tree;
* arena vs legacy views across blocker-set walks, including the
  shrink -> grow -> shrink sequences GreedyReplace's replacement phase
  produces (blockers removed then re-added), each step cross-checked
  against a cold rebuild;
* the postings construction kernel;
* the byte gauges' failure-injection contract (a builder that dies
  mid-rebase must not strand phantom bytes);
* the bounds checks on ``marginal_gain`` / blocked ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import greedy_replace, solve_imin
from repro.datasets.toy import figure1_graph, figure1_seed, V
from repro.engine import make_evaluator, postings_csr, SketchIndex
from repro.engine.pool import SamplePool
from repro.engine.sketch import _ArenaSketchView, SketchStats
from repro.engine.treebuild import TreeBuilder
from repro.graph import barabasi_albert, CSRGraph, DiGraph
from repro.models import assign_weighted_cascade
from repro.native import native_build_available, native_build_trees
from repro.rng import ensure_rng


@pytest.fixture
def toy():
    return figure1_graph()


@pytest.fixture(scope="module")
def wc_setup():
    graph = assign_weighted_cascade(barabasi_albert(400, 4, rng=11))
    csr = CSRGraph(graph)
    pool = SamplePool(csr, rng=11)
    pool.get(120)
    return graph, csr, pool


def random_digraph(n, m, rng):
    gen = ensure_rng(rng)
    graph = DiGraph(n)
    for _ in range(m):
        u, v = (int(x) for x in gen.integers(0, n, size=2))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, probability=float(gen.uniform(0.2, 1.0)))
    return graph


# ----------------------------------------------------------------------
# build_packed: native kernel / Python fallback vs per-sample reference
# ----------------------------------------------------------------------
class TestBuildPacked:
    def assert_packed_matches(self, csr, batch, indices, seeds, blocked):
        builder = TreeBuilder(csr)
        lengths, orders, sizes = builder.build_packed(
            batch, indices, seeds, blocked
        )
        reference = builder.build(batch, indices, seeds, blocked)
        assert lengths.shape[0] == len(reference)
        offset = 0
        for length, (order, size) in zip(lengths.tolist(), reference):
            assert length == order.shape[0]
            assert np.array_equal(orders[offset:offset + length], order)
            assert np.array_equal(sizes[offset:offset + length], size)
            offset += length
        assert offset == orders.shape[0] == sizes.shape[0]

    @pytest.mark.parametrize(
        "blocked", [[], [3], [1, 7, 13], list(range(0, 100, 5))]
    )
    def test_full_batch_matches_reference(self, wc_setup, blocked):
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        self.assert_packed_matches(
            csr, batch, range(120), [0, 5, 9], blocked
        )

    def test_subset_indices_match_reference(self, wc_setup):
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        self.assert_packed_matches(
            csr, batch, [2, 17, 17, 63, 119], [4, 8], [12]
        )

    def test_random_digraphs_match_reference(self):
        # cyclic, multi-component graphs with arbitrary probabilities
        for seed in range(4):
            graph = random_digraph(60, 240, seed)
            csr = CSRGraph(graph)
            pool = SamplePool(csr, rng=seed)
            batch = pool.get(40)
            self.assert_packed_matches(
                csr, batch, range(40), [seed % 60, (seed * 7) % 60], [
                    (seed * 13) % 60
                ]
            )

    def test_python_fallback_matches_native(self, wc_setup, monkeypatch):
        if not native_build_available():
            pytest.skip("no compiled kernel on this host")
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        builder = TreeBuilder(csr)
        native = builder.build_packed(batch, range(120), [0, 5], [3])
        assert builder._packed_native
        monkeypatch.setattr(
            "repro.engine.treebuild.native_build_trees",
            lambda *args, **kwargs: None,
        )
        fallback = builder.build_packed(batch, range(120), [0, 5], [3])
        assert not builder._packed_native
        for a, b in zip(native, fallback):
            assert np.array_equal(a, b)

    def test_empty_batch(self, wc_setup):
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        lengths, orders, sizes = TreeBuilder(csr).build_packed(
            batch, [], [0], []
        )
        assert lengths.shape[0] == 0
        assert orders.shape[0] == 0
        assert sizes.shape[0] == 0

    def test_native_kernel_direct_roundtrip(self, wc_setup):
        if not native_build_available():
            pytest.skip("no compiled kernel on this host")
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        mask = np.zeros(csr.n, dtype=np.uint8)
        mask[[3, 9]] = 1
        result = native_build_trees(
            csr.n, csr.indptr, csr.indices, batch.positions,
            batch.offsets, np.arange(120, dtype=np.int64),
            np.asarray([0, 5], dtype=np.int64), mask,
        )
        assert result is not None
        lengths, orders, sizes = result
        assert int(lengths.sum()) == orders.shape[0] == sizes.shape[0]
        # every tree starts at the virtual root and never contains a
        # blocked vertex
        starts = np.zeros(120, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        assert (orders[starts] == csr.n).all()
        assert not np.isin(orders, [3, 9]).any()


# ----------------------------------------------------------------------
# postings construction kernel
# ----------------------------------------------------------------------
class TestPostingsCSR:
    def test_rows_are_ascending_sample_lists(self):
        sample_ids = np.asarray([0, 0, 1, 1, 1, 3], dtype=np.int64)
        vertices = np.asarray([2, 0, 0, 2, 4, 2], dtype=np.int64)
        indptr, samples, order = postings_csr(sample_ids, vertices, 5)
        assert indptr.tolist() == [0, 2, 2, 5, 5, 6]
        assert samples[0:2].tolist() == [0, 1]  # vertex 0
        assert samples[2:5].tolist() == [0, 1, 3]  # vertex 2
        assert samples[5:6].tolist() == [1]  # vertex 4
        # posting k is input pair order[k]
        assert order.tolist() == [1, 2, 0, 3, 5, 4]
        assert np.array_equal(samples, sample_ids[order])

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        indptr, samples, order = postings_csr(empty, empty, 4)
        assert indptr.tolist() == [0, 0, 0, 0, 0]
        assert samples.shape[0] == 0 and order.shape[0] == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            postings_csr(
                np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64), 4
            )


# ----------------------------------------------------------------------
# arena vs legacy parity (the tentpole's bit-compatibility contract)
# ----------------------------------------------------------------------
class TestArenaLegacyParity:
    def test_spreads_and_gains_bit_identical(self, wc_setup):
        graph, csr, pool = wc_setup
        theta = 120
        seeds = [0, 5, 9]
        legacy = SketchIndex(csr, pool=pool, layout="legacy")
        arena = SketchIndex(csr, pool=pool, layout="arena")
        walk = [[], [7], [7, 30], [7, 30, 61], [30], [], [61, 100]]
        for blocked in walk:
            assert legacy.expected_spread(
                seeds, theta, blocked
            ) == arena.expected_spread(seeds, theta, blocked)
            assert np.array_equal(
                legacy.decrease_estimates(seeds, theta, blocked),
                arena.decrease_estimates(seeds, theta, blocked),
            )
        assert legacy.stats.rebases == arena.stats.rebases
        assert legacy.stats.trees_built == arena.stats.trees_built
        assert legacy.stats.samples_skipped == arena.stats.samples_skipped

    def test_greedy_replace_selection_identical(self, wc_setup):
        graph, csr, pool = wc_setup
        results = [
            greedy_replace(
                graph, [0, 5], 6, theta=120,
                evaluator=SketchIndex(csr, pool=pool, layout=layout),
            )
            for layout in ("legacy", "arena")
        ]
        assert results[0].blockers == results[1].blockers
        assert results[0].round_deltas == results[1].round_deltas
        assert results[0].estimated_spread == results[1].estimated_spread

    def test_solve_imin_on_toy_matches(self, toy):
        picks = [
            solve_imin(
                toy, [figure1_seed], 2, algorithm="greedy-replace",
                theta=100,
                evaluator=make_evaluator(
                    toy, "sketch", rng=13, layout=layout
                ),
            ).blockers
            for layout in ("legacy", "arena")
        ]
        assert picks[0] == picks[1]

    @pytest.mark.parametrize("layout", ["legacy", "arena"])
    def test_shrink_grow_shrink_matches_cold_rebuild(
        self, wc_setup, layout
    ):
        """Satellite: blockers removed then re-added must leave every
        spread bit-identical to an index built cold at that blocker
        set — for both layouts."""
        graph, csr, pool = wc_setup
        theta = 120
        seeds = [0, 5]
        warm = SketchIndex(csr, pool=pool, layout=layout)
        walk = [
            [], [7, 30, 61], [7], [7, 30, 61, 100], [], [30, 61], [30],
            [7, 30, 61],
        ]
        for blocked in walk:
            warm_spread = warm.expected_spread(seeds, theta, blocked)
            warm_gains = warm.decrease_estimates(seeds, theta, blocked)
            cold = SketchIndex(csr, pool=pool, layout=layout)
            cold.rebased = cold.expected_spread(seeds, theta, blocked)
            assert warm_spread == cold.rebased, blocked
            assert np.array_equal(
                warm_gains, cold.decrease_estimates(seeds, theta, blocked)
            ), blocked
        # the walk exercised both the in-place (shrink) and the
        # appended (grow) arena write-back paths
        if layout == "arena":
            assert warm.stats.rebases >= 6

    def test_arena_growth_appends_and_doubles(self, wc_setup):
        graph, csr, pool = wc_setup
        theta = 60
        seeds = [0, 5]
        arena = SketchIndex(csr, pool=pool, layout="arena")
        arena.expected_spread(seeds, theta, list(range(10, 50)))
        view = next(iter(arena._views.values()))
        cap_before = view._order_arena.shape[0]
        used_before = view._used
        # unblocking regrows every touched tree past its shrunken
        # slot: the rebuilt payloads must append at the arena tail
        arena.expected_spread(seeds, theta, [])
        assert view._used > used_before
        assert view._order_arena.shape[0] >= cap_before
        # and answers still match a cold rebuild exactly
        cold = SketchIndex(csr, pool=pool, layout="arena")
        assert arena.expected_spread(
            seeds, theta
        ) == cold.expected_spread(seeds, theta)


# ----------------------------------------------------------------------
# rebase invariant: postings aliveness always matches the arena trees
# ----------------------------------------------------------------------
_REBASE_SEEDS = (0, 5)
_REBASE_THETA = 60
# candidate blockers: hubs and tail vertices of the 400-vertex graph
_REBASE_CANDIDATES = (1, 2, 3, 7, 12, 30, 61, 100, 250, 399)


def _fresh_view(csr, pool):
    return _ArenaSketchView(
        csr, pool.get(_REBASE_THETA), _REBASE_SEEDS, SketchStats(),
        TreeBuilder(csr),
    )


def _alive_from_trees(view) -> np.ndarray:
    """Posting aliveness recomputed from scratch: a posting
    ``(v, t)`` is alive iff sample ``t``'s current tree reaches ``v``."""
    keys = [
        view._order_arena[start + 1: start + length] * view.theta + t
        for t, (start, length) in enumerate(
            zip(view._starts.tolist(), view._lengths.tolist())
        )
    ]
    return np.isin(view._post_key, np.concatenate(keys))


class TestRebaseInvariant:
    @settings(max_examples=25, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(st.booleans(), st.sampled_from(_REBASE_CANDIDATES)),
            min_size=1,
            max_size=12,
        )
    )
    def test_postings_track_trees_across_moves(self, wc_setup, moves):
        _, csr, pool = wc_setup
        view = _fresh_view(csr, pool)
        blocked: set[int] = set()
        for add, vertex in moves:
            (blocked.add if add else blocked.discard)(vertex)
            current = frozenset(blocked)
            view.rebase(current)
            assert np.array_equal(
                view._post_alive, _alive_from_trees(view)
            ), sorted(current)
            fresh = _fresh_view(csr, pool)
            assert view.spread(current) == fresh.spread(current)
            assert np.array_equal(view.gains(current), fresh.gains(current))

    @settings(max_examples=25, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(st.booleans(), st.sampled_from(_REBASE_CANDIDATES)),
            min_size=1,
            max_size=12,
        )
    )
    def test_scatter_and_argsort_sample_index_agree(self, wc_setup, moves):
        # the by-sample posting index is built by inverting the postings
        # sort; artifacts persisted before that hold the stable argsort
        # of the posting samples instead (same rows, vertex order within
        # a row), and must keep answering identically
        _, csr, pool = wc_setup
        scatter = _fresh_view(csr, pool)
        argsorted = _fresh_view(csr, pool)
        argsorted._samp_pidx = np.argsort(
            argsorted._post_samples, kind="stable"
        )
        rows = np.split(scatter._samp_pidx, scatter._samp_indptr[1:-1])
        sorted_rows = np.split(
            argsorted._samp_pidx, argsorted._samp_indptr[1:-1]
        )
        for row, sorted_row in zip(rows, sorted_rows):
            assert np.array_equal(np.sort(row), sorted_row)
        blocked: set[int] = set()
        for add, vertex in moves:
            (blocked.add if add else blocked.discard)(vertex)
            current = frozenset(blocked)
            assert scatter.spread(current) == argsorted.spread(current)
            assert np.array_equal(
                scatter.gains(current), argsorted.gains(current)
            )
            assert np.array_equal(scatter._post_alive, argsorted._post_alive)


# ----------------------------------------------------------------------
# byte gauges under failure injection (satellite: no stale tree_bytes)
# ----------------------------------------------------------------------
class _ExplodingBuilder:
    """Wraps a TreeBuilder; fails on command."""

    def __init__(self, inner):
        self.inner = inner
        self.explode = False

    def build(self, *args, **kwargs):
        if self.explode:
            raise RuntimeError("injected builder failure")
        return self.inner.build(*args, **kwargs)

    def build_packed(self, *args, **kwargs):
        if self.explode:
            raise RuntimeError("injected builder failure")
        return self.inner.build_packed(*args, **kwargs)

    def close(self):
        self.inner.close()


class TestByteGaugeFailureInjection:
    @pytest.mark.parametrize("layout", ["legacy", "arena"])
    def test_failed_rebase_leaves_gauge_consistent(self, toy, layout):
        sketch = SketchIndex(toy, rng=13, layout=layout)
        sketch.builder = _ExplodingBuilder(sketch.builder)
        sketch.expected_spread([figure1_seed], 80)
        before = sketch.stats.as_dict()
        assert before["tree_bytes"] > 0
        sketch.builder.explode = True
        with pytest.raises(RuntimeError, match="injected"):
            sketch.expected_spread([figure1_seed], 80, [V(5)])
        # the failed rebuild accounted nothing: gauges unchanged, no
        # phantom trees counted
        assert sketch.stats.as_dict() == before
        # and the view recovers: the same query succeeds once the
        # builder does, bit-identical to a cold index
        sketch.builder.explode = False
        recovered = sketch.expected_spread([figure1_seed], 80, [V(5)])
        cold = SketchIndex(toy, rng=13, layout=layout)
        assert recovered == cold.expected_spread(
            [figure1_seed], 80, [V(5)]
        )
        sketch.close()
        assert sketch.stats.tree_bytes == 0
        assert sketch.stats.arena_bytes == 0
        assert sketch.stats.postings_bytes == 0


# ----------------------------------------------------------------------
# bounds checks (satellite: no silent virtual-root reads)
# ----------------------------------------------------------------------
class TestBoundsChecks:
    def test_marginal_gain_rejects_out_of_range(self, toy):
        sketch = SketchIndex(toy, rng=3)
        n = sketch.csr.n
        # v == n is the virtual root's slot: historically a silent 0.0
        for bad in (n, n + 7, -1, -n - 2):
            with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
                sketch.marginal_gain(bad, [figure1_seed], 40)

    def test_marginal_gain_in_range_still_works(self, toy):
        sketch = SketchIndex(toy, rng=3)
        gain = sketch.marginal_gain(V(5), [figure1_seed], 40)
        assert gain >= 0.0

    @pytest.mark.parametrize("layout", ["legacy", "arena"])
    def test_blocked_ids_out_of_range_rejected(self, toy, layout):
        sketch = SketchIndex(toy, rng=3, layout=layout)
        n = sketch.csr.n
        with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
            sketch.expected_spread([figure1_seed], 40, [n])
        with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
            sketch.decrease_estimates([figure1_seed], 40, [-3])

    def test_unknown_layout_rejected(self, toy):
        with pytest.raises(ValueError, match="arena"):
            SketchIndex(toy, rng=3, layout="columnar")
