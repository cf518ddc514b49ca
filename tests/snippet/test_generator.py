"""Tests for the SnippetGenerator façade."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.errors import InvalidSizeBoundError
from repro.search.engine import SearchEngine
from repro.snippet.generator import DEFAULT_SIZE_BOUND, SnippetBatch, SnippetGenerator
from repro.snippet.ilist import ItemKind
from repro.snippet.render import render_batch_text
from repro.utils.timing import TimingBreakdown


class TestGenerate:
    def test_generated_snippet_structure(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        generated = generator.generate(results[0], size_bound=6)
        assert generated.size_bound == 6
        assert generated.snippet.size_edges <= 6
        assert 0.0 < generated.coverage <= 1.0
        assert generated.covered_items == len(generated.snippet.covered_items)

    def test_default_bound(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generated = SnippetGenerator(figure5_idx.analyzer).generate(results[0])
        assert generated.size_bound == DEFAULT_SIZE_BOUND

    def test_invalid_bound_rejected(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        with pytest.raises(InvalidSizeBoundError):
            generator.generate(results[0], size_bound=0)
        with pytest.raises(InvalidSizeBoundError):
            generator.generate(results[0], size_bound=True)

    def test_snippet_contains_result_key_when_budget_allows(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        for result in results:
            generated = generator.generate(result, size_bound=6)
            key_items = generated.ilist.items_of_kind(ItemKind.RESULT_KEY)
            assert key_items and generated.snippet.covers(key_items[0].identity)

    def test_query_override(self, figure5_idx):
        from repro.search.query import KeywordQuery

        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        generated = generator.generate(results[0], size_bound=6, query=KeywordQuery.parse("jeans"))
        assert generated.ilist[0].text == "jeans"

    def test_build_ilist_exposed(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        ilist = generator.build_ilist(results[0])
        assert len(ilist) > 0

    def test_timings_recorded(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generator = SnippetGenerator(figure5_idx.analyzer)
        generator.generate(results[0], size_bound=6)
        assert {"ilist", "instance_selection"} <= set(generator.timings.phases)

    def test_repr(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        generated = SnippetGenerator(figure5_idx.analyzer).generate(results[0], size_bound=6)
        assert "edges=" in repr(generated)


class TestGenerateAll:
    def test_one_snippet_per_result(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert len(batch) == len(results)
        assert [generated.result for generated in batch] == list(results)

    def test_batch_protocol(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert batch[0] is list(batch)[0]
        assert 0.0 < batch.mean_coverage() <= 1.0

    def test_empty_result_set(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store antarctica")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        assert len(batch) == 0
        assert batch.mean_coverage() == 0.0

    def test_coverage_definition(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store texas")
        batch = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=1000)
        assert batch.mean_coverage() == pytest.approx(1.0)

    def test_generate_all_is_eager(self, figure5_idx):
        """The E1-E3 benchmarks time generate_all: it must build every
        snippet before returning, not leave them to the first read."""
        results = SearchEngine(figure5_idx).search("store")
        generator = SnippetGenerator(figure5_idx.analyzer, cache_size=0)
        batch = generator.generate_all(results, size_bound=6)
        assert len(results) >= 2

        def no_more_generation(*_args, **_kwargs):
            raise AssertionError("generate_all returned a batch with unbuilt snippets")

        generator.generate = no_more_generation
        assert [generated.result for generated in batch] == list(results)
        assert batch.page(2, 1)[0].result is results[1]


class TestLazyBatch:
    def test_page_builds_only_its_snippets(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store")
        generator = SnippetGenerator(figure5_idx.analyzer)
        batch = SnippetBatch(results, 6, generator)
        assert len(batch) == len(results) >= 3
        assert len(generator.cache) == 0  # len() builds nothing
        page = batch.page(2, 1)
        assert [generated.result for generated in page] == [results[1]]
        assert len(generator.cache) == 1
        assert batch.page(2, 1)[0] is page[0]  # kept, not rebuilt
        assert batch[-1].result is results[-1]
        assert len(generator.cache) == 2
        assert [generated.result for generated in batch[:2]] == list(results)[:2]
        assert len(generator.cache) == 3

    def test_whole_batch_equals_generate_all(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store")
        eager = SnippetGenerator(figure5_idx.analyzer).generate_all(results, size_bound=6)
        lazy = SnippetBatch(results, 6, SnippetGenerator(figure5_idx.analyzer))
        assert render_batch_text(lazy, show_ilist=True) == render_batch_text(eager, show_ilist=True)
        assert lazy.mean_coverage() == eager.mean_coverage()

    def test_bound_views_share_built_snippets(self, figure5_idx):
        results = SearchEngine(figure5_idx).search("store")
        first, second = (SnippetGenerator(figure5_idx.analyzer) for _ in range(2))
        batch = SnippetBatch(results, 6, first)
        built = batch[0]
        view = batch.bind(second, TimingBreakdown())
        assert view[0] is built and view.timings.phases == {}
        view_built = view[1]
        assert batch[1] is view_built
        assert len(first.cache) == 1 and len(second.cache) == 1
        assert set(view.timings.phases) == {"snippets", "ilist", "instance_selection"}

    def test_racing_readers_share_one_snippet_per_position(self, figure5_idx):
        """Readers racing on the pages of one (cached) batch must all get the
        first snippet published for a position, never a later rebuild."""
        results = SearchEngine(figure5_idx).search("store")
        batch = SnippetBatch(results, 6, SnippetGenerator(figure5_idx.analyzer, cache_size=0))
        seen: list[dict[int, int]] = []
        barrier = threading.Barrier(8)

        def read(seed: int) -> None:
            positions = list(range(len(results)))
            random.Random(seed).shuffle(positions)
            barrier.wait(timeout=10)
            views = batch.bind(batch.generator, TimingBreakdown())
            seen.append({p: id(views.page(p + 1, 1)[0]) for p in positions})

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        final = {p: id(generated) for p, generated in enumerate(batch)}
        assert all(ids == final for ids in seen)

    def test_bad_bound_fails_up_front(self, figure5_idx):
        generator = SnippetGenerator(figure5_idx.analyzer)
        with pytest.raises(InvalidSizeBoundError):
            SnippetBatch(SearchEngine(figure5_idx).search("store"), 0, generator)
        # nothing is ever built for an empty result set
        assert len(SnippetBatch(SearchEngine(figure5_idx).search("antarctica"), 0, generator)) == 0


class TestEndToEndInvariants:
    @pytest.mark.parametrize("bound", [3, 6, 10, 16])
    def test_all_results_respect_bound(self, retail_idx, retail_results, retail_generator, bound):
        batch = retail_generator.generate_all(retail_results, size_bound=bound)
        for generated in batch:
            assert generated.snippet.size_edges <= bound
            assert generated.snippet.is_connected()
            # every selected node belongs to the generating result
            for label in generated.snippet.node_labels:
                assert generated.result.contains_label(label)

    def test_snippet_is_subtree_of_result(self, retail_results, retail_generator):
        generated = retail_generator.generate(retail_results[0], size_bound=8)
        snippet_tree = generated.snippet.to_tree()
        assert snippet_tree.root.tag == retail_results[0].root_node.tag
        assert snippet_tree.size_edges == generated.snippet.size_edges
