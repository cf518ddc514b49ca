"""Tests for the incremental document lifecycle (ISSUE 3 tentpole).

Covers ``Corpus.update_document`` / ``remove_document`` / ``apply_update``,
cache-invalidation precision, the update journal round trip and the
hardened ``load_dir``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SearchRequest, SnippetService, UpdateRequest
from repro.corpus import Corpus
from repro.errors import ExtractError, StorageError
from repro.index.storage import (
    JOURNAL_FILE,
    JournalRecord,
    append_journal_record,
    directory_documents,
    read_corpus_journal,
)
from repro.xmltree.builder import tree_from_dict
from repro.xmltree.diff import clone_tree


def retailer_tree(galleria_city="Houston", categories=("suit", "jeans")):
    return tree_from_dict(
        "retailer",
        {
            "name": "Brook Brothers",
            "store": [
                {
                    "name": "Galleria",
                    "city": galleria_city,
                    "clothes": [{"category": category} for category in categories],
                },
                {"name": "West Village", "city": "Austin", "clothes": [{"category": "outwear"}]},
            ],
        },
        name="doc",
    )


def wire(service, query, document="doc", **kwargs):
    response = service.run(SearchRequest(query=query, document=document, size_bound=6, **kwargs))
    return json.dumps(response.to_dict(), sort_keys=True)


class TestUpdateDocument:
    def test_noop_update_keeps_every_cache_entry(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        service = SnippetService(corpus)
        service.run(SearchRequest(query="store austin", document="doc", size_bound=6))
        report = corpus.update_document("doc", retailer_tree())
        assert report.changed_nodes == 0
        assert report.cache_entries_invalidated == 0
        assert service.run(
            SearchRequest(query="store austin", document="doc", size_bound=6)
        ).from_cache

    def test_text_edit_is_incremental_and_matches_rebuild(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        assert report.incremental
        assert report.changed_nodes == 1
        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree("Dallas"))
        ours, theirs = SnippetService(corpus), SnippetService(rebuilt)
        for query in ("store dallas", "store houston", "store austin", "brook brothers"):
            assert wire(ours, query) == wire(theirs, query), query

    def test_structural_edit_falls_back_to_rebuild(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        report = corpus.update_document(
            "doc", retailer_tree(categories=("suit", "jeans", "shirts"))
        )
        assert not report.incremental
        assert report.structural_reason is not None
        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree(categories=("suit", "jeans", "shirts")))
        assert wire(SnippetService(corpus), "clothes shirts") == wire(
            SnippetService(rebuilt), "clothes shirts"
        )

    def test_update_unknown_document_raises(self):
        with pytest.raises(ExtractError):
            Corpus().update_document("ghost", retailer_tree())

    def test_updates_chain(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        for city in ("Dallas", "El Paso", "Waco"):
            assert corpus.update_document("doc", retailer_tree(city)).incremental
        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree("Waco"))
        assert wire(SnippetService(corpus), "store waco") == wire(
            SnippetService(rebuilt), "store waco"
        )

    def test_filling_empty_text_matches_rebuild(self):
        # Regression: "" -> value flips has_text_value (and hence schema
        # classification); it must take the full-rebuild path and end up
        # byte-identical to a from-scratch corpus.
        def with_blank_names(tree):
            for node in tree.iter_nodes():
                if node.tag == "name":
                    node.text = ""
            return tree

        corpus = Corpus()
        corpus.add_tree("doc", with_blank_names(retailer_tree()))
        report = corpus.update_document("doc", retailer_tree())
        assert not report.incremental

        rebuilt = Corpus()
        rebuilt.add_tree("doc", retailer_tree())
        for query in ("store austin", "galleria suit", "brook brothers"):
            assert wire(SnippetService(corpus), query) == wire(
                SnippetService(rebuilt), query
            ), query

    def test_tree_adopts_registered_name(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        edited = retailer_tree("Dallas")
        edited.name = "something-else"
        corpus.update_document("doc", edited)
        assert corpus.system("doc").index.tree.name == "doc"


class TestCacheInvalidationPrecision:
    def build(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        corpus.add_tree("other", clone_tree(retailer_tree("Houston"), name="other"))
        service = SnippetService(corpus)
        return corpus, service

    def test_affected_query_misses_unaffected_hits(self):
        corpus, service = self.build()
        affected = SearchRequest(query="store houston", document="doc", size_bound=6)
        unaffected = SearchRequest(query="store austin", document="doc", size_bound=6)
        service.run(affected)
        service.run(unaffected)

        report = corpus.update_document("doc", retailer_tree("Dallas"))
        assert report.incremental
        assert report.cache_entries_kept >= 1
        assert report.cache_entries_invalidated >= 1

        before = corpus.system("doc").cache.stats_snapshot()
        assert service.run(unaffected).from_cache
        assert not service.run(affected).from_cache
        after = corpus.system("doc").cache.stats_snapshot()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses + 1

    def test_untouched_document_keeps_hitting(self):
        corpus, service = self.build()
        other_request = SearchRequest(query="store houston", document="other", size_bound=6)
        service.run(other_request)
        corpus.update_document("doc", retailer_tree("Dallas"))
        before = corpus.system("other").cache.stats_snapshot()
        assert service.run(other_request).from_cache
        after = corpus.system("other").cache.stats_snapshot()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_query_touching_edited_subtree_is_invalidated(self):
        # "store austin" results cover the West Village store only; its
        # subtree is untouched, so the entry survives.  "galleria suit"
        # resolves to the Galleria store subtree, which contains the edited
        # <city> node — its snippet could differ, so it must be recomputed
        # even though neither keyword's posting list changed.
        corpus, service = self.build()
        subtree_safe = SearchRequest(query="store austin", document="doc", size_bound=6)
        subtree_hit = SearchRequest(query="galleria suit", document="doc", size_bound=6)
        service.run(subtree_safe)
        service.run(subtree_hit)
        corpus.update_document("doc", retailer_tree("Dallas"))
        assert service.run(subtree_safe).from_cache
        assert not service.run(subtree_hit).from_cache

    def test_plural_keyword_form_is_invalidated(self):
        corpus, service = self.build()
        plural = SearchRequest(query="stores houston", document="doc", size_bound=6)
        service.run(plural)
        corpus.update_document("doc", retailer_tree("Dallas"))
        assert not service.run(plural).from_cache

    def test_shared_postings_memo_carries_unaffected_keywords(self):
        corpus, service = self.build()
        service.run(SearchRequest(query="store austin", document="doc", size_bound=6, use_cache=False))
        memo_before = corpus.shared_postings("doc")
        assert "austin" in memo_before
        corpus.update_document("doc", retailer_tree("Dallas"))
        memo_after = corpus.shared_postings("doc")
        assert memo_after is not memo_before
        assert "austin" in memo_after  # carried: postings unchanged
        assert "houston" not in memo_after  # touched term dropped


class TestAdoptedOutcomePaging:
    """A cached outcome adopted across a text-only update builds its later
    pages through the new entry's generator, never the replaced one's."""

    @staticmethod
    def chain_tree(owner):
        stores = [
            {"name": f"Outlet {i}", "city": "Austin", "clothes": [{"category": "suit"}]}
            for i in range(5)
        ]
        return tree_from_dict("chain", {"owner": owner, "store": stores}, name="doc")

    def test_later_pages_match_rebuild_and_spare_the_old_cache(self):
        corpus = Corpus()
        corpus.add_tree("doc", self.chain_tree("Acme"))
        service = SnippetService(corpus)
        request = SearchRequest(query="store suit", document="doc", size_bound=6, page_size=2)
        first = service.run(request)
        assert first.total_results == 5 and first.from_cache is False

        old_system = corpus.system("doc")
        # the owner value lies outside every result subtree
        report = corpus.update_document("doc", self.chain_tree("Zenith"))
        assert report.incremental and report.cache_entries_kept >= 1
        old_snippets = len(old_system.generator.cache)

        rebuilt = Corpus()
        rebuilt.add_tree("doc", self.chain_tree("Zenith"))
        reference = SnippetService(rebuilt)
        for page in (2, 3, 1):
            ours = service.run(request.with_page(page))
            theirs = reference.run(request.with_page(page))
            assert ours.from_cache is True  # the adopted outcome serves it
            assert json.dumps(ours.to_dict(), sort_keys=True) == json.dumps(
                theirs.to_dict(), sort_keys=True
            )
        assert len(old_system.generator.cache) == old_snippets
        assert len(corpus.system("doc").generator.cache) == 5


class TestRemoveAndUpsert:
    def test_remove_document_reports(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        report = corpus.remove_document("doc")
        assert report.action == "removed"
        assert "doc" not in corpus

    def test_remove_unknown_raises(self):
        with pytest.raises(ExtractError):
            Corpus().remove_document("ghost")

    def test_apply_update_adds_then_updates(self):
        corpus = Corpus()
        first = corpus.apply_update("doc", retailer_tree("Houston"))
        assert first.action == "added"
        second = corpus.apply_update("doc", retailer_tree("Dallas"))
        assert second.action == "updated" and second.incremental

    def test_service_update_request_round_trip(self):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        service = SnippetService(corpus)
        xml = (
            "<retailer><name>Brook Brothers</name>"
            "<store><name>Galleria</name><city>Dallas</city>"
            "<clothes><category>suit</category></clothes>"
            "<clothes><category>jeans</category></clothes></store>"
            "<store><name>West Village</name><city>Austin</city>"
            "<clothes><category>outwear</category></clothes></store></retailer>"
        )
        response = service.handle_dict(
            {"kind": "update", "schema_version": 1, "document": "doc", "xml": xml}
        )
        assert response["kind"] == "update_response"
        assert response["action"] == "updated"
        assert response["incremental"] is True
        removed = service.handle_dict(
            {"kind": "update", "schema_version": 1, "document": "doc", "action": "remove"}
        )
        assert removed["action"] == "removed"
        assert "doc" not in corpus

    def test_service_remove_unknown_is_error_response(self):
        service = SnippetService(Corpus())
        response = service.execute_update(UpdateRequest(document="ghost", action="remove"))
        assert response.kind == "error"


class TestJournalRoundTrip:
    def save(self, corpus, tmp_path):
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        return directory

    def test_text_update_journalled_and_replayed(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree("Houston"))
        directory = self.save(corpus, tmp_path)

        report = corpus.update_document("doc", retailer_tree("Dallas"))
        edits = tuple((str(edit.label), edit.new_text) for edit in report.text_edits)
        mapping = {name: subdir for subdir, name in directory_documents(directory).items()}
        append_journal_record(
            directory, JournalRecord(kind="update", subdir=mapping["doc"], edits=edits)
        )

        reloaded = Corpus.load_dir(directory)
        assert wire(SnippetService(reloaded), "store dallas") == wire(
            SnippetService(corpus), "store dallas"
        )

    def test_remove_and_add_records_replay(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = self.save(corpus, tmp_path)
        from repro.index.storage import save_index

        other = Corpus()
        entry = other.add_tree("second", clone_tree(retailer_tree(), name="second"))
        save_index(entry.system.index, directory / "second")
        append_journal_record(directory, JournalRecord(kind="add", subdir="second", name="second"))
        append_journal_record(directory, JournalRecord(kind="remove", subdir="doc"))

        reloaded = Corpus.load_dir(directory)
        assert reloaded.names() == ["second"]

    def test_save_dir_discards_journal(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = self.save(corpus, tmp_path)
        append_journal_record(directory, JournalRecord(kind="remove", subdir="doc"))
        assert (directory / JOURNAL_FILE).exists()
        corpus.save_dir(directory)
        assert not (directory / JOURNAL_FILE).exists()
        assert Corpus.load_dir(directory).names() == ["doc"]

    def test_journal_reader_round_trips_records(self, tmp_path):
        directory = tmp_path
        (directory / "x").mkdir()
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir="x", edits=(("1.0", 'va"l\nue'),)),
        )
        append_journal_record(directory, JournalRecord(kind="replace", subdir="x", snapshot="y"))
        records = read_corpus_journal(directory)
        assert [record.kind for record in records] == ["update", "replace"]
        assert records[0].edits == (("1.0", 'va"l\nue'),)
        assert records[1].snapshot == "y"


class TestHardenedLoadDir:
    def test_truncated_postings_section_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        index_file = directory / "doc" / "inverted.idx"
        lines = index_file.read_text(encoding="utf-8").splitlines()
        index_file.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        with pytest.raises(StorageError):
            Corpus.load_dir(directory)

    def test_journal_referencing_missing_document_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir="ghost", edits=(("1.0", "x"),)),
        )
        with pytest.raises(StorageError, match="ghost"):
            Corpus.load_dir(directory)

    def test_journal_referencing_missing_node_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        append_journal_record(
            directory,
            JournalRecord(kind="update", subdir="doc", edits=(("9.9.9", "x"),)),
        )
        with pytest.raises(StorageError, match="missing node"):
            Corpus.load_dir(directory)

    def test_truncated_journal_fails_cleanly(self, tmp_path):
        corpus = Corpus()
        corpus.add_tree("doc", retailer_tree())
        directory = tmp_path / "corpus"
        corpus.save_dir(directory)
        report = corpus.update_document("doc", retailer_tree("Dallas"))
        edits = tuple((str(edit.label), edit.new_text) for edit in report.text_edits)
        append_journal_record(
            directory, JournalRecord(kind="update", subdir="doc", edits=edits)
        )
        journal = directory / JOURNAL_FILE
        lines = journal.read_text(encoding="utf-8").splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match="truncated"):
            Corpus.load_dir(directory)
