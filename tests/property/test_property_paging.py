"""Property test: lazily paged snippets equal eager snippets on every page.

The service builds only the snippets of the page a request reads and keeps
them in the (possibly cached) outcome.  For random documents, queries,
size bounds, page sizes and page visiting orders — out of order, past the
end, the same page twice, with ``use_cache`` on and off — every page's
payloads, ``total_results`` and ``next_page`` token must equal what an
eager :meth:`SnippetGenerator.generate_all` over the same results implies.
"""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest, SnippetService, encode_page_token
from repro.corpus import Corpus
from repro.system import ExtractSystem
from repro.utils.paging import page_slice
from repro.xmltree.diff import clone_tree

from tests.property.strategies import TAGS, VALUES, xml_trees

#: values repeat across leaves, so most drawn queries span several pages
KEYWORDS = st.sampled_from(VALUES + TAGS[:2])


def payload_bytes(payloads) -> list[str]:
    return [json.dumps(payload.to_dict(), sort_keys=True) for payload in payloads]


@settings(max_examples=60, deadline=None)
@given(
    tree=xml_trees(max_children=6),
    keywords=st.lists(KEYWORDS, min_size=1, max_size=2, unique=True),
    size_bound=st.integers(min_value=1, max_value=12),
    page_size=st.integers(min_value=1, max_value=3),
    visits=st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
def test_paged_snippets_equal_eager_snippets(tree, keywords, size_bound, page_size, visits):
    query = " ".join(keywords)
    eager_system = ExtractSystem.from_tree(clone_tree(tree))
    results = eager_system.run_search(query)
    eager = eager_system.generator.generate_all(results, size_bound=size_bound)
    expected = payload_bytes(SnippetService._snippet_payload(generated) for generated in eager)
    pages = max(1, -(-len(expected) // page_size))

    corpus = Corpus()
    corpus.add_tree("doc", clone_tree(tree))
    service = SnippetService(corpus)
    request = SearchRequest(query=query, document="doc", size_bound=size_bound, page_size=page_size)

    def check(page: int, use_cache: bool) -> list[str]:
        response = service.run(replace(request, page=page, use_cache=use_cache))
        got = payload_bytes(response.results)
        assert got == page_slice(expected, page, page_size), (page, use_cache)
        assert response.total_results == results.total_results
        more = page * page_size < len(expected)
        assert response.next_page == (encode_page_token(page + 1) if more else None)
        return got

    for page, use_cache in visits:
        check(page, use_cache)
    # after any visiting order, the pages in order concatenate to the eager batch
    walked = [item for page in range(1, pages + 1) for item in check(page, True)]
    assert walked == expected
