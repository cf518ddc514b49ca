"""Result-set-aware snippet generation: make snippets differentiate results.

The paper's abstract states that snippets should "effectively summarize the
query results **and differentiate them from one another**".  The per-result
pipeline achieves this primarily through the result key (§2.2), but when
two results share the same key value — or have no key — and the same
dominant features, their snippets can come out identical.

:class:`DistinctSnippetGenerator` is a thin post-processing layer over
:class:`~repro.snippet.generator.SnippetGenerator`: after generating the
standard snippet for every result of a result set, it detects groups of
results whose snippets show identical content and regenerates the later
members of each group with *discriminating features* (features of the
result whose tag/value does not appear in the clashing snippet) promoted
into the IList right after the result key.  The size bound is never
exceeded — discrimination only changes which items compete for the budget.
"""

from __future__ import annotations

from repro.classify.analyzer import DataAnalyzer
from repro.eval.metrics import snippet_signature
from repro.search.results import ResultSet
from repro.snippet.dominant import DominantFeatureIdentifier
from repro.snippet.generator import DEFAULT_SIZE_BOUND, GeneratedSnippet, SnippetBatch, SnippetGenerator
from repro.snippet.ilist import IList, IListItem, ItemKind
from repro.snippet.instance_selector import GreedyInstanceSelector


class DistinctSnippetGenerator:
    """Generates snippets that differentiate the results of one query."""

    def __init__(self, analyzer: DataAnalyzer, max_rounds: int = 2, max_discriminators: int = 3):
        self.analyzer = analyzer
        self.base = SnippetGenerator(analyzer)
        self.dominant_identifier = DominantFeatureIdentifier(analyzer)
        #: how many clash-resolution passes to run over the batch
        self.max_rounds = max_rounds
        #: how many discriminating features are promoted per regeneration
        self.max_discriminators = max_discriminators
        self._selector = GreedyInstanceSelector()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def generate_all(self, results: ResultSet, size_bound: int = DEFAULT_SIZE_BOUND) -> SnippetBatch:
        """Generate snippets for a result set, then resolve content clashes."""
        batch = self.base.generate_all(results, size_bound=size_bound)
        for _ in range(self.max_rounds):
            if not self._resolve_clashes(batch, size_bound):
                break
        return batch

    # ------------------------------------------------------------------ #
    # clash resolution
    # ------------------------------------------------------------------ #
    def _resolve_clashes(self, batch: SnippetBatch, size_bound: int) -> bool:
        """Regenerate later members of identical-content groups.

        Returns True when at least one snippet was regenerated (another
        round may then be useful).
        """
        changed = False
        seen: dict[frozenset[str], int] = {}
        for position, generated in enumerate(batch):
            signature = snippet_signature(generated)
            if signature not in seen:
                seen[signature] = position
                continue
            rival = batch[seen[signature]]
            regenerated = self._regenerate_with_discriminators(generated, rival, size_bound)
            if regenerated is not None and snippet_signature(regenerated) != signature:
                batch[position] = regenerated
                changed = True
        return changed

    def _regenerate_with_discriminators(
        self, generated: GeneratedSnippet, rival: GeneratedSnippet, size_bound: int
    ) -> GeneratedSnippet | None:
        discriminators = self._discriminating_items(generated, rival)
        if not discriminators:
            return None
        ilist = self._ilist_with_discriminators(generated.ilist, discriminators)
        snippet = self._selector.select(generated.result, ilist, size_bound)
        return GeneratedSnippet(
            result=generated.result, ilist=ilist, snippet=snippet, size_bound=size_bound
        )

    def _discriminating_items(
        self, generated: GeneratedSnippet, rival: GeneratedSnippet
    ) -> list[IListItem]:
        """Features of ``generated``'s result that the rival snippet does not show."""
        rival_content = snippet_signature(rival)
        own_identities = set(generated.ilist.identities())
        scored = self.dominant_identifier.score_all(generated.result, generated.ilist.statistics)
        items: list[IListItem] = []
        for feature in scored:
            marker = f"{feature.feature.attribute}={feature.feature.value}"
            if marker in rival_content:
                continue
            if feature.feature.value in own_identities:
                # already in the IList (it simply lost the budget race);
                # promoting it is handled by re-insertion below
                pass
            items.append(
                IListItem(
                    kind=ItemKind.DOMINANT_FEATURE,
                    text=feature.display_value,
                    identity=feature.feature.value,
                    instances=list(feature.instances),
                    score=feature.score,
                    feature=feature,
                )
            )
            if len(items) >= self.max_discriminators:
                break
        return items

    def _ilist_with_discriminators(self, original: IList, discriminators: list[IListItem]) -> IList:
        """A copy of the IList with discriminating items right after the key."""
        promoted_identities = {item.identity for item in discriminators}
        items: list[IListItem] = []
        for item in original.items:
            if item.identity in promoted_identities:
                continue  # re-inserted at the promoted position instead
            items.append(item)
        # insertion point: after keywords, entity names and key items
        insert_at = 0
        for index, item in enumerate(items):
            if item.kind in (ItemKind.KEYWORD, ItemKind.ENTITY_NAME, ItemKind.RESULT_KEY):
                insert_at = index + 1
        items[insert_at:insert_at] = discriminators
        return IList(
            items=items,
            return_entity_decision=original.return_entity_decision,
            statistics=original.statistics,
        )
