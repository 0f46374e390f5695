"""Exact cross-member reduction of scatter-gather query results.

Mergeable queries come in two flavours. A handful aggregate *only*
associatively-exact quantities — ``int64`` row counts, byte sums, and
histogram-bin tallies — over pure row-local predicates
(:class:`~repro.analysis.context.AnalysisContext` masks are all
row-local). For those, the result over a concatenation of member stores
is the members' results merged, **bit-identically**. They are exactly
the registry's *foldable* queries: the ``merge`` each one registers
next to its ``_compute``
(:func:`repro.analysis.context.register_foldable`) folds appended rows
into a live store's results and, here, folds member results into the
catalog's.

Everything else (medians, CDF sample pools, per-user groupings, ...)
has no exact member-wise reduction and goes through the executor's
merged-store fallback instead.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.context import foldable_merge
from repro.errors import CatalogError
from repro.serve.registry import default_registry, exhibit_result


def _check_uniform(results: Sequence, query: str) -> None:
    """Platform/scale must agree, as ``merge_stores`` would enforce.

    A list-valued result (the request-size curves) is checked per
    curve; an empty list has nothing to disagree with.
    """
    parts = [p for r in results for p in (r if isinstance(r, list) else [r])]
    platforms = {p.platform for p in parts}
    if len(platforms) > 1:
        raise CatalogError(
            f"cannot reduce {query!r} across platforms "
            f"{', '.join(sorted(platforms))}; route per member or select "
            "one platform"
        )
    scales = {p.scale for p in parts if hasattr(p, "scale")}
    if len(scales) > 1:
        raise CatalogError(
            f"cannot reduce {query!r} across member scales "
            f"{', '.join(f'{s:g}' for s in sorted(scales))}"
        )


#: Query name -> exact reducer, for every foldable registry query.
#: Membership is a *proof obligation*: the differential federation suite
#: pins each entry bit-identical to the merged-store answer.
REDUCERS: dict[str, Callable] = {
    name: foldable_merge(exhibit_result(spec))
    for name, spec in default_registry().items()
    if spec.foldable
}


def reduce_results(query: str, results: Sequence) -> object:
    """Reduce per-member results of ``query`` (must be in REDUCERS).

    ``results`` come in member (catalog) order; order matters only for
    error messages — every merge is commutative.
    """
    if not results:
        raise CatalogError(f"cannot reduce {query!r} over zero members")
    merge = REDUCERS[query]
    _check_uniform(results, query)
    return merge(results)
