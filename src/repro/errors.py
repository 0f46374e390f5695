"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from :class:`ReproError`
so downstream users can catch library failures without masking programming
errors (``TypeError``, ``ValueError`` from misuse are still raised directly
where appropriate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LogFormatError(ReproError):
    """A serialized Darshan-style log is malformed or unsupported.

    Raised by :mod:`repro.darshan.format` when magic bytes, versions,
    checksums, or region tables do not validate.
    """


class LogValidationError(ReproError):
    """An in-memory log violates a semantic invariant.

    Raised by :mod:`repro.darshan.validate`, e.g. negative counters, byte
    totals inconsistent with histogram bins, or end time before start time.
    """


class ConfigurationError(ReproError):
    """A platform, workload, or study configuration is inconsistent."""


class SimulationError(ReproError):
    """A storage-substrate simulator was driven into an invalid state.

    e.g. staging a file into a DataWarp allocation that was never created,
    or a Lustre stripe layout with a non-positive stripe size.
    """


class ShardError(ReproError):
    """A worker of a sharded parallel pipeline failed.

    Carries the failing shard's id so a pooled what-if sweep can report
    *which* slice of the work died instead of an anonymous pool
    traceback.
    """

    def __init__(self, shard_id: int, message: str):
        super().__init__(f"shard {shard_id}: {message}")
        self.shard_id = shard_id


class StoreError(ReproError):
    """The columnar record store was used inconsistently.

    e.g. concatenating stores with mismatching schemas or filtering with a
    mask of the wrong length.
    """


class MergeSchemaError(StoreError):
    """Stores with different schema versions were unioned.

    Raised by :func:`repro.store.merge.merge_stores` (and the federation
    layer above it) when member stores disagree on
    ``RecordStore.schema_version`` — e.g. a catalog mixing a store
    written by an older library with one written by a newer one. The
    union would silently reinterpret columns; refusing with the pair of
    versions lets the operator re-save the stragglers instead.
    """


class CatalogError(ReproError):
    """Base class for :mod:`repro.federation` catalog failures.

    Also raised directly for manifest-level problems (corrupt manifest
    JSON, unknown catalog format, verify failures) that have no more
    specific subclass.
    """


class CatalogMemberError(CatalogError):
    """A catalog member is missing, corrupt, or unreachable.

    Carries the member's label so a federation over dozens of
    facility-months reports *which* member died, not an anonymous
    store error.
    """

    def __init__(self, label: str, message: str):
        super().__init__(f"member {label!r}: {message}")
        self.label = label


class UnknownMemberError(CatalogError):
    """A query routed to a member label the catalog does not know."""


class AnalysisError(ReproError):
    """An analysis was asked for something the data cannot answer.

    e.g. requesting a CDF over an empty selection or a performance
    distribution for a bin with no observations when strict mode is on.
    """


class StreamError(ReproError):
    """The NDJSON append-log ingest path was used inconsistently.

    e.g. a stream file that shrank below a reader's resume offset, or a
    malformed line under the ``raise`` error policy (malformed *content*
    inside a line is a :class:`LogFormatError`; this class covers the
    stream/offset discipline around the lines).
    """


class CheckpointError(StreamError):
    """A stream checkpoint is malformed or inconsistent with its store.

    Raised on unreadable checkpoint files and on duplicate-offset
    replay: resuming a stream against a store whose ingested-log count
    disagrees with the checkpoint would apply the same lines twice.
    """


class SpecError(ReproError):
    """A declarative workload spec failed to validate or compile.

    Carries the dotted field path of the offending key so a message reads
    ``phases[2].params.ckpt_gb: must be <= 4096`` instead of a bare
    ``KeyError`` — the spec surface's contract is that every rejection
    names the field and the allowed values/range.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class WhatIfError(ReproError):
    """A what-if scenario was specified inconsistently.

    e.g. an unknown scenario name, a parameter outside its declared
    bounds, or a sweep axis that expands to no points.
    """


class ServeError(ReproError):
    """Base class for :mod:`repro.serve` failures.

    Also raised directly for protocol-level problems (malformed request
    framing, unknown parameters) that have no more specific subclass.
    """


class UnknownQueryError(ServeError):
    """A request named a query the engine's registry does not know."""


class ServiceOverloadError(ServeError):
    """The service shed a request instead of queueing it unboundedly.

    Raised when admission would push the worker pool's queue past its
    configured depth. Clients should back off and retry; the server is
    healthy, just saturated.
    """


class QueryTimeoutError(ServeError):
    """A request's deadline elapsed before its result was ready.

    The underlying computation is not cancelled (worker threads cannot
    be killed); the deadline bounds how long the *caller* waits. A
    later identical request can still be served from cache once the
    stray computation lands.
    """
