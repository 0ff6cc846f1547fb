"""The :class:`ImageDatabase` facade.

Ties every subsystem together into the system the paper describes:

* **insert** — an image comes in, the configured
  :class:`~repro.features.FeatureSchema` extracts all its signatures,
  the catalog records its metadata.  The image itself plays no further
  part; only signatures are kept.
* **index** — per feature, one metric index (VP-tree by default), its
  structure built lazily; a mutation never pays a from-scratch rebuild
  (``docs/mutability.md``).
* **one owner per row, one live set** — each feature's index holds its
  rows, and every by-id read goes through ``MetricIndex.vectors_of``.
  Which ids are live is the catalog's live mask alone, shared with every
  index, so flipping flags is each mutation's commit point: a failed add
  leaves only invisible rows and burnt ids behind, and ids are never
  reused (``docs/storage.md``, "Ownership").
* **generation** — every mutation bumps one monotonic
  :attr:`generation` counter.  The serving layer stamps cached results
  with the generation they were computed under and lazily invalidates
  on mismatch, which is what lets a *mutating* database serve without
  global cache flushes.
* **query** — query-by-example: extract the query image's signature and
  run a k-NN or range search; multi-feature queries combine evidence
  across features by weighted scores or rank fusion.  Batches of
  queries go through ``query_batch`` / ``range_query_batch``, which
  run the index's scalar body once per row (identical results).
* **persist** — catalog to JSON, one paged
  :class:`~repro.db.store.FeatureStore` per feature.

All query entry points accept either an :class:`~repro.image.Image`
(signatures are extracted on the fly) or a precomputed feature vector;
callers that validated their vectors up front (the
:mod:`repro.serve` scheduler) pass ``precomputed=True`` to skip the
extraction/stacking pass.  :meth:`ImageDatabase.add_vectors` is the
matching ingest path for signature matrices without images.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.db.backend import BackendFactory, resolve_backend_factory
from repro.db.catalog import Catalog, ImageRecord
from repro.db.fsutil import REAL_FS, FileSystem, atomic_write_bytes, fsync_file
from repro.db.query import (
    RetrievalResult,
    borda_fuse,
    combine_feature_distances,
    reciprocal_rank_fuse,
    to_retrieval_results,
)
from repro.db.store import FeatureStore
from repro.errors import QueryError
from repro.features.pipeline import FeatureSchema, default_schema
from repro.image.core import Image
from repro.index.base import MetricIndex, check_count
from repro.index.vptree import VPTree
from repro.metrics.base import Metric
from repro.metrics.minkowski import EuclideanDistance

__all__ = ["ImageDatabase"]

IndexFactory = Callable[[Metric], MetricIndex]

_CONFIG_FILE = "config.json"
_CATALOG_FILE = "catalog.json"
_FEATURE_DIR = "features"


def _fresh(rows: np.ndarray) -> np.ndarray:
    """``rows`` as an array the caller may keep and write to (an unbuilt
    index lends its whole block read-only)."""
    return rows if rows.flags.writeable else rows.copy()


class ImageDatabase:
    """A content-based image database.

    Parameters
    ----------
    schema:
        The features extracted for every image (default:
        :func:`repro.features.pipeline.default_schema`).
    metrics:
        Per-feature metric overrides, ``feature name -> Metric``
        (default: Euclidean everywhere).
    index_factory:
        Builds an index from a metric (default: ``VPTree(metric)``).
        One index per feature is maintained.
    backend:
        Storage for index core rows (``docs/storage.md``): a spec
        string (``"memory"``, ``"mmap"``, ``"mmap:ROOT"``), an existing
        :class:`~repro.db.backend.BackendFactory`, or ``None`` for the
        ``$REPRO_BACKEND`` environment default (memory).

    Examples
    --------
    >>> from repro.image import synth
    >>> import numpy as np
    >>> db = ImageDatabase()
    >>> rng = np.random.default_rng(7)
    >>> for i in range(4):
    ...     _ = db.add_image(synth.compose_scene(64, 64, rng), label="scenes")
    >>> results = db.query(synth.compose_scene(64, 64, rng), k=2)
    >>> len(results)
    2
    """

    def __init__(
        self,
        schema: FeatureSchema | None = None,
        *,
        metrics: Mapping[str, Metric] | None = None,
        index_factory: IndexFactory | None = None,
        backend: "str | BackendFactory | None" = None,
    ) -> None:
        self._schema = schema if schema is not None else default_schema()
        if len(self._schema) == 0:
            raise QueryError("schema must contain at least one feature")
        metrics = dict(metrics or {})
        unknown = set(metrics) - set(self._schema.names)
        if unknown:
            raise QueryError(f"metrics refer to unknown features: {sorted(unknown)}")
        self._metrics: dict[str, Metric] = {
            name: metrics.get(name, EuclideanDistance()) for name in self._schema.names
        }
        self._index_factory: IndexFactory = index_factory or (
            lambda metric: VPTree(metric)
        )
        self._backend_factory: BackendFactory = resolve_backend_factory(backend)
        self._catalog = Catalog()
        #: One index per feature, the holder of its rows, built or not;
        #: each reads liveness from the catalog's mask.
        self._indexes: dict[str, MetricIndex] = {}
        for name in self._schema.names:
            index = self._index_factory(self._metrics[name])
            index.backend_factory = self._backend_factory
            index.live_mask = self._catalog.live
            self._indexes[name] = index
        self._generation = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> FeatureSchema:
        """The feature schema images are extracted with."""
        return self._schema

    @property
    def catalog(self) -> Catalog:
        """Image metadata records."""
        return self._catalog

    @property
    def metrics(self) -> dict[str, Metric]:
        """Per-feature metric configuration (a fresh dict).

        Recovery builds a replayed database with the same configuration
        as the serving one; passing this (with :attr:`index_factory`)
        reproduces the constructor arguments.
        """
        return dict(self._metrics)

    @property
    def index_factory(self) -> IndexFactory:
        """The metric → index constructor this database builds with."""
        return self._index_factory

    @property
    def backend_factory(self) -> BackendFactory:
        """The storage factory behind every index core."""
        return self._backend_factory

    def backend_info(self) -> dict:
        """Backend name and aggregated buffer-pool counters — the
        figures ``/stats`` and ``/metrics`` expose."""
        return self._backend_factory.describe()

    def __len__(self) -> int:
        return len(self._catalog)

    @property
    def default_feature(self) -> str:
        """The feature used when a query does not name one (schema's first)."""
        return self._schema.names[0]

    def metric_for(self, feature: str) -> Metric:
        """The metric configured for ``feature``."""
        self._check_feature(feature)
        return self._metrics[feature]

    @property
    def generation(self) -> int:
        """The monotonic data-version stamp.

        Every mutation (:meth:`add_image`, :meth:`add_vectors`,
        :meth:`remove`, :meth:`delete_image`) increments it by one at
        its commit point, with the live flags; a mutation that fails
        before it changes no live item and leaves it.  Two reads
        returning the same number therefore saw the identical item set
        — the invariant the serving layer's result cache keys its lazy
        invalidation on (see ``repro.serve.cache``).
        """
        return self._generation

    def index_for(self, feature: str) -> MetricIndex:
        """The (built) index for ``feature``, building it if needed."""
        self._check_feature(feature)
        index = self._indexes[feature]
        if not index.is_built:
            if not len(self._catalog):
                raise QueryError("cannot build an index over an empty database")
            index.rebuild()  # the first build, over the index's pending rows
        return index

    def feature_matrix(self, feature: str) -> tuple[list[int], np.ndarray]:
        """All stored vectors of one feature: ``(ids, (n, d) array)``."""
        self._check_feature(feature)
        ids = self._catalog.ids
        return ids, _fresh(self._rows(feature, ids))

    def vectors_of(self, feature: str, image_ids: Sequence[int]) -> np.ndarray:
        """The stored signatures of some images for one feature.

        A fresh ``(len(image_ids), d)`` array in the order asked, read
        from the feature's index (its storage backend, or its pending
        rows before the first build).
        """
        self._check_feature(feature)
        for image_id in image_ids:
            if image_id not in self._catalog:
                raise QueryError(f"no image with id {image_id}")
        return _fresh(self._rows(feature, image_ids))

    def vector_of(self, feature: str, image_id: int) -> np.ndarray:
        """The stored signature of one image for one feature (a copy)."""
        return self.vectors_of(feature, [image_id])[0]

    def extract_query_vector(
        self, query: Image | np.ndarray, feature: str | None = None
    ) -> np.ndarray:
        """The validated query signature the query entry points would use.

        Callers that submit the same query several times — the serving
        layer's admission path, which also digests the vector for its
        result cache — extract once up front and then pass
        ``precomputed=True`` to the query methods.
        """
        feature = feature or self.default_feature
        self._check_feature(feature)
        return self._signatures(query, feature)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_image(
        self,
        image: Image,
        *,
        label: str | None = None,
        name: str | None = None,
        **extra: object,
    ) -> int:
        """Insert an image: extract all features, record metadata; the
        indexes take the signatures incrementally, never rebuilding from
        scratch.  Bumps :attr:`generation`; returns the new image id."""
        image_id = self._catalog.next_id
        record = ImageRecord(
            image_id=image_id,
            name=name or f"image_{image_id}",
            width=image.width,
            height=image.height,
            mode=image.mode,
            label=label,
            extra=dict(extra),
        )
        signatures = self._schema.extract_all(image)
        self._append([image_id], {f: row[None, :] for f, row in signatures.items()})
        self._catalog.insert(record)  # sets the flag: the commit point
        self._commit()
        return image_id

    def add_images(
        self, images: Sequence[tuple[Image, str | None]]
    ) -> list[int]:
        """Bulk insert of ``(image, label)`` pairs; returns the new ids."""
        return [self.add_image(image, label=label) for image, label in images]

    def add_vectors(
        self,
        signatures: Mapping[str, np.ndarray] | np.ndarray,
        *,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
        ids: Sequence[int] | None = None,
    ) -> list[int]:
        """Bulk insert of precomputed signatures — no images, no extraction.

        The ingest-side twin of the query methods' ``precomputed`` path:
        serving benchmarks and load tests build databases directly from
        vector matrices (typically under a
        :class:`~repro.features.base.PresetSignature` schema).

        Parameters
        ----------
        signatures:
            ``{feature name -> (n, d_feature) matrix}`` covering every
            schema feature, or a single ``(n, d)`` matrix when the schema
            has exactly one feature.
        labels, names:
            Optional per-row metadata, each of length ``n``.
        ids:
            Explicit image ids, one per row, none below
            :meth:`next_image_id` (ids are never reused).  By default
            ids are allocated sequentially; journal replay passes the ids
            the journaled mutation was given.

        Returns
        -------
        list[int]
            The image ids, in row order.
        """
        matrices, n_rows = self.validate_signatures(
            signatures, labels=labels, names=names
        )
        if ids is not None:
            ids = [int(image_id) for image_id in ids]
            if len(ids) != n_rows:
                raise QueryError(f"{len(ids)} ids for {n_rows} vectors")
            if len(set(ids)) != len(ids):
                raise QueryError(f"duplicate ids in add input: {ids}")
            if ids and min(ids) < self._catalog.next_id:
                raise QueryError(
                    f"image id {min(ids)} was handed out before (the next free "
                    f"id is {self._catalog.next_id}); ids are never reused"
                )
        else:
            first = self._catalog.next_id
            ids = list(range(first, first + n_rows))
        self._append(ids, matrices)
        self._catalog.insert_rows(ids, labels=labels, names=names)  # the commit point
        self._commit()
        return ids

    def validate_signatures(
        self,
        signatures: Mapping[str, np.ndarray] | np.ndarray,
        *,
        labels: Sequence[str | None] | None = None,
        names: Sequence[str] | None = None,
    ) -> tuple[dict[str, np.ndarray], int]:
        """Validate an :meth:`add_vectors` payload without inserting it.

        Returns the normalized ``{feature: (n, d) float64 matrix}``
        mapping and the row count.  The serving worker calls this before
        journaling an add, so a malformed payload leaves no record.
        """
        if not isinstance(signatures, Mapping):
            if len(self._schema) != 1:
                raise QueryError(
                    "a bare matrix needs a single-feature schema; this schema "
                    f"has {list(self._schema.names)} — pass a mapping instead"
                )
            signatures = {self.default_feature: signatures}
        unknown = set(signatures) - set(self._schema.names)
        if unknown:
            raise QueryError(
                f"signatures refer to unknown features: {sorted(unknown)}"
            )
        missing = set(self._schema.names) - set(signatures)
        if missing:
            raise QueryError(f"signatures missing features: {sorted(missing)}")

        matrices: dict[str, np.ndarray] = {}
        n_rows: int | None = None
        for feature in self._schema.names:
            matrix = np.asarray(signatures[feature], dtype=np.float64)
            dim = self._schema.get(feature).dim
            if matrix.ndim != 2 or matrix.shape[1] != dim:
                raise QueryError(
                    f"feature {feature!r}: expected an (n, {dim}) matrix; "
                    f"got shape {matrix.shape}"
                )
            if not np.all(np.isfinite(matrix)):
                raise QueryError(f"feature {feature!r}: non-finite values")
            if n_rows is None:
                n_rows = matrix.shape[0]
            elif matrix.shape[0] != n_rows:
                raise QueryError(
                    f"feature {feature!r} has {matrix.shape[0]} rows, "
                    f"expected {n_rows}"
                )
            matrices[feature] = matrix
        assert n_rows is not None
        for field_name, values in (("labels", labels), ("names", names)):
            if values is not None and len(values) != n_rows:
                raise QueryError(
                    f"{field_name} has {len(values)} entries for {n_rows} vectors"
                )
        return matrices, n_rows

    def remove(self, image_ids: Sequence[int]) -> list[ImageRecord]:
        """Remove images by id; returns their records, in call order.

        Validates every id before touching anything (an unknown id
        raises and the database is unchanged), then commits — the ids'
        live flags clear and :attr:`generation` is bumped — and only then
        lets each index drop the rows (``MetricIndex.reclaim``); should
        that fail, the ids are gone all the same.

        Raises
        ------
        CatalogError
            If an id is unknown.
        QueryError
            If an id is repeated in ``image_ids``.
        """
        image_ids = [int(image_id) for image_id in image_ids]
        if not image_ids:
            return []
        for image_id in image_ids:
            self._catalog.get(image_id)  # raises CatalogError when unknown
        if len(set(image_ids)) != len(image_ids):
            raise QueryError(f"duplicate ids in remove input: {image_ids}")
        records = [self._catalog.delete(image_id) for image_id in image_ids]
        self._commit()
        return records

    def delete_image(self, image_id: int) -> ImageRecord:
        """Remove one image and its signatures (see :meth:`remove`)."""
        return self.remove([image_id])[0]

    def build_indexes(self, features: Sequence[str] | None = None) -> None:
        """Build indexes now instead of lazily at first query.

        An unbuilt index gets its first build; a built one folds its
        mutation overlay in (``MetricIndex.rebuild``, a no-op when
        there is none).
        """
        for feature in features if features is not None else self._schema.names:
            self.index_for(feature).rebuild()

    def next_image_id(self) -> int:
        """The id the next insert would allocate (no allocation happens).

        The serving worker journals an add under these ids before it
        applies the add.
        """
        return self._catalog.next_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: Image | np.ndarray,
        k: int = 10,
        *,
        feature: str | None = None,
        precomputed: bool = False,
    ) -> list[RetrievalResult]:
        """k-NN query-by-example on one feature.

        With ``precomputed=True`` the query must already be the validated
        signature vector (see :meth:`extract_query_vector`); extraction
        and revalidation are skipped.  The serving layer uses this path:
        it extracts once at admission, digests the vector for its cache,
        and hands the same floats to the engine.
        """
        return self._search("knn", query, k, feature, precomputed)

    def range_query(
        self,
        query: Image | np.ndarray,
        radius: float,
        *,
        feature: str | None = None,
        precomputed: bool = False,
    ) -> list[RetrievalResult]:
        """Range query-by-example on one feature."""
        return self._search("range", query, radius, feature, precomputed)

    def query_batch(
        self,
        queries: Sequence[Image | np.ndarray] | np.ndarray,
        k: int = 10,
        *,
        feature: str | None = None,
        precomputed: bool = False,
    ) -> list[list[RetrievalResult]]:
        """k-NN query-by-example for a batch of queries on one feature.

        Equivalent to ``[self.query(q, k, feature=feature) for q in
        queries]``: signatures are stacked into one ``(m, d)`` matrix and
        the index runs its scalar body once per row, so results (ids,
        distances) are identical to the scalar path and the index's
        ``last_stats`` holds the batch's summed counters.

        With ``precomputed=True``, ``queries`` must already be an
        ``(m, d)`` signature matrix; the per-row extraction/stacking pass
        is skipped.
        """
        return self._search("knn", queries, k, feature, precomputed, batch=True)

    def range_query_batch(
        self,
        queries: Sequence[Image | np.ndarray] | np.ndarray,
        radius: float,
        *,
        feature: str | None = None,
        precomputed: bool = False,
    ) -> list[list[RetrievalResult]]:
        """Range query-by-example for a batch of queries on one feature."""
        return self._search(
            "range", queries, radius, feature, precomputed, batch=True
        )

    def query_multi(
        self,
        query: Image,
        k: int = 10,
        *,
        weights: Mapping[str, float] | None = None,
        pool_factor: int = 5,
    ) -> list[RetrievalResult]:
        """Weighted multi-feature query.

        Each weighted feature contributes a candidate pool of
        ``k * pool_factor`` nearest items from its index; candidates are
        then rescored with a median-scaled weighted combination of their
        exact per-feature distances.  Larger ``pool_factor`` approaches an
        exact multi-feature scan at higher cost.
        """
        if not isinstance(query, Image):
            raise QueryError("query_multi requires an Image (it uses several features)")
        if len(self._catalog) == 0:
            raise QueryError("database is empty")
        k = check_count("k", k, 1, QueryError)
        if pool_factor < 1:
            raise QueryError(f"pool_factor must be >= 1; got {pool_factor}")
        weights = dict(
            weights
            if weights is not None
            else {name: 1.0 for name in self._schema.names}
        )
        active = [name for name, weight in weights.items() if weight > 0.0]
        if not active:
            raise QueryError("at least one weight must be positive")

        pool_size = min(k * pool_factor, len(self._catalog))
        per_feature: dict[str, dict[int, float]] = {}
        candidate_ids: set[int] = set()
        query_vectors: dict[str, np.ndarray] = {}
        for feature in active:
            self._check_feature(feature)
            vector = self._signatures(query, feature)
            query_vectors[feature] = vector
            neighbors = self.index_for(feature).knn_search(vector, pool_size)
            per_feature[feature] = {nb.id: nb.distance for nb in neighbors}
            candidate_ids.update(per_feature[feature])

        # Fill in exact distances for candidates another feature surfaced.
        for feature in active:
            distances = per_feature[feature]
            missing = [c for c in candidate_ids if c not in distances]
            if not missing:
                continue
            exact = self._metrics[feature].distance_batch(
                query_vectors[feature], self.vectors_of(feature, missing)
            )
            distances.update(zip(missing, exact.tolist()))

        combined = combine_feature_distances(
            per_feature, {name: weights[name] for name in active}
        )
        ranked = sorted(
            combined.items(), key=lambda kv: (kv[1][0], kv[0])
        )[:k]
        return [
            RetrievalResult(
                image_id=image_id,
                distance=score,
                record=self._catalog.get(image_id),
                per_feature=detail,
            )
            for image_id, (score, detail) in ranked
        ]

    def query_fused(
        self,
        query: Image,
        k: int = 10,
        *,
        features: Sequence[str] | None = None,
        method: str = "borda",
        pool_factor: int = 5,
    ) -> list[RetrievalResult]:
        """Rank-fusion multi-feature query (Borda or reciprocal-rank)."""
        if not isinstance(query, Image):
            raise QueryError("query_fused requires an Image")
        if method not in ("borda", "rrf"):
            raise QueryError(f"method must be 'borda' or 'rrf'; got {method!r}")
        if len(self._catalog) == 0:
            raise QueryError("database is empty")
        k = check_count("k", k, 1, QueryError)
        features = list(features) if features is not None else list(self._schema.names)
        pool_size = min(max(k * pool_factor, k), len(self._catalog))
        rankings = []
        for feature in features:
            self._check_feature(feature)
            vector = self._signatures(query, feature)
            neighbors = self.index_for(feature).knn_search(vector, pool_size)
            rankings.append([nb.id for nb in neighbors])
        fuse = borda_fuse if method == "borda" else reciprocal_rank_fuse
        fused_ids = fuse(rankings, k)
        return [
            RetrievalResult(
                image_id=image_id,
                distance=float(position),
                record=self._catalog.get(image_id),
            )
            for position, image_id in enumerate(fused_ids)
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path, *, fs: FileSystem = REAL_FS) -> None:
        """Persist catalog + per-feature stores under ``directory``.

        Every file is written atomically (temp + fsync + rename): the
        catalog and config replace their predecessors in one rename
        each, and each feature store is built as ``*.feat.new`` and
        renamed over only once its bytes are fsync'd.  A crash mid-save
        therefore never leaves a *half-written* file — at worst a mix of
        old and new files, which :meth:`load` detects through its
        store-count-vs-catalog consistency check.  (The journaled
        serving path avoids even that window by saving into a fresh
        snapshot directory and flipping a manifest pointer — see
        ``repro.db.recovery``.)
        """
        directory = Path(directory)
        (directory / _FEATURE_DIR).mkdir(parents=True, exist_ok=True)
        ordered_ids = self._catalog.id_array
        for feature in self._schema.names:
            path = directory / _FEATURE_DIR / f"{feature}.feat"
            staging = path.with_name(path.name + ".new")
            with FeatureStore.create(
                staging, self._schema.get(feature).dim, overwrite=True, fs=fs
            ) as store:
                store.extend(self._rows(feature, ordered_ids))
            fsync_file(staging, fs=fs)
            fs.replace(staging, path)
        fs.fsync_dir(directory / _FEATURE_DIR)

        config = {
            "features": [
                {"name": name, "dim": self._schema.get(name).dim}
                for name in self._schema.names
            ],
            "metrics": {name: metric.name for name, metric in self._metrics.items()},
        }
        atomic_write_bytes(
            directory / _CONFIG_FILE,
            json.dumps(config, indent=2).encode("utf-8"),
            fs=fs,
        )
        self._catalog.save(directory / _CATALOG_FILE, fs=fs)

    @classmethod
    def load(
        cls,
        directory: str | Path,
        schema: FeatureSchema,
        *,
        metrics: Mapping[str, Metric] | None = None,
        index_factory: IndexFactory | None = None,
        backend: "str | BackendFactory | None" = None,
    ) -> "ImageDatabase":
        """Load a database saved by :meth:`save`.

        The caller supplies the same ``schema`` (extractors are code, not
        data); stored dimensionalities are validated against it.
        """
        directory = Path(directory)
        config = json.loads((directory / _CONFIG_FILE).read_text())
        stored = {entry["name"]: entry["dim"] for entry in config["features"]}
        if set(stored) != set(schema.names):
            raise QueryError(
                f"schema features {sorted(schema.names)} do not match stored "
                f"features {sorted(stored)}"
            )
        for name in schema.names:
            if schema.get(name).dim != stored[name]:
                raise QueryError(
                    f"feature {name!r}: schema dim {schema.get(name).dim} != "
                    f"stored dim {stored[name]}"
                )

        db = cls(
            schema, metrics=metrics, index_factory=index_factory, backend=backend
        )
        db._catalog = Catalog.load(directory / _CATALOG_FILE)
        ordered_ids = db._catalog.id_array
        for index in db._indexes.values():
            index.live_mask = db._catalog.live
        for feature in schema.names:
            path = directory / _FEATURE_DIR / f"{feature}.feat"
            with FeatureStore.open(path) as store:
                matrix = store.read_all()
            if matrix.shape[0] != len(ordered_ids):
                raise QueryError(
                    f"feature store {feature!r} holds {matrix.shape[0]} records "
                    f"but catalog has {len(ordered_ids)}"
                )
            db._indexes[feature].append_rows(ordered_ids, matrix)
        return db

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_feature(self, feature: str) -> None:
        if feature not in self._schema:
            raise QueryError(
                f"unknown feature {feature!r}; schema has {list(self._schema.names)}"
            )

    def _rows(self, feature: str, ids: Sequence[int]) -> np.ndarray:
        """The feature's rows of live ``ids`` from its index (an empty ask
        here, where the width is known before the index holds a row)."""
        if not len(ids):
            return np.empty((0, self._schema.get(feature).dim))
        return self._indexes[feature].vectors_of(ids)

    def _append(self, ids: list[int], matrices: Mapping[str, np.ndarray]) -> None:
        """Burn ``ids`` — cover them in the live mask, so ``next_id`` moves
        past them even if an index refuses its rows — and let every index
        append its rows, invisible until the catalog sets their flags."""
        if ids:
            self._catalog.live.grow(max(ids) + 1, min(ids))
        for feature in self._schema.names:
            self._indexes[feature].append_rows(ids, matrices[feature])

    def _commit(self) -> None:
        """Finish a mutation whose flags just flipped: bump the
        generation, then let every index drop its dead rows."""
        self._generation += 1
        for index in self._indexes.values():
            index.reclaim()

    def _search(
        self,
        kind: str,
        queries: "Image | np.ndarray | Sequence[Image | np.ndarray]",
        parameter: float,
        feature: str | None,
        precomputed: bool,
        *,
        batch: bool = False,
    ) -> list:
        """The one body behind the four query entry points: a ``kind``
        (``"knn"`` or ``"range"``) search, scalar or batched, over the
        validated signature(s)."""
        feature = feature or self.default_feature
        self._check_feature(feature)
        if len(self._catalog) == 0:
            raise QueryError("database is empty")
        if kind == "knn":
            parameter = check_count("k", parameter, 1, QueryError)
        signatures = self._signatures(
            queries, feature, precomputed=precomputed, batch=batch
        )
        search = f"{kind}_search_batch" if batch else f"{kind}_search"
        found = getattr(self.index_for(feature), search)(signatures, parameter)
        if batch:
            return [to_retrieval_results(hits, self._catalog) for hits in found]
        return to_retrieval_results(found, self._catalog)

    def _signatures(
        self,
        queries: "Image | np.ndarray | Sequence[Image | np.ndarray]",
        feature: str,
        *,
        precomputed: bool = False,
        batch: bool = False,
    ) -> np.ndarray:
        """The one query validator: a query is an Image (extracted
        here) or a vector of the feature's dimension; a batch is a
        sequence of queries and comes back as an ``(m, d)`` matrix, every
        entry finite.  ``precomputed`` callers hand over the exact array
        the index takes, so only its shape is checked."""
        extractor = self._schema.get(feature)
        if precomputed:
            if isinstance(queries, Image):
                raise QueryError(
                    "precomputed=True takes a signature vector, not an Image; "
                    "extract it first with extract_query_vector"
                )
            array = np.asarray(queries, dtype=np.float64)
            if array.ndim != 1 + batch or array.shape[-1] != extractor.dim:
                if batch:
                    raise QueryError(
                        f"precomputed queries must be an (m, {extractor.dim}) "
                        f"matrix; got shape {array.shape}"
                    )
                raise QueryError(
                    f"precomputed query has shape {array.shape}, feature "
                    f"{feature!r} expects ({extractor.dim},)"
                )
            return array
        if batch:
            if len(queries) == 0:
                return np.empty((0, extractor.dim))
            return np.stack([self._signatures(query, feature) for query in queries])
        if isinstance(queries, Image):
            return extractor.extract(queries)
        vector = np.asarray(queries, dtype=np.float64).ravel()
        if vector.shape != (extractor.dim,):
            raise QueryError(
                f"query vector has dim {vector.size}, feature {feature!r} "
                f"expects {extractor.dim}"
            )
        if not np.all(np.isfinite(vector)):
            raise QueryError("query vector contains non-finite values")
        return vector

    def __repr__(self) -> str:
        return (
            f"ImageDatabase(images={len(self)}, features={list(self._schema.names)})"
        )
