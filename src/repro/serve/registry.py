"""Versioned on-disk model artifacts with integrity manifests.

A registry directory packages trained :class:`~repro.models.qa.TagOpQA`
and :class:`~repro.models.verifier.FactVerifier` models for serving::

    registry/
      DEFAULT                      # name of the default model
      qa-tatqa/
        DEFAULT                    # default version of this model
        v0001/
          model.pkl                # pickled model (atomic write)
          model.pkl.manifest.json  # sidecar integrity manifest

Each version's pickle payload gets the same sidecar manifest the corpus
layer uses (:mod:`repro.validate.manifest`): exact SHA-256 and byte
count of the artifact, plus a ``generator`` block recording the task
(``qa`` | ``verify``), the model class, a *feature-schema fingerprint*
(a digest of the featurization contract the weights were trained
against), the training-corpus fingerprint, and the metrics measured at
save time.  :func:`load_model` re-verifies the SHA-256 before
unpickling and re-derives the schema fingerprint from the loaded
object, so a flipped byte, a swapped payload, or an artifact trained
under an incompatible featurizer all raise a typed
:class:`~repro.errors.IntegrityError` at load time — never a silently
wrong answer at serve time.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import IntegrityError, RegistryError
from repro.fsio import atomic_write_text, atomic_writer, sha256_text
from repro.serve import chaos
from repro.validate.manifest import verify_manifest, write_manifest

#: the two servable tasks; mirrors :class:`repro.pipelines.samples.TaskType`.
TASK_QA = "qa"
TASK_VERIFY = "verify"
TASKS = (TASK_QA, TASK_VERIFY)

#: the frontend-only routing task behind ``POST /v1/ask``: retrieval
#: happens in the HTTP layer (:mod:`repro.store`), then the request is
#: answered by the ``TASK_QA`` model — deliberately *not* in ``TASKS``
#: because no model artifact serves "ask" directly.
TASK_ASK = "ask"

#: artifact file name inside a version directory.
ARTIFACT_NAME = "model.pkl"

#: name of the default-pointer files (registry root and per model).
DEFAULT_POINTER = "DEFAULT"

#: ``record_kind`` stamped into artifact manifests.
MODEL_RECORD_KIND = "model-artifact"

#: stable cross-version pickle protocol for artifacts.
PICKLE_PROTOCOL = 4


def model_task(model: Any) -> str:
    """``"qa"`` or ``"verify"`` for a servable model instance."""
    from repro.models.qa import TagOpQA
    from repro.models.verifier import FactVerifier

    if isinstance(model, TagOpQA):
        return TASK_QA
    if isinstance(model, FactVerifier):
        return TASK_VERIFY
    raise RegistryError(
        f"{type(model).__name__} is not a servable model "
        "(expected TagOpQA or FactVerifier)"
    )


def schema_fingerprint(model: Any) -> str:
    """Digest of the featurization contract a model's weights assume.

    Computed from the *code-level* feature schema (dimensions, candidate
    vocabularies, label sets), not the weights: an artifact saved under
    one schema and loaded under a refactored featurizer produces
    garbage scores even though the pickle itself is intact, so the
    fingerprint recorded at save time must match the one re-derived at
    load time.
    """
    task = model_task(model)
    if task == TASK_QA:
        from repro.models.qa import CANDIDATE_TYPES, HASH_CROSS_DIM, TagOpQA

        contract: dict[str, Any] = {
            "family": "tagop-qa",
            "feature_dim": TagOpQA.FEATURE_DIM,
            "hash_cross_dim": HASH_CROSS_DIM,
            "candidate_types": list(CANDIDATE_TYPES),
            "answer_source": model.config.answer_source,
        }
    else:
        from repro.models.features import HASH_DIM

        contract = {
            "family": "fact-verifier",
            "feature_dim": model.featurizer.dim,
            "hash_dim": HASH_DIM,
            "labels": [label.value for label in model.labels],
        }
    return sha256_text(json.dumps(contract, sort_keys=True))


@dataclass(frozen=True)
class ModelRecord:
    """One registered model version, as described by its manifest."""

    name: str
    version: str
    task: str
    model_class: str
    schema_fingerprint: str
    artifact_sha256: str
    artifact_bytes: int
    metrics: dict[str, float]
    train_corpus: dict[str, Any]
    path: str

    @property
    def model_id(self) -> str:
        """The cache/telemetry identity of this artifact."""
        return f"{self.name}@{self.version}"

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "task": self.task,
            "model_class": self.model_class,
            "schema_fingerprint": self.schema_fingerprint,
            "artifact_sha256": self.artifact_sha256,
            "artifact_bytes": self.artifact_bytes,
            "metrics": dict(self.metrics),
            "train_corpus": dict(self.train_corpus),
            "path": self.path,
        }


@dataclass(frozen=True)
class LoadedModel:
    """A verified, unpickled model plus its registry identity.

    ``payload`` keeps the raw pickle bytes so the serving engine can
    cheaply re-instantiate one independent replica per worker thread
    (replicas share no mutable state, so no inference-time locking).
    """

    record: ModelRecord
    model: Any
    payload: bytes

    def replica(self) -> Any:
        """A fresh, independent copy of the model."""
        return pickle.loads(self.payload)


class ModelRegistry:
    """A directory of named, versioned, integrity-checked model artifacts."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- naming and layout --------------------------------------------------
    def _model_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise RegistryError(f"invalid model name {name!r}")
        return self.root / name

    def _artifact_path(self, name: str, version: str) -> Path:
        return self._model_dir(name) / version / ARTIFACT_NAME

    def models(self) -> list[str]:
        """All registered model names, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    def versions(self, name: str) -> list[str]:
        """All versions of ``name``, oldest first."""
        model_dir = self._model_dir(name)
        if not model_dir.is_dir():
            return []
        return sorted(
            entry.name
            for entry in model_dir.iterdir()
            if entry.is_dir() and (entry / ARTIFACT_NAME).exists()
        )

    # -- default pointers ---------------------------------------------------
    def _read_pointer(self, path: Path) -> str | None:
        if not path.is_file():
            return None
        value = path.read_text(encoding="utf-8").strip()
        return value or None

    def default_model(self) -> str | None:
        """The registry-wide default model name, if set."""
        return self._read_pointer(self.root / DEFAULT_POINTER)

    def default_version(self, name: str) -> str | None:
        """The default version of ``name``, if set."""
        return self._read_pointer(self._model_dir(name) / DEFAULT_POINTER)

    def set_default(self, name: str, version: str | None = None) -> None:
        """Point the registry default at ``name`` (and optionally pin a version)."""
        if name not in self.models():
            raise RegistryError(f"unknown model {name!r} in {self.root}")
        atomic_write_text(self.root / DEFAULT_POINTER, name + "\n")
        if version is not None:
            if version not in self.versions(name):
                raise RegistryError(
                    f"unknown version {version!r} of model {name!r}"
                )
            atomic_write_text(
                self._model_dir(name) / DEFAULT_POINTER, version + "\n"
            )

    # -- save ---------------------------------------------------------------
    def save(
        self,
        model: Any,
        name: str,
        *,
        metrics: dict[str, float] | None = None,
        train_corpus: dict[str, Any] | None = None,
        default: bool = True,
    ) -> ModelRecord:
        """Pickle ``model`` as the next version of ``name``.

        Writes the artifact atomically, then its sidecar manifest (data
        first, manifest second — a crash between the two surfaces as a
        manifest mismatch on the next load, not a silent half-artifact).
        With ``default=True`` the new version becomes the model's
        default, and the model becomes the registry default when no
        default exists yet.
        """
        task = model_task(model)
        fingerprint = schema_fingerprint(model)
        payload = pickle.dumps(model, protocol=PICKLE_PROTOCOL)
        existing = self.versions(name)
        version = f"v{len(existing) + 1:04d}"
        while version in existing:  # gap-tolerant (deleted versions)
            version = f"v{int(version[1:]) + 1:04d}"
        artifact = self._artifact_path(name, version)
        with atomic_writer(artifact, encoding=None) as handle:
            handle.write(payload)
        write_manifest(
            artifact,
            record_kind=MODEL_RECORD_KIND,
            records=1,
            generator={
                "task": task,
                "model_class": type(model).__name__,
                "schema_fingerprint": fingerprint,
                "metrics": dict(metrics or {}),
                "train_corpus": dict(train_corpus or {}),
                "pickle_protocol": PICKLE_PROTOCOL,
            },
        )
        if default:
            atomic_write_text(
                self._model_dir(name) / DEFAULT_POINTER, version + "\n"
            )
            if self.default_model() is None:
                atomic_write_text(self.root / DEFAULT_POINTER, name + "\n")
        return self.record(name, version)

    # -- inspect ------------------------------------------------------------
    def record(self, name: str, version: str | None = None) -> ModelRecord:
        """The manifest-backed description of one model version.

        Verifies the manifest (including the artifact's SHA-256 and
        byte count); raises :class:`RegistryError` for unknown
        names/versions and :class:`IntegrityError` for a missing or
        corrupt manifest or a tampered artifact.
        """
        version = self._resolve_version(name, version)
        artifact = self._artifact_path(name, version)
        chaos.maybe_torn_read(f"{name}@{version}")
        manifest = verify_manifest(artifact, required=True)
        if manifest.record_kind != MODEL_RECORD_KIND:
            raise IntegrityError(
                f"not a model artifact (record_kind="
                f"{manifest.record_kind!r})",
                path=str(artifact),
            )
        generator = manifest.generator or {}
        task = generator.get("task")
        if task not in TASKS:
            raise IntegrityError(
                f"artifact manifest has unknown task {task!r}",
                path=str(artifact),
            )
        return ModelRecord(
            name=name,
            version=version,
            task=task,
            model_class=str(generator.get("model_class", "")),
            schema_fingerprint=str(generator.get("schema_fingerprint", "")),
            artifact_sha256=manifest.data_sha256,
            artifact_bytes=manifest.data_bytes,
            metrics=dict(generator.get("metrics") or {}),
            train_corpus=dict(generator.get("train_corpus") or {}),
            path=str(artifact),
        )

    def list_records(self) -> list[ModelRecord]:
        """Every (model, version) in the registry, for ``repro models list``."""
        out: list[ModelRecord] = []
        for name in self.models():
            for version in self.versions(name):
                out.append(self.record(name, version))
        return out

    def _resolve_version(self, name: str, version: str | None) -> str:
        versions = self.versions(name)
        if not versions:
            raise RegistryError(
                f"unknown model {name!r} in {self.root} "
                f"(have: {', '.join(self.models()) or 'none'})"
            )
        if version is None:
            version = self.default_version(name) or versions[-1]
        if version not in versions:
            raise RegistryError(
                f"unknown version {version!r} of model {name!r} "
                f"(have: {', '.join(versions)})"
            )
        return version

    def _resolve_name(self, name: str | None) -> str:
        if name is not None:
            return name
        name = self.default_model()
        if name is not None:
            return name
        models = self.models()
        if len(models) == 1:
            return models[0]
        raise RegistryError(
            "no model name given and the registry has no default "
            f"(have: {', '.join(models) or 'none'})"
        )

    # -- load ---------------------------------------------------------------
    def load(
        self, name: str | None = None, version: str | None = None
    ) -> LoadedModel:
        """Verify and unpickle a model version (default-resolving).

        The artifact's SHA-256 and byte count are checked against the
        sidecar manifest *before* unpickling — a tampered pickle is
        refused with :class:`IntegrityError`, never executed.  After
        unpickling, the feature-schema fingerprint is re-derived from
        the live object and compared with the manifest's, so an
        artifact from an incompatible featurizer vintage is refused
        too.
        """
        name = self._resolve_name(name)
        record = self.record(name, version)
        artifact = Path(record.path)
        # record() already verified manifest + data SHA-256; re-read the
        # payload it verified.
        payload = artifact.read_bytes()
        try:
            model = pickle.loads(payload)
        except Exception as error:  # unpickling a verified payload
            raise IntegrityError(
                f"artifact failed to unpickle ({error!r})",
                path=str(artifact),
            ) from error
        live_task = model_task(model)
        if live_task != record.task:
            raise IntegrityError(
                f"artifact task mismatch: manifest says {record.task!r}, "
                f"payload is a {live_task!r} model",
                path=str(artifact),
            )
        live_fingerprint = schema_fingerprint(model)
        if record.schema_fingerprint and (
            live_fingerprint != record.schema_fingerprint
        ):
            raise IntegrityError(
                "feature-schema fingerprint mismatch: the artifact was "
                f"saved against schema {record.schema_fingerprint[:12]}… "
                f"but this code derives {live_fingerprint[:12]}… — "
                "retrain or pin the matching package version",
                path=str(artifact),
            )
        return LoadedModel(record=record, model=model, payload=payload)


def save_model(
    registry_dir: str | Path,
    name: str,
    model: Any,
    *,
    metrics: dict[str, float] | None = None,
    train_corpus: dict[str, Any] | None = None,
    default: bool = True,
) -> ModelRecord:
    """Module-level convenience for :meth:`ModelRegistry.save`."""
    return ModelRegistry(registry_dir).save(
        model, name, metrics=metrics, train_corpus=train_corpus,
        default=default,
    )


def load_model(
    registry_dir: str | Path,
    name: str | None = None,
    version: str | None = None,
) -> LoadedModel:
    """Module-level convenience for :meth:`ModelRegistry.load`."""
    return ModelRegistry(registry_dir).load(name, version)
