"""Tests for the model registry: versioning, defaults, integrity."""

import json

import pytest

from repro.errors import IntegrityError, RegistryError
from repro.serve import (
    ModelRegistry,
    load_model,
    model_task,
    save_model,
    schema_fingerprint,
)

from .conftest import qa_lookup_samples, verification_samples


class TestRoundTrip:
    def test_qa_predictions_survive_save_load(
        self, tmp_path, tiny_qa_model, serve_context
    ):
        save_model(tmp_path, "qa", tiny_qa_model)
        loaded = load_model(tmp_path, "qa")
        samples = qa_lookup_samples(serve_context)
        assert [loaded.model.predict(s) for s in samples] == [
            tiny_qa_model.predict(s) for s in samples
        ]

    def test_verifier_predictions_survive_save_load(
        self, tmp_path, tiny_verifier, serve_context
    ):
        save_model(tmp_path, "verifier", tiny_verifier)
        loaded = load_model(tmp_path, "verifier")
        samples = verification_samples(serve_context)
        assert loaded.model.predict(samples) == tiny_verifier.predict(samples)

    def test_record_carries_metadata(self, tmp_path, tiny_qa_model):
        record = save_model(
            tmp_path, "qa", tiny_qa_model,
            metrics={"em": 0.75}, train_corpus={"records": 20},
        )
        assert record.model_id == "qa@v0001"
        assert record.task == "qa"
        assert record.model_class == "TagOpQA"
        assert record.metrics == {"em": 0.75}
        assert record.train_corpus == {"records": 20}
        assert record.schema_fingerprint == schema_fingerprint(tiny_qa_model)
        assert record.artifact_bytes > 0
        # to_json must be JSON-serializable as-is (CLI, reports)
        json.dumps(record.to_json())

    def test_replica_is_independent(self, tmp_path, tiny_verifier, serve_context):
        save_model(tmp_path, "verifier", tiny_verifier)
        loaded = load_model(tmp_path)
        replica = loaded.replica()
        assert replica is not loaded.model
        samples = verification_samples(serve_context)[:4]
        assert replica.predict(samples) == loaded.model.predict(samples)


class TestVersioning:
    def test_versions_increment_and_default_follows(
        self, tmp_path, tiny_qa_model
    ):
        registry = ModelRegistry(tmp_path)
        first = registry.save(tiny_qa_model, "qa")
        second = registry.save(tiny_qa_model, "qa")
        assert (first.version, second.version) == ("v0001", "v0002")
        assert registry.versions("qa") == ["v0001", "v0002"]
        assert registry.default_version("qa") == "v0002"
        assert registry.load("qa").record.version == "v0002"
        assert registry.load("qa", "v0001").record.version == "v0001"

    def test_save_non_default_keeps_pointer(self, tmp_path, tiny_qa_model):
        registry = ModelRegistry(tmp_path)
        registry.save(tiny_qa_model, "qa")
        registry.save(tiny_qa_model, "qa", default=False)
        assert registry.default_version("qa") == "v0001"

    def test_first_save_becomes_registry_default(
        self, tmp_path, tiny_qa_model, tiny_verifier
    ):
        registry = ModelRegistry(tmp_path)
        registry.save(tiny_qa_model, "qa")
        registry.save(tiny_verifier, "verifier")
        assert registry.default_model() == "qa"
        assert registry.load().record.name == "qa"

    def test_set_default_switches_models(
        self, tmp_path, tiny_qa_model, tiny_verifier
    ):
        registry = ModelRegistry(tmp_path)
        registry.save(tiny_qa_model, "qa")
        registry.save(tiny_verifier, "verifier")
        registry.set_default("verifier")
        assert registry.load().record.name == "verifier"
        with pytest.raises(RegistryError):
            registry.set_default("nope")
        with pytest.raises(RegistryError):
            registry.set_default("qa", "v9999")

    def test_list_records_covers_every_version(
        self, tmp_path, tiny_qa_model, tiny_verifier
    ):
        registry = ModelRegistry(tmp_path)
        registry.save(tiny_qa_model, "qa")
        registry.save(tiny_qa_model, "qa")
        registry.save(tiny_verifier, "verifier")
        ids = [record.model_id for record in registry.list_records()]
        assert ids == ["qa@v0001", "qa@v0002", "verifier@v0001"]

    def test_unknown_names_and_versions(self, tmp_path, tiny_qa_model):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError):
            registry.load("ghost")
        registry.save(tiny_qa_model, "qa")
        with pytest.raises(RegistryError):
            registry.load("qa", "v0042")
        with pytest.raises(RegistryError):
            registry.save(tiny_qa_model, "../escape")


class TestIntegrity:
    def test_flipped_byte_is_refused(self, tmp_path, tiny_qa_model):
        record = save_model(tmp_path, "qa", tiny_qa_model)
        artifact = record.path
        blob = bytearray(open(artifact, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(artifact, "wb") as handle:
            handle.write(blob)
        with pytest.raises(IntegrityError):
            load_model(tmp_path, "qa")

    def test_missing_manifest_is_refused(self, tmp_path, tiny_qa_model):
        record = save_model(tmp_path, "qa", tiny_qa_model)
        (ModelRegistry(tmp_path).root / "qa" / record.version
         / "model.pkl.manifest.json").unlink()
        with pytest.raises(IntegrityError):
            load_model(tmp_path, "qa")

    def test_swapped_payload_is_refused(
        self, tmp_path, tiny_qa_model, tiny_verifier
    ):
        """A verifier pickle under a QA manifest must not serve."""
        import shutil

        qa_record = save_model(tmp_path, "qa", tiny_qa_model)
        verifier_record = save_model(tmp_path, "verifier", tiny_verifier)
        shutil.copyfile(verifier_record.path, qa_record.path)
        with pytest.raises(IntegrityError):
            load_model(tmp_path, "qa")

    def test_model_task_rejects_unknown_objects(self):
        with pytest.raises(RegistryError):
            model_task(object())

    def test_fingerprints_differ_across_families(
        self, tiny_qa_model, tiny_verifier
    ):
        assert schema_fingerprint(tiny_qa_model) != schema_fingerprint(
            tiny_verifier
        )


class TestLegacyViewCaches:
    """Artifacts pickled while the featurizers kept id-keyed view caches."""

    def test_legacy_artifacts_load_and_predict_identically(
        self, tmp_path, tiny_qa_model, tiny_verifier, serve_context
    ):
        import pickle
        from pathlib import Path

        from repro.models.features import EvidenceView

        qa = pickle.loads(pickle.dumps(tiny_qa_model))
        verifier = pickle.loads(pickle.dumps(tiny_verifier))
        cached = {
            id(serve_context): (
                serve_context, EvidenceView.build(serve_context)
            )
        }
        qa.generator._views = dict(cached)
        verifier.featurizer._cache = dict(cached)
        registry = ModelRegistry(tmp_path)
        for name, model in (("qa", qa), ("verifier", verifier)):
            record = registry.save(model, name)
            # the artifact really is in the old layout
            assert b"TableContext" in Path(record.path).read_bytes()
        loaded_qa = registry.load("qa").model
        loaded_verifier = registry.load("verifier").model
        # the stale caches are dropped on load, not carried along
        assert not hasattr(loaded_qa.generator, "_views")
        assert not hasattr(loaded_verifier.featurizer, "_cache")
        qa_samples = qa_lookup_samples(serve_context)
        assert json.dumps(
            [loaded_qa.predict(sample) for sample in qa_samples]
        ) == json.dumps([tiny_qa_model.predict(sample) for sample in qa_samples])
        claims = verification_samples(serve_context)
        assert json.dumps(
            [label.value for label in loaded_verifier.predict(claims)]
        ) == json.dumps(
            [label.value for label in tiny_verifier.predict(claims)]
        )
