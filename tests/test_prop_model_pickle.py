"""Property tests: pickling a trained model never changes a prediction.

The serving stack leans on pickle twice — the registry persists models
as pickle artifacts, and the engine unpickles an independent replica
per worker thread.  Both are only sound if a round-tripped model is
*behaviorally* identical to the original on any input, not just on the
training distribution.  These tests fuzz question/claim surface forms
(known and unknown entities, numbers, casing) against session-trained
models and require exactly equal predictions from the clone.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.pipelines.samples import ReasoningSample, TaskType
from repro.sampling.labeler import ClaimLabel

_names = st.sampled_from(
    ["john smith", "bo chen", "dana cruz", "nobody special", "BO CHEN"]
)
_columns = st.sampled_from(["points", "rebounds", "team", "salary"])
_values = st.sampled_from(["31", "28", "7", "999999", "hawks", "0"])
_templates = st.sampled_from(
    [
        "what is the {column} of {name} ?",
        "how many {column} does {name} have ?",
        "which player has the highest {column} ?",
    ]
)


@st.composite
def _questions(draw):
    template = draw(_templates)
    return template.format(column=draw(_columns), name=draw(_names))


@st.composite
def _claims(draw):
    return (
        f"{draw(_names)} has a {draw(_columns)} of {draw(_values)}"
    )


@settings(max_examples=40, deadline=None)
@given(question=_questions())
def test_qa_round_trip_predictions_identical(
    tiny_qa_model, serve_context, question
):
    clone = pickle.loads(pickle.dumps(tiny_qa_model))
    sample = ReasoningSample(
        uid="prop-qa",
        task=TaskType.QUESTION_ANSWERING,
        context=serve_context,
        sentence=question,
        answer=("",),
    )
    assert clone.predict(sample) == tiny_qa_model.predict(sample)


@settings(max_examples=40, deadline=None)
@given(claims=st.lists(_claims(), min_size=1, max_size=6))
def test_verifier_round_trip_predictions_identical(
    tiny_verifier, serve_context, claims
):
    clone = pickle.loads(pickle.dumps(tiny_verifier))
    samples = [
        ReasoningSample(
            uid=f"prop-v-{i}",
            task=TaskType.FACT_VERIFICATION,
            context=serve_context,
            sentence=claim,
            label=ClaimLabel.UNKNOWN,
        )
        for i, claim in enumerate(claims)
    ]
    assert clone.predict(samples) == tiny_verifier.predict(samples)


def test_fresh_artifacts_carry_no_contexts(serve_context):
    # Evidence views are memoized on the contexts, not on the models, so
    # training leaves no context (or view) behind in the pickled model.
    from repro.models.qa import QAConfig, TagOpQA
    from repro.models.verifier import FactVerifier, VerifierConfig

    from .conftest import qa_lookup_samples, verification_samples

    qa = TagOpQA(QAConfig(epochs=2, seed=0))
    qa.fit(qa_lookup_samples(serve_context))
    verifier = FactVerifier(VerifierConfig(epochs=2, seed=0))
    verifier.fit(verification_samples(serve_context))
    for model in (qa, verifier):
        payload = pickle.dumps(model, protocol=4)
        assert b"TableContext" not in payload
        assert b"EvidenceView" not in payload
