"""The pruned phase search picks what a plain Manhattan scan picks.

``PhaseClassifier`` skips phases whose distance in the classified
vector's heaviest bucket already proves them out of the running.  These
properties drive it and a plain-scan twin through the same interval
vectors and require identical ``(phase_id, is_new, run_length)``
verdicts and signatures, under the float ``sum`` of this interpreter and
under the compensated summation ``sum`` uses from Python 3.12 on.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phases import classifier as classifier_module
from repro.phases.bbv import manhattan_distance, normalize
from repro.phases.classifier import PhaseClassifier


class PlainScan(PhaseClassifier):
    """Redefines ``_distance``, so it scans every phase."""

    def _distance(self, prepared, signature):
        return classifier_module.manhattan_distance(prepared, signature)


def neumaier_sum(values):
    """Python 3.12's float ``sum``: Neumaier-compensated summation."""
    total = 0.0
    compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def compensated_manhattan(a, b):
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return neumaier_sum(abs(x - y) for x, y in zip(a, b))


SUMMATIONS = {
    "builtin": manhattan_distance,
    "compensated": compensated_manhattan,
}


def run_both(vectors, threshold, summation):
    """Classify ``vectors`` with the pruned search and a plain scan."""
    with mock.patch.object(
        classifier_module, "manhattan_distance", SUMMATIONS[summation]
    ):
        pruned = PhaseClassifier(threshold)
        plain = PlainScan(threshold)
        assert pruned._pruned and not plain._pruned
        verdicts = [
            (pruned.classify(v), plain.classify(v)) for v in vectors
        ]
    signatures = (
        [p.signature for p in pruned.phases.values()],
        [p.signature for p in plain.phases.values()],
    )
    return verdicts, signatures


def assert_same(vectors, threshold, summation):
    verdicts, (pruned_sigs, plain_sigs) = run_both(
        vectors, threshold, summation
    )
    for got, want in verdicts:
        assert got == want
    assert pruned_sigs == plain_sigs


#: Small counts over few buckets: many exact ties and repeated vectors.
small_vectors = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
        min_size=1,
        max_size=30,
    )
)

#: Harvest-like vectors: 32 buckets of 24-bit counts, few hot buckets.
bbv_vectors = st.lists(
    st.lists(
        st.one_of(st.just(0), st.integers(1, 50), st.integers(0, 1 << 24)),
        min_size=32,
        max_size=32,
    ).map(tuple),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("summation", sorted(SUMMATIONS))
@given(
    vectors=st.one_of(small_vectors, bbv_vectors),
    threshold=st.sampled_from([0.35, 0.05, 0.5, 1.0, 2.0]),
)
@settings(max_examples=150, deadline=None)
def test_pruned_search_matches_plain_scan(summation, vectors, threshold):
    assert_same(vectors, threshold, summation)


@pytest.mark.parametrize("summation", sorted(SUMMATIONS))
@given(vectors=small_vectors, data=st.data())
@settings(max_examples=150, deadline=None)
def test_threshold_equal_to_a_distance(summation, vectors, data):
    """A distance exactly at the threshold is a match for both."""
    distance = SUMMATIONS[summation]
    prepared = [normalize(v) for v in vectors]
    distances = sorted(
        {
            distance(a, b)
            for a in prepared
            for b in prepared
            if len(a) == len(b)
        }
        - {0.0}
    )
    if not distances:
        return
    threshold = data.draw(st.sampled_from(distances))
    assert_same(vectors, threshold, summation)


@pytest.mark.parametrize("summation", sorted(SUMMATIONS))
def test_exact_tie_goes_to_the_earlier_phase(summation):
    # a and b sit at the same distance (1/3) from the query, with the
    # same terms in other buckets; they are 2/3 apart, so both are
    # phases under the 0.35 threshold.
    a = (2, 1, 2, 1, 0, 0, 0, 0)
    b = (1, 2, 1, 2, 0, 0, 0, 0)
    query = (2, 2, 1, 1, 0, 0, 0, 0)
    verdicts, _ = run_both([a, b, query], 0.35, summation)
    assert [got for got, _ in verdicts] == [
        (0, True, 1),
        (1, True, 1),
        (0, False, 1),
    ]
    assert all(got == want for got, want in verdicts)


def test_working_set_classifier_keeps_the_plain_scan():
    from repro.phases.working_set import WorkingSetClassifier

    assert not WorkingSetClassifier()._pruned
