"""Tests for the alternative baselines: positional adaptation,
next-phase prediction, and working-set-signature detection."""

import pytest

from repro.phases.positional import (
    LargeProcedureClassifier,
    PositionalACEPolicy,
)
from repro.phases.prediction import NextPhasePredictor
from repro.phases.working_set import (
    WorkingSetAccumulator,
    WorkingSetClassifier,
    make_working_set_policy,
    relative_signature_distance,
)
from repro.sim.config import ExperimentConfig, MachineConfig, build_machine
from repro.sim.driver import RunSpec, execute
from repro.vm.vm import VMConfig, VirtualMachine
from repro.workloads.specjvm import build_benchmark
from tests.conftest import make_two_tier_program


class TestLargeProcedureClassifier:
    def test_threshold_defaults_to_slowest_interval(self):
        classifier = LargeProcedureClassifier(
            {"L1D": 1_000, "L2": 10_000}
        )
        assert classifier.min_size == 10_000

    def test_all_or_nothing_assignment(self):
        classifier = LargeProcedureClassifier(
            {"L1D": 1_000, "L2": 10_000}, min_size=5_000
        )
        assert classifier.cus_for_size(4_999) == ()
        assert classifier.cus_for_size(5_000) == ("L1D", "L2")
        assert classifier.classify_kind(6_000) == "procedure"
        assert classifier.classify_kind(100) == "unmanaged"


class TestPositionalPolicy:
    def run(self, max_instructions=800_000):
        machine = build_machine(MachineConfig())
        # The two-tier driver is ~8K instructions inclusive; bound
        # "large" below that so it qualifies while the ~1.3K mid does not.
        policy = PositionalACEPolicy(min_procedure_size=5_000)
        vm = VirtualMachine(
            make_two_tier_program(), machine,
            policy=policy, config=VMConfig(hot_threshold=3),
        )
        vm.run(max_instructions)
        return policy

    def test_only_large_procedures_managed(self):
        policy = self.run()
        # The two-tier program: driver ~8K inclusive (managed),
        # mid ~1.3K (below the large-procedure bar).
        assert "driver" in policy.states
        assert "mid" in policy.unmanaged

    def test_combinatorial_lists(self):
        policy = self.run()
        for state in policy.states.values():
            assert len(state.config_list) == 16
            assert set(state.cu_names) == {"L1D", "L2"}

    def test_positional_vs_hotspot_granularity(self):
        from repro.core.policy import HotspotACEPolicy

        positional = self.run()
        machine = build_machine(MachineConfig())
        hotspot_policy = HotspotACEPolicy()
        vm = VirtualMachine(
            make_two_tier_program(), machine,
            policy=hotspot_policy, config=VMConfig(hot_threshold=3),
        )
        vm.run(800_000)
        # §3.5: the framework manages finer grains than the positional
        # approach can.
        assert len(hotspot_policy.states) > len(positional.states)


class TestNextPhasePredictor:
    def test_learns_repeating_sequence(self):
        predictor = NextPhasePredictor(confidence=0.6, min_samples=2)
        for _ in range(5):
            predictor.observe(0)
            predictor.observe(1)
        # After observing a 0, predict 1.
        predictor.observe(0)
        assert predictor.predict_next() == 1

    def test_accuracy_tracking(self):
        predictor = NextPhasePredictor(confidence=0.5, min_samples=1)
        for _ in range(4):
            predictor.observe(0)
            predictor.observe(1)
        predictor.observe(0)
        assert predictor.predict_next() == 1
        predictor.observe(1)  # correct
        assert predictor.predict_next() == 0
        predictor.observe(5)  # wrong
        assert predictor.predictions == 2
        assert predictor.correct == 1
        assert predictor.accuracy == 0.5

    def test_no_prediction_below_confidence(self):
        predictor = NextPhasePredictor(confidence=0.9, min_samples=2)
        predictor.observe(0)
        predictor.observe(1)
        predictor.observe(0)
        predictor.observe(2)
        predictor.observe(0)
        # successors of 0: {1: 1, 2: 1} — 50% < 90%.
        assert predictor.predict_next() is None

    def test_no_prediction_without_history(self):
        predictor = NextPhasePredictor()
        assert predictor.predict_next() is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NextPhasePredictor(confidence=0.0)
        with pytest.raises(ValueError):
            NextPhasePredictor(min_samples=0)

    def test_predictor_integrates_with_bbv_policy(self):
        from repro.phases.policy import BBVACEPolicy

        config = ExperimentConfig(max_instructions=600_000)
        policy = BBVACEPolicy(
            tuning=config.tuning,
            next_phase_predictor=NextPhasePredictor(),
        )
        result = execute(RunSpec(
            build_benchmark("javac"), "bbv", config, policy=policy
        ))
        stats = result.bbv_stats
        assert stats.prediction_accuracy is not None
        assert policy.next_phase_predictor.predictions >= 0


class TestWorkingSetSignatures:
    def test_distance_identities(self):
        assert relative_signature_distance(0, 0) == 0.0
        assert relative_signature_distance(0b1010, 0b1010) == 0.0
        assert relative_signature_distance(0b1100, 0b0011) == 1.0
        assert relative_signature_distance(0b1110, 0b0111) == (
            pytest.approx(0.5)
        )

    def test_accumulator_sets_bits(self):
        acc = WorkingSetAccumulator(n_bits=64, granularity_shift=6)
        acc.observe(0x1000, 10)
        acc.observe(0x1000, 10)  # same chunk -> same bit
        assert bin(acc.peek()).count("1") == 1
        acc.observe(0x9000, 5)
        assert bin(acc.peek()).count("1") == 2

    def test_harvest_clears(self):
        acc = WorkingSetAccumulator()
        acc.observe(0x1234, 1)
        assert acc.harvest() != 0
        assert acc.peek() == 0

    def test_classifier_matches_similar_sets(self):
        classifier = WorkingSetClassifier(similarity_threshold=0.5)
        pid0, is_new, _ = classifier.classify(0b111100)
        assert is_new
        pid1, is_new, _ = classifier.classify(0b111110)  # small delta
        assert not is_new and pid1 == pid0
        pid2, is_new, _ = classifier.classify(0b11000011000000)
        assert is_new and pid2 != pid0

    def test_signature_replacement_tracks_drift(self):
        classifier = WorkingSetClassifier(similarity_threshold=0.5)
        classifier.classify(0b1111)
        classifier.classify(0b1110)   # match; stored becomes 0b1110
        pid, is_new, _ = classifier.classify(0b1100)
        assert not is_new  # close to the drifted signature

    def test_working_set_policy_runs(self):
        config = ExperimentConfig(max_instructions=600_000)
        policy = make_working_set_policy(tuning=config.tuning)
        result = execute(RunSpec(
            build_benchmark("db"), "bbv", config, policy=policy
        ))
        assert result.scheme == "working-set"
        stats = result.bbv_stats
        assert stats.n_phases >= 1
        assert stats.intervals_total >= 55

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkingSetAccumulator(n_bits=0)
        with pytest.raises(ValueError):
            WorkingSetAccumulator(granularity_shift=-1)
