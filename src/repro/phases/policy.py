"""The BBV-based ACE management policy (the paper's comparison scheme).

Per sampling interval (= the L2 reconfiguration interval, §5.2): harvest
the BBV, classify the ended interval, measure it, and choose the next
interval's configuration:

* the phase is *stable* (second or later consecutive interval) and already
  tuned → apply its memoised best configuration;
* stable but untuned → apply the next untested entry of the full
  combinatorial configuration list (resuming where the phase last left
  off);
* otherwise (new/transitional phase) → fall back to the all-maximum
  configuration, Dhodapkar-Smith style.

A trial measurement is only credited if the interval that ran under it was
classified as the same phase the trial was started for — temporal schemes
cannot avoid occasionally measuring the wrong phase, and discarding the
polluted sample is the standard mitigation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.tuning import TuningConfig, TuningOutcome
from repro.obs.events import (
    CONFIG_DEMOTED,
    CONFIG_PINNED,
    CONFIG_TRIED,
    NULL_TELEMETRY,
    PHASE_TRANSITION,
)
from repro.phases.bbv import BBVAccumulator, BBVConfig
from repro.phases.classifier import PhaseClassifier
from repro.phases.tuner import Config, PhaseTuningEntry
from repro.sim.results import BBVPolicyStats
from repro.trace.events import BlockEvent
from repro.trace.stream import IntervalSplitter
from repro.vm.vm import AdaptationHooks, CountsFold, VirtualMachine


class BBVACEPolicy(AdaptationHooks):
    """Temporal-approach adaptation policy."""

    name = "bbv"

    #: ``on_block`` only consumes ``n_insns``/``block_pc`` — the fast
    #: kernel may keep its fused path and pass empty address lists.
    on_block_reads_addresses = False

    def __init__(
        self,
        bbv: Optional[BBVConfig] = None,
        tuning: Optional[TuningConfig] = None,
        sampling_interval: Optional[int] = None,
        next_phase_predictor=None,
    ):
        self.bbv = bbv or BBVConfig()
        self.tuning = tuning or TuningConfig()
        #: Optional [20]/[24]-style next-phase predictor (the paper's BBV
        #: deliberately runs without one; see phases.prediction).
        self.next_phase_predictor = next_phase_predictor
        self.predicted_applications = 0
        self._sampling_interval_override = sampling_interval
        self.accumulator = BBVAccumulator(
            self.bbv.n_buckets, self.bbv.counter_bits
        )
        self.classifier = PhaseClassifier(
            self.bbv.similarity_threshold, self.bbv.stable_min_intervals
        )
        self.entries: Dict[int, PhaseTuningEntry] = {}
        self.trial_count: Dict[str, int] = {}
        self.reconfig_count: Dict[str, int] = {}
        self.safety_count: Dict[str, int] = {}
        self.covered_insns: Dict[str, int] = {}
        self.total_insns = 0
        self.discarded_trials = 0
        self.demotions = 0
        self._in_flight: Optional[Tuple[int, Config]] = None
        self._verify: Optional[Tuple[int, str]] = None
        self._warm_intervals: Dict[int, int] = {}
        self._mode = "max"
        self._best_pid: Optional[int] = None
        self._last_snapshot = None
        self._splitter: Optional[IntervalSplitter] = None
        self.cu_names: Tuple[str, ...] = ()
        self.vm: Optional[VirtualMachine] = None
        self.machine = None
        self.telemetry = NULL_TELEMETRY
        self._last_pid: Optional[int] = None
        #: Optional :class:`repro.faults.FaultPlan` — perturbs the
        #: (IPC, energy) samples trial intervals are credited with.
        self.fault_plan = None

    # -- VM lifecycle -------------------------------------------------------

    def attach(self, vm: VirtualMachine) -> None:
        self.vm = vm
        self.machine = vm.machine
        self.telemetry = vm.telemetry
        # Order CUs by descending reconfiguration interval: the cartesian
        # configuration walk varies the *last* CU fastest, so the cheapest
        # CU steps every trial while the expensive one steps only once per
        # full sweep of the cheaper ones.
        self.cu_names = tuple(
            sorted(
                vm.machine.cus,
                key=lambda n: vm.machine.cus[n].reconfiguration_interval,
                reverse=True,
            )
        )
        self._slow_cus = frozenset(
            n
            for n in self.cu_names
            if vm.machine.cus[n].reconfiguration_interval
            == max(
                cu.reconfiguration_interval
                for cu in vm.machine.cus.values()
            )
        )
        for cu_name in self.cu_names:
            self.trial_count[cu_name] = 0
            self.reconfig_count[cu_name] = 0
            self.safety_count[cu_name] = 0
            self.covered_insns[cu_name] = 0
        interval = self._sampling_interval_override
        if interval is None:
            # The sampling interval must accommodate the slowest CU (§2.3).
            interval = max(
                cu.reconfiguration_interval
                for cu in vm.machine.cus.values()
            )
        self._splitter = IntervalSplitter(interval, self._on_boundary)
        self._last_snapshot = vm.machine.snapshot()

    @property
    def sampling_interval(self) -> int:
        assert self._splitter is not None, "policy not attached"
        return self._splitter.interval_insns

    def on_block(self, event: BlockEvent, machine) -> None:
        n = event.n_insns
        self._fold_counts(n, event.thread_id)
        self.accumulator.observe(event.block_pc, n)
        self._splitter.advance(n)

    def on_block_counts(self, n_insns, block_pc, thread_id, machine) -> None:
        # Must mirror on_block exactly (see AdaptationHooks.on_block_counts).
        self._fold_counts(n_insns, thread_id)
        self.accumulator.observe(block_pc, n_insns)
        self._splitter.advance(n_insns)

    def counts_fold(self) -> Optional[CountsFold]:
        # The mode only changes at interval boundaries, which the kernel
        # reaches through a runner exit, so a run of blocks is credited
        # at once; the buckets and the splitter are the kernel's to keep.
        # A swapped-in accumulator (working-set signatures) keeps the
        # per-block hook.
        if type(self.accumulator) is not BBVAccumulator:
            return None
        return CountsFold(
            self._fold_counts, self.accumulator, self._splitter
        )

    def _fold_counts(self, n_insns, thread_id) -> None:
        self.total_insns += n_insns
        if self._mode == "best":
            for cu_name in self.cu_names:
                self.covered_insns[cu_name] += n_insns

    # -- interval boundary ------------------------------------------------------

    def _setting_counts(self):
        return [self.machine.cus[name].n_settings for name in self.cu_names]

    def _apply(
        self, config: Config, counter: Optional[Dict[str, int]]
    ) -> Tuple[bool, frozenset]:
        """Set all CUs to ``config``.

        Returns ``(fully_applied, changed_cus)`` — the names whose setting
        actually moved.
        """
        machine = self.machine
        fully = True
        changed = set()
        for cu_name, index in zip(self.cu_names, config):
            if machine.cus[cu_name].current_index == index:
                continue
            if machine.request_reconfiguration(cu_name, index, self.name):
                changed.add(cu_name)
                if counter is not None:
                    counter[cu_name] += 1
            else:
                fully = False
        return fully, frozenset(changed)

    def _max_config(self) -> Config:
        return tuple(0 for _ in self.cu_names)

    def _needs_warm_interval(self, pid: int, changed: frozenset) -> bool:
        """Warm-up intervals after a reconfiguration (slow CUs need two —
        their refill spans more than one sampling interval)."""
        if changed & self._slow_cus:
            self._warm_intervals[pid] = 2
        elif changed:
            self._warm_intervals[pid] = max(
                self._warm_intervals.get(pid, 0), 0
            )
        remaining = self._warm_intervals.get(pid, 0)
        if remaining > 0:
            self._warm_intervals[pid] = remaining - 1
            return True
        return False

    def _on_boundary(self, index: int, insns_in_interval: int) -> None:
        machine = self.machine
        vector = self.accumulator.harvest()
        pid, _, run_length = self.classifier.classify(vector)
        telemetry = self.telemetry
        if telemetry.enabled and pid != self._last_pid:
            telemetry.emit(
                PHASE_TRANSITION,
                ts=machine.instructions,
                phase_from=self._last_pid,
                phase_to=pid,
                interval=index,
            )
            telemetry.metrics.counter("bbv.phase_transitions").inc()
        self._last_pid = pid
        snapshot = machine.snapshot()
        delta = snapshot.delta(self._last_snapshot)
        if delta.cycles > 0:
            self.classifier.note_interval_ipc(pid, delta.ipc)

        # Score the previous boundary's prediction (if any) against the
        # interval that actually ran, then learn the transition.
        if self.next_phase_predictor is not None:
            self.next_phase_predictor.observe(pid)

        # Steady-state telemetry for intervals run under a memoised best.
        if (
            self._mode == "best"
            and self._best_pid == pid
            and delta.cycles > 0
        ):
            entry = self.entries.get(pid)
            if entry is not None and entry.tuned:
                entry.observe_best_interval(delta.ipc)

        # Feed a pending verification measurement (sampling-side A/B
        # check of the chosen configuration against the maximum one).
        if self._verify is not None:
            vpid, stage = self._verify
            self._verify = None
            entry = self.entries.get(vpid)
            if (
                vpid == pid
                and entry is not None
                and entry.verify_pending
                and entry.verify_stage == stage
                and delta.cycles > 0
            ):
                result = entry.record_verification(
                    delta.ipc,
                    self.tuning.verify_invocations_per_stage,
                    self.tuning.performance_threshold,
                )
                if result == "demoted":
                    self.demotions += 1
                    if telemetry.enabled:
                        telemetry.emit(
                            CONFIG_DEMOTED,
                            ts=machine.instructions,
                            phase=vpid,
                            config=(
                                list(entry.best.config)
                                if entry.best
                                else []
                            ),
                        )
                        telemetry.metrics.counter("bbv.demotions").inc()

        # Credit or discard the in-flight trial.
        if self._in_flight is not None:
            trial_pid, config = self._in_flight
            self._in_flight = None
            entry = self.entries.get(trial_pid)
            if (
                trial_pid == pid
                and entry is not None
                and not entry.tuned
                and delta.cycles > 0
                and delta.instructions
                >= self.tuning.min_measurable_instructions
            ):
                energy = sum(
                    delta.tuning_energy_metric(cu_name, machine)
                    for cu_name in self.cu_names
                )
                ipc = delta.ipc
                plan = self.fault_plan
                if plan is not None and plan.perturbs_profiling:
                    ipc, energy = plan.perturb_measurement(
                        f"phase:{trial_pid}",
                        tuple(config),
                        ipc,
                        energy,
                        machine.instructions,
                        index,
                    )
                if telemetry.enabled:
                    telemetry.emit(
                        CONFIG_TRIED,
                        ts=machine.instructions,
                        phase=trial_pid,
                        config=list(config),
                        ipc=ipc,
                        energy_per_insn=energy / delta.instructions,
                    )
                    telemetry.metrics.counter("bbv.configs_tried").inc()
                completed = entry.record(
                    TuningOutcome(
                        config,
                        ipc,
                        energy / delta.instructions,
                        delta.instructions,
                    ),
                    self.tuning.performance_threshold,
                    self.tuning.objective,
                )
                if completed and telemetry.enabled:
                    telemetry.emit(
                        CONFIG_PINNED,
                        ts=machine.instructions,
                        phase=trial_pid,
                        config=(
                            list(entry.best.config) if entry.best else []
                        ),
                        trials=len(entry.outcomes),
                    )
                    telemetry.metrics.counter("bbv.configs_pinned").inc()
            else:
                self.discarded_trials += 1
                telemetry.metrics.counter("bbv.discarded_trials").inc()

        # Choose the next interval's configuration.
        stable = run_length >= self.bbv.stable_min_intervals
        if stable:
            entry = self.entries.get(pid)
            if entry is None:
                entry = PhaseTuningEntry(
                    pid, self.cu_names, self._setting_counts()
                )
                self.entries[pid] = entry
            if (
                entry.tuned
                and not entry.verify_pending
                and entry.verify_passes
                < self.tuning.verify_passes_required
                and entry.intervals_tuned_under_best > 0
                and entry.intervals_tuned_under_best % 16 == 0
            ):
                # Periodic re-verification until confirmed stable.
                entry.begin_verification()
            if entry.tuned and entry.verify_pending:
                target = entry.verification_target()
                fully, changed = self._apply(target, None)
                stage = entry.verify_stage
                self._mode = "best" if stage == "chosen" else "max"
                if fully and not self._needs_warm_interval(pid, changed):
                    self._verify = (pid, stage)
                # else: warm-up interval; verification measures later.
            elif entry.tuned:
                self._apply(entry.best.config, self.reconfig_count)
                entry.intervals_tuned_under_best += 1
                self._mode = "best"
                self._best_pid = pid
            else:
                trial = entry.current_trial
                if trial is None:
                    self._mode = "max"
                else:
                    fully, changed = self._apply(trial, self.trial_count)
                    if fully and not self._needs_warm_interval(
                        pid, changed
                    ):
                        # Configuration settled enough to measure: fast
                        # (small-refill) CU changes are noise within one
                        # interval; slow-CU resizes already consumed their
                        # warm-up intervals.
                        self._in_flight = (pid, trial)
                        self._mode = "trial"
                    elif fully:
                        self._mode = "trial"  # warm-up interval
                    else:
                        self._mode = "max"
        else:
            # Unstable/transitional: Dhodapkar-Smith falls back to the
            # maximum configuration — unless a next-phase predictor (the
            # [20]/[24] extension the paper's baseline omits) confidently
            # names a tuned phase, in which case its configuration is
            # applied speculatively.  Mispredictions adapt wrongly; that
            # is exactly the trade-off §3.5 describes.
            predicted_entry = None
            if self.next_phase_predictor is not None:
                predicted = self.next_phase_predictor.predict_next()
                if predicted is not None:
                    candidate = self.entries.get(predicted)
                    if candidate is not None and candidate.tuned:
                        predicted_entry = candidate
            if predicted_entry is not None:
                self._apply(
                    predicted_entry.best.config, self.reconfig_count
                )
                self.predicted_applications += 1
                self._mode = "best"
                self._best_pid = predicted_entry.pid
            else:
                self._apply(self._max_config(), self.safety_count)
                self._mode = "max"

        # Snapshot after reconfiguration so flush overhead is not charged
        # to the next interval's trial measurement.
        self._last_snapshot = machine.snapshot()

    # -- finalisation ---------------------------------------------------------------

    def finalize(self) -> BBVPolicyStats:
        self.classifier.flush()
        stats = BBVPolicyStats()
        stats.n_phases = self.classifier.n_phases
        stats.tuned_phases = sum(
            1 for e in self.entries.values() if e.tuned
        )
        stats.intervals_total = self.classifier.classifications
        tuned_pids = {e.pid for e in self.entries.values() if e.tuned}
        stats.intervals_in_tuned_phases = sum(
            self.classifier.phases[pid].intervals for pid in tuned_pids
        )
        stats.per_phase_ipc_cov = self.classifier.per_phase_ipc_cov()
        stats.inter_phase_ipc_cov = self.classifier.inter_phase_ipc_cov()
        stats.tunings = dict(self.trial_count)
        stats.reconfigs = dict(self.reconfig_count)
        stats.safety_reconfigs = dict(self.safety_count)
        total = max(1, self.total_insns)
        stats.coverage = {
            cu_name: covered / total
            for cu_name, covered in self.covered_insns.items()
        }
        stats.occurrence_stats = self.classifier.occurrence_stats
        stats.discarded_trials = self.discarded_trials
        if self.next_phase_predictor is not None:
            stats.predicted_applications = self.predicted_applications
            stats.prediction_accuracy = self.next_phase_predictor.accuracy
        return stats

    def on_run_end(self, vm: VirtualMachine) -> None:
        self.final_stats = self.finalize()
