"""The DO-based ACE management policy (paper §3, Figure 2).

Wires the framework into the VM:

* ``on_hotspot_detected`` — classify the hotspot's size, choose its CU
  subset (CU decoupling), create its configuration list, and patch *tuning
  code* at the entry and *profiling code* at the exits via the JIT.
* tuning code — apply the next configuration in the list (through the
  control registers; the hardware guard may deny too-frequent requests, in
  which case the same configuration is retried on the next invocation) and
  snapshot the machine.
* profiling code — measure the finished invocation (IPC + the CU subset's
  energy metric) and record the trial; on completion, the JIT replaces the
  stubs with *configuration code* and *sampling code*.
* configuration code — pin the hotspot's most energy-efficient
  configuration at every subsequent invocation (zero recurring-phase
  identification latency — Table 1).
* sampling code — track post-tuning IPC; large drift triggers a re-tune
  (§3.3; rare in practice, as the paper observes via [26]).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cu_assignment import SizeClassifier
from repro.core.prediction import FootprintPredictor
from repro.obs.events import (
    CONFIG_DEMOTED,
    CONFIG_PINNED,
    CONFIG_TRIED,
    HOTSPOT_UNMANAGED,
    NULL_TELEMETRY,
    SAMPLING_RETUNE,
    TUNING_STARTED,
)
from repro.core.tuning import (
    Config,
    HotspotTuningState,
    TuningConfig,
    TuningOutcome,
    TuningPhase,
    make_config_list,
)
from repro.sim.results import HotspotPolicyStats
from repro.trace.events import BlockEvent
from repro.vm.hotspot import HotspotInfo
from repro.vm.jit import EntryStub
from repro.vm.vm import AdaptationHooks, CountsFold, VirtualMachine


class _InvocationToken:
    """Per-invocation state the entry stub hands to the exit stub."""

    __slots__ = ("kind", "config", "snapshot", "covered_cus")

    def __init__(self, kind, config, snapshot, covered_cus=()):
        self.kind = kind
        self.config = config
        self.snapshot = snapshot
        self.covered_cus = covered_cus


class _IpcAccumulator:
    """Streaming mean/CoV of one hotspot's per-invocation IPC."""

    __slots__ = ("n", "total", "total_sq")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, ipc: float) -> None:
        self.n += 1
        self.total += ipc
        self.total_sq += ipc * ipc

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def cov(self) -> Optional[float]:
        """Coefficient of variation; None with fewer than 2 samples."""
        if self.n < 2 or self.total <= 0:
            return None
        mean = self.total / self.n
        variance = max(0.0, self.total_sq / self.n - mean * mean)
        return (variance ** 0.5) / mean


class HotspotACEPolicy(AdaptationHooks):
    """Adaptation policy implementing the paper's framework."""

    name = "hotspot"

    #: ``on_block`` only consumes ``n_insns``/``thread_id`` — the fast
    #: kernel may keep its fused path and pass empty address lists.
    on_block_reads_addresses = False

    def __init__(
        self,
        tuning: Optional[TuningConfig] = None,
        classifier: Optional[SizeClassifier] = None,
        predictor: Optional[FootprintPredictor] = None,
        decoupling: bool = True,
        enable_retuning: bool = True,
        warm_start: Optional[Dict[str, Config]] = None,
    ):
        self.tuning = tuning or TuningConfig()
        self._classifier = classifier
        self.predictor = predictor
        self.decoupling = decoupling
        self.enable_retuning = enable_retuning
        #: Chosen configurations from a previous run of the same workload
        #: (see :meth:`chosen_configs`): hotspots found here skip tuning
        #: and go straight to configuration code — the persisted-profile
        #: counterpart of the paper's zero-latency recurring phases.  The
        #: inherited configuration is still A/B-verified by the sampling
        #: code, so a stale entry is walked back rather than trusted.
        self.warm_start: Dict[str, Config] = dict(warm_start or {})
        self.warm_started = 0
        self.states: Dict[str, HotspotTuningState] = {}
        self.kind_of: Dict[str, str] = {}
        self.ever_tuned: Dict[str, bool] = {}
        self.unmanaged: List[str] = []
        self.trial_count: Dict[str, int] = {}
        self.reconfig_count: Dict[str, int] = {}
        self.covered_insns: Dict[str, int] = {}
        self.total_insns = 0
        self.retunes = 0
        self.demotions = 0
        #: Tuning-code applications rejected by the hardware guard (the
        #: invocation retries later) — diagnostic for the no-decoupling
        #: ablation, where small hotspots keep requesting slow-CU changes.
        self.blocked_trials = 0
        self._ipc: Dict[str, _IpcAccumulator] = {}
        self._pending_measurements: Dict[str, list] = {}
        self._warmups: Dict[str, int] = {}
        self._slow_cus: frozenset = frozenset()
        self._cov_depth: Dict[str, List[int]] = {}
        #: Per thread, the CUs whose coverage depth is positive.
        self._covering: List[Tuple[str, ...]] = []
        self.vm: Optional[VirtualMachine] = None
        self.machine = None
        self.telemetry = NULL_TELEMETRY
        #: Optional :class:`repro.faults.FaultPlan` — perturbs the
        #: measured (IPC, energy) samples the tuning walk and the
        #: sampling code consume (profiling noise + forced drift).
        self.fault_plan = None

    # -- VM lifecycle ----------------------------------------------------------

    def attach(self, vm: VirtualMachine) -> None:
        self.vm = vm
        self.machine = vm.machine
        self.telemetry = vm.telemetry
        if self._classifier is None:
            self._classifier = SizeClassifier.from_machine(vm.machine)
        n_threads = len(vm.threads)
        for cu_name in vm.machine.cus:
            self.trial_count.setdefault(cu_name, 0)
            self.reconfig_count.setdefault(cu_name, 0)
            self.covered_insns.setdefault(cu_name, 0)
            self._cov_depth.setdefault(cu_name, [0] * n_threads)
        self._covering = [()] * n_threads
        max_interval = max(
            cu.reconfiguration_interval for cu in vm.machine.cus.values()
        )
        self._slow_cus = frozenset(
            name
            for name, cu in vm.machine.cus.items()
            if cu.reconfiguration_interval == max_interval
        )

    @property
    def classifier(self) -> SizeClassifier:
        assert self._classifier is not None, "policy not attached"
        return self._classifier

    def on_block(self, event: BlockEvent, machine) -> None:
        self._fold_counts(event.n_insns, event.thread_id)

    def on_block_counts(self, n_insns, block_pc, thread_id, machine) -> None:
        # Must mirror on_block exactly (see AdaptationHooks.on_block_counts).
        self._fold_counts(n_insns, thread_id)

    def counts_fold(self) -> CountsFold:
        # Coverage depths only move in this policy's stubs, which run
        # between runner exits, so a run of blocks is credited at once.
        return CountsFold(self._fold_counts)

    def _fold_counts(self, n_insns, thread_id) -> None:
        self.total_insns += n_insns
        for cu_name in self._covering[thread_id]:
            self.covered_insns[cu_name] += n_insns

    def _cover(self, cu_names, tid: int, step: int) -> None:
        """Move the coverage depth of ``cu_names`` on thread ``tid``."""
        depths = self._cov_depth
        for cu_name in cu_names:
            depths[cu_name][tid] += step
        self._covering[tid] = tuple(
            cu_name for cu_name, d in depths.items() if d[tid] > 0
        )

    # -- hotspot detection -------------------------------------------------------

    def on_hotspot_detected(
        self, hotspot: HotspotInfo, vm: VirtualMachine
    ) -> None:
        size = hotspot.mean_size
        if self.decoupling:
            cu_names = self.classifier.cus_for_size(size)
        else:
            # Ablation: no decoupling — any hotspot large enough for the
            # *smallest* CU tunes the combinatorial list of all CUs.
            cu_names = (
                tuple(self.classifier.intervals)
                if self.classifier.cus_for_size(size)
                else ()
            )
        self.kind_of[hotspot.name] = self.classifier.classify_kind(size)
        telemetry = self.telemetry
        if not cu_names:
            self.unmanaged.append(hotspot.name)
            if telemetry.enabled:
                telemetry.emit(
                    HOTSPOT_UNMANAGED,
                    ts=self.machine.instructions,
                    hotspot=hotspot.name,
                    kind=self.kind_of[hotspot.name],
                    mean_size=size,
                )
                telemetry.metrics.counter("policy.unmanaged").inc()
            return
        config_list, predicted = self._config_list(hotspot, cu_names)
        state = HotspotTuningState(
            hotspot.name, cu_names, config_list, predicted=predicted
        )
        self.states[hotspot.name] = state
        self.ever_tuned[hotspot.name] = False
        self._ipc.setdefault(hotspot.name, _IpcAccumulator())
        inherited = self.warm_start.get(hotspot.name)
        if inherited is not None and len(inherited) == len(cu_names):
            # Skip tuning: adopt the previous run's choice, pending the
            # sampling code's A/B verification.
            state.best = TuningOutcome(tuple(inherited), 0.0, 0.0, 0)
            state.phase = TuningPhase.CONFIGURED
            state.begin_verification()
            self.ever_tuned[hotspot.name] = True
            self.warm_started += 1
            if telemetry.enabled:
                telemetry.emit(
                    CONFIG_PINNED,
                    ts=self.machine.instructions,
                    hotspot=hotspot.name,
                    config=list(inherited),
                    source="warm_start",
                )
                telemetry.metrics.counter("policy.warm_starts").inc()
            self._install_configured(hotspot.name)
            return
        if telemetry.enabled:
            telemetry.emit(
                TUNING_STARTED,
                ts=self.machine.instructions,
                hotspot=hotspot.name,
                kind=self.kind_of[hotspot.name],
                cus=",".join(cu_names),
                n_configs=len(config_list),
            )
            telemetry.metrics.counter("policy.tunings_started").inc()
        self._install_tuning(hotspot.name)

    def _config_list(
        self, hotspot: HotspotInfo, cu_names: Tuple[str, ...]
    ) -> Tuple[List[Config], Optional[Config]]:
        counts = [
            self.machine.cus[name].n_settings for name in cu_names
        ]
        predicted = None
        if self.predictor is not None:
            predicted = self.predictor.predict(hotspot, cu_names, self.machine)
        return make_config_list(counts, predicted_first=predicted), predicted

    # -- stub installation -----------------------------------------------------------

    def _install_tuning(self, name: str) -> None:
        jit = self.vm.jit
        jit.patch_entry(name, EntryStub("tuning", self._tuning_entry))
        jit.patch_exit(name, EntryStub("profiling", self._profiling_exit))

    def _install_configured(self, name: str) -> None:
        jit = self.vm.jit
        jit.patch_entry(name, EntryStub("config", self._config_entry))
        jit.patch_exit(name, EntryStub("sampling", self._sampling_exit))

    # -- hardware requests ------------------------------------------------------------

    def _apply_config(
        self, state: HotspotTuningState, config: Config, actor: str
    ) -> Tuple[bool, frozenset]:
        """Set the CU subset to ``config``; all-or-nothing via the guard.

        Returns ``(applied, changed_cus)``: ``applied`` is False if the
        hardware denied a needed change (the caller retries on a later
        invocation, as the paper's tuning code does); ``changed_cus`` names
        the settings that actually moved — a changed cache starts cold, so
        measurement code inserts warm-up invocations.
        """
        machine = self.machine
        needed = []
        for cu_name, index in zip(state.cu_names, config):
            if machine.cus[cu_name].current_index != index:
                needed.append((cu_name, index))
        if not needed:
            return True, frozenset()
        now = machine.instructions
        for cu_name, _ in needed:
            if not machine.guard.would_grant(cu_name, now):
                return False, frozenset()
        counter = (
            self.trial_count if actor == "tuning" else self.reconfig_count
        )
        changed = set()
        for cu_name, index in needed:
            applied = machine.request_reconfiguration(cu_name, index, actor)
            if applied:
                counter[cu_name] += 1
                changed.add(cu_name)
        return True, frozenset(changed)

    def _needs_warmup(self, name: str, changed: frozenset) -> bool:
        """Warm-up budget after a reconfiguration, consumed per invocation.

        A slow (large-refill) CU change needs two warm-up invocations; a
        fast one needs one.  Returns True while warm-ups remain.
        """
        if changed:
            self._warmups[name] = 2 if (changed & self._slow_cus) else 1
        remaining = self._warmups.get(name, 0)
        if remaining > 0:
            self._warmups[name] = remaining - 1
            return True
        return False

    # -- tuning code (hotspot entry, TUNING phase) ---------------------------------------

    def _tuning_entry(self, hotspot: HotspotInfo, activation, vm) -> None:
        state = self.states.get(hotspot.name)
        if state is None or state.phase is not TuningPhase.TUNING:
            activation.policy_token = None
            return
        trial = state.current_trial
        if trial is None:
            activation.policy_token = None
            return
        applied, changed = self._apply_config(state, trial, actor="tuning")
        if not applied:
            self.blocked_trials += 1
        if not applied or self._needs_warmup(hotspot.name, changed):
            # Denied: retry next invocation.  Changed: the resized cache
            # starts (partly) cold — insert warm-up invocations and
            # measure under the settled configuration.
            activation.policy_token = None
            return
        activation.policy_token = _InvocationToken(
            "trial", trial, self.machine.snapshot()
        )

    # -- profiling code (hotspot exit, TUNING phase) ---------------------------------------

    def _profiling_exit(self, hotspot: HotspotInfo, activation, vm) -> None:
        token = activation.policy_token
        activation.policy_token = None
        if not isinstance(token, _InvocationToken) or token.kind != "trial":
            return
        state = self.states.get(hotspot.name)
        if state is None or state.phase is not TuningPhase.TUNING:
            return
        delta = self.machine.snapshot().delta(token.snapshot)
        if delta.instructions < self.tuning.min_measurable_instructions:
            return
        if delta.cycles <= 0:
            return
        ipc = delta.ipc
        energy = sum(
            delta.tuning_energy_metric(cu_name, self.machine)
            for cu_name in state.cu_names
        )
        plan = self.fault_plan
        if plan is not None and plan.perturbs_profiling:
            ipc, energy = plan.perturb_measurement(
                hotspot.name,
                token.config,
                ipc,
                energy,
                self.machine.instructions,
                self._ipc[hotspot.name].n,
            )
        self._ipc[hotspot.name].add(ipc)
        # Average several measured invocations per configuration before
        # committing the trial (see TuningConfig.measurements_per_trial).
        pending = self._pending_measurements.setdefault(hotspot.name, [])
        pending.append((ipc, energy, delta.instructions))
        if len(pending) < self.tuning.measurements_per_trial:
            return
        total_insns = sum(m[2] for m in pending)
        mean_ipc = sum(m[0] for m in pending) / len(pending)
        total_energy = sum(m[1] for m in pending)
        pending.clear()
        outcome = TuningOutcome(
            token.config, mean_ipc, total_energy / total_insns, total_insns
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                CONFIG_TRIED,
                ts=self.machine.instructions,
                hotspot=hotspot.name,
                config=list(token.config),
                ipc=mean_ipc,
                energy_per_insn=total_energy / total_insns,
            )
            telemetry.metrics.counter("policy.configs_tried").inc()
        if state.record(
            outcome,
            self.tuning.performance_threshold,
            self.tuning.objective,
        ):
            self.ever_tuned[hotspot.name] = True
            if telemetry.enabled:
                telemetry.emit(
                    CONFIG_PINNED,
                    ts=self.machine.instructions,
                    hotspot=hotspot.name,
                    config=list(state.best.config) if state.best else [],
                    trials=len(state.outcomes),
                    aborted_early=state.aborted_early,
                )
                telemetry.metrics.counter("policy.configs_pinned").inc()
                detected_at = hotspot.profile.detected_at
                if detected_at is not None:
                    telemetry.metrics.histogram(
                        "policy.detect_to_pin_insns"
                    ).observe(self.machine.instructions - detected_at)
            self._install_configured(hotspot.name)

    # -- configuration code (hotspot entry, CONFIGURED phase) ------------------------------

    def _config_entry(self, hotspot: HotspotInfo, activation, vm) -> None:
        state = self.states.get(hotspot.name)
        if state is None or state.best is None:
            activation.policy_token = None
            return
        if state.verify_pending:
            target = state.verification_target()
            kind = "verify"
        else:
            target = state.best.config
            kind = "sample"
        applied, changed = self._apply_config(state, target, actor="config")
        self._cover(state.cu_names, activation_thread_id(activation, vm), 1)
        if kind == "verify" and (
            not applied or self._needs_warmup(hotspot.name, changed)
        ):
            # Verification measurements need a settled configuration:
            # treat this invocation as warm-up (coverage still counted).
            kind = "warm"
        activation.policy_token = _InvocationToken(
            kind, target, self.machine.snapshot(),
            covered_cus=state.cu_names,
        )

    # -- sampling code (hotspot exit, CONFIGURED phase) --------------------------------------

    def _sampling_exit(self, hotspot: HotspotInfo, activation, vm) -> None:
        token = activation.policy_token
        activation.policy_token = None
        if not isinstance(token, _InvocationToken) or token.kind not in (
            "sample",
            "verify",
            "warm",
        ):
            return
        self._cover(
            token.covered_cus, activation_thread_id(activation, vm), -1
        )
        if token.kind == "warm":
            return
        state = self.states.get(hotspot.name)
        if state is None or state.phase is not TuningPhase.CONFIGURED:
            return
        delta = self.machine.snapshot().delta(token.snapshot)
        if delta.instructions < self.tuning.min_measurable_instructions:
            return
        if delta.cycles <= 0:
            return
        ipc = delta.ipc
        plan = self.fault_plan
        if plan is not None and plan.perturbs_profiling:
            ipc, _ = plan.perturb_measurement(
                hotspot.name,
                token.config,
                ipc,
                0.0,
                self.machine.instructions,
                self._ipc[hotspot.name].n,
            )
        self._ipc[hotspot.name].add(ipc)
        if token.kind == "verify":
            outcome = state.record_verification(
                ipc,
                self.tuning.verify_invocations_per_stage,
                self.tuning.performance_threshold,
            )
            if outcome == "demoted":
                self.demotions += 1
                telemetry = self.telemetry
                if telemetry.enabled:
                    telemetry.emit(
                        CONFIG_DEMOTED,
                        ts=self.machine.instructions,
                        hotspot=hotspot.name,
                        config=(
                            list(state.best.config) if state.best else []
                        ),
                    )
                    telemetry.metrics.counter("policy.demotions").inc()
            return
        state.observe_configured_ipc(ipc)
        if not self.enable_retuning:
            return
        if (
            state.verify_passes < self.tuning.verify_passes_required
            and state.invocations_since_configured
            >= self.tuning.sampling_period_invocations
        ):
            # Not yet confirmed stable: run another A/B verification round.
            state.begin_verification()
            return
        if (
            state.invocations_since_configured
            >= self.tuning.sampling_period_invocations
            and state.drift_exceeds(self.tuning.retune_ipc_delta)
        ):
            self._retune(hotspot, state)

    def _retune(self, hotspot: HotspotInfo, state: HotspotTuningState) -> None:
        """Behaviour drifted: re-run the tuning process (paper §3.3)."""
        self.retunes += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                SAMPLING_RETUNE,
                ts=self.machine.instructions,
                hotspot=hotspot.name,
                configured_ipc=state.configured_ipc or 0.0,
                recent_ipc=state.recent_ipc or 0.0,
            )
            telemetry.metrics.counter("policy.retunes").inc()
        self._pending_measurements.pop(hotspot.name, None)
        size = hotspot.mean_size
        if self.decoupling:
            cu_names = self.classifier.cus_for_size(size)
        else:
            cu_names = state.cu_names
        self.kind_of[hotspot.name] = self.classifier.classify_kind(size)
        if not cu_names:
            # Hotspot drifted out of every CU band: stop managing it.
            del self.states[hotspot.name]
            self.unmanaged.append(hotspot.name)
            self.vm.jit.patch_entry(hotspot.name, None)
            self.vm.jit.patch_exit(hotspot.name, None)
            return
        config_list, predicted = self._config_list(hotspot, cu_names)
        if cu_names != state.cu_names:
            self.states[hotspot.name] = HotspotTuningState(
                hotspot.name, cu_names, config_list, predicted=predicted
            )
        else:
            state.restart(config_list)
            state.predicted = predicted
        self._install_tuning(hotspot.name)

    # -- finalisation ------------------------------------------------------------------

    def finalize(self) -> HotspotPolicyStats:
        stats = HotspotPolicyStats()
        stats.kind_of = dict(self.kind_of)
        for kind in self.kind_of.values():
            stats.hotspots_by_kind[kind] = (
                stats.hotspots_by_kind.get(kind, 0) + 1
            )
        stats.managed_hotspots = len(self.states)
        stats.unmanaged_hotspots = len(self.unmanaged)
        stats.tuned_hotspots = sum(
            1 for name, tuned in self.ever_tuned.items() if tuned
        )
        stats.tunings = dict(self.trial_count)
        stats.reconfigs = dict(self.reconfig_count)
        stats.denied = dict(self.machine.denied_reconfigurations)
        total = max(1, self.total_insns)
        stats.coverage = {
            cu_name: covered / total
            for cu_name, covered in self.covered_insns.items()
        }
        stats.retunes = self.retunes
        stats.early_aborts = sum(
            1 for s in self.states.values() if s.aborted_early
        )
        covs = [
            acc.cov
            for name, acc in self._ipc.items()
            if name in self.states and acc.cov is not None
        ]
        stats.per_hotspot_ipc_cov = (
            sum(covs) / len(covs) if covs else 0.0
        )
        means = [
            acc.mean
            for name, acc in self._ipc.items()
            if name in self.states and acc.n > 0
        ]
        stats.hotspot_mean_ipc = {
            name: acc.mean
            for name, acc in self._ipc.items()
            if name in self.states and acc.n > 0
        }
        if len(means) >= 2:
            mean = sum(means) / len(means)
            variance = sum((m - mean) ** 2 for m in means) / len(means)
            stats.inter_hotspot_ipc_cov = (
                (variance ** 0.5) / mean if mean > 0 else 0.0
            )
        return stats

    def chosen_configs(self) -> Dict[str, Config]:
        """Best configurations of every tuned hotspot (for warm-starting
        a later run of the same workload)."""
        return {
            name: state.best.config
            for name, state in self.states.items()
            if state.best is not None
        }

    def on_run_end(self, vm: VirtualMachine) -> None:
        self.final_stats = self.finalize()


def activation_thread_id(activation, vm: VirtualMachine) -> int:
    """Recover the thread id owning an activation (frame bases encode it:
    each thread's frames live in its own stack window)."""
    from repro.vm.activation import STACK_BASE, STACK_SPACING

    return (STACK_BASE - activation.frame_base) // STACK_SPACING
