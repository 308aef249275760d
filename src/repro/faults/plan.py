"""Seeded, deterministic fault injection (`FaultPlan`).

The paper's robustness story rests on paths nothing exercises in a clean
run: the sampling code's drift-triggered re-tune (§3.3), the hardware
guard silently denying premature reconfigurations (§3.4), and — at this
reproduction's scale — an experiment engine that must keep serving
partial results when individual cells misbehave.  ``FaultPlan`` makes
those paths testable by injecting faults on a *deterministic schedule*:

* **engine chaos** — worker-process crashes, injected cell exceptions,
  injected per-cell timeouts, corrupted store entries;
* **machine chaos** — extra reconfiguration denials on top of the
  interval guard (the last-reconfiguration-counter contract: callers
  must tolerate ``False`` and retry on a later invocation);
* **profiling chaos** — multiplicative noise on the measured IPC/energy
  samples both policies tune from, plus a forced mid-run behaviour shift
  (``drift_at``) that makes previously pinned configurations wrong and
  must drive the sampling code through ``sampling_retune``.

Determinism contract (docs/INTERNALS.md §11): every decision is a pure
function of ``(seed, site, key)`` — the key names *what* is being
faulted (cell identity + attempt, CU + instruction count, hotspot +
sample index), never *when* the question was asked.  The same seed
therefore reproduces the same fault schedule regardless of worker
scheduling or cache hits, and a plan pickled into a pool worker decides
identically to its parent-process original.  The engine runs each cell
once, so a cell's attempt is always 1: a re-run under the same plan
hits the same faults, and recovery is a re-run without it.

With no plan installed (``fault_plan=None`` everywhere), every hook is a
single ``is not None`` check on an untaken branch — results are
bit-identical to an injection-free build (the :data:`NULL_TELEMETRY`
contract, applied to faults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.hashing import sha256


class InjectedFault(RuntimeError):
    """An artificial failure raised by a :class:`FaultPlan` decision.

    Distinguishable from organic failures in logs and ``CellOutcome``
    records; picklable so pool workers can raise it across the process
    boundary.
    """


#: Injection sites, for validation and for ``from_spec`` parsing.
PROBABILITY_SITES = (
    "worker_crash",
    "cell_exception",
    "cell_timeout",
    "store_corrupt",
    "reconfig_deny",
)


def deterministic_uniform(seed: int, site: str, key: Tuple) -> float:
    """Pure-function uniform draw in [0, 1) for ``(seed, site, key)``.

    The one hash underlying every plan decision.  Each draw is keyed by
    its site name, so adding or removing a site never shifts the
    schedule of the others.
    """
    token = f"{seed}|{site}|{key!r}".encode()
    digest = sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass
class FaultPlan:
    """One seeded fault schedule.

    Probabilities are per *decision point* (one cell attempt, one store
    write, one reconfiguration request, one profiling sample).  All
    fields default to "off"; a default-constructed plan injects nothing.

    Parameters
    ----------
    seed:
        Schedule seed.  Same seed ⇒ same fault schedule (see module
        docstring for the exact contract).
    worker_crash:
        Probability that a pool worker hard-exits (``os._exit``) instead
        of executing its cell — surfaces as ``BrokenProcessPool`` in the
        engine, which settles the round's unsettled cells as crashed.
        Only ever fired inside pool worker processes, never in the
        parent (a serial run cannot crash the caller).
    cell_exception:
        Probability that a cell raises :class:`InjectedFault` instead of
        executing (exercises the ``failure_policy`` paths).
    cell_timeout:
        Probability that a cell raises
        :class:`~repro.sim.engine.CellTimeout` immediately (exercises
        the timeout accounting without burning wall-clock time).
    store_corrupt:
        Probability that a persisted store entry is truncated right
        after the write (exercises read-side quarantine).
    reconfig_deny:
        Probability that :meth:`MachineModel.request_reconfiguration`
        denies a request the interval guard would have granted.
    profile_noise:
        Sigma of multiplicative log-normal noise applied to measured
        IPC and energy samples in both tuning policies.
    drift_at / drift_ipc_factor / drift_config_penalty:
        Forced behaviour shift: from retired-instruction count
        ``drift_at`` on, every profiling/sampling measurement sees its
        IPC multiplied by ``drift_ipc_factor`` and additionally
        penalised by ``drift_config_penalty`` per configuration
        downsizing step (sum of setting indices), with energy inflated
        by the same per-step penalty.  Small configurations thereby
        become genuinely bad after the shift, so a correct sampling path
        must fire ``sampling_retune`` and re-pin a larger configuration.
    """

    seed: int = 0
    worker_crash: float = 0.0
    cell_exception: float = 0.0
    cell_timeout: float = 0.0
    store_corrupt: float = 0.0
    reconfig_deny: float = 0.0
    profile_noise: float = 0.0
    drift_at: Optional[int] = None
    drift_ipc_factor: float = 1.0
    drift_config_penalty: float = 0.0
    #: Parent-process tally of decisions that fired, per site (pool
    #: workers keep their own copies; use engine stats / telemetry for
    #: cross-process counts).
    injected: Dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for site in PROBABILITY_SITES:
            p = getattr(self, site)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{site} must be in [0, 1], got {p!r}")
        if self.profile_noise < 0.0:
            raise ValueError("profile_noise must be >= 0")
        if self.drift_ipc_factor <= 0.0:
            raise ValueError("drift_ipc_factor must be > 0")
        if not 0.0 <= self.drift_config_penalty < 1.0:
            raise ValueError("drift_config_penalty must be in [0, 1)")

    # -- deterministic draws ------------------------------------------------

    def _uniform(self, site: str, key: Tuple) -> float:
        """Pure-function uniform draw in [0, 1) for (seed, site, key)."""
        return deterministic_uniform(self.seed, site, key)

    def _gauss(self, site: str, key: Tuple) -> float:
        """Deterministic standard-normal draw (Box–Muller)."""
        u1 = max(self._uniform(site, key + ("u1",)), 1e-300)
        u2 = self._uniform(site, key + ("u2",))
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def decide(self, site: str, key: Tuple) -> bool:
        """Does the fault at ``site`` fire for this ``key``?"""
        probability = getattr(self, site)
        if probability <= 0.0:
            return False
        fired = self._uniform(site, key) < probability
        if fired:
            self.injected[site] = self.injected.get(site, 0) + 1
        return fired

    # -- site groups --------------------------------------------------------

    @property
    def perturbs_simulation(self) -> bool:
        """True when the plan changes *simulation results* (not just the
        engine's scheduling).  Such cells must never be cached: their
        outcomes are not described by the configuration fingerprint."""
        return (
            self.profile_noise > 0.0
            or self.drift_at is not None
            or self.reconfig_deny > 0.0
        )

    @property
    def perturbs_profiling(self) -> bool:
        return self.profile_noise > 0.0 or self.drift_at is not None

    # -- profiling-side hook ------------------------------------------------

    def perturb_measurement(
        self,
        owner: str,
        config: Tuple[int, ...],
        ipc: float,
        energy: float,
        now_instructions: int,
        sample_index: int,
    ) -> Tuple[float, float]:
        """Perturb one measured (IPC, energy) sample.

        ``owner`` names the hotspot (or ``phase:<id>`` for the BBV
        scheme) and ``sample_index`` its per-owner measurement ordinal —
        together the deterministic key for the noise draw.
        """
        if self.profile_noise > 0.0:
            key = (owner, sample_index)
            ipc *= math.exp(
                self.profile_noise * self._gauss("noise_ipc", key)
            )
            energy *= math.exp(
                self.profile_noise * self._gauss("noise_energy", key)
            )
        if (
            self.drift_at is not None
            and now_instructions >= self.drift_at
        ):
            steps = sum(config)
            ipc *= self.drift_ipc_factor * max(
                0.05, 1.0 - self.drift_config_penalty * steps
            )
            energy *= 1.0 + self.drift_config_penalty * steps
        return ipc, energy

    # -- serialisation ------------------------------------------------------

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (omits default-valued fields)."""
        parts = [f"seed={self.seed}"]
        for f in fields(self):
            if f.name in ("seed", "injected"):
                continue
            value = getattr(self, f.name)
            default = f.default
            if value != default:
                parts.append(f"{f.name}={value}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a CLI-style plan: ``seed=42,worker_crash=0.2,...``."""
        known = {
            f.name: f for f in fields(cls) if f.name != "injected"
        }
        kwargs: Dict[str, object] = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(
                    f"bad fault-plan item {chunk!r} (expected name=value)"
                )
            name, _, raw = chunk.partition("=")
            name = name.strip()
            if name not in known:
                raise ValueError(
                    f"unknown fault-plan field {name!r}; known: "
                    f"{', '.join(sorted(known))}"
                )
            if name in ("seed", "drift_at"):
                kwargs[name] = int(raw)
            else:
                kwargs[name] = float(raw)
        return cls(**kwargs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_spec()})"


def corrupt_file(path) -> None:
    """Truncate a file to half its length (an interrupted-write stand-in).

    Used by the ``store_corrupt`` site: the damaged entry is no longer
    valid JSON, so the next read must quarantine it rather than trust it.
    """
    import os

    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    except OSError:
        pass
