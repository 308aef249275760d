"""The paper's future-work sketch: JIT configuration prediction.

§6: "one could use the JIT compiler in the DO system to provide a good
estimate for the resource configuration required for this hotspot through
appropriate code analysis.  Such a feature could potentially completely
eliminate the tuning latency and overhead."

The FootprintPredictor statically reads each hotspot's declared memory
behaviour out of the IR, predicts the smallest comfortable cache size,
and seeds the tuning list with it; a qualifying prediction ends tuning
after two trials instead of four.

    python examples/jit_prediction.py
"""

from repro.core.policy import HotspotACEPolicy
from repro.core.prediction import FootprintPredictor
from repro.sim.config import ExperimentConfig
from repro.sim.driver import RunSpec, execute
from repro.workloads.specjvm import build_benchmark


def run(predict: bool):
    config = ExperimentConfig(max_instructions=2_000_000)
    policy = HotspotACEPolicy(
        tuning=config.tuning,
        predictor=FootprintPredictor() if predict else None,
    )
    result = execute(RunSpec(
        build_benchmark("db"), "hotspot", config, policy=policy
    ))
    return result, policy


def main() -> None:
    print("simulating 'db' with and without JIT prediction ...\n")
    plain_result, plain_policy = run(predict=False)
    pred_result, pred_policy = run(predict=True)

    plain = plain_policy.finalize()
    pred = pred_policy.finalize()

    print(f"{'':28s}{'no prediction':>15s}{'prediction':>13s}")
    print(f"{'tuning trials':28s}"
          f"{sum(plain.tunings.values()):>15d}"
          f"{sum(pred.tunings.values()):>13d}")
    print(f"{'tuned hotspots':28s}"
          f"{plain.tuned_hotspots:>15d}{pred.tuned_hotspots:>13d}")

    def epi(result, attr):
        return getattr(result, attr) / result.instructions

    for label, attr in (("L1D", "l1d_energy_nj"), ("L2", "l2_energy_nj")):
        print(f"{label + ' energy/insn (nJ)':28s}"
              f"{epi(plain_result, attr):>15.4f}"
              f"{epi(pred_result, attr):>13.4f}")
    print(f"{'predictions made':28s}{'-':>15s}"
          f"{pred_policy.predictor.predictions:>13d}")
    print()
    print("A qualifying prediction ends a hotspot's tuning after two "
          "trials (reference + predicted), cutting the time spent in "
          "sub-optimal configurations.")


if __name__ == "__main__":
    main()
