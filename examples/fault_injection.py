"""Inject link and core faults and watch the framework adapt (Fig. 20).

Run with ``python examples/fault_injection.py``. The script trains Llama2-7B
under a fixed (DP=4, TATP=8) configuration while sweeping link-fault and
core-fault rates, showing the throughput cliff for link faults and the graceful
degradation (with re-balancing) for core faults. Each point is a fault-study
:class:`~repro.api.scenario.Scenario` evaluated by one
:class:`~repro.api.service.PlanService`; the faults are sampled at seed 7.
"""

from repro.api import HardwareSpec, PlanService, Scenario, SolverSpec, WorkloadSpec


def main() -> None:
    service = PlanService()
    workload = WorkloadSpec(model="llama2-7b")
    solver = SolverSpec(seed=7, fixed_spec={"dp": 4, "tatp": 8})
    print(f"Model {workload.model}, configuration "
          f"{solver.resolve_fixed_spec().label()}\n")

    def relative_throughput(hardware: HardwareSpec) -> float:
        scenario = Scenario(workload=workload, hardware=hardware, solver=solver)
        return service.evaluate(scenario).relative_throughput

    print("Link faults (throughput relative to a healthy wafer):")
    for rate in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        relative = relative_throughput(HardwareSpec(link_fault_rate=rate))
        print(f"  {rate:4.0%} of links failed -> {relative:5.2f}")

    print("\nCore faults (with adaptive re-partitioning):")
    for rate in (0.0, 0.05, 0.10, 0.15, 0.20, 0.25):
        relative = relative_throughput(HardwareSpec(core_fault_rate=rate))
        print(f"  {rate:4.0%} of cores failed -> {relative:5.2f}")


if __name__ == "__main__":
    main()
