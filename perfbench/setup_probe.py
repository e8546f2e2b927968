"""Time a scenario workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py SCENARIO REGIONS SEED``

Prints one number: the seconds from before ``import repro`` to a
compiled scenario (``compile_scenario`` of the shipped scenario with
its seed replaced), which is what a user pays before the first
simulated tick of ``repro scenario run``.  The seconds are corrected to
the nominal host speed by a :class:`benchlib.HostSpeedSampler` with the
pure-Python probe (NumPy is not imported yet when it starts).
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from benchlib import (  # noqa: E402
    PYTHON_PROBE_NOMINAL_S,
    HostSpeedSampler,
    python_speed_probe,
)


def main(argv: list[str]) -> int:
    name, regions, seed = argv[0], int(argv[1]), int(argv[2])
    with HostSpeedSampler(nominal=PYTHON_PROBE_NOMINAL_S,
                          probe=python_speed_probe) as sampler:
        import dataclasses

        import repro  # noqa: F401
        from repro.scenarios import compile_scenario, shipped_scenarios

        scenario = dataclasses.replace(shipped_scenarios()[name],
                                       seed=seed)
        compile_scenario(scenario, regions=regions)
        wall = time.perf_counter() - START
    print(f"{sampler.corrected(wall):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
