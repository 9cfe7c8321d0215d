"""One cold set-up of a workload in a fresh interpreter; prints its seconds,
host-scaled like every timing of the benchmark (see hostspeed.py).

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

run.py starts it several times per run to measure setup_s: the import of
arthurcalc, the generation of the inputs into WORKDIR and the cache warm-up.
"""

from __future__ import annotations

import sys
from pathlib import Path

from hostspeed import HostSpeed
from run import add_sources, set_up
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    if not add_sources():
        return 2
    with HostSpeed() as host:
        seconds = set_up(WORKLOADS[name], int(seed), Path(workdir), clock=host.clock)[0]
    print(seconds * host.scale_since(0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
