"""Time one fresh process's set-up and print it in seconds: importing sada,
then generating the first instances of a workload at both sizes, with their
oracles. Run by `measure.py` as `setup_probe.py WORKLOAD SEED UNITS`."""

import sys
import time

start = time.perf_counter()

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402


def main(argv):
    wl = workloads.WORKLOADS[argv[0]]
    seed, units = int(argv[1]), int(argv[2])
    for rep in range(units):
        for point in (workloads.FULL, workloads.HALF):
            workloads.build_instance(wl, seed, point, rep)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
