"""Set-up probe: import ispaces and build one workload's inputs without evaluating them.

Run in a fresh interpreter by run.py, which times the whole process:

    python benchmark/setup_probe.py census-transitivity
    python benchmark/setup_probe.py census-antisymmetry SEED SAMPLES
    python benchmark/setup_probe.py check-models FILE...

For a census the input is the population object (with its size, which
builds the orbit encoding); for check-models it is every model file loaded
through ``cli.load``.
"""

import sys

from ispaces import cli, search


def main(argv: list[str]) -> int:
    workload, args = argv[0], argv[1:]
    if workload == "census-transitivity":
        search.ExhaustivePopulation(4).size()
    elif workload == "census-antisymmetry":
        search.SampledPopulation(5, int(args[0]), int(args[1])).size()
    elif workload == "check-models":
        for path in args:
            cli.load(path)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
