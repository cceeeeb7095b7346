"""Set-up probe: a fresh interpreter produces one workload's first result.

    python3 perfbench/first_result.py WORKLOAD SEED

Prints ``first-result <digest>`` as soon as the result exists; run.py times
the probe from its launch to that line.
"""

import sys

from tree import WORK, import_zonet, nproc


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import_zonet()
    import workloads

    _, out, problems = workloads.first_op(workload, seed, WORK, nproc())
    if problems:
        print(f"perfbench: first result: {problems[0]}", file=sys.stderr)
        return 1
    print("first-result", out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
