"""One set-up of a benchmark run, timed from outside by run.py.

Usage: python3 perfbench/setup_once.py WORKLOAD SEED

Starts the interpreter, imports the dsheffer CLI and builds the workload's
inputs, which is what a run pays before its first operation.
"""

import sys

import workloads

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.import_program()
    workloads.build_ops(workload, seed, workloads.WORKDIR)
