"""The repository benchmark: ``synth``, ``frontier`` and ``serve`` workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
Everything here measures the program from outside: it generates its own
inputs, calls public entry points, and checks every output with code
that does not import the program.
"""
