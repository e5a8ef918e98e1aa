"""End-to-end benchmark of the ``updyn`` command line, with an outside-in layer trace.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload delay --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object; the full record of the
run goes to ``perfbench/results/``.
"""
