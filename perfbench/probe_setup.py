"""Set-up probe, run in a fresh interpreter: import heic, build a link and its spectrum.

    python3 perfbench/probe_setup.py LINK K_MAX

Prints the seconds from before ``import heic`` to after ``analytic_spectrum``.
Interpreter start-up is outside the measurement.
"""

import sys
import time

start = time.perf_counter()
import heic  # noqa: E402

link = heic.link_from_spec(sys.argv[1])
heic.analytic_spectrum(link, 3, int(sys.argv[2]))
print(repr(time.perf_counter() - start))
