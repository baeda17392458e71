"""Set-up cost in a fresh interpreter: import, graph parse, first spectral object.

Usage: python3 bench/setup_probe.py <src dir> <graph spec>
Prints one JSON object of phase times in seconds.  ``cyldla`` must be the
first import so that its import time includes numpy and scipy.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cyldla import graphs  # noqa: E402
from cyldla.cylinder import GTransitionSampler  # noqa: E402

t1 = time.perf_counter()
graph = graphs.parse_graph_spec(sys.argv[2])
t2 = time.perf_counter()
GTransitionSampler(graph)
t3 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "spectral_s": t3 - t2, "setup_s": t3 - t0}))
