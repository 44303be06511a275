"""Samples the speed of the CPU the benchmark runs on, while it runs.

Every PERIOD_S this times a fixed pure-Python kernel.  It shares the one
CPU the benchmark is pinned to, so each sample shows how fast that CPU ran
Python code at that moment; run.py scales each timed operation by the
kernel times sampled during it.  When stdin closes it prints the samples
as one JSON list of [monotonic ns at start, kernel ns] pairs and exits.

    python3 sampler.py
"""

import json
import sys
import threading
import time

PERIOD_S = 0.02


def kernel() -> int:
    # fixed work: about 0.4 ms alone on the baseline machine
    table, acc = {}, 0
    for i in range(4000):
        table[i & 127] = acc
        acc = (acc + i * 7) % 1000003
    return acc


def main() -> int:
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    samples = []
    while not stop.wait(PERIOD_S):
        start = time.perf_counter_ns()
        kernel()
        samples.append((start, time.perf_counter_ns() - start))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
