"""Set up one workload's inputs in this fresh interpreter, timed.

    python3 bench/setup_once.py --workload W --seed N --out DIR

Times importing reedylab and generating the inputs from the seed, and
takes reference timings (see speed.py) just before and after.  Prints
one JSON line: ``{"seconds": ..., "refs": [...]}``.
"""

import json
import sys
import time

from speed import reference_now

if __name__ == "__main__":
    before = reference_now()
    start = time.perf_counter()
    import gen

    gen.main(sys.argv[1:])
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "refs": [before, reference_now()]}))
