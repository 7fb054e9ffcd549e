"""Print one sha256 over the acceptance battery's result lines.

The digest covers line() + "\\n" of every result of
verify.run_all(Random(seed), p), for seed 0..4 (outer loop) and
p in (None, 7, 13, 19) (inner loop), so two checkouts that print the
same value gave byte-identical battery output on all twenty runs.  The
package is imported from the src/ directory beside this file.

    python -W error tools/battery_digest.py

tools/battery_digest.txt records the expected value.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hesse_moore.verify import run_all  # noqa: E402

SEEDS = range(5)
PRIMES = (None, 7, 13, 19)


def battery_digest() -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        for p in PRIMES:
            for result in run_all(random.Random(seed), p):
                digest.update((result.line() + "\n").encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(battery_digest())
