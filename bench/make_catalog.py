"""Write the size-6 pairs catalog that the certify workload loads.

    python3 bench/make_catalog.py

The file is what ``identity-lab catalog --max-size 6 --out FILE`` writes
at the commit that defined the benchmark; it is stored so that set-up
does not rebuild it (about 30 s).
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from identity_lab import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(cli.main(["catalog", "--max-size", "6",
                       "--out", str(BENCH / "data" / "catalog6.json")]))
