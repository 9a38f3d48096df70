"""Compare a parent and a change checkout on every benchmark workload.

    python3 bench/compare.py --parent ../parent --change . [--seed 1000]

Both checkouts need their own bench/ (identical between them) and src/.
See ncdrbench/compare.py for the verdict rules.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ncdrbench.compare import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
