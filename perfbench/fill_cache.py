"""Fill a Bernoulli cache directory: ``fill_cache.py DIR INDEX``.

Run with ``PYTHONPATH=src``; computes B_0..B_INDEX through the library and
leaves them in DIR/bernoulli.tsv, the file ``--cache-dir DIR`` reads.
"""

import sys

from eigensplit.lfunctions import bernoulli, configure_cache

if __name__ == "__main__":
    configure_cache(sys.argv[1])
    bernoulli(int(sys.argv[2]))
