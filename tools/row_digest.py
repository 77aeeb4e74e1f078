"""Print every report row of ``run_all(n, seed, 25)`` for n = 2..8 and seeds
42, 1, 2 and 3: one line per check, with ``repr(max_deviation)``, ``passed``,
``samples``, ``skipped`` and ``error``, and no timings.

A change meant to keep every report bit for bit can be checked by running
this in two checkouts and diffing the outputs:

    PYTHONPATH=src python tools/row_digest.py > rows.txt
"""

from centralizer_lab.suites import run_all

SIZES = range(2, 9)
SEEDS = (42, 1, 2, 3)
SAMPLES = 25


def main() -> None:
    for n in SIZES:
        for seed in SEEDS:
            for row in run_all(n, seed, SAMPLES).checks:
                print(n, seed, row.name, repr(row.max_deviation), row.passed, row.samples,
                      row.skipped, row.error)


if __name__ == "__main__":
    main()
