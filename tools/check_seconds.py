"""Print each check's best-of-k ``seconds`` of ``run_all(n, seed, samples)``
and the total per n, one column per n.

A change meant to make ``check`` faster can be timed by running this in
two checkouts, one after the other on the same host:

    PYTHONPATH=src python tools/check_seconds.py            # n = 2, 3, 4, seed 42
    PYTHONPATH=src python tools/check_seconds.py --n 2 4 8 --repeat 7

The first sweep at each n is a warm-up and is not counted.
"""

import argparse

from centralizer_lab.suites import run_all


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=25)
    parser.add_argument("--repeat", type=int, default=5, help="sweeps per n (best of k)")
    args = parser.parse_args()
    best = {}
    for n in args.n:
        run_all(n, args.seed, args.samples)
        for _ in range(args.repeat):
            for row in run_all(n, args.seed, args.samples).checks:
                key = (row.name, n)
                best[key] = min(best.get(key, float("inf")), row.seconds)
    names = list(dict.fromkeys(name for name, _ in best))
    print(f"{'check (ms)':<42s}" + "".join(f"{f'n={n}':>10s}" for n in args.n))
    for name in names:
        print(f"{name:<42s}" + "".join(f"{1e3 * best[name, n]:10.2f}" for n in args.n))
    print(f"{'total':<42s}" + "".join(
        f"{1e3 * sum(best[name, n] for name in names):10.2f}" for n in args.n))


if __name__ == "__main__":
    main()
