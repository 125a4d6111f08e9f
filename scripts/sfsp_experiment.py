#!/usr/bin/env python3
"""Failure-rate experiment: the tail of the bound-ratio sequence, then one
``switchlab sfsp-estimate`` line per size (its own JSON document, Monte Carlo
estimate against the closed-form bound).  Exits with the first non-zero
status of those runs.

Example:
    python scripts/sfsp_experiment.py --k 1 --sizes 8 16 24 32 --trials 2000 --seed 7
"""

import argparse
import json
import sys

from switchlab import cli
from switchlab.randomlab import bound_ratio_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16, 20, 24])
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ratio-m", type=int, default=10_000)
    args = parser.parse_args(argv)

    ratio = bound_ratio_check(args.k, args.ratio_m)
    final = ratio.ratios[-1]
    print(json.dumps({"ratio_limit": ratio.limit, "ratio_final": final,
                      "ratio_error": abs(final - ratio.limit)}, sort_keys=True))
    codes = [
        cli.main(["sfsp-estimate", "--n", str(n), "--k", str(args.k),
                  "--trials", str(args.trials), "--seed", str(args.seed)])
        for n in args.sizes
    ]
    return next(filter(None, codes), 0)


if __name__ == "__main__":
    sys.exit(main())
