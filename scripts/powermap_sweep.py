#!/usr/bin/env python3
"""Density sweep of the k-th power map over the bundled group models.

For each instance, prints the k values up to the sweep bound whose power
map fails to have dense image, and the all-k verdict.
"""

import argparse

from cartankit.catalog import bundled_models
from cartankit.powermap import (
    density_from_cartans,
    load_instance,
    weakly_exponential_model,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=30, help="sweep bound (default 30)")
    args = parser.parse_args()

    for name, path in bundled_models().items():
        if name == "triples":
            continue
        instance = load_instance(path)
        failing = [k for k in range(1, args.k_max + 1) if not density_from_cartans(instance, k)]
        verdict = weakly_exponential_model(instance)
        print(f"{instance.name}: dense for all k: {verdict}")
        if failing:
            print(f"  non-dense k up to {args.k_max}: {failing}")


if __name__ == "__main__":
    main()
