"""Set-up step of a benchmark run, timed in a fresh process.

    python3 benchmarks/gen_input.py --workload predict-small --seed 11 --out DIR

Imports structim from the checkout's ``src``, builds each of the workload's
networks (one per sub-seed of ``--seed``) with
``generators.synthetic_temporal`` and writes it with ``ingest.write_edge_csv``
to ``DIR/input<i>.csv``. Prints one JSON object: ``setup_s`` (import plus
generation plus writes), ``generate_s`` (all networks), and ``sha256`` over
the CSVs in order.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    sys.path.insert(0, SRC)
    from structim import generators, ingest

    workload = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    generate_s = 0.0
    paths = []
    for i, sub_seed in enumerate(workload.sub_seeds(args.seed)):
        t1 = time.perf_counter()
        tn = generators.synthetic_temporal(*workload.generator_args(), seed=sub_seed)
        generate_s += time.perf_counter() - t1
        paths.append(os.path.join(args.out, f"input{i}.csv"))
        ingest.write_edge_csv(tn, paths[-1])
    setup_s = time.perf_counter() - _T0

    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    print(json.dumps({"setup_s": setup_s, "generate_s": generate_s, "sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
