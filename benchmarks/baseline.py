"""Record one point of the benchmark trajectory.

    python3 benchmarks/baseline.py --label seed --seed 11 --seconds 30

Runs every workload untraced and traced through ``run.py`` and writes
``benchmarks/BENCH_<label>.json``: the machine record, each workload's
end-to-end metrics (with the job-time tail and sample counts), its per-layer
metrics and each layer's self-time share of the traced ``job_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, ".results", f"{workload}-s{seed}-trace{trace}.json")) as fh:
        return line, json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    point = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name, workload in WORKLOADS.items():
        plain_line, plain = run(name, args.seed, args.seconds, 0)
        traced_line, traced = run(name, args.seed, args.seconds, 1)
        point["machine"] = plain["machine"]
        point["workloads"][name] = {
            "why": workload.why,
            "command": workload.argv("<csv>", "<out>"),
            "input_sha256": plain["inputs"]["sha256"],
            "correct": plain_line["correct"] and traced_line["correct"],
            "end_to_end": {k: v["value"] for k, v in plain_line["metrics"].items()},
            "job_s": plain["job_s"],
            "reference_s": plain["reference_s"],
            "ops": plain["ops"],
            "traced_ops": traced["ops"],
            "per_layer": {k: v["value"] for k, v in traced_line["metrics"].items()},
            "layer_self_share": traced["layer_self_share"],
            "problems": plain["problems"] + traced["problems"],
        }
        print(f"{name}: job_ref {plain_line['metrics']['job_ref']['value']:.2f}, "
              f"job_s mean {plain['job_s']['mean']:.3f} s", file=sys.stderr)
    with open(os.path.join(HERE, f"BENCH_{args.label}.json"), "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
