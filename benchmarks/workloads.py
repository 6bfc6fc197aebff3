"""The benchmark's named workloads.

Every workload generates ``inputs`` networks with ``synthetic_temporal(n,
communities, hubs=4, coupling=-2.0, horizon, sub_seed)``, one per sub-seed of
the run's seed, and runs one CLI job per CSV in each round. The program only
ever sees the generated CSVs. Several inputs per run average out how much the
job time of a small network depends on its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

HUBS = 4
COUPLING = -2.0
# Sub-seed i of seed s is s + SUB_SEED_STRIDE * i; input 0 uses the seed itself.
SUB_SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: "predict" or "analyze"
    n: int
    communities: int
    horizon: int
    inputs: int
    why: str

    def generator_args(self) -> tuple:
        return (self.n, self.communities, HUBS, COUPLING, self.horizon)

    def sub_seeds(self, seed: int) -> list:
        return [seed + SUB_SEED_STRIDE * i for i in range(self.inputs)]

    def argv(self, csv_path: str, out_dir: str) -> list:
        """CLI arguments of one job; predict runs with the CLI defaults."""
        extra = ["--target", "presence"] if self.command == "predict" else []
        return [self.command, csv_path, *extra, "--out", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "predict-small", "predict", n=120, communities=4, horizon=30, inputs=4,
            why=("4 CLI-default networks per seed, 28 small snapshots each: "
                 "model evaluation and community detection share the job"),
        ),
        Workload(
            "analyze-sparse", "analyze", n=600, communities=24, horizon=3, inputs=2,
            why=("2 larger sparser networks per seed, no model code: "
                 "spectra, communities twice per snapshot, CSV and SVG output"),
        ),
    )
}
