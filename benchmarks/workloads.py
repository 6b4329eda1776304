"""The benchmark's workloads: one hypolab subcommand plus one flat config each.

Every value the workload depends on is pinned here, defaults included, so a
later change to a CLI default does not silently change what is measured.
The seed is not part of the config below: the benchmark passes its --seed
argument in as the config key ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2024


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    why: str

    def config_text(self, seed: int) -> str:
        """The flat ``key = value`` document that hypolab reads via --config."""
        lines = [f"{key} = {value}" for key, value in self.config.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"


WORKLOADS = {
    "all_default": Workload(
        command="all",
        config={
            "potential.kind": "quadratic",
            "grid.N_x": "128",
            "grid.N_v": "20",
            "evolve.f0": "random",
            "sde.d": "1",
            "sde.particles": "10000",
            "sde.steps": "2000",
        },
        why="the headline run users make; it touches every layer and the "
            "8 s roadmap target is stated on it",
    ),
    "verify_fine": Workload(
        command="verify",
        config={
            "potential.kind": "double_well",
            "grid.N_x": "512",
            "grid.N_v": "32",
        },
        why="n=16384 takes the above-DENSE_SVD_LIMIT norm path with K>0; no "
            "evolve or sampler, so their optimisations must not move it",
    ),
    "sample_hd": Workload(
        command="sample",
        config={
            "potential.kind": "quadratic",
            "sde.d": "4",
            "sde.particles": "10000",
            "sde.steps": "2000",
        },
        why="sampler only, at a dimension where memory shows; the quadratic "
            "potential keeps the duplicate decay-fit ensemble",
    ),
}
