"""NUMA-aware worker placement (paper Sec. 4.1).

Models the launch policy ``mpiexec -map-by numa`` with
``I_MPI_PIN_CELL=core``: MPI ranks are distributed round-robin over NUMA
domains, each rank's OpenMP threads pinned to a disjoint block of physical
cores inside its domain.  The planner computes the same placement a real
launcher would, and validates the constraint the paper's 16-worker choice
encodes: no oversubscription and a whole number of cores per worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.distributed.perf_model import NodeSpec


@dataclass(frozen=True)
class WorkerPlacement:
    """One rank's binding on a node."""

    rank: int
    node_index: int
    numa_domain: int
    cores: tuple  # physical core ids within the node

    @property
    def num_threads(self) -> int:
        return len(self.cores)


class AffinityPlanner:
    """Compute rank placements for a multi-node DDP job."""

    def __init__(self, node: NodeSpec = NodeSpec()):
        self.node = node

    def cores_in_domain(self, domain: int) -> List[int]:
        """Physical core ids belonging to a NUMA domain (contiguous blocks)."""
        per_domain = self.node.physical_cores // self.node.numa_domains
        start = domain * per_domain
        return list(range(start, start + per_domain))

    def plan_node(self, workers: int, node_index: int = 0, rank_base: int = 0) -> List[WorkerPlacement]:
        """Place ``workers`` ranks on one node.

        Raises if the worker count does not divide the core topology — the
        same configurations a pinned MPI launch would reject.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers % self.node.numa_domains != 0 and workers > self.node.numa_domains:
            raise ValueError(
                f"{workers} workers do not distribute evenly over "
                f"{self.node.numa_domains} NUMA domains"
            )
        per_domain_workers = max(1, workers // self.node.numa_domains)
        threads = self.node.physical_cores // workers
        if threads < 1:
            raise ValueError(f"{workers} workers oversubscribe {self.node.physical_cores} cores")
        placements = []
        rank = rank_base
        for domain in range(min(workers, self.node.numa_domains)):
            domain_cores = self.cores_in_domain(domain)
            for w in range(per_domain_workers):
                cores = tuple(domain_cores[w * threads : (w + 1) * threads])
                if len(cores) < threads:
                    raise ValueError("core block exhausted — uneven worker split")
                placements.append(
                    WorkerPlacement(
                        rank=rank, node_index=node_index, numa_domain=domain, cores=cores
                    )
                )
                rank += 1
        return placements

    def omp_num_threads(self, workers_per_node: int | None = None) -> int:
        """Threads per worker under the pinning policy."""
        workers_per_node = workers_per_node or self.node.workers
        return self.node.physical_cores // workers_per_node
