"""Hierarchy construction: the N-stage broker tree of Figure 4.

The paper's simulation uses one stage-3 root, 10 stage-2 nodes, and 100
stage-1 nodes; :func:`build_hierarchy` generalizes to any per-stage node
counts, distributing children round-robin so the tree stays balanced.
Node names follow the paper's ``N<stage>.<index>`` convention.
"""

from typing import Callable, Dict, List, Optional, Sequence

from repro.filters.index import CountingIndex
from repro.flow import FlowConfig
from repro.log.config import LogConfig
from repro.obs.tracing import EventTracer
from repro.overlay.node import BrokerNode, MatchEngine
from repro.runtime.base import Executor, Transport
from repro.sim.rng import RngRegistry


class Hierarchy:
    """A built broker tree plus lookup helpers."""

    def __init__(self, nodes_by_stage: Dict[int, List[BrokerNode]]):
        self.nodes_by_stage = nodes_by_stage
        self.stages = sorted(nodes_by_stage, reverse=True)
        top = self.stages[0]
        if len(nodes_by_stage[top]) != 1:
            raise ValueError(
                f"the top stage must hold exactly one root node, got "
                f"{len(nodes_by_stage[top])}"
            )
        self.root = nodes_by_stage[top][0]

    @property
    def top_stage(self) -> int:
        return self.stages[0]

    def nodes(self, stage: Optional[int] = None) -> List[BrokerNode]:
        """All nodes, or the nodes of one stage (highest stage first)."""
        if stage is not None:
            return list(self.nodes_by_stage.get(stage, []))
        result: List[BrokerNode] = []
        for s in self.stages:
            result.extend(self.nodes_by_stage[s])
        return result

    def stage1_nodes(self) -> List[BrokerNode]:
        return self.nodes(1)

    def start_maintenance(self) -> None:
        for node in self.nodes():
            node.start_maintenance()

    def stop_maintenance(self) -> None:
        for node in self.nodes():
            node.stop_maintenance()

    def __repr__(self) -> str:
        shape = {s: len(ns) for s, ns in sorted(self.nodes_by_stage.items())}
        return f"Hierarchy({shape})"


def build_hierarchy(
    sim: Executor,
    network: Transport,
    stage_sizes: Sequence[int],
    ttl: float = 60.0,
    engine_factory: Callable[[], MatchEngine] = CountingIndex,
    rngs: Optional[RngRegistry] = None,
    link_latency: float = 0.001,
    wildcard_routing: bool = True,
    compact: bool = False,
    aggregate: bool = True,
    reliable: bool = True,
    tracer: Optional[EventTracer] = None,
    flow: Optional[FlowConfig] = None,
    service_rate: Optional[float] = None,
    service_batch: int = 16,
    log: Optional[LogConfig] = None,
) -> Hierarchy:
    """Build a balanced broker tree.

    ``stage_sizes[i]`` is the number of nodes at stage ``i + 1``; the last
    entry must be 1 (the root).  The paper's configuration is
    ``stage_sizes=[100, 10, 1]``.  Children are assigned to parents
    round-robin: child ``k`` at stage ``s`` hangs under parent
    ``k % len(stage s+1)``.
    """
    if not stage_sizes:
        raise ValueError("need at least one stage of brokers")
    if stage_sizes[-1] != 1:
        raise ValueError(f"the top stage must have exactly 1 node, got {stage_sizes[-1]}")
    if any(size < 1 for size in stage_sizes):
        raise ValueError(f"every stage needs at least one node: {list(stage_sizes)}")
    rngs = rngs or RngRegistry(0)

    nodes_by_stage: Dict[int, List[BrokerNode]] = {}
    for index, size in enumerate(stage_sizes):
        stage = index + 1
        nodes_by_stage[stage] = [
            BrokerNode(
                sim,
                network,
                name=f"N{stage}.{i + 1}",
                stage=stage,
                ttl=ttl,
                engine_factory=engine_factory,
                rng=rngs.stream(f"node/N{stage}.{i + 1}"),
                wildcard_routing=wildcard_routing,
                compact=compact,
                aggregate=aggregate,
                reliable=reliable,
                tracer=tracer,
                flow=flow,
                service_rate=service_rate,
                service_batch=service_batch,
                log_config=log,
            )
            for i in range(size)
        ]

    for index in range(len(stage_sizes) - 1):
        stage = index + 1
        parents = nodes_by_stage[stage + 1]
        for position, child in enumerate(nodes_by_stage[stage]):
            parent = parents[position % len(parents)]
            parent.attach_child(child)
            network.connect(parent, child, latency=link_latency)

    return Hierarchy(nodes_by_stage)
