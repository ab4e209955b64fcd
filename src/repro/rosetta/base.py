"""Shared infrastructure for the Rosetta applications.

Each app module exposes ``build() -> RosettaApp``; the registry here
gives the flows, tests and benchmarks one entry point.  Common IR
idioms (byte-table popcount, fixed-point dot products) live here so the
six kernels stay readable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import FlowError
from repro.dataflow.graph import DataflowGraph, Operator
from repro.hls.frontend import OperatorBuilder
from repro.hls.interp import make_body
from repro.core.project import Project

#: Popcount lookup table for one byte.
POPCOUNT8 = tuple(bin(i).count("1") for i in range(256))


@dataclass
class RosettaApp:
    """One benchmark application.

    Args:
        name: short name used in tables.
        description: one-line summary.
        project: the sample-scale PLD project (graph + sample inputs).
        paper_tokens_per_input: 32-bit words streamed per paper-scale
            input (drives the extrapolated per-input latency).
        sample_tokens_per_input: words per sample-scale input.
        reference: optional pure-Python golden model
          ``reference(inputs) -> outputs`` for output validation.
    """

    name: str
    description: str
    project: Project
    paper_tokens_per_input: int
    sample_tokens_per_input: int
    reference: Optional[Callable] = None

    @property
    def scale_factor(self) -> float:
        return max(1.0, self.paper_tokens_per_input
                   / max(1, self.sample_tokens_per_input))


def finish_app(name: str, description: str, graph: DataflowGraph,
               sample_inputs: Dict[str, List[int]],
               paper_tokens: int,
               reference: Optional[Callable] = None) -> RosettaApp:
    """Wrap a built graph into a :class:`RosettaApp`."""
    sample_tokens = sum(len(v) for v in sample_inputs.values())
    project = Project(
        name, graph, sample_inputs,
        scale_factor=max(1.0, paper_tokens / max(1, sample_tokens)),
        description=description)
    return RosettaApp(name, description, project, paper_tokens,
                      sample_tokens, reference)


def add_spec_operator(graph: DataflowGraph, spec,
                      page: Optional[int] = None,
                      sample_spec=None) -> Operator:
    """Add an IR-spec'd operator to a graph.

    ``spec`` is the paper-scale description used by the compile flows
    (scheduling/estimation are static, so full trip counts cost
    nothing); ``sample_spec``, when given, is the same kernel with
    reduced loop bounds, and its interpreter becomes the executable
    body.
    """
    runnable = sample_spec if sample_spec is not None else spec
    op = Operator(spec.name, make_body(runnable), spec.input_ports,
                  spec.output_ports, page=page, hls_spec=spec,
                  sample_spec=runnable)
    return graph.add(op)


# -- common IR fragments ------------------------------------------------------


def declare_popcount_table(b: OperatorBuilder, name: str = "popc") -> str:
    """Declare the byte-popcount table; returns the array name."""
    return b.array(name, 256, 8, signed=False, init=list(POPCOUNT8),
                   partition=True)


def emit_popcount32(b: OperatorBuilder, table: str, word):
    """Popcount of a 32-bit word via four byte lookups."""
    total = None
    for byte in range(4):
        chunk = b.cast(b.and_(b.lshr(word, 8 * byte), 0xFF), 8,
                       signed=False)
        part = b.load(table, chunk)
        total = part if total is None else b.add(total, part)
    return b.cast(total, 8, signed=False)


# -- registry -----------------------------------------------------------------


def all_apps() -> Dict[str, RosettaApp]:
    """Build every Rosetta app at sample scale."""
    from repro.rosetta import (
        bnn,
        digit_recognition,
        face_detection,
        optical_flow,
        rendering,
        spam_filter,
    )

    apps = [rendering.build(), digit_recognition.build(),
            spam_filter.build(), optical_flow.build(),
            face_detection.build(), bnn.build()]
    return {app.name: app for app in apps}


def get_app(name: str) -> RosettaApp:
    apps = all_apps()
    if name not in apps:
        raise FlowError(
            f"unknown Rosetta app {name!r}; have {sorted(apps)}")
    return apps[name]


def deterministic_rng(tag: str) -> random.Random:
    """Seeded RNG for reproducible synthetic workloads."""
    import zlib
    return random.Random(zlib.crc32(tag.encode()))
