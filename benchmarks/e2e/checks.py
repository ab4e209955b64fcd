"""Output checks.  They run after each timed phase and are never timed.

A failed check counts against the run: ``failed`` in the result, and a
run with any failure exits non-zero.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


class Checks:
    """Counts verifications attempted and records each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def expected_outputs(app) -> Dict[str, List[int]]:
    """The golden outputs of an app's sample inputs: its hand-written
    reference model where it has one, else the IR interpreter run of
    the source graph."""
    inputs = {name: list(tokens)
              for name, tokens in app.project.sample_inputs.items()}
    if app.reference is not None:
        return app.reference(inputs)
    from repro.dataflow.simulator import run_graph
    return run_graph(app.project.graph, inputs)


def output_mismatch(outputs: Dict[str, List[int]],
                    expected: Dict[str, List[int]]) -> Optional[str]:
    """None when ``outputs`` carries every expected stream with equal
    tokens, else a one-line description of the first difference."""
    for name, tokens in expected.items():
        got = outputs.get(name)
        if got is None:
            return f"missing output stream {name!r}"
        if list(got) != list(tokens):
            first = next((i for i, (a, b) in enumerate(zip(got, tokens))
                          if a != b), min(len(got), len(tokens)))
            return (f"stream {name!r} differs at token {first} "
                    f"({len(got)} tokens, expected {len(tokens)})")
    return None


def tab2_order_violation(o0_riscv_s: float, o1_makespan_s: float,
                         o3_makespan_s: float) -> Optional[str]:
    """The paper's Tab. 2 ordering: -O0 compiles in less modeled time
    than an -O1 page makespan, which is less than the -O3 compile."""
    if 0 < o0_riscv_s < o1_makespan_s < o3_makespan_s:
        return None
    return (f"Tab. 2 order broken: -O0 {o0_riscv_s:.1f}s, "
            f"-O1 {o1_makespan_s:.1f}s, -O3 {o3_makespan_s:.1f}s")


def edit_rebuild_problem(summary: Dict[str, Any]) -> Optional[str]:
    """An edit of one operator rebuilds exactly its own page."""
    rebuilt = summary.get("pages_rebuilt")
    return None if rebuilt == 1 else f"edit rebuilt {rebuilt} pages, not 1"


def cold_miss_problem(summary: Dict[str, Any]) -> Optional[str]:
    """A cold request ran every implementation step (no cache hit)."""
    dedup = summary.get("dedup", {})
    if dedup.get("impl_steps", 0) > 0 and dedup.get("impl_hits", 1) == 0:
        return None
    return f"impl steps were not all cache misses: {dedup}"


def manifest_mismatch(served: bytes, expected: Dict[str, Any]
                      ) -> Optional[str]:
    """None when a served JSON manifest carries exactly ``expected``,
    else the top-level keys that differ."""
    try:
        got = json.loads(served)
    except ValueError:
        return "served manifest is not JSON"
    want = json.loads(json.dumps(expected))
    if got == want:
        return None
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return f"manifest differs in {keys}"


def seeded_manifest_mismatch(served: bytes, seeded: bytes) -> Optional[str]:
    """A warm request returns its seeding build's manifest byte for byte."""
    return None if served == seeded else "manifest differs from its seeding build"
