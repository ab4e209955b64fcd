"""The PLD toolflow: the paper's primary contribution (Sec. 6).

Everything above the substrates lives here:

* :mod:`repro.core.pragma` — the ``#pragma target=HW p_num=N`` mapping
  directives of Fig. 2(a);
* :mod:`repro.core.dfg` — the dfg extractor producing ``dfg.ir``;
* :mod:`repro.core.build` — the Makefile-equivalent incremental build
  engine (content hashing; only changed operators recompile; with
  ``workers > 1`` independent steps run on worker processes);
* :mod:`repro.core.cluster` — the Slurm compile-cluster model that
  turns per-operator stage times into parallel makespans;
* :mod:`repro.core.project` — a PLD project (graph + workloads);
* :mod:`repro.core.flows` — the -O0, -O1, -O3 and baseline Vitis
  compile flows, each producing a loadable, runnable build;
* :mod:`repro.core.session` — the incremental edit-compile-reload
  session backed by the persistent artifact store;
* :mod:`repro.core.reports` — Tab. 2/3/4-style report formatting.
"""

from repro.core.pragma import OperatorPragma, parse_pragmas
from repro.core.dfg import extract_dfg, dfg_to_text
from repro.core.build import BatchStep, BuildCache, BuildEngine
from repro.core.cluster import CompileCluster, Job
from repro.core.project import Project
from repro.core.flows import (
    FlowBuild,
    O0Flow,
    O1Flow,
    O3Flow,
    VitisFlow,
    PerformanceSummary,
    diff_manifests,
)
from repro.core.session import EditResult, IncrementalSession, touch_spec
from repro.core.reports import (
    format_compile_table,
    format_performance_table,
    format_area_table,
    format_failure_report,
    format_deadlock_report,
    format_incremental_report,
)

__all__ = [
    "OperatorPragma",
    "parse_pragmas",
    "extract_dfg",
    "dfg_to_text",
    "BatchStep",
    "BuildCache",
    "BuildEngine",
    "CompileCluster",
    "Job",
    "Project",
    "FlowBuild",
    "O0Flow",
    "O1Flow",
    "O3Flow",
    "VitisFlow",
    "PerformanceSummary",
    "diff_manifests",
    "EditResult",
    "IncrementalSession",
    "touch_spec",
    "format_compile_table",
    "format_performance_table",
    "format_area_table",
    "format_failure_report",
    "format_deadlock_report",
    "format_incremental_report",
]
