"""Deterministic simulator and trace replay model for hardware-offloaded
minor page fault handling."""

from .engine import FaultOutcome, MfoeEngine, OutcomeKind, PteFaultSm, Tlb
from .kernel import BookkeepingLedger, KernelModel, ProcessModel, VMA
from .params import LatencySampler, ModelParameters
from .prealloc import HarvestRecord, PreallocTable, ProduceStatus
from .sim import SimConfig, SimReport, Simulation, WorkloadSpec, run
from .trace import (
    FaultTrace,
    ModelReport,
    SweepGrid,
    TraceModelConfig,
    WORKLOAD_PROFILES,
    apply_model,
    ingest,
    sweep,
    synthesize,
    synthesize_profile,
    write_trace,
)
from .vm import FrameAllocator, PageTable, PageTableEntry

__version__ = "0.1.0"

__all__ = [
    "BookkeepingLedger",
    "FaultOutcome",
    "FaultTrace",
    "FrameAllocator",
    "HarvestRecord",
    "KernelModel",
    "LatencySampler",
    "MfoeEngine",
    "ModelParameters",
    "ModelReport",
    "OutcomeKind",
    "PageTable",
    "PageTableEntry",
    "PreallocTable",
    "ProcessModel",
    "ProduceStatus",
    "PteFaultSm",
    "SimConfig",
    "SimReport",
    "Simulation",
    "SweepGrid",
    "Tlb",
    "TraceModelConfig",
    "VMA",
    "WORKLOAD_PROFILES",
    "WorkloadSpec",
    "apply_model",
    "ingest",
    "run",
    "sweep",
    "synthesize",
    "synthesize_profile",
    "write_trace",
]
