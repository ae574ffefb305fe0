"""Functional (software) simulation of Fleet processing units."""

from .batch import (
    BatchResult,
    BatchStats,
    PredictedBatchStats,
    BatchStreamSimulator,
    BatchUnit,
    batch_engine_for,
    batch_support,
    cc_available,
    compile_batch,
    kernel_unavailable,
    predict_batch_stats,
    run_batch_streams,
)
from .cc import compile_cc
from .compile import (
    CompiledSimulator,
    CompiledUnit,
    compile_program,
    env_engine,
    fast_engine_for,
    make_simulator,
    try_specialize,
)
from .native import native_enabled
from .simulator import UnitSimulator, VirtualCycle
from .stream import (
    bytes_from_tokens,
    tokens_from_bytes,
    tokens_to_words,
    words_to_tokens,
)
from .trace import StreamTrace

__all__ = [
    "BatchResult",
    "BatchStats",
    "PredictedBatchStats",
    "predict_batch_stats",
    "BatchStreamSimulator",
    "BatchUnit",
    "CompiledSimulator",
    "CompiledUnit",
    "StreamTrace",
    "UnitSimulator",
    "VirtualCycle",
    "batch_engine_for",
    "batch_support",
    "bytes_from_tokens",
    "cc_available",
    "compile_batch",
    "compile_cc",
    "compile_program",
    "env_engine",
    "fast_engine_for",
    "kernel_unavailable",
    "make_simulator",
    "native_enabled",
    "run_batch_streams",
    "tokens_from_bytes",
    "tokens_to_words",
    "try_specialize",
    "words_to_tokens",
]
