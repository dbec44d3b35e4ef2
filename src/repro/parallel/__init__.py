"""Parallel runtime: communicators, 4-level decomposition, scheduling
and execution backends."""

from .comm import (
    CommEvent,
    CommTrace,
    SerialComm,
    TracedComm,
    UnreliableComm,
    payload_nbytes,
)
from .decomposition import (
    LEVEL_NAMES,
    Decomposition,
    WorkItem,
    choose_level_sizes,
)
from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from .scheduler import (
    ScheduleReport,
    greedy_balance,
    makespan,
    round_robin,
    run_tasks,
    split_chunks,
    static_blocks,
    wave_chunks,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
    "round_robin",
    "split_chunks",
    "wave_chunks",
    "CommEvent",
    "CommTrace",
    "SerialComm",
    "TracedComm",
    "UnreliableComm",
    "payload_nbytes",
    "LEVEL_NAMES",
    "Decomposition",
    "WorkItem",
    "choose_level_sizes",
    "ScheduleReport",
    "greedy_balance",
    "makespan",
    "run_tasks",
    "static_blocks",
]
