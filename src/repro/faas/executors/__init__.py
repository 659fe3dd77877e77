"""Executor implementations (§2.2.1)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "base": ["ExecutorBase"],
    "thread_pool": ["ThreadPoolExecutor"],
    "htex": ["HighThroughputExecutor"],
})
