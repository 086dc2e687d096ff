"""Contractlint fixture: the clean twin of no_environment_violation."""

import os


def kernel_choice(kernel="gemm"):
    return kernel


def engine_choice(engine=None):
    return "batched" if engine is None else engine


def cores():
    return os.cpu_count() or 1  # os itself is fine; only its environment
