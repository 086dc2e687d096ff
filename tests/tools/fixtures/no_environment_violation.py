"""Contractlint fixture: seeded CL108 environment reads."""

import os
from os import environ, getenv  # expect: CL108


def kernel_choice():
    return os.environ.get("KERNEL", "gemm")  # expect: CL108


def engine_choice():
    return os.getenv("ENGINE") or environ["ENGINE"]  # expect: CL108


def raw_choice():
    return os.environb[b"LANE"], getenv  # expect: CL108
