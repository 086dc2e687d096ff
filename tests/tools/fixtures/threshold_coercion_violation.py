"""Contractlint fixture: seeded CL304 truncating coercions."""

import numpy as np


def run_batched(reads, threshold, first_read_index=0):
    first = int(first_read_index)  # expect: CL304
    return reads, int(threshold), first  # expect: CL304


def match_sweep(reads, thresholds, query_keys=None):
    vector = np.asarray(thresholds, dtype=int)  # expect: CL304
    keys = np.array(query_keys, int)  # expect: CL304
    return reads, vector, keys, thresholds.astype(int)  # expect: CL304


def keyed(query_keys):
    def inner():
        return int(query_keys)  # expect: CL304
    return inner
