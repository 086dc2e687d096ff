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


def build_array(rows, seed=0):
    return rows, int(seed) & 0xFFFFFFFFFFFFFFFF  # expect: CL304


def search_batch(queries, threshold, rotation=0):
    return queries, threshold, int(rotation)  # expect: CL304


def counts_batch(queries, rotations=None):
    offsets = tuple(int(offset) for offset in rotations)  # expect: CL304
    return queries, offsets


def run_sweep(condition, thresholds):
    levels = []
    for t in thresholds:
        levels.append(int(t))  # expect: CL304
    return condition, sorted({int(t) for t in thresholds})  # expect: CL304
