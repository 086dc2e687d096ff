"""Contractlint fixture: the clean twin of threshold_coercion_violation."""

import numpy as np

from repro.knobs import check_integer, check_threshold, check_thresholds


def run_batched(reads, threshold, first_read_index=0):
    first = check_integer("first_read_index", first_read_index)
    return reads, check_threshold(threshold, "match_sweep"), first


def match_sweep(reads, thresholds, query_keys=None):
    vector = check_thresholds(thresholds)
    widths = np.asarray(reads, dtype=int)  # not a guarded parameter
    return vector, widths, vector.astype(float), query_keys


def summary(counts, threshold):
    return int(counts.sum()), threshold  # coerces a local, not the knob
