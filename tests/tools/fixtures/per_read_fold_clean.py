"""Contractlint fixture: the clean twin of per_read_fold_violation."""

from repro.core.pipeline import MappingReport, ReadMapping


def _read_mapping(key, rows, outcome):
    # One object per call: the lazy per-read view's helper.
    return ReadMapping(key, rows, outcome)


def fold(total: MappingReport, batches):
    total.add(batches[0])  # one fold per report, outside any loop
    return list(map(_read_mapping, *zip(*batches[1:], strict=True)))


def seen(keys, catalog, segments):
    unique = set()
    for key in keys:
        unique.add(key)  # a set's add, not a report fold
    for name, rows in segments:
        catalog.add(name, rows)  # a catalog's add, not a report fold
    return unique
