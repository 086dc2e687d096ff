"""Contractlint fixture: the clean twin of per_read_submit_violation."""

import itertools


def feed(session, reads):
    return session.submit_many(reads)  # one call, whole slices


def feed_one(session, read):
    session.submit(read)  # the one-read entry, outside any loop


def feed_in_slices(service, reads, micro_batch):
    reads = iter(reads)
    while service.submit_many(itertools.islice(reads, micro_batch)):
        pass

