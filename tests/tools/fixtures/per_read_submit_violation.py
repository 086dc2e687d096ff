"""Contractlint fixture: seeded CL106 per-read submits in the service."""

import itertools


def feed(session, reads):
    for read in reads:
        session.submit(read)  # expect: CL106
    return len(reads)


def feed_until(service, reads, limit):
    index = 0
    while index < limit:
        service.submit(reads[index])  # expect: CL106
        index += 1


def feed_all(sessions, reads):
    return [session.submit(read)  # expect: CL106
            for session, read in zip(itertools.cycle(sessions), reads, strict=False)]
