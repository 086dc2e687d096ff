"""Contractlint fixture: the clean twin of one_parallelism_violation."""

import threading


class Session:
    def __init__(self):
        self._lock = threading.Lock()  # a lock starts no thread
        self._done = threading.Event()

    def run(self, work, items):
        # The batch runs on the calling thread.
        with self._lock:
            return [work(item) for item in items]

    def workers(self):
        return threading.active_count()
