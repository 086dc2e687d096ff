"""Contractlint fixture: seeded CL107 thread and pool constructions."""

import concurrent.futures
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from threading import Thread


def start_workers(loop, n):
    threads = [threading.Thread(target=loop) for _ in range(n)]  # expect: CL107
    threads.append(Thread(target=loop))  # expect: CL107
    return threads


def fan_out(work, items):
    with ThreadPoolExecutor(max_workers=2) as pool:  # expect: CL107
        list(pool.map(work, items))
    with concurrent.futures.ProcessPoolExecutor() as pool:  # expect: CL107
        list(pool.map(work, items))
    return ProcessPoolExecutor  # a name, not a construction
