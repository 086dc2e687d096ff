"""repro — a reproduction of ASMCap (DAC 2023).

ASMCap is an approximate-string-matching accelerator for genome
sequence analysis built on capacitive multi-level content-addressable
memories.  This library re-implements the full system in Python:

* :mod:`repro.genome` — genomics substrate (sequences, synthetic
  references, edit injection, datasets, FASTA/FASTQ, k-mers);
* :mod:`repro.distance` — distance kernels (ED ground truth, HD, the
  neighbour-tolerant ED* estimate);
* :mod:`repro.cam` — behavioural circuit models of the charge- and
  current-domain ML-CAM arrays (variation, energy, sensing);
* :mod:`repro.core` — the paper's contribution: the matching flow with
  the HDAC and TASR misjudgment-correction strategies;
* :mod:`repro.cost` — unified cost accounting: typed hardware events
  collected in a ledger, with energy/latency/power as derived views
  and measured strategy profiles for Fig. 8;
* :mod:`repro.arch` — timing/power models and autotuning;
* :mod:`repro.service` — the long-running streaming entry point:
  incremental read feed, autotuned micro-batches, bounded-memory
  ledgers via compaction;
* :mod:`repro.baselines` — EDAM, CM-CPU, ReSMA, SaVI, Kraken-like;
* :mod:`repro.eval` — F1 evaluation machinery;
* :mod:`repro.experiments` — drivers regenerating every paper artifact.

Quick start::

    from repro.genome import build_dataset
    from repro.cam import CamArray
    from repro.core import AsmCapMatcher

    dataset = build_dataset("A", n_reads=32, n_segments=64)
    array = CamArray(rows=64, cols=256)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(array, dataset.model)
    outcome = matcher.match(dataset.reads[0].read.codes, threshold=4)
"""

from repro import constants
from repro.errors import (
    AlphabetError,
    ArchConfigError,
    CamConfigError,
    DatasetError,
    EditModelError,
    ExperimentError,
    LedgerCompactionError,
    ReproError,
    SequenceError,
    ServiceError,
    ThresholdError,
)

__version__ = "1.0.0"

__all__ = [
    "AlphabetError",
    "ArchConfigError",
    "CamConfigError",
    "DatasetError",
    "EditModelError",
    "ExperimentError",
    "LedgerCompactionError",
    "ReproError",
    "SequenceError",
    "ServiceError",
    "ThresholdError",
    "constants",
    "__version__",
]
