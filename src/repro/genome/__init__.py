"""Genomics substrate: sequences, synthetic references, reads, datasets.

This subpackage provides everything the accelerator models consume:

* :mod:`repro.genome.alphabet` — 2-bit base encoding;
* :mod:`repro.genome.sequence` — the immutable :class:`DnaSequence`;
* :mod:`repro.genome.generator` — synthetic human-like references;
* :mod:`repro.genome.edits` — substitution/indel injection with provenance;
* :mod:`repro.genome.reads` — fixed-length read sampling;
* :mod:`repro.genome.kmer` — k-mer indexing (seeding baselines);
* :mod:`repro.genome.io_fasta` — FASTA/FASTQ I/O;
* :mod:`repro.genome.datasets` — the paper's Condition A/B datasets.
"""

from repro.genome.alphabet import BASES, decode, encode
from repro.genome.datasets import Dataset, build_dataset, resolve_condition
from repro.genome.edits import Edit, EditKind, EditPlan, ErrorModel, inject_edits
from repro.genome.generator import (
    ReferenceGenerator,
    generate_reference,
)
from repro.genome.kmer import KmerIndex, iter_kmers
from repro.genome.reads import ReadRecord, ReadSampler
from repro.genome.sequence import DnaSequence

__all__ = [
    "BASES",
    "Dataset",
    "DnaSequence",
    "Edit",
    "EditKind",
    "EditPlan",
    "ErrorModel",
    "KmerIndex",
    "ReadRecord",
    "ReadSampler",
    "ReferenceGenerator",
    "build_dataset",
    "decode",
    "encode",
    "generate_reference",
    "inject_edits",
    "iter_kmers",
    "resolve_condition",
]
