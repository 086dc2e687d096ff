"""Minimal FASTA/FASTQ reading and writing.

Real references (e.g. the NCBI human genome the paper uses) arrive as
FASTA; sequencer reads arrive as FASTQ.  This module parses both into
library types so every experiment can run on real data when it is
available, falling back to the synthetic generator otherwise.

Ambiguity codes: real assemblies contain ``N`` runs (and rarer IUPAC
codes), upper or lower case.  The CAM hardware stores exactly two bits
per base, so ambiguous characters must be resolved at parse time.  Three
policies are offered:

* ``"error"`` — refuse the file (default; safest);
* ``"skip"`` — drop ambiguous characters from the sequence;
* ``"random"`` — replace each with a random concrete base (seeded).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO, Union

import numpy as np

from repro.errors import DatasetError
from repro.genome import alphabet
from repro.genome.sequence import DnaSequence

_AMBIGUOUS = frozenset("NRYSWKMBDHV" + "NRYSWKMBDHV".lower())
_RESOLUTIONS = ("error", "skip", "random")


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: header (without ``>``) and sequence."""

    name: str
    sequence: DnaSequence


@dataclass(frozen=True)
class FastqRecord:
    """One FASTQ record: name, sequence and per-base Phred qualities."""

    name: str
    sequence: DnaSequence
    qualities: np.ndarray

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.qualities):
            raise DatasetError(
                f"FASTQ record {self.name!r}: sequence length "
                f"{len(self.sequence)} != quality length {len(self.qualities)}"
            )
        if len(self.qualities) and not (
                0 <= self.qualities.min() and self.qualities.max() <= 93):
            raise DatasetError(
                f"FASTQ record {self.name!r}: Phred+33 qualities must be "
                "in 0..93"
            )


def _clean(raw: str, ambiguous: str, rng: np.random.Generator) -> str:
    """Apply the ambiguity policy to a raw sequence string."""
    if ambiguous not in _RESOLUTIONS:
        raise DatasetError(
            f"ambiguous policy must be one of {_RESOLUTIONS}, got {ambiguous!r}"
        )
    if all(ch not in _AMBIGUOUS for ch in raw):
        return raw
    if ambiguous == "error":
        raise DatasetError(
            "sequence contains ambiguity codes (e.g. 'N'); pass "
            "ambiguous='skip' or ambiguous='random' to resolve them"
        )
    if ambiguous == "skip":
        return "".join(ch for ch in raw if ch not in _AMBIGUOUS)
    out = []
    for ch in raw:
        if ch in _AMBIGUOUS:
            out.append(alphabet.BASES[int(rng.integers(0, 4))])
        else:
            out.append(ch)
    return "".join(out)


def _policy_rng(seed: int) -> np.random.Generator:
    # Function-level: repro.knobs sits above this layer (CL501).
    from repro.knobs import check_integer

    return np.random.default_rng(check_integer("seed", seed, DatasetError))


def _open(source: Union[str, Path, TextIO]) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="ascii")
    return source


def parse_fasta(source: Union[str, Path, TextIO], ambiguous: str = "error",
                seed: int = 0) -> list[FastaRecord]:
    """Parse all records of a FASTA file or file-like object.

    *seed* keys the ``"random"`` ambiguity policy; an integer
    (:class:`~repro.errors.DatasetError` otherwise, never truncated).
    """
    rng = _policy_rng(seed)
    handle = _open(source)
    close = isinstance(source, (str, Path))
    records: list[FastaRecord] = []
    try:
        name: str | None = None
        chunks: list[str] = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    records.append(_finish_fasta(name, chunks, ambiguous, rng))
                name = line[1:].split()[0] if len(line) > 1 else ""
                chunks = []
            else:
                if name is None:
                    raise DatasetError("FASTA data before first '>' header")
                chunks.append(line)
        if name is not None:
            records.append(_finish_fasta(name, chunks, ambiguous, rng))
    finally:
        if close:
            handle.close()
    if not records:
        raise DatasetError("no FASTA records found")
    return records


def _finish_fasta(name: str, chunks: list[str], ambiguous: str,
                  rng: np.random.Generator) -> FastaRecord:
    cleaned = _clean("".join(chunks), ambiguous, rng)
    return FastaRecord(name=name, sequence=DnaSequence(cleaned))


def write_fasta(records: Iterable[FastaRecord],
                destination: Union[str, Path, TextIO],
                width: int = 70) -> None:
    """Write records in wrapped FASTA format."""
    handle = _open(destination) if not isinstance(destination, (str, Path)) \
        else open(destination, "w", encoding="ascii")
    close = isinstance(destination, (str, Path))
    try:
        for record in records:
            handle.write(f">{record.name}\n")
            text = str(record.sequence)
            for i in range(0, len(text), width):
                handle.write(text[i : i + width] + "\n")
    finally:
        if close:
            handle.close()


def parse_fastq(source: Union[str, Path, TextIO], ambiguous: str = "error",
                seed: int = 0) -> list[FastqRecord]:
    """Parse all records of a FASTQ file or file-like object (*seed*
    as for :func:`parse_fasta`)."""
    rng = _policy_rng(seed)
    handle = _open(source)
    close = isinstance(source, (str, Path))
    records: list[FastqRecord] = []
    try:
        lines = [line.rstrip("\r\n") for line in handle if line.strip()]
    finally:
        if close:
            handle.close()
    if len(lines) % 4 != 0:
        raise DatasetError(
            f"FASTQ line count {len(lines)} is not a multiple of 4"
        )
    for i in range(0, len(lines), 4):
        header, seq_line, plus, qual_line = lines[i : i + 4]
        if not header.startswith("@"):
            raise DatasetError(f"FASTQ record {i // 4}: header must start with '@'")
        if not plus.startswith("+"):
            raise DatasetError(f"FASTQ record {i // 4}: separator must start with '+'")
        cleaned = _clean(seq_line, ambiguous, rng)
        if ambiguous == "skip" and len(cleaned) != len(seq_line):
            raise DatasetError(
                "ambiguous='skip' would desynchronise FASTQ qualities; "
                "use 'random' or 'error' for FASTQ"
            )
        if any(not "!" <= c <= "~" for c in qual_line):
            raise DatasetError(
                f"FASTQ record {i // 4}: quality characters must be in '!'..'~'"
            )
        qualities = np.array([ord(c) - 33 for c in qual_line], dtype=np.int16)
        records.append(FastqRecord(name=header[1:].split()[0],
                                   sequence=DnaSequence(cleaned),
                                   qualities=qualities))
    if not records:
        raise DatasetError("no FASTQ records found")
    return records


def write_fastq(records: Iterable[FastqRecord],
                destination: Union[str, Path, TextIO]) -> None:
    """Write records in FASTQ format (Phred+33)."""
    handle = _open(destination) if not isinstance(destination, (str, Path)) \
        else open(destination, "w", encoding="ascii")
    close = isinstance(destination, (str, Path))
    try:
        for record in records:
            quality_text = "".join(chr(int(q) + 33) for q in record.qualities)
            handle.write(f"@{record.name}\n{record.sequence}\n+\n{quality_text}\n")
    finally:
        if close:
            handle.close()
