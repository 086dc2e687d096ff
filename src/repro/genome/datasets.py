"""Metagenomic evaluation dataset builders (Section V-A).

The paper's accuracy experiments work as follows:

* the reference (human genome) is *segmented*: consecutive windows of the
  read length are stored, one per CAM row;
* 256-base reads are extracted from random positions and edits are
  injected at the Condition A or B rates;
* each read is searched against every stored segment, and the decision
  for each (read, segment) pair is compared with ground truth
  (``ED <= T``) to produce the confusion matrix behind the F1 score.

For a read to have any true match at all, its origin must coincide with
a stored segment, so the sampler here draws origins on the segment grid.
Every other stored segment is a negative candidate — mostly easy ones,
but the synthetic reference's repeat structure (and low-complexity
regions) produce hard near-duplicates exactly like real genomes do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.genome.edits import ErrorModel
from repro.genome.generator import ReferenceGenerator
from repro.genome.reads import MIN_SLACK, ReadRecord, ReadSampler
from repro.genome.sequence import DnaSequence

def resolve_condition(condition: "str | ErrorModel") -> ErrorModel:
    """Turn ``"A"``/``"B"`` (or an explicit model) into an ErrorModel."""
    if isinstance(condition, ErrorModel):
        return condition
    label = str(condition).strip().upper()
    if label == "A":
        return ErrorModel.condition_a()
    if label == "B":
        return ErrorModel.condition_b()
    raise DatasetError(
        f"unknown condition {condition!r}; expected 'A', 'B' or an ErrorModel"
    )


@dataclass
class Dataset:
    """A built evaluation dataset.

    Attributes
    ----------
    reference:
        The full synthetic reference sequence.
    segments:
        ``(n_segments, read_length)`` uint8 matrix of stored reference
        segments — exactly the contents of the CAM rows.
    reads:
        Sampled, edit-injected reads with provenance.
    model:
        The error model used for injection.
    condition:
        ``"A"``, ``"B"`` or ``"custom"``.
    """

    reference: DnaSequence
    segments: np.ndarray
    reads: list[ReadRecord]
    model: ErrorModel
    condition: str

    @property
    def n_segments(self) -> int:
        return int(self.segments.shape[0])

    @property
    def read_length(self) -> int:
        return int(self.segments.shape[1])

    def segment(self, index: int) -> DnaSequence:
        """The *index*-th stored segment as a sequence object."""
        return DnaSequence(self.segments[index])


def build_dataset(condition: "str | ErrorModel" = "A",
                  n_reads: int = 128,
                  read_length: int = 256,
                  n_segments: int = 256,
                  seed: int = 0,
                  with_repeats: bool = True) -> Dataset:
    """Build a metagenomic evaluation dataset.

    Parameters
    ----------
    condition:
        ``"A"`` (substitution dominant), ``"B"`` (indel dominant) or an
        explicit :class:`~repro.genome.edits.ErrorModel` (the
        conditions' indel bursts extend with probability
        ``CONDITION_BURST_PROB``).
    n_reads:
        Number of reads to sample.
    read_length:
        Read and segment length (paper: 256).
    n_segments:
        Number of stored reference segments (paper: 256 rows per array).
    seed:
        Master seed; reference generation and read sampling derive
        independent streams from it.
    with_repeats:
        Disable to get a pure i.i.d. reference (unit tests).

    The three sizes must be positive integers and *seed* an integer
    (:class:`~repro.errors.DatasetError`): ``True`` is not one read and
    ``2.7`` is not seed 2.
    """
    # Function-level: repro.knobs sits above this layer (CL501).
    from repro.knobs import check_count, check_integer

    for name, value in (("n_reads", n_reads), ("read_length", read_length),
                        ("n_segments", n_segments)):
        check_count(name, check_integer(name, value, DatasetError),
                    DatasetError)
    seed = check_integer("seed", seed, DatasetError)
    model = resolve_condition(condition)
    label = condition if isinstance(condition, str) else "custom"

    # Reference long enough for all segments plus sampler slack (the
    # floor only matters below 4-base reads, which it makes buildable).
    slack_margin = max(4 * read_length, MIN_SLACK)
    ref_length = n_segments * read_length + slack_margin
    reference = ReferenceGenerator(repeats=with_repeats,
                                   seed=seed).generate(ref_length)

    segments = np.stack([
        reference.codes[i * read_length : (i + 1) * read_length]
        for i in range(n_segments)
    ])

    sampler = ReadSampler(reference, read_length, model, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    reads = []
    for _ in range(n_reads):
        segment_index = int(rng.integers(0, n_segments))
        reads.append(sampler.sample_at(segment_index * read_length))

    return Dataset(reference=reference, segments=segments, reads=reads,
                   model=model, condition=str(label))
