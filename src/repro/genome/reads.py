"""Read extraction with provenance.

The evaluation extracts fixed-length reads (256 bases) from random
positions of the reference and injects edits (Section V-A).  The CAM
hardware needs reads of *exactly* the row width, while indel injection
changes the sequence length, so the sampler works on a slightly wider
window and truncates:

1. take a window of ``length + slack`` reference bases at the origin;
2. inject edits over the window;
3. keep the first ``length`` bases of the edited window.

This mirrors how a sequencer behaves — it emits a fixed number of base
calls from the start of the fragment regardless of how many underlying
bases were skipped or duplicated.  The trailing slack guarantees a full-
length read survives even when deletions fire (slack is sized to make
underflow astronomically unlikely, and the sampler raises if it ever
happens rather than padding with invented bases).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.genome.edits import EditPlan, ErrorModel, inject_edits
from repro.genome.sequence import DnaSequence


@dataclass(frozen=True)
class ReadRecord:
    """A sampled read plus everything needed to score it later.

    Attributes
    ----------
    read:
        The edited, fixed-length read sequence.
    origin:
        Start position of the source window in the reference.
    plan:
        Every edit injected into the (wider) source window.  Edits at
        window positions beyond the kept prefix may not affect the final
        read; the *true* edit distance should always be computed against
        the reference segment, not inferred from this plan.
    model:
        The error model used for injection (HDAC/TASR consume its rates).
    """

    read: DnaSequence
    origin: int
    plan: EditPlan
    model: ErrorModel

    def __len__(self) -> int:
        return len(self.read)


#: Fewest extra reference bases a sampler takes beyond ``read_length``.
MIN_SLACK = 16


class ReadSampler:
    """Samples fixed-length, edit-injected reads from a reference.

    Parameters
    ----------
    reference:
        The reference sequence to sample from.
    read_length:
        Final read length (the paper uses 256).
    model:
        Error model for edit injection.
    seed:
        Seed for the internal random generator.

    The window taken beyond ``read_length`` before edit injection (the
    slack) absorbs a >=6-sigma deletion excursion, with a floor of
    :data:`MIN_SLACK`.
    """

    def __init__(self, reference: DnaSequence, read_length: int,
                 model: ErrorModel, seed: int = 0):
        if read_length <= 0:
            raise DatasetError(f"read_length must be positive, got {read_length}")
        if len(reference) < read_length:
            raise DatasetError(
                f"reference ({len(reference)} bases) shorter than "
                f"read_length ({read_length})"
            )
        expected_deletions = read_length * model.deletion
        burst_factor = 1.0 / max(1e-9, 1.0 - model.burst_prob)
        slack = max(MIN_SLACK, int(6 * (expected_deletions * burst_factor + 2)))
        if len(reference) < read_length + slack:
            slack = len(reference) - read_length
        self._reference = reference
        self._read_length = read_length
        self._model = model
        self._slack = slack
        self._rng = np.random.default_rng(seed)

    @property
    def read_length(self) -> int:
        return self._read_length

    @property
    def model(self) -> ErrorModel:
        return self._model

    def sample(self) -> ReadRecord:
        """Sample one read at a uniformly random origin."""
        max_origin = len(self._reference) - self._read_length - self._slack
        origin = int(self._rng.integers(0, max_origin + 1))
        return self.sample_at(origin)

    def sample_at(self, origin: int) -> ReadRecord:
        """Sample one read at a fixed origin (still random edits)."""
        window_len = self._read_length + self._slack
        if origin < 0 or origin + window_len > len(self._reference):
            raise DatasetError(
                f"origin {origin} with window {window_len} exceeds reference "
                f"of length {len(self._reference)}"
            )
        window = self._reference.window(origin, window_len)
        edited, plan = inject_edits(window, self._model, self._rng)
        if len(edited) < self._read_length:
            raise DatasetError(
                "edited window shorter than read length "
                f"(got {len(edited)}, need {self._read_length})"
            )
        read = edited[: self._read_length]
        return ReadRecord(read=read, origin=origin, plan=plan,
                          model=self._model)

    def sample_batch(self, count: int) -> list[ReadRecord]:
        """Sample *count* independent reads."""
        if count < 0:
            raise DatasetError(f"count must be non-negative, got {count}")
        return [self.sample() for _ in range(count)]
