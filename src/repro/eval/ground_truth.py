"""Ground-truth labelling: exact edit distances for every decision pair.

The ASM goal (Section II-B) defines truth: a (read, segment) pair is a
true match at threshold ``T`` iff ``ED(segment, read) <= T``.  The
labeller computes the full ``(n_reads, n_segments)`` distance matrix
once with the batched banded DP — behind the exact q-gram (Ukkonen)
and base-composition lower-bound prefilters of
:mod:`repro.distance.edit_distance`, which prove most pairs "greater
than band" without running their DP — capped just above the largest
threshold any experiment will ask about, and answers every subsequent
threshold query with a comparison.  The thresholds and the margin are
integers (:class:`~repro.errors.ExperimentError` otherwise): ``True``
is not threshold 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distance.edit_distance import banded_edit_distance_batch
from repro.errors import ExperimentError
from repro.genome.datasets import Dataset
from repro.knobs import check_integer

#: Extra DP band beyond the largest queried threshold, keeping the
#: distance cap comfortably above every threshold.
BAND_MARGIN = 2


@dataclass(frozen=True)
class GroundTruth:
    """Capped exact-distance matrix with threshold queries.

    Attributes
    ----------
    distances:
        ``(n_reads, n_segments)`` int matrix; entries above ``band``
        hold ``band + 1`` ("greater than band").
    band:
        The cap; thresholds up to this value are answerable exactly.
    """

    distances: np.ndarray
    band: int

    def labels(self, threshold: int) -> np.ndarray:
        """Boolean truth matrix at *threshold*."""
        threshold = check_integer("threshold", threshold, ExperimentError)
        if not 0 <= threshold <= self.band:
            raise ExperimentError(
                f"threshold {threshold} outside labelled band 0..{self.band}"
            )
        return self.distances <= threshold

    @property
    def n_reads(self) -> int:
        return int(self.distances.shape[0])

    @property
    def n_segments(self) -> int:
        return int(self.distances.shape[1])


def label_dataset(dataset: Dataset, max_threshold: int) -> GroundTruth:
    """Compute ground truth for every (read, segment) pair of a dataset.

    Parameters
    ----------
    dataset:
        The evaluation dataset.
    max_threshold:
        Largest threshold any experiment will query; the DP band is
        ``max_threshold + BAND_MARGIN``.
    """
    max_threshold = check_integer("max_threshold", max_threshold,
                                  ExperimentError)
    if max_threshold < 0:
        raise ExperimentError(
            f"max_threshold must be non-negative, got {max_threshold}"
        )
    band = max_threshold + BAND_MARGIN
    if not dataset.reads:
        # A zero-read dataset labels to an empty truth matrix (valid
        # degenerate input for a streaming caller).
        return GroundTruth(
            distances=np.zeros((0, dataset.n_segments), dtype=np.int32),
            band=band,
        )
    reads = np.stack([record.read.codes for record in dataset.reads])
    distances = banded_edit_distance_batch(dataset.segments, reads, band)
    return GroundTruth(distances=distances, band=band)
