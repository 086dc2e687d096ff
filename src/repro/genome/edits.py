"""Edit injection: substitutions, insertions, deletions.

The paper's datasets are built by extracting 256-base reads from the
reference and randomly injecting edits at configured rates
(Section V-A).  This module implements that injection with full
provenance: every injected edit is recorded in an :class:`EditPlan`, so
experiments know the *intended* edit count as well as being able to
compute the true edit distance afterwards.

Indels in real sequencers (and in the paper's Fig. 6 example, which
deletes a consecutive ``AA``) frequently occur in bursts.  The injector
therefore supports geometric burst lengths: after starting an indel
event, each additional adjacent base is included with probability
``burst_prob``.  ``burst_prob = 0`` gives pure i.i.d. single-base indels.

**Stream contract.**  The generator draws are part of a dataset's
identity: a read's edits, and every read sampled after it, depend on
exactly which values :func:`inject_edits` consumes, in which order.
The reference order is a per-base scan — one ``random()`` per base,
then the event's own scalar ``integers``/``random`` calls.  The
implementation finds the next event with one block ``random(n)``
draw, restores the saved ``bit_generator.state`` and redraws only the
doubles up to the event, so it consumes the same values in the same
order.  ``bit_generator.advance`` must not replace the restore: it
drops PCG64's buffered ``uint32`` half-word that a small-range
``integers`` call leaves behind, and the next ``integers`` draw moves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import EditModelError
from repro.genome import alphabet
from repro.genome.sequence import DnaSequence


#: Indel burst extension probability of the paper's two conditions.
CONDITION_BURST_PROB = 0.3


class EditKind(enum.Enum):
    """The three edit types of Fig. 1(a)."""

    SUBSTITUTION = "substitution"
    INSERTION = "insertion"
    DELETION = "deletion"


@dataclass(frozen=True)
class Edit:
    """A single injected edit.

    ``position`` indexes the *original* sequence: a substitution replaces
    the base at ``position``; an insertion inserts ``base`` *before*
    ``position``; a deletion removes the base at ``position``.
    """

    kind: EditKind
    position: int
    base: str = ""


@dataclass
class EditPlan:
    """The full set of edits applied to one sequence."""

    edits: list[Edit] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.edits)


@dataclass(frozen=True)
class ErrorModel:
    """Per-base error rates for edit injection.

    Attributes
    ----------
    substitution:
        Per-base substitution probability (``es`` in the paper).
    insertion:
        Per-base insertion probability (``ei``).
    deletion:
        Per-base deletion probability (``ed``).
    burst_prob:
        Probability of extending an indel event by one more base
        (geometric bursts; 0 disables bursts).
    """

    substitution: float = 0.0
    insertion: float = 0.0
    deletion: float = 0.0
    burst_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("substitution", "insertion", "deletion", "burst_prob"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise EditModelError(f"{name} rate must be in [0, 1), got {value}")
        total = self.substitution + self.insertion + self.deletion
        if total >= 1.0:
            raise EditModelError(f"total error rate must be < 1, got {total}")

    @property
    def indel_rate(self) -> float:
        """``eid = ei + ed`` as used by HDAC/TASR (Section IV)."""
        return self.insertion + self.deletion

    @property
    def total_rate(self) -> float:
        return self.substitution + self.insertion + self.deletion

    @classmethod
    def condition_a(cls) -> "ErrorModel":
        """Paper Condition A: es = 1 %, ei = ed = 0.05 %."""
        return cls(substitution=0.01, insertion=0.0005, deletion=0.0005,
                   burst_prob=CONDITION_BURST_PROB)

    @classmethod
    def condition_b(cls) -> "ErrorModel":
        """Paper Condition B: es = 0.1 %, ei = ed = 0.5 %."""
        return cls(substitution=0.001, insertion=0.005, deletion=0.005,
                   burst_prob=CONDITION_BURST_PROB)


def inject_edits(sequence: DnaSequence, model: ErrorModel,
                 rng: np.random.Generator) -> tuple[DnaSequence, EditPlan]:
    """Apply random edits to *sequence* according to *model*.

    The scan walks the original sequence once.  At each position an
    event is drawn: substitution, insertion (before the base), deletion,
    or none.  Indel events extend into geometric bursts when
    ``model.burst_prob > 0``.  Substitutions always change the base (a
    random *different* base is drawn), so every recorded substitution is
    a real edit.

    Returns the edited sequence (whose length may differ from the input
    when indels fired) and the :class:`EditPlan` recording every edit.
    """
    source = sequence.codes
    out: list[int] = []
    plan = EditPlan()
    p_sub, p_ins, p_del = model.substitution, model.insertion, model.deletion
    p_event = model.total_rate
    bit_generator = rng.bit_generator
    i = 0
    n = len(source)
    while i < n:
        # Find the next event with one block draw, then rewind and
        # consume exactly the doubles the scalar scan would have used
        # up to and including it (see the module docstring).
        state = bit_generator.state
        block = rng.random(n - i)
        j = int(np.argmax(block < p_event))
        x = block[j]
        if x >= p_event:
            out.extend(source[i:].tolist())
            break
        bit_generator.state = state
        rng.random(j + 1)
        out.extend(source[i:i + j].tolist())
        i += j
        if x < p_sub:
            new_code = _different_base(int(source[i]), rng)
            plan.edits.append(Edit(EditKind.SUBSTITUTION, i,
                                   alphabet.CODE_TO_BASE[new_code]))
            out.append(new_code)
            i += 1
        elif x < p_sub + p_ins:
            # Insert a burst of random bases before position i.
            while True:
                code = int(rng.integers(0, alphabet.ALPHABET_SIZE))
                plan.edits.append(Edit(EditKind.INSERTION, i,
                                       alphabet.CODE_TO_BASE[code]))
                out.append(code)
                if rng.random() >= model.burst_prob:
                    break
            out.append(int(source[i]))
            i += 1
        else:
            # Delete a burst of consecutive bases starting at i.
            while i < n:
                plan.edits.append(Edit(EditKind.DELETION, i,
                                       alphabet.CODE_TO_BASE[int(source[i])]))
                i += 1
                if rng.random() >= model.burst_prob:
                    break
    edited = DnaSequence(np.array(out, dtype=np.uint8))
    return edited, plan


def _different_base(code: int, rng: np.random.Generator) -> int:
    """Draw a base code uniformly among the three codes != *code*."""
    return int((code + rng.integers(1, alphabet.ALPHABET_SIZE))
               % alphabet.ALPHABET_SIZE)
