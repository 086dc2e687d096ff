"""Tests for FASTA/FASTQ parsing and writing."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.genome.io_fasta import (
    FastaRecord,
    FastqRecord,
    parse_fasta,
    parse_fastq,
    write_fasta,
    write_fastq,
)
from repro.genome.sequence import DnaSequence

FASTA = """>chr1 human chromosome 1
ACGTACGT
ACGT
>chr2
GGGG
"""

FASTQ = """@read1
ACGT
+
IIII
@read2
GGCC
+
!!!!
"""


class TestFastaParsing:
    def test_parses_records(self):
        records = parse_fasta(io.StringIO(FASTA))
        assert [r.name for r in records] == ["chr1", "chr2"]
        assert str(records[0].sequence) == "ACGTACGTACGT"
        assert str(records[1].sequence) == "GGGG"

    def test_multiline_sequences_joined(self):
        records = parse_fasta(io.StringIO(">x\nAC\nGT\n"))
        assert str(records[0].sequence) == "ACGT"

    def test_data_before_header_rejected(self):
        with pytest.raises(DatasetError):
            parse_fasta(io.StringIO("ACGT\n>x\nAC\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(DatasetError):
            parse_fasta(io.StringIO(""))

    def test_ambiguity_error_policy(self):
        with pytest.raises(DatasetError, match="ambigu"):
            parse_fasta(io.StringIO(">x\nACNT\n"))

    def test_ambiguity_skip_policy(self):
        records = parse_fasta(io.StringIO(">x\nACNT\n"), ambiguous="skip")
        assert str(records[0].sequence) == "ACT"

    def test_ambiguity_random_policy_is_seeded(self):
        a = parse_fasta(io.StringIO(">x\nANNNT\n"), ambiguous="random",
                        seed=5)
        b = parse_fasta(io.StringIO(">x\nANNNT\n"), ambiguous="random",
                        seed=5)
        assert a[0].sequence == b[0].sequence
        assert len(a[0].sequence) == 5

    def test_round_trip(self):
        records = [FastaRecord("a", DnaSequence("ACGT" * 30)),
                   FastaRecord("b", DnaSequence("GG"))]
        buffer = io.StringIO()
        write_fasta(records, buffer)
        buffer.seek(0)
        parsed = parse_fasta(buffer)
        assert [(r.name, str(r.sequence)) for r in parsed] == [
            ("a", "ACGT" * 30), ("b", "GG")
        ]

    @pytest.mark.parametrize("policy", ["error", "skip", "random"])
    def test_lowercase_iupac_codes_follow_policy(self, policy):
        source = io.StringIO(">s\nACrGT\n")
        if policy == "error":
            with pytest.raises(DatasetError, match="ambigu"):
                parse_fasta(source, ambiguous=policy)
            return
        text = str(parse_fasta(source, ambiguous=policy)[0].sequence)
        if policy == "skip":
            assert text == "ACGT"
        else:
            assert len(text) == 5 and text[:2] + text[3:] == "ACGT"

    def test_write_wraps_lines(self):
        buffer = io.StringIO()
        write_fasta([FastaRecord("x", DnaSequence("A" * 100))], buffer,
                    width=60)
        lines = buffer.getvalue().splitlines()
        assert lines[1] == "A" * 60
        assert lines[2] == "A" * 40


class TestFastqParsing:
    def test_parses_records(self):
        records = parse_fastq(io.StringIO(FASTQ))
        assert [r.name for r in records] == ["read1", "read2"]
        assert str(records[0].sequence) == "ACGT"
        assert records[0].qualities.tolist() == [40, 40, 40, 40]
        assert records[1].qualities.tolist() == [0, 0, 0, 0]

    def test_bad_line_count(self):
        with pytest.raises(DatasetError):
            parse_fastq(io.StringIO("@x\nACGT\n+\n"))

    def test_bad_header(self):
        with pytest.raises(DatasetError):
            parse_fastq(io.StringIO("x\nACGT\n+\nIIII\n"))

    def test_skip_policy_rejected_for_fastq(self):
        with pytest.raises(DatasetError, match="desynchronise"):
            parse_fastq(io.StringIO("@x\nACNT\n+\nIIII\n"),
                        ambiguous="skip")

    def test_crlf_line_endings(self):
        records = parse_fastq(io.StringIO("@r1\r\nACGT\r\n+\r\nIIII\r\n"))
        assert str(records[0].sequence) == "ACGT"
        assert records[0].qualities.tolist() == [40, 40, 40, 40]

    def test_quality_outside_phred33_rejected(self):
        for quality in ("II I", "II\x7fI"):
            with pytest.raises(DatasetError, match="quality"):
                parse_fastq(io.StringIO(f"@r1\nACGT\n+\n{quality}\n"))

    @pytest.mark.parametrize("char,phred", [
        ("!", 0), ("+", 10), ("5", 20), ("?", 30), ("~", 93),
    ])
    def test_phred33_known_values(self, char, phred):
        records = parse_fastq(io.StringIO(f"@r1\nA\n+\n{char}\n"))
        assert records[0].qualities.tolist() == [phred]

    def test_quality_round_trip_full_range(self):
        qualities = np.arange(94, dtype=np.int16)
        record = FastqRecord("q", DnaSequence("ACGT" * 23 + "AC"), qualities)
        buffer = io.StringIO()
        write_fastq([record], buffer)
        buffer.seek(0)
        assert np.array_equal(parse_fastq(buffer)[0].qualities, qualities)

    @pytest.mark.parametrize("quality", [-1, 94])
    def test_out_of_range_quality_rejected(self, quality):
        with pytest.raises(DatasetError, match="Phred"):
            FastqRecord("x", DnaSequence("AC"),
                        np.array([30, quality], dtype=np.int16))

    def test_quality_length_mismatch(self):
        with pytest.raises(DatasetError):
            FastqRecord("x", DnaSequence("ACGT"),
                        np.array([40, 40], dtype=np.int16))

    def test_round_trip(self):
        records = parse_fastq(io.StringIO(FASTQ))
        buffer = io.StringIO()
        write_fastq(records, buffer)
        buffer.seek(0)
        again = parse_fastq(buffer)
        assert all(
            a.name == b.name and a.sequence == b.sequence
            and np.array_equal(a.qualities, b.qualities)
            for a, b in zip(records, again, strict=True)
        )
