#!/usr/bin/env python
"""Quickstart: every execution path of the ASMCap reproduction.

Walks the public API end to end — one workload through the scalar,
batched, sweep and streaming-service engines — asserting the
determinism contracts between them along the way.

The ``# [readme:<name>]`` markers delimit the code blocks the README's
quickstart embeds verbatim: ``tools/check_docs.py`` executes the
README blocks *and* diffs them against these sections, so the front
door and this example cannot drift apart.  Edit here, then mirror the
block into README.md (the CI ``docs-smoke`` job fails on any
mismatch).

Run:  python examples/quickstart.py
"""

from __future__ import annotations


def main() -> None:
    # [readme:setup]
    import numpy as np

    from repro.cam import CamArray
    from repro.core import AsmCapMatcher, MatcherConfig
    from repro.genome import build_dataset

    # Condition A of the paper (1 % substitutions, 0.05 % indels):
    # a synthetic reference cut into 64 stored segments, plus 24
    # error-injected reads sampled from it.
    dataset = build_dataset("A", n_reads=24, read_length=128,
                            n_segments=64, seed=7)
    reads = np.stack([record.read.codes for record in dataset.reads])

    # A charge-domain ML-CAM array holding the reference, and the full
    # ASMCap matching flow (ED* base search + HDAC + TASR) over it.
    array = CamArray(rows=64, cols=128, domain="charge", seed=1)
    array.store(dataset.segments)
    matcher = AsmCapMatcher(array, dataset.model, MatcherConfig(), seed=1)
    # [/readme:setup]

    # [readme:scalar]
    # Scalar path: one read, one match() call.  query_key pins the
    # keyed noise streams, making this row reproducible on every
    # other execution path.
    outcome = matcher.match(reads[0], threshold=4, query_key=0)
    matched_rows = [int(i) for i in outcome.decisions.nonzero()[0]]
    print(f"scalar : read 0 matched rows {matched_rows} "
          f"({outcome.n_searches} searches, "
          f"{outcome.energy_joules * 1e12:.1f} pJ)")
    # [/readme:scalar]
    assert matched_rows, "read 0 should map somewhere"

    # [readme:batched]
    # Batched path: the whole block in vectorised passes.  Row q is
    # bit-identical to match(reads[q], threshold, query_key=q).
    from repro.core import ReadMappingPipeline

    pipeline = ReadMappingPipeline(matcher)
    report = pipeline.run_batched(reads, threshold=4)
    print(f"batched: {report.n_reads} reads, "
          f"{report.mapped_fraction:.2f} mapped, "
          f"{report.total_energy_joules * 1e9:.2f} nJ total")
    assert report.mappings[0].matched_rows == tuple(matched_rows)
    # [/readme:batched]

    # [readme:sweep]
    # Sweep path: a whole threshold sweep in ONE count+noise pass per
    # search — slice t is bit-identical to the batched path at
    # thresholds[t] (this is what makes Fig. 7 curves cheap).
    thresholds = np.arange(2, 9)
    sweep = matcher.match_sweep(reads, thresholds)
    at_4 = sweep.at_threshold(4)
    assert np.array_equal(
        np.flatnonzero(at_4[0]), np.asarray(matched_rows))
    print(f"sweep  : {thresholds.size} thresholds in "
          f"{int(sweep.n_searches.max())} passes/read worst-case")
    # [/readme:sweep]

    # [readme:service]
    # Streaming service: reads arrive incrementally, are coalesced
    # into autotuned micro-batches, and the cost ledger always
    # compacts, so memory stays bounded — while the final report is
    # bit-identical to the one-shot batched run above, for any
    # micro-batch boundaries.
    from repro.service import StreamingMappingService

    service = StreamingMappingService(dataset.segments, dataset.model,
                                      threshold=4, micro_batch=8, seed=1)
    service.submit_many(iter(reads))
    streamed = service.close()
    stats = service.stats()
    assert streamed.total_energy_joules == report.total_energy_joules
    print(f"service: {stats.reads_dispatched} reads in "
          f"{stats.batches_dispatched} micro-batches, "
          f"{stats.compactions} ledger compactions, "
          f"pass counts {stats.pass_counts}")
    # [/readme:service]

    # [readme:frontend]
    # Multi-session frontend: the reference is encoded and stored
    # ONCE (a shared StoredReference) and many concurrent sessions
    # are opened over it, each run on the thread that feeds it.
    # Each session keeps its own seed/threshold/ledgers, so it is
    # bit-identical to a standalone service with the same settings.
    from repro.service import MappingFrontend

    with MappingFrontend(dataset.segments, dataset.model) as frontend:
        alice = frontend.session(threshold=4, seed=1, micro_batch=8)
        bob = frontend.session(threshold=5, seed=2)
        alice.submit_many(iter(reads))
        bob.submit_many(iter(reads))
        alice_report, bob_report = alice.close(), bob.close()
    # alice used the same seed/threshold/micro-batch as the service
    # above -> her session reproduces it bit for bit...
    assert alice_report.total_energy_joules == streamed.total_energy_joules
    # ...and the reference was encoded once for both sessions.
    print(f"frontend: {frontend.encode_count()} encode for "
          f"{len(frontend.sessions)} sessions; alice mapped "
          f"{alice_report.n_mapped}, bob mapped {bob_report.n_mapped}")
    # [/readme:frontend]

    # [readme:catalog]
    # Reference store: encode once, save the encoded arrays to disk,
    # and boot every later run straight off the file by mmap — zero
    # copy, zero encode passes.  A ReferenceCatalog maps names to
    # store files (lazy opens, byte-budgeted LRU eviction that never
    # unmaps a reference a session is using); a catalog frontend
    # names the reference per session instead of taking segments.
    import shutil
    import tempfile
    from pathlib import Path

    from repro.cam import StoredReference
    from repro.refstore import ReferenceCatalog

    store_dir = Path(tempfile.mkdtemp())
    catalog = ReferenceCatalog()
    catalog.store("chr1", StoredReference.encode(dataset.segments),
                  store_dir / "chr1.asmcap")
    with MappingFrontend(None, dataset.model, catalog=catalog) as served:
        warm = served.session(threshold=4, seed=1, micro_batch=8,
                              reference="chr1")
        warm.submit_many(iter(reads))
        warm_report = warm.close()
        encodes = served.encode_count()
    # Same seed/threshold/micro-batch as the streaming service above:
    # the mmap-served session reproduces it bit for bit, re-encoding
    # nothing.
    assert warm_report.total_energy_joules == streamed.total_energy_joules
    assert encodes == 0
    print(f"catalog: warm boot mapped {warm_report.n_mapped} reads "
          f"with {encodes} encode passes, "
          f"{catalog.stats().resident_bytes / 1024:.0f} KiB mapped")
    catalog.close()
    shutil.rmtree(store_dir)
    # [/readme:catalog]

    # [readme:kernel]
    # Count kernel: one float32 GEMM computes every mismatch count the
    # searches decide on, exactly the boolean comparison's, in every mode.
    from repro.cam.cell import MatchMode
    from repro.distance.ed_star import mismatch_counts_all_reads

    counts = array.mismatch_counts_batch(reads, MatchMode.ED_STAR)
    assert np.array_equal(counts,
                          mismatch_counts_all_reads(dataset.segments, reads))
    hamming = array.mismatch_counts_batch(reads, MatchMode.HAMMING)
    assert np.array_equal(hamming, (reads[:, None, :]
                                    != dataset.segments[None]).sum(axis=2))
    print(f"kernel : {array.backend} counts == the boolean oracle over "
          f"{counts.size} (read, row) pairs")
    # [/readme:kernel]

    print("OK: scalar, batched, sweep, streaming, multi-session and "
          "catalog-served paths agree, and the kernel counts exactly.")


if __name__ == "__main__":
    main()
