"""Tests for docs-smoke's module-map and signature-block guarantees
(``tools/check_docs.py``)."""

from __future__ import annotations

from tools.check_docs import (
    API_DOC,
    check_module_map,
    check_signatures,
    expand_alternatives,
    module_map_entries,
    signature_keywords,
    strip_parentheticals,
)


def _module_map(*rows: str) -> str:
    return "\n".join([
        "# API", "", "## Module map", "",
        "| Package | What | Main entry points |",
        "|---|---|---|",
        *rows,
        "", "## Next section", "",
        "| `repro.arch` | outside the map | `NotChecked` |",
    ])


def test_strip_parentheticals_removes_nested_groups():
    text = "`A` (`b(..., c=)`, `d`), `E` (`f`)"
    assert strip_parentheticals(text) == "`A` , `E` "


def test_expand_alternatives():
    assert expand_alternatives("ErrorModel.condition_a/b") == [
        "ErrorModel.condition_a", "ErrorModel.condition_b"]
    assert expand_alternatives("plan_shards") == ["plan_shards"]


def test_entries_skip_method_lists_commands_and_paths():
    text = _module_map(
        "| `repro.cam` | arrays (`not_an_entry`) | `CamArray` "
        "(`search_batch(..., rotations=)`, `stats`), `keyed_noise` |",
        "| `tools.contractlint` | linter | `python -m tools.contractlint` "
        "(`--json`), `lint_source` (driver: `tools/chaos_soak.py`) |",
    )
    assert module_map_entries(text) == [
        ("repro.cam", ["CamArray", "keyed_noise"]),
        ("tools.contractlint", ["lint_source"]),
    ]


def test_package_and_submodule_attributes_resolve():
    text = _module_map(
        "| `repro.experiments` | drivers | `fig8.asmcap_read_cost`, "
        "`table1` |",
        "| `repro.genome` | substrate | `ErrorModel.condition_a/b` |",
    )
    assert check_module_map(text) == []


def test_a_deleted_entry_point_is_reported():
    text = _module_map(
        "| `repro.arch` | timing, power, autotune | `RetiredSystemModel` "
        "(`match_batch`), `plan_microbatch` |",
    )
    assert check_module_map(text) == [
        "docs/api.md module map: `RetiredSystemModel` is not an attribute "
        "of repro.arch or its submodules"]


def test_method_lists_resolve_on_their_owner():
    # `ledger` is a `self.ledger = ...` assignment in CamArray.__init__,
    # not a class attribute; `(→ X)` names an entry of the package.
    text = _module_map(
        "| `repro.cam` | arrays | `CamArray` (`store`, `ledger`, "
        "`search_batch(..., rotations=)`), `keyed_noise` (`fold_key`) |",
        "| `repro.refstore` | store | `open_stored_reference` "
        "(→ `MappedReference`) |",
    )
    assert check_module_map(text) == []


def test_a_deleted_method_is_reported_on_its_owner():
    text = _module_map(
        "| `repro.cam` | arrays | `StoredReference` (`encode`, `seal`) |",
        "| `repro.eval` | accuracy | `AccuracyExperiment` (`evaluate`, "
        "`run_sweep`) |",
    )
    assert check_module_map(text) == [
        "docs/api.md module map: `StoredReference` (`seal`): "
        "StoredReference has no attribute seal",
        "docs/api.md module map: `AccuracyExperiment` (`run_sweep`): "
        "AccuracyExperiment has no attribute run_sweep"]


def test_an_arrow_group_names_package_entries():
    text = _module_map(
        "| `repro.refstore` | store | `open_stored_reference` "
        "(→ `RetiredReference`) |",
    )
    assert check_module_map(text) == [
        "docs/api.md module map: `RetiredReference` is not an attribute "
        "of repro.refstore or its submodules"]


def test_missing_module_map_is_reported():
    assert check_module_map("# API\n\n| `repro.arch` | x | `Nope` |\n") == [
        'docs/api.md has no "Module map" table']


def test_api_doc_module_map_resolves():
    text = API_DOC.read_text(encoding="utf-8")
    assert len(module_map_entries(text)) >= 10
    assert check_module_map(text) == []


def _signature_blocks(service: str) -> str:
    return "\n".join([
        "# API", "", "```", service,
        "MappingFrontend(segments, model,",
        "                catalog=None)   # note: x=1 is a comment",
        "  .session(threshold, seed=0, reference=None)",
        "```",
    ])


def test_signature_keywords_skip_comments_and_positionals():
    text = _signature_blocks(
        "StreamingMappingService(segments, model, threshold,\n"
        "                        micro_batch=None)  # autotuned")
    assert signature_keywords(text, "StreamingMappingService(") == [
        ["micro_batch"]]
    assert signature_keywords(text, "MappingFrontend(") == [["catalog"]]
    assert signature_keywords(text, ".session(") == [["seed", "reference"]]


def test_signature_blocks_of_live_parameters_pass():
    text = _signature_blocks(
        "StreamingMappingService(segments, model, threshold,\n"
        "                        micro_batch=None, retain_mappings=True)")
    assert check_signatures(text) == []


def test_a_deleted_keyword_in_a_signature_block_is_reported():
    text = _signature_blocks(
        "StreamingMappingService(segments, model, threshold,\n"
        "                        engine=\"batched\"|\"sharded\")")
    assert check_signatures(text) == [
        "docs/api.md: `engine=` in a StreamingMappingService(...) block "
        "is not a parameter of StreamingMappingService"]


def test_a_missing_signature_block_is_reported():
    text = "# API\n\n```\nMappingFrontend(segments, model)\n" \
           "  .session(threshold)\n```\n"
    assert check_signatures(text) == [
        "docs/api.md has no StreamingMappingService(...) signature block"]


def test_api_doc_signature_blocks_resolve():
    assert check_signatures(API_DOC.read_text(encoding="utf-8")) == []
