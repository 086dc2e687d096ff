"""Tests for docs-smoke's module-map guarantee (``tools/check_docs.py``)."""

from __future__ import annotations

from tools.check_docs import (
    API_DOC,
    check_module_map,
    expand_alternatives,
    module_map_entries,
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
        "(`match_batch`), `plan_shards` |",
    )
    assert check_module_map(text) == [
        "docs/api.md module map: `RetiredSystemModel` is not an attribute "
        "of repro.arch or its submodules"]


def test_missing_module_map_is_reported():
    assert check_module_map("# API\n\n| `repro.arch` | x | `Nope` |\n") == [
        'docs/api.md has no "Module map" table']


def test_api_doc_module_map_resolves():
    text = API_DOC.read_text(encoding="utf-8")
    assert len(module_map_entries(text)) >= 10
    assert check_module_map(text) == []
