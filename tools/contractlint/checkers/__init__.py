"""Checker modules; importing this package registers all of them."""

from tools.contractlint.checkers import (  # noqa: F401  (registration imports)
    determinism,
    error_contract,
    fault_hooks,
    knobs,
    layering,
)
