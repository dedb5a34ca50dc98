"""Import heisconvex from the checkout this benchmark sits in, and nowhere else.

The package is not installed; a parent/change comparison is only meaningful
if each run times the `src/` tree next to the benchmark.  `load()` puts that
tree first on `sys.path`, imports the package and refuses a module that
resolved to any other location.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The program under test is missing from this checkout or came from elsewhere."""


def load() -> ModuleType:
    """Return the `heisconvex` package of this checkout.

    Raises:
        CheckoutError: `src/heisconvex` is absent, or the imported package
            lives outside the checkout.
    """
    if not (SRC / "heisconvex" / "__init__.py").is_file():
        raise CheckoutError(f"no src/heisconvex package under {ROOT}; nothing to benchmark")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import heisconvex

    where = Path(heisconvex.__file__).resolve()
    if not where.is_relative_to(ROOT):
        raise CheckoutError(f"heisconvex was imported from {where}, outside the checkout {ROOT}")
    return heisconvex


def program_file(module: ModuleType) -> str:
    """The package's `__file__`, relative to the checkout root."""
    return str(Path(module.__file__).resolve().relative_to(ROOT))
