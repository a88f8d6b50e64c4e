"""Locate and import the intervalcolor package from this checkout's src/."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import intervalcolor from ROOT/src, never from anywhere else."""
    if not (SRC / "intervalcolor" / "__init__.py").is_file():
        raise SystemExit(f"error: no intervalcolor package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import intervalcolor

    if Path(intervalcolor.__file__).resolve().parent != SRC / "intervalcolor":
        raise SystemExit(f"error: imported {intervalcolor.__file__}, not the checkout's copy")
    return intervalcolor
