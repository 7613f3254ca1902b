"""Package-wide rules that no single module's tests can see."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import cpda

SOURCES = sorted(Path(cpda.__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) >= 8
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
