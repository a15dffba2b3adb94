"""The source layouts in DESIGN.md and README.md match the package tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _packages():
    return sorted(p.parent.name for p in PACKAGE.glob("*/__init__.py"))


def _design_layout():
    """``{package: [file, ...]}`` from DESIGN.md's "Layout" block."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = re.search(r"^## Layout\n\n```\n(.*?)^```", text, re.S | re.M).group(1)
    layout, package = {}, None
    for line in block.splitlines():
        if not line.startswith("  ") or line.startswith("  cli.py"):
            package = None
            continue
        words = line.split()
        if words[0].endswith("/"):
            package = words.pop(0).rstrip("/")
        if package is not None:
            layout.setdefault(package, []).extend(words)
    return layout


def test_design_layout_names_only_existing_files():
    layout = _design_layout()
    missing = [f"{package}/{name}" for package, names in layout.items()
               for name in names if not (PACKAGE / package / name).is_file()]
    assert missing == []
    assert "cli.py" in (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert (PACKAGE / "cli.py").is_file()


def test_design_layout_lists_every_package():
    assert sorted(_design_layout()) == _packages()


def test_readme_architecture_lists_every_package():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Architecture\n\n```\n(.*?)^```", text, re.S | re.M).group(1)
    listed = sorted(re.findall(r"^repro\.(\w+)", block, re.M))
    assert listed == _packages()
