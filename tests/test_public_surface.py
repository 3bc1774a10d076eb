"""The package ``__all__`` lists only grow names somebody imports.

ROADMAP item 7: everything exported has a caller that is not its own
definition.  A name stays in ``repro.smb.__all__`` / ``repro.core.__all__``
if some file imports it *through the package* — or if it is an exception
class, because a client's ``except`` set is its API.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            yield path.read_text()
    for path in [ROOT / "README.md", *(ROOT / "docs").rglob("*.md")]:
        yield "\n".join(re.findall(r"```.*?```", path.read_text(), flags=re.S))


@pytest.mark.parametrize("package", ["smb", "core", "mpi"])
def test_every_export_is_imported_through_its_package(package):
    # ``from repro.smb import X``, ``from ..smb import X`` or ``smb.X``.
    from_import = re.compile(
        rf"from\s+(?:repro)?\.+{package}\s+import\s+(\([^)]*\)|.+)"
    )
    attribute = re.compile(rf"\b{package}\.(\w+)")
    used = set()
    for text in _sources():
        for names in from_import.findall(text):
            used.update(re.findall(r"\w+", names))
        used.update(attribute.findall(text))
    module = importlib.import_module(f"repro.{package}")

    def is_exception(name):
        exported = getattr(module, name)
        return isinstance(exported, type) and issubclass(exported, Exception)

    orphans = [
        name for name in module.__all__
        if name not in used and not is_exception(name)
    ]
    assert not orphans, (
        f"exported from repro.{package} but imported through it by nobody: "
        f"{orphans} — import it from its defining module and drop the "
        f"re-export"
    )
