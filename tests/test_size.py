"""The package holds what it runs: every top-level name, dataclass field and
class member of src/rlab that no module of the package reads is listed here
with its reader.

tools/size.py finds the unread names, fields and members; a new one fails
this test until it gets a reader in the package, moves into the tests, or is
listed below with the reader that keeps it.
"""

import importlib.util
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]

ALLOWED_UNREAD_NAMES = {
    "estimates.smoothing_band_signature": "acceptance criterion 7",
    "flows.evolve_hamiltonian": "acceptance criterion 3",
    "flows.hamiltonian_energy": "acceptance criterion 3",
}
ALLOWED_UNREAD_FIELDS = {}
ALLOWED_UNREAD_MEMBERS = {
    "duhamel.BornSeriesReport.ratios_x": "acceptance criterion 5",
}


@pytest.fixture(scope="module")
def size():
    spec = importlib.util.spec_from_file_location("size", REPO / "tools" / "size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_unread_name_field_and_member_is_allowed(size):
    found = size.scan(REPO / "src" / "rlab")
    assert sorted(found.unread_names) == sorted(ALLOWED_UNREAD_NAMES)
    assert sorted(found.unread_fields) == sorted(ALLOWED_UNREAD_FIELDS)
    assert sorted(found.unread_members) == sorted(ALLOWED_UNREAD_MEMBERS)


def test_scan_finds_an_unread_name_field_and_member(size, tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Box:\n    used: int\n    stored: int = 0\n\n"
        "    def __len__(self):\n        return 1\n\n"
        "    @property\n    def twice(self):\n        return 2 * self.used\n\n"
        "    @property\n    def half(self):\n        return self.twice / 4\n\n\n"
        "def helper(x=1):\n    return x\n\n\n"
        "def main():\n    return Box(1).used\n")
    (tmp_path / "b.py").write_text(
        "import os\n\nfrom .a import main\n\nACCEPTED_KEYS = {\"run\": {\"seed\": int}}\n\n"
        "main() if os.environ.get(\"HOME\") else print(ACCEPTED_KEYS)\n")
    found = size.scan(tmp_path)
    assert (found.files, found.lines, found.defaults, found.fields) == (2, 33, 1, 2)
    assert (found.config_keys, found.environment_reads) == (1, 1)
    assert found.unread_names == ["a.helper"]
    assert found.unread_fields == ["a.Box.stored"]
    assert found.unread_members == ["a.Box.half"]


def test_scan_of_a_directory_without_python_files_is_a_value_error(size, tmp_path):
    with pytest.raises(ValueError, match="no Python files"):
        size.scan(tmp_path)
