"""The mutant catalogue of tests/mutants.py still applies to the library:
each entry's old text occurs once in its module and each named test file
exists.  Running the catalogue itself is a separate step."""
import pytest

from mutants import MUTANTS, ROOT


def test_names_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_entry_applies(mutant):
    text = (ROOT / "src" / "dyadlab" / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests and mutant.reason
    for node in mutant.tests:
        assert (ROOT / node.split("::")[0]).is_file(), node
