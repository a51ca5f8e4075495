"""The step digest script (tests/step_digest.py) covers every architecture
and hashes the same within one process."""

import step_digest
from wavecnn.models import valid_architectures


def test_cases_cover_every_architecture():
    assert sorted(step_digest.ARCHITECTURES) == valid_architectures()


def test_digest_repeats_within_one_process():
    small = dict(archs=("m3", "m34-res"), lengths=(400,))
    first = step_digest.digest(**small)
    assert len(first) == 64
    assert step_digest.digest(**small) == first
    assert step_digest.digest(archs=("m3",), lengths=(400,)) != first
