"""The step digest script (tests/step_digest.py) covers every architecture,
hashes the same within one process, and with --cases names each case's
hash before the same total."""

import step_digest
from wavecnn.models import valid_architectures

SMALL = dict(archs=("m3", "m34-res"), lengths=(400,))


def _total(**cases):
    return dict(step_digest.case_digests(**cases))["total"]


def test_cases_cover_every_architecture():
    assert sorted(step_digest.ARCHITECTURES) == valid_architectures()


def test_digest_repeats_within_one_process():
    first = _total(**SMALL)
    assert len(first) == 64
    assert _total(**SMALL) == first
    assert _total(archs=("m3",), lengths=(400,)) != first


def test_cases_option_prints_each_case_then_the_default_total(capsys):
    step_digest.main([], **SMALL)
    default = capsys.readouterr().out.splitlines()
    step_digest.main(["--cases"], **SMALL)
    lines = capsys.readouterr().out.splitlines()
    assert len(default) == 1 and lines[-1] == default[0]
    cases = dict(reversed(line.split()) for line in lines[:-1])
    assert list(cases) == [f"{a}/{d}/400" for a in SMALL["archs"] for d in ("float32", "float64")]
    # A case's hash does not depend on the cases run before it.
    alone = dict(step_digest.case_digests(archs=("m34-res",), lengths=(400,)))
    assert cases["m34-res/float64/400"] == alone["m34-res/float64/400"]
