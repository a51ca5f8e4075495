"""Fixtures that more than one test module shares."""

import pytest

from test_train import mini_config, mini_dataset
from wavecnn.training import train


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """The checkpoint file of one mini_config epoch, trained once per
    session for every test that only needs a trained checkpoint. A test
    that writes to the file works on a copy; load_checkpoint gives each
    test an object of its own."""
    path = tmp_path_factory.mktemp("trained") / "run.ckpt"
    train(mini_config(epochs=1, checkpoint_path=str(path)), mini_dataset())
    return path
