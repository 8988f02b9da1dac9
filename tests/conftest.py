import pytest

from support import load_corpus_file


@pytest.fixture(scope="session")
def teleport_program():
    program, signatures, _src = load_corpus_file("teleport.cqp")
    return program, signatures


@pytest.fixture(scope="session")
def identity_program():
    program, signatures, _src = load_corpus_file("identity.cqp")
    return program, signatures


@pytest.fixture(scope="session")
def coin_program():
    program, signatures, _src = load_corpus_file("coin.cqp")
    return program, signatures
