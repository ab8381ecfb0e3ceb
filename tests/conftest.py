import pytest

from enthier import statefile


@pytest.fixture(autouse=True)
def cold_document_memo(monkeypatch):
    """Each test starts from a first read of every document: ``statefile``
    keeps the last document built, and a test that counts the calls of one
    read would otherwise count a memo hit on bytes an earlier test read."""
    monkeypatch.setattr(statefile, "_last_built", (None, None))
