import pytest


@pytest.fixture
def validations(monkeypatch):
    """``validations(cls)`` records from then on each object of ``cls``
    whose ``__post_init__`` runs, in order, and returns that list."""
    def record(cls):
        validated = []
        post_init = cls.__post_init__

        def counted(self):
            validated.append(self)
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
        return validated
    return record
