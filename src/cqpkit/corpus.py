"""The shipped example corpus and its expected outcomes.

Each entry's expectation is enforced by the test suite: positive files must
parse and typecheck; negative files must be rejected with the documented
diagnostic category.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import typecheck


@dataclass(frozen=True)
class CorpusEntry:
    path: str  # relative to the corpus directory
    expectation: str  # "typechecks" or "diagnostic:<Category>"
    entry: str | None = None  # default entry process for run/explore/equiv


CORPUS = (
    CorpusEntry("teleport.cqp", "typechecks", "Teleport"),
    CorpusEntry("identity.cqp", "typechecks", "Identity"),
    CorpusEntry("bell.cqp", "typechecks", "Bell"),
    CorpusEntry("coin.cqp", "typechecks", "Coin"),
    CorpusEntry("teleport_harness.cqp", "typechecks", "Harness"),
    CorpusEntry("negative/clone.cqp", f"diagnostic:{typecheck.QUBIT_DUPLICATED}"),
    CorpusEntry(
        "negative/use_after_send.cqp", f"diagnostic:{typecheck.QUBIT_USED_AFTER_SEND}"
    ),
)


def corpus_path(relative: str) -> Path:
    return Path(str(resources.files("cqpkit") / "corpus" / relative))


def read_corpus_file(relative: str) -> str:
    return corpus_path(relative).read_text(encoding="utf-8")
