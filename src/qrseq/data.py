"""Interaction log ingestion, filtering, and leave-one-out splitting.

Raw (user, item, rating, timestamp) records are filtered to ratings at or
above a threshold, ordered per user by timestamp (stable on ties), and
users with too few remaining interactions are dropped. Surviving external
ids are remapped to dense 1-based internal ids; id 0 is reserved for
context padding.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic
from .errors import (CompatibilityError, ConfigError, EmptyDatasetError, ParseError,
                     SamplingError, SplitError)

DATASET_VERSION = 1

FIELDS = ("user", "item", "rating", "timestamp")


@dataclass(frozen=True)
class RawInteraction:
    user: str
    item: str
    rating: float
    timestamp: int


class InteractionLog:
    """Filtered, time-ordered per-user item sequences with dense ids.

    Internal user and item ids run 1..count; index helpers are 1-based.
    """

    def __init__(self, sequences: list[list[int]], user_ids: list[str], item_ids: list[str]):
        self.sequences = sequences  # sequences[i] belongs to internal user i+1
        self.user_ids = user_ids  # external id of internal user i+1
        self.item_ids = item_ids  # external id of internal item i+1
        self._seen: dict[int, np.ndarray] = {}
        # evaluation.split_candidates' draws, one entry per split name
        self._candidates: dict[str, tuple] = {}

    @property
    def user_count(self) -> int:
        return len(self.sequences)

    @property
    def item_count(self) -> int:
        return len(self.item_ids)

    @property
    def interaction_count(self) -> int:
        return sum(len(seq) for seq in self.sequences)

    def items_of(self, user: int) -> list[int]:
        if not 1 <= user <= self.user_count:
            raise IndexError(f"user id {user} out of range 1..{self.user_count}")
        return self.sequences[user - 1]

    def seen_items(self, user: int) -> np.ndarray:
        """Distinct items the user interacted with, ascending."""
        cached = self._seen.get(user)
        if cached is None:
            cached = self._seen[user] = np.unique(np.asarray(self.items_of(user), dtype=np.intp))
        return cached

    @classmethod
    def from_sequences(cls, sequences: list[list[int]], item_count: int) -> "InteractionLog":
        """Build a log directly from internal-id sequences (synthetic data)."""
        user_ids = [f"u{i + 1}" for i in range(len(sequences))]
        item_ids = [f"i{i + 1}" for i in range(item_count)]
        return cls([list(s) for s in sequences], user_ids, item_ids)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": DATASET_VERSION,
            "user_count": self.user_count,
            "item_count": self.item_count,
            "interaction_count": self.interaction_count,
            "user_ids": self.user_ids,
            "item_ids": self.item_ids,
            "sequences": self.sequences,
        }

    def _text(self) -> str:
        """The canonical JSON text of the log: what `save` writes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path) -> None:
        atomic.write_text(path, self._text())

    def digest(self) -> str:
        """SHA-256 (hex) of the canonical text `save` writes: it names the
        ids and every sequence in order, so a model can be tied to its data."""
        return hashlib.sha256(self._text().encode("utf-8")).hexdigest()

    @classmethod
    def load(cls, path) -> "InteractionLog":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise CompatibilityError(f"{path}: not a processed dataset ({exc})") from None
        if not isinstance(data, dict):
            raise CompatibilityError(f"{path}: not a processed dataset (not a JSON object)")
        version = data.get("format_version")
        if type(version) is not int or version != DATASET_VERSION:  # not JSON true or 1.0
            raise CompatibilityError(
                f"{path}: dataset format version {version!r} not supported "
                f"(expected {DATASET_VERSION})"
            )
        missing = sorted({"sequences", "user_ids", "item_ids"} - data.keys())
        if missing:
            raise CompatibilityError(f"{path}: not a processed dataset (missing {missing})")
        sequences, user_ids, item_ids = data["sequences"], data["user_ids"], data["item_ids"]
        for key, ids in (("user_ids", user_ids), ("item_ids", item_ids)):
            if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
                raise CompatibilityError(
                    f"{path}: not a processed dataset ({key} is not a list of strings)")
        if not isinstance(sequences, list) or len(sequences) != len(user_ids):
            raise CompatibilityError(
                f"{path}: not a processed dataset (sequences is not a list of one entry "
                f"per user id)")
        n = len(item_ids)
        for seq in sequences:  # `type` rejects JSON true/false, which are ints to Python
            if not (isinstance(seq, list) and all(type(i) is int and 1 <= i <= n for i in seq)):
                raise CompatibilityError(
                    f"{path}: not a processed dataset (a sequence is not a list of item ids "
                    f"in 1..{n})")
        if not sequences:
            raise EmptyDatasetError(f"{path}: dataset has no users")
        return cls(sequences, user_ids, item_ids)


# ---------------------------------------------------------------------------
# ingestion


def first_non_utf8_line(path) -> int | None:
    """The 1-based line holding a file's first byte that is not UTF-8 text,
    None if it has none. The file is decoded whole, so the decoder's offset
    is the file's (a streamed read reports one within its buffer)."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return raw.count(b"\n", 0, exc.start) + 1
    return None


def _parse_csv(path: Path) -> tuple[list[RawInteraction], list[tuple[int, str]]]:
    records: list[RawInteraction] = []
    bad: list[tuple[int, str]] = []
    start = 1  # a quoted field can span lines, so a row is numbered by the line it starts on
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                return records, bad  # empty file
            if [h.strip() for h in header] != list(FIELDS):
                raise ParseError(
                    f"{path}: expected header {','.join(FIELDS)}, got {','.join(header)}", [1]
                )
            start = reader.line_num + 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                parsed = _parse_row(dict(zip(FIELDS, row)) if len(row) == len(FIELDS) else None)
                if parsed is None:
                    bad.append((lineno, ",".join(row)))
                else:
                    records.append(parsed)
    except csv.Error as exc:  # a field past the csv module's size limit
        raise ParseError(f"{path}:{start}: {exc}", [start]) from None
    return records, bad


def _parse_jsonl(path: Path) -> tuple[list[RawInteraction], list[tuple[int, str]]]:
    records: list[RawInteraction] = []
    bad: list[tuple[int, str]] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deep
                bad.append((lineno, line.strip()))
                continue
            parsed = _parse_row(obj) if isinstance(obj, dict) else None
            if parsed is None:
                bad.append((lineno, line.strip()))
            else:
                records.append(parsed)
    return records, bad


def _id_field(value) -> str | None:
    """A user or item id: a non-empty string, stripped, or a non-bool int."""
    if isinstance(value, str):
        return value.strip() or None
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return None


def _parse_row(row) -> RawInteraction | None:
    """One rule for CSV and JSON-lines rows: the ids pass `_id_field`, the
    rating is a finite number (or its string) and the timestamp a nonnegative
    int (or a string `int()` accepts); any other row is malformed."""
    if row is None or any(f not in row for f in FIELDS):
        return None
    stamp = row["timestamp"]
    if isinstance(row["rating"], bool) or type(stamp) not in (int, str):
        return None
    try:
        rating = float(row["rating"])
        timestamp = int(stamp)
    except (TypeError, ValueError):
        return None
    user, item = _id_field(row["user"]), _id_field(row["item"])
    if timestamp < 0 or not np.isfinite(rating) or user is None or item is None:
        return None
    return RawInteraction(user=user, item=item, rating=rating, timestamp=timestamp)


def ingest(path, format: str = "csv", strict: bool = False
           ) -> tuple[list[RawInteraction], list[tuple[int, str]]]:
    """Load raw interactions; returns (records, malformed (line, content) pairs).

    With strict=True any malformed row raises ParseError naming the lines.
    A file that is not UTF-8 text, or a CSV field past the csv module's size
    limit, raises ParseError naming the line either way.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown input format {format!r}; expected csv or jsonl")
    try:
        records, bad = _parse_csv(path) if format == "csv" else _parse_jsonl(path)
    except UnicodeDecodeError:
        line = first_non_utf8_line(path)
        raise ParseError(f"{path}:{line}: not UTF-8 text", [line]) from None
    if strict and bad:
        lines = [ln for ln, _ in bad]
        raise ParseError(f"{path}: {len(bad)} malformed row(s) at line(s) {lines}", lines)
    return records, bad


# ---------------------------------------------------------------------------
# preprocessing


def preprocess(records: list[RawInteraction], min_rating: float = 3,
               min_interactions: int = 10) -> InteractionLog:
    """Filter by rating, order by time, drop short users, remap ids densely.

    Timestamp ties keep their input order (stable sort). User ids follow
    first appearance among surviving rows; item ids follow first appearance
    scanning users in id order through their time-sorted sequences, which
    makes the mapping reproducible and idempotent. Every user kept needs
    the 3 interactions the leave-one-out split takes, so min_interactions
    must be at least 3, and min_rating must be finite.
    """
    if min_interactions < 3:
        raise ConfigError(f"min_interactions must be >= 3 (a training, a validation and a "
                          f"test item per user), got {min_interactions}")
    if not np.isfinite(min_rating):
        raise ConfigError(f"min_rating must be finite, got {min_rating}")
    kept = [r for r in records if r.rating >= min_rating]
    by_user: dict[str, list[RawInteraction]] = {}
    for r in kept:
        by_user.setdefault(r.user, []).append(r)

    surviving = [u for u, rows in by_user.items() if len(rows) >= min_interactions]
    if not surviving:
        raise EmptyDatasetError(
            f"no users with at least {min_interactions} interactions of rating >= {min_rating}"
        )

    item_map: dict[str, int] = {}
    item_order: list[str] = []
    sequences: list[list[int]] = []
    for user in surviving:
        rows = sorted(by_user[user], key=lambda r: r.timestamp)
        seq = []
        for r in rows:
            internal = item_map.get(r.item)
            if internal is None:
                internal = len(item_order) + 1
                item_map[r.item] = internal
                item_order.append(r.item)
            seq.append(internal)
        sequences.append(seq)

    return InteractionLog(sequences, surviving, item_order)


# ---------------------------------------------------------------------------
# splitting


@dataclass
class SplitDataset:
    """Leave-one-out splits: per-user test/validation targets plus sliding
    training windows over the prefix that precedes the validation target."""

    seq_len: int
    train_users: np.ndarray
    train_contexts: np.ndarray  # (N, L), left-padded with 0
    train_targets: np.ndarray
    val_users: np.ndarray
    val_contexts: np.ndarray
    val_targets: np.ndarray
    test_users: np.ndarray
    test_contexts: np.ndarray
    test_targets: np.ndarray

    def split_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if split == "validation":
            return self.val_users, self.val_contexts, self.val_targets
        if split == "test":
            return self.test_users, self.test_contexts, self.test_targets
        raise ValueError(f"unknown split {split!r}; expected 'validation' or 'test'")


def make_splits(log: InteractionLog, seq_len: int = 5) -> SplitDataset:
    """Last item is the test target, second-to-last the validation target;
    training windows slide (stride 1) over the remaining prefix.

    Each user's sequence is left-padded once with seq_len zeros, so the
    context of position p is the slice padded[p:p + seq_len]. Training
    takes positions 1..n-3 (position 0 has no true context), validation
    n-2 and test n-1.
    """
    train_u, train_c, train_t = [], [], []
    val_c, val_t, test_c, test_t = [], [], [], []
    for user, seq in enumerate(log.sequences, start=1):
        n = len(seq)
        if n < 3:
            raise SplitError(f"user {user} ({log.user_ids[user - 1]!r}) has only {n} "
                             f"interaction(s); the leave-one-out split needs at least 3")
        padded = [0] * seq_len + seq
        train_u += [user] * (n - 3)
        train_c += [padded[p:p + seq_len] for p in range(1, n - 2)]
        train_t += seq[1:n - 2]
        val_c.append(padded[n - 2:n - 2 + seq_len])
        val_t.append(seq[n - 2])
        test_c.append(padded[n - 1:n - 1 + seq_len])
        test_t.append(seq[n - 1])

    def rows(contexts):
        return np.asarray(contexts, dtype=np.intp).reshape(len(contexts), seq_len)

    return SplitDataset(
        seq_len=seq_len,
        train_users=np.asarray(train_u, dtype=np.intp),
        train_contexts=rows(train_c),
        train_targets=np.asarray(train_t, dtype=np.intp),
        val_users=np.arange(1, log.user_count + 1, dtype=np.intp),
        val_contexts=rows(val_c),
        val_targets=np.asarray(val_t, dtype=np.intp),
        test_users=np.arange(1, log.user_count + 1, dtype=np.intp),
        test_contexts=rows(test_c),
        test_targets=np.asarray(test_t, dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# negative sampling


def sample_negatives(log: InteractionLog, user: int, k: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw k distinct items the user never interacted with, uniformly.

    Draws positions j among the ascending unseen items and maps each to its
    item without building the complement: offsets[i] counts the unseen items
    below the i-th seen one, so j-th unseen = j + 1 + #{offsets <= j}.
    """
    seen = log.seen_items(user)
    n_unseen = log.item_count - len(seen)
    if k > n_unseen:
        raise SamplingError(
            f"user {user}: requested {k} negatives but only {n_unseen} items are unseen"
        )
    j = rng.choice(n_unseen, size=k, replace=False)
    offsets = seen - np.arange(1, len(seen) + 1)
    return j + 1 + offsets.searchsorted(j, "right")
