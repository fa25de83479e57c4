"""Corpus handling: JSONL ingestion, splits, vocab, batches.

The input format is JSONL with pre-tokenized fields, so tokenizer
disputes stay out of the model's test surface.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class CorpusError(ValueError):
    """Malformed corpus input; the message names the line if known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


@contextlib.contextmanager
def naming_file(path: str):
    """A `CorpusError` raised inside is raised again with `path` in front
    of its message, so that it says which file it is about."""
    try:
        yield
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


@dataclass
class TokenizedDoc:
    """One sample: text tokens, emoji tokens, optional binary label (1=positive)."""

    text_tokens: list[str]
    emoji_tokens: list[str]
    label: int | None = None

    def to_json(self) -> str:
        obj = {"text_tokens": self.text_tokens, "emoji_tokens": self.emoji_tokens}
        if self.label is not None:
            obj["label"] = self.label
        return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def parse_jsonl_record(line: str, line_number: int | None = None,
                       mode: str = "train") -> TokenizedDoc:
    """Parse and validate one JSONL record.

    mode="train" covers training/eval records (label and >=1 emoji required);
    mode="predict" allows missing labels and empty emoji lists.  Unknown
    extra fields are ignored.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"malformed JSON: {exc.msg}", line_number) from exc
    if not isinstance(obj, dict):
        raise CorpusError("record is not a JSON object", line_number)

    text = obj.get("text_tokens")
    if not isinstance(text, list) or not text:
        raise CorpusError("text_tokens must be a non-empty array", line_number)
    if not all(isinstance(t, str) and t for t in text):
        raise CorpusError("text_tokens must be non-empty strings", line_number)

    emojis = obj.get("emoji_tokens", [])
    if not isinstance(emojis, list) or not all(
            isinstance(t, str) and t for t in emojis):
        raise CorpusError("emoji_tokens must be an array of non-empty strings",
                          line_number)

    label = obj.get("label")
    # JSON 1.0 and true compare equal to 1 but are not integer labels
    if label is not None and (type(label) is not int or label not in (0, 1)):
        raise CorpusError(f"label must be 0 or 1, got {label!r}", line_number)

    if mode == "train":
        if label is None:
            raise CorpusError("label required", line_number)
        if not emojis:
            raise CorpusError("at least one emoji token required", line_number)
    elif mode != "predict":
        raise ValueError(f"unknown mode {mode!r}")

    return TokenizedDoc(list(text), list(emojis), label)


def utf8_lines(fh):
    """Yield (line number, text) for each line of a file opened in binary
    mode; a line that is not valid UTF-8 raises CorpusError naming it."""
    for i, raw in enumerate(fh, start=1):
        try:
            yield i, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"not valid UTF-8 ({exc.reason} at byte "
                              f"{exc.start})", i) from None


def read_jsonl(path: str, mode: str = "train") -> list[TokenizedDoc]:
    docs = []
    with open(path, "rb") as fh, naming_file(path):
        for i, line in utf8_lines(fh):
            if line.strip():
                docs.append(parse_jsonl_record(line, line_number=i, mode=mode))
    return docs


def write_jsonl(docs: list[TokenizedDoc], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(doc.to_json() + "\n")


def split_sizes(n: int, ratios) -> tuple[int, int, int]:
    """Deterministic floor rule over train:test:val `ratios`: test and val
    floor their share, train gets the remainder."""
    if len(ratios) != 3:
        raise ValueError(f"ratios must be train:test:val, got {ratios}")
    r_train, r_test, r_val = ratios
    total = r_train + r_test + r_val
    # written as a negation so that NaN fails too; a non-finite ratio makes
    # the sum non-finite
    if not (min(ratios) > 0 and np.isfinite(total)):
        raise ValueError(f"ratios must be finite and positive with a finite "
                         f"sum, got {ratios}")
    n_test = int(np.floor(n * r_test / total))
    n_val = int(np.floor(n * r_val / total))
    return n - n_test - n_val, n_test, n_val


# Split sizes reported elsewhere for the 8930-comment reference corpus; they
# differ from the floor rule by one document and follow no stated rule, so
# they are surfaced in reports but never reproduced.
REFERENCE_SPLIT = {"total": 8930, "train": 6250, "test": 1786, "val": 894}


def split_report(n: int, ratios) -> dict:
    n_train, n_test, n_val = split_sizes(n, ratios)
    report = {
        "total": n,
        "train": n_train,
        "test": n_test,
        "val": n_val,
        "rule": "test=floor(N*r_test/S), val=floor(N*r_val/S), train=remainder",
    }
    if n == REFERENCE_SPLIT["total"] and tuple(ratios) == (7.0, 2.0, 1.0):
        report["reference_note"] = (
            "floor rule gives {train}/{test}/{val}; the reference corpus "
            "reports {rt}/{rs}/{rv} for the same 8930 documents (off by one "
            "on train/val; its partition rule is unspecified)".format(
                train=n_train, test=n_test, val=n_val,
                rt=REFERENCE_SPLIT["train"], rs=REFERENCE_SPLIT["test"],
                rv=REFERENCE_SPLIT["val"]))
    return report


def split_corpus(docs: list[TokenizedDoc], ratios, seed: int
                 ) -> tuple[list[TokenizedDoc], list[TokenizedDoc], list[TokenizedDoc]]:
    """Seeded shuffle, then cut into (train, test, val) by the floor rule."""
    n = len(docs)
    n_train, n_test, n_val = split_sizes(n, ratios)
    if n < 10:
        raise CorpusError(f"need at least 10 documents to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [docs[i] for i in perm]
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_test],
            shuffled[n_train + n_test:])


@dataclass
class Vocab:
    """Token<->id maps: text ids reserve PAD=0 and UNK=1, emoji ids are dense."""

    id_to_text: list[str]
    id_to_emoji: list[str]

    def __post_init__(self):
        self.text_to_id = {t: i for i, t in enumerate(self.id_to_text)}
        self.emoji_to_id = {t: i for i, t in enumerate(self.id_to_emoji)}

    @property
    def n_text(self) -> int:
        return len(self.id_to_text)

    @property
    def n_emoji(self) -> int:
        return len(self.id_to_emoji)

    def encode_text(self, tokens: list[str]) -> list[int]:
        """Token ids; unknown tokens, and a literal PAD token without an id
        of its own, encode to UNK, so no text token reads the PAD row."""
        ids = [self.text_to_id.get(t, UNK_ID) for t in tokens]
        return [UNK_ID if i == PAD_ID else i for i in ids]

    def encode_emojis(self, tokens: list[str]) -> list[int]:
        try:
            return [self.emoji_to_id[t] for t in tokens]
        except KeyError as exc:
            raise CorpusError(
                f"emoji token {exc.args[0]!r} not in vocabulary "
                "(closed after build)") from exc

    def to_json_dict(self) -> dict:
        return {"text": self.id_to_text, "emoji": self.id_to_emoji}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Vocab":
        """Build from a saved vocab, refusing tokens `build_vocab` cannot
        have written; a later PAD or UNK entry, as early releases appended,
        is legal."""
        text, emoji = list(obj["text"]), list(obj["emoji"])
        try:  # no Python loop per token: this runs on every checkpoint load
            "".join(text + emoji)  # refuses a token that is not a str
        except TypeError:
            bad = next(t for t in text + emoji if type(t) is not str)
            raise ValueError(f"vocab token {bad!r} is not a string") from None
        if text[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError(f"vocab ids 0 and 1 must be {PAD_TOKEN!r} and "
                             f"{UNK_TOKEN!r}, got {text[:2]}")
        vocab = cls(id_to_text=text, id_to_emoji=emoji)
        if len(vocab.text_to_id) + len(vocab.emoji_to_id) < len(text + emoji):
            words = [t for t in text if t not in (PAD_TOKEN, UNK_TOKEN)]
            twice = [t for tokens in (words, emoji)
                     for t, c in Counter(tokens).items() if c > 1]
            if twice:  # a later PAD or UNK entry is no duplicate
                raise ValueError(f"vocab tokens listed twice: {twice}")
        return vocab


def build_vocab(train_docs: list[TokenizedDoc], min_count: int = 1) -> Vocab:
    """First-seen-order vocabulary from the training split only; literal
    reserved tokens get no second id."""
    counts: dict[str, int] = {}
    for doc in train_docs:
        for tok in doc.text_tokens:
            if tok not in (PAD_TOKEN, UNK_TOKEN):
                counts[tok] = counts.get(tok, 0) + 1
    id_to_text = [PAD_TOKEN, UNK_TOKEN]
    id_to_text.extend(t for t, c in counts.items() if c >= min_count)

    id_to_emoji: list[str] = []
    seen = set()
    for doc in train_docs:
        for tok in doc.emoji_tokens:
            if tok not in seen:
                seen.add(tok)
                id_to_emoji.append(tok)
    return Vocab(id_to_text=id_to_text, id_to_emoji=id_to_emoji)


@dataclass
class Batch:
    """Encoded documents of one batch: unpadded (text_ids, emoji_ids) rows
    and their labels; `Model.forward_docs` does the padding."""

    rows: list[tuple[list[int], list[int]]]
    labels: list[int]

    def __len__(self) -> int:
        return len(self.rows)


def encode_doc(doc: TokenizedDoc, vocab: Vocab, max_len: int
               ) -> tuple[list[int], list[int]]:
    text_ids = vocab.encode_text(doc.text_tokens[:max_len])
    emoji_ids = vocab.encode_emojis(doc.emoji_tokens)
    return text_ids, emoji_ids


def make_batches(docs: list[TokenizedDoc], vocab: Vocab, batch_size: int,
                 max_len: int, seed: int = 0, shuffle: bool = True
                 ) -> list[Batch]:
    """Seeded shuffle, then encode into unpadded rows; the final partial
    batch is kept.  Every document needs an emoji and a label."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for doc in docs:
        if doc.label is None:
            raise CorpusError("training document without label")
        if not doc.emoji_tokens:
            raise CorpusError("training document without emojis")
    order = (np.random.default_rng(seed).permutation(len(docs))
             if shuffle else np.arange(len(docs)))
    chunks = [[docs[i] for i in order[start:start + batch_size]]
              for start in range(0, len(docs), batch_size)]
    return [Batch([encode_doc(d, vocab, max_len) for d in chunk],
                  [d.label for d in chunk]) for chunk in chunks]
