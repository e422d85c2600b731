"""Dataset ingestion, CSV columns in and out, and cross-validation splits.

Loads the predictive-maintenance CSV in the AI4I column layout
(AI4I_COLUMNS), mapping the quality letter to an ordinal code, dropping
identifier and failure-mode indicator columns, and taking the
machine-failure column as the binary label.  parse_columns and
write_columns are the one CSV reader and the one CSV writer.
A file is opened once, by read_input, and parse_columns parses the bytes
it read: it checks the file's header, its names stripped of ASCII
whitespace only as a token cell is, against the exact header the caller
passes, then reads the rows below it with one np.loadtxt call over an
in-memory copy of those bytes: integers take an optional sign and ASCII
digits, numbers what float() takes (to the same bits) except underscores
and non-ASCII digits, and a cell that starts with '"' is quoted as the
csv module quotes it.  A NUL character anywhere in a file is rejected,
and so are bytes that are not UTF-8 and a numeric cell holding an
information separator (\\x1c-\\x1f).  Data rows count from 1 after the
header, blank lines skipped but counted; a faulty row is searched for, in
the same bytes, only after a check fails.  write_columns writes one or
more CSVs that share a header and a row count in lockstep, a block of
rows at a time: in each block every distinct float64 bit pattern of all
their float columns is formatted once, by repr, and rows are joined with
str.join, byte for byte as csv.writer's QUOTE_MINIMAL writes them.
Also produces repeated stratified k-fold splits where each fold's training
portion is further divided into a proper-training part and a calibration
part.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
import re
import warnings
from contextlib import ExitStack
from dataclasses import FrozenInstanceError, dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "AI4I_COLUMNS",
    "FEATURE_NAMES",
    "Dataset",
    "FoldSplit",
    "Frozen",
    "InfeasibleSplitError",
    "LABEL_CODES",
    "ParseError",
    "SchemaError",
    "ValidationError",
    "binary_labels",
    "bounded",
    "feature_matrix",
    "finite",
    "labelled",
    "load_csv",
    "parse_columns",
    "read_input",
    "reject_first",
    "repeated_stratified_kfold",
    "require",
    "sha256_hex",
    "stratified_holdout",
    "write_columns",
    "write_split_manifest",
]


class SchemaError(ValueError):
    """CSV header does not match the expected columns."""


class ParseError(ValueError):
    """A cell could not be parsed as the expected type."""


class ValidationError(ValueError):
    """A parsed value violates a domain constraint."""


class InfeasibleSplitError(ValueError):
    """Requested split cannot be satisfied by the class counts."""


# The AI4I layout in file order: csv column -> feature name.  The quality
# letter of "Type" is coded through QUALITY_CODES, the other named columns
# are read as numbers and LABEL_COLUMN is the label.  The columns mapped to
# None besides the label (identifiers and failure-mode indicators) are
# read but dropped.  A dataset file has exactly these columns, in this order.
AI4I_COLUMNS = {
    "UDI": None,
    "Product ID": None,
    "Type": "quality",
    "Air temperature [K]": "air temperature [K]",
    "Process temperature [K]": "process temperature [K]",
    "Rotational speed [rpm]": "rotational speed [rpm]",
    "Torque [Nm]": "torque [Nm]",
    "Tool wear [min]": "tool wear [min]",
    "Machine failure": None,
    "TWF": None,
    "HDF": None,
    "PWF": None,
    "OSF": None,
    "RNF": None,
}
QUALITY_COLUMN = "Type"
QUALITY_CODES = {"L": 0.0, "M": 1.0, "H": 2.0}
LABEL_COLUMN = "Machine failure"
LABEL_CODES = {"0": 0, "1": 1}  # the label cell of every CSV venncal reads
FEATURE_NAMES = tuple(name for name in AI4I_COLUMNS.values() if name)


def bounded(value, name: str, flag: str | None = None, *, low=None, inside=None, choices=None,
            error=ValidationError):
    """value once >= low (as an int), strictly inside the pair inside (as a float) or one of choices; nan is none.

    Every setting bounded below is a count, so a value given a low must
    also be a whole number: a Python or numpy integer, not a bool and not a
    float, even a whole-valued one.  The range is checked first.  The one
    message of a setting out of bounds: "<name> must be <rule>, got
    <value>", with " (<flag>)" after it when a flag is given.
    """
    if low is not None and not value >= low:
        rule = f">= {low}"
    elif inside is not None and not inside[0] < value < inside[1]:
        rule = f"in {inside}"
    elif choices is not None and value not in choices:
        rule = " or ".join(map(repr, choices))
    elif low is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        rule = "a whole number"
    else:
        return int(value) if low is not None else float(value) if inside is not None else value
    shown = value.item() if isinstance(value, np.generic) else value  # got 1, not got np.int64(1)
    raise error(f"{name} must be {rule}, got {shown!r}" + (f" ({flag})" if flag else ""))


def sha256_hex(*chunks: bytes) -> str:
    """The sha256 (hex) of the chunks joined, the one way venncal names bytes: every digest it records."""
    import hashlib  # loads OpenSSL, so only at a first digest, never with venncal

    return hashlib.sha256(b"".join(chunks)).hexdigest()


def finite(values, what: str) -> np.ndarray:
    """values as a float64 array; raises ValidationError naming the first nan or infinite entry."""
    v = np.asarray(values, dtype=np.float64)
    require(v, np.isfinite(v), f"{what} must be finite")
    return v


def binary_labels(labels, rows: int, of: str) -> np.ndarray:
    """labels as a float64 array, once it holds rows labels, one per `of`, each 0 or 1."""
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (rows,):
        raise ValidationError(f"labels must be one per {of}: expected shape {(rows,)}, got {y.shape}")
    require(y, (y == 0.0) | (y == 1.0), "labels must be 0 or 1")
    return y


def labelled(values, labels, what: str, of: str, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels) as float64 arrays, once values is a non-empty ndim-d array, labels one 0 or 1 per row
    and values finite, checked in that order."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != ndim or v.size == 0:
        raise ValidationError(f"{what} must be a non-empty {ndim}-d array, got shape {v.shape}")
    y = binary_labels(labels, v.shape[0], of)
    return finite(v, what), y


def feature_matrix(features, width: int, rows: int | None = None) -> np.ndarray:
    """features as a float64 (n, width) matrix, or (rows, width) if rows is given."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width or rows not in (None, x.shape[0]):
        raise ValidationError(f"expected ({'n' if rows is None else rows}, {width}) feature matrix, got {x.shape}")
    return x


def require(values: np.ndarray, holds: np.ndarray, rule: str) -> None:
    """Unless holds is all True, raise ValidationError: rule, the first entry where it is False, its index."""
    if not holds.all():
        index = tuple(int(i) for i in np.unravel_index(np.argmin(holds), holds.shape))
        where = f" at index {index[0] if len(index) == 1 else index}" if index else ""
        raise ValidationError(f"{rule}, got {values[index]}{where}")


class Frozen:
    """Base of a built record: dataclass fields that ``__init__`` sets once and nothing rebinds or deletes.

    ``__post_init__`` makes every numpy array among the fields read-only,
    in place, and stores a field annotated ``np.ndarray`` that holds no
    array as ``np.asarray`` of its value, so an array field given as a list
    is stored as a read-only array; a subclass's own
    ``__post_init__`` calls it once its fields are final.  Other attributes
    stay assignable, so a method may still be wrapped on the instance, as a
    tracer does.  A copy or an unpickled record is built anew from its init
    fields, so it is checked and frozen afresh.
    """

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            elif f.type == "np.ndarray":  # annotations are strings under `from __future__ import annotations`
                value = np.asarray(value)
                value.setflags(write=False)
                object.__setattr__(self, f.name, value)

    def __setattr__(self, name, value):
        if name in self.__dataclass_fields__ and name in self.__dict__:  # __init__ sets each field once
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        if name in self.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super().__delattr__(name)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass
class Dataset(Frozen):
    """Immutable feature matrix plus binary labels (1 = failure).

    source_sha256 is the sha256 (hex) of the CSV bytes load_csv parsed it
    from, which run.json records; None for a dataset built from arrays.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    source_sha256: str | None = None

    def __post_init__(self):
        rows = feature_matrix(self.features, len(self.feature_names)).shape[0]
        binary_labels(self.labels, rows, "row")
        super().__post_init__()

    @property
    def n_instances(self) -> int:
        return int(self.labels.size)

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())


def load_csv(path) -> Dataset:
    """Load the maintenance CSV (AI4I_COLUMNS) into a Dataset.

    Row order is preserved, and the header must be exactly AI4I_COLUMNS.
    Errors name the file and the offending data row (1-based, header
    excluded); a numeric cell that reads as nan or inf is rejected with
    its row and column named.
    """
    path = Path(path)
    feature_columns = [column for column, feature in AI4I_COLUMNS.items() if feature]
    parsers = {column: np.float64 for column in feature_columns}
    parsers[QUALITY_COLUMN] = QUALITY_CODES
    parsers[LABEL_COLUMN] = LABEL_CODES
    content = read_input(path, "dataset")
    columns = parse_columns(path, content, tuple(AI4I_COLUMNS), parsers)
    features = np.column_stack([columns[column] for column in feature_columns])
    reject_first(
        path, content, ~np.isfinite(features),
        lambda i, j: f"non-finite value '{features[i, j]}' in column {feature_columns[j]!r}",
    )
    return Dataset(
        features=features,
        labels=columns[LABEL_COLUMN],
        feature_names=FEATURE_NAMES,
        source_sha256=sha256_hex(content),
    )


# ---------------------------------------------------------------------------
# CSV columns in and out
# ---------------------------------------------------------------------------

# A token cell is read into a bytes field of TOKEN_WIDTH characters (latin-1;
# any other character fails the read) and stripped of ASCII whitespace, as
# bytes.strip() strips it.  np.loadtxt cuts a cell to its field's width, so a
# cell that fills the field is rejected.
TOKEN_WIDTH = 16
TOKEN_PADDING = " \t\n\r\x0b\x0c"
NUL = "\x00"  # rejected anywhere in a CSV that is read
# np.loadtxt strips these information separators from a number as
# whitespace, and float() and int() reject them: a numeric cell holding one
# is rejected
SEPARATORS = "\x1c\x1d\x1e\x1f"
_HAS_SEPARATOR = re.compile(f"[{SEPARATORS}]").search
# a byte that is not UTF-8, as _records reads it (surrogateescape)
_NOT_UTF8 = re.compile("[\udc80-\udcff]").search


def _loadtxt(source, dtype, **options):
    return np.loadtxt(
        source, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1, encoding="utf-8", **options
    )


def read_input(path, kind) -> bytes:
    """The bytes of the CSV at path, read with one open; raises FileNotFoundError ("<kind> not found") if there is none."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{kind} not found: {path}")
    return path.read_bytes()


def parse_columns(path, content, header, parsers) -> dict:
    """Check a CSV's header and parse the named columns below it with one np.loadtxt call: {column: array}.

    content is the file's bytes, as read_input read them; path names the
    file in messages, and nothing here opens it.  The file's header, each
    name stripped of ASCII whitespace as a token cell is, must be exactly
    header.  parsers maps a column to np.int64, np.float64 or a token map
    (stripped cell -> value); every other column is read but not kept, so
    each row must have the header's field count.  A row at fault is found
    only when a check fails, by _first_fault, and named the way _records
    numbers it.  Raises SchemaError (an empty file; a NUL character, bytes
    that are not UTF-8 or a column named twice in the header; any other
    header), ParseError (a field count other than the header's, a
    non-numeric cell, a NUL character or bytes that are not UTF-8 anywhere
    in a row), ValidationError (a cell that is not a token of its map, no
    data rows), each naming the file.  NUL and SEPARATORS are looked for
    in content because np.loadtxt reads past them: numpy's string
    fields drop trailing NULs ('1\\x00' would read as the token '1'), and
    a number's separators are stripped as whitespace ('0.2\\x1c' would read
    as 0.2).
    """
    _, text, fields = next(_records(content), (0, None, None))
    if text is None:
        raise SchemaError(f"{path}: empty file")
    if NUL in text:
        raise SchemaError(f"{path}: NUL character in the header")
    if _NOT_UTF8(text):
        raise SchemaError(f"{path}: bytes that are not UTF-8 in the header")
    names = [name.strip(TOKEN_PADDING) for name in fields]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SchemaError(f"{path}: column {name!r} appears more than once")
    header = tuple(header)
    if tuple(names) != header:
        got = ",".join(repr(name)[1:-1] for name in names)  # a control character shows escaped
        raise SchemaError(f"{path}: expected header {','.join(header)}, got {got}")
    types = {column: f"S{TOKEN_WIDTH}" if isinstance(parse, dict) else parse for column, parse in parsers.items()}
    dtype = [(column, types.get(column, "U1")) for column in header]  # a "U1" column is counted, not kept
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # universal newlines, as np.loadtxt opens a path
            table = _loadtxt(io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"), dtype, skiprows=1)
    except ValueError as error:
        raise _first_fault(path, content, header, parsers, dtype) or ParseError(f"{path}: {error}") from None
    if not table.size:
        raise ValidationError(f"{path}: no data rows")
    # one memchr per character: a regex over the bytes took a hundred times longer
    found = [character for character in NUL + SEPARATORS if character.encode() in content]
    if found:
        fault = _first_fault(path, content, header, parsers, dtype)
        if fault or NUL in found:  # a separator outside the numeric columns is kept
            raise fault or ParseError(f"{path}: NUL character")
    columns = {}
    for column, parse in parsers.items():
        if isinstance(parse, dict):
            columns[column], known = _map_tokens(table[column], parse)
            if not known.all():
                raise _first_fault(path, content, header, parsers, dtype) or ValidationError(
                    f"{path}: {column!r} must be one of {list(parse)}"
                )
        else:
            columns[column] = np.ascontiguousarray(table[column])
    return columns


def _map_tokens(cells, tokens):
    """(values, known): each stripped cell's value in tokens, and whether it has one and is shorter than TOKEN_WIDTH."""
    stripped = np.strings.strip(cells)
    values = np.zeros(cells.shape, dtype=np.asarray(list(tokens.values())).dtype)
    known = np.zeros(cells.shape, dtype=bool)
    for token, value in tokens.items():
        hit = stripped == token.encode()
        values[hit] = value
        known |= hit
    return values, known & (np.strings.str_len(cells) < TOKEN_WIDTH)


def _records(content: bytes):
    """Yield (row number, text, fields) for the header of a CSV's bytes, as row 0, and each non-blank row below it.

    Rows are csv records numbered from 0, blank ones counted; text is the
    row's lines as the file holds them, a byte that is not UTF-8 as a lone
    surrogate (surrogateescape), and fields its cells without NUL
    characters: the csv module of Python 3.10 stops at a NUL with its own
    error, and with the NULs taken out every Python reads the same records
    and fields.
    """
    with io.TextIOWrapper(io.BytesIO(content), newline="", encoding="utf-8", errors="surrogateescape") as handle:
        lines = []  # the lines csv has read since the last record
        reader = csv.reader(lines.append(line) or line.replace(NUL, "") for line in handle)
        for row_number, fields in enumerate(reader):
            text = "".join(lines)
            lines.clear()
            if fields or NUL in text or not row_number:
                yield row_number, text, fields


def _first_fault(path, content, header, parsers, dtype):
    """The ParseError or ValidationError of the first row at fault in parse_columns' terms, or None.

    Rows are read with np.loadtxt in blocks; in a block that fails, each
    numeric cell is tried with np.loadtxt on its row's text, so a cell
    fails here exactly when it fails in parse_columns' one call.  A row's
    cells are tried in the order of parsers, after its NUL characters,
    its bytes that are not UTF-8 and its field count.
    """
    records = _records(content)
    next(records)  # the header
    for block in iter(lambda: list(itertools.islice(records, 1024)), []):
        try:
            _loadtxt([text for _, text, _ in block], dtype)
            numbers_parse = True
        except ValueError:
            numbers_parse = False
        for row_number, text, fields in block:
            where = f"{path}: row {row_number}"
            if NUL in text:
                return ParseError(f"{where}: NUL character in the row")
            if _NOT_UTF8(text):
                return ParseError(f"{where}: bytes that are not UTF-8")
            if len(fields) != len(header):
                return ParseError(f"{where}: expected {len(header)} fields, got {len(fields)}")
            for column, parse in parsers.items():
                i = header.index(column)
                if isinstance(parse, dict):
                    cell = fields[i].strip(TOKEN_PADDING) if len(fields[i]) < TOKEN_WIDTH else fields[i]
                    if cell not in parse:
                        return ValidationError(f"{where}: {column!r} must be one of {list(parse)}, got {cell!r}")
                elif _HAS_SEPARATOR(fields[i]) or not (numbers_parse or _reads(text, parse, i)):
                    cell = fields[i].strip(TOKEN_PADDING)  # str.strip() would take separators out too
                    return ParseError(f"{where}: non-numeric value {cell!r} in column {column!r}")
    return None


def _reads(text, parse, i) -> bool:
    """Whether np.loadtxt reads cell i of one row's text as parse."""
    try:
        _loadtxt([text], parse, usecols=[i])
    except ValueError:
        return False
    return True


def reject_first(path, content, bad, fault) -> None:
    """Raise a ValidationError naming the row of the first True in bad, a mask over the rows parsed from content.

    The row is numbered in content, the bytes parse_columns parsed.  fault
    words the rest from that entry's index (a row, or a row and a column),
    and is called only on failure.
    """
    hits = np.argwhere(bad)
    if hits.size:
        index = hits[0].tolist()
        row_number = next(itertools.islice(_records(content), index[0] + 1, None))[0]  # row 0 is the header
        raise ValidationError(f"{path}: row {row_number}: {fault(*index)}")


WRITE_BLOCK_ROWS = 1024  # rows converted and written at a time, so no file is held whole as text
_NEEDS_QUOTES = re.compile('[,"\r\n]').search  # QUOTE_MINIMAL quotes a cell holding any of these


def _cell_text(value) -> str:
    """A cell as csv.writer writes it: None and NaN empty, str as is, anything else by str(), quoted if needed."""
    if value is None or value != value:  # NaN != NaN
        return ""
    text = value if isinstance(value, str) else str(value)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _block_texts(columns, block: slice) -> dict:
    """{id(column): the text of its cells in block} for the distinct column objects in columns.

    The float64 bit patterns of every numpy float column (of at most 64
    bits) go through one np.unique, and each distinct pattern is formatted
    once, by repr: NaN as an empty cell, -0.0 apart from 0.0.  A numpy int
    or bool column is written by str(), anything else cell by cell through
    _cell_text.
    """
    texts = {}
    floats = {}  # id(column) -> its float64 bits in block
    for column in columns:
        key = id(column)
        if key in texts or key in floats:
            continue
        part = column[block]
        kind = part.dtype.kind if isinstance(part, np.ndarray) and part.ndim == 1 else None
        if kind == "f" and part.dtype.itemsize <= 8:
            floats[key] = part.astype(np.float64, copy=False).view(np.uint64)
        elif kind in ("i", "u", "b"):
            texts[key] = list(map(str, part.tolist()))
        else:
            texts[key] = [_cell_text(value) for value in (part.tolist() if isinstance(part, np.ndarray) else part)]
    if floats:
        distinct, inverse = np.unique(np.concatenate(list(floats.values())), return_inverse=True)
        cells = np.array(["" if x != x else repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)[inverse]
        start = 0
        for key, bits in floats.items():
            texts[key] = cells[start:start + bits.size].tolist()
            start += bits.size
    return texts


def write_columns(header, tables) -> None:
    """Write CSVs that share a header and a row count, each byte for byte as csv.writer writes it.

    tables maps each path to its equal-length columns.  Numpy columns write
    as their tolist() would: ints as ints, floats by repr; None and NaN
    become empty cells.  A text cell that holds ',', '"' or a line break is
    quoted ('"' doubled), and a row of one empty cell is written '""', as
    QUOTE_MINIMAL has it.  The files are written in lockstep,
    WRITE_BLOCK_ROWS rows at a time; in each block a column object is
    converted once however often it is passed, a float64 bit pattern is
    formatted once over all tables (_block_texts), and rows are joined with
    str.join.  Columns that differ in length, within a table or across
    tables, raise ValueError naming a path before any file is opened.
    """
    tables = {path: list(columns) for path, columns in tables.items()}
    lengths = set()
    for path, columns in tables.items():
        lengths.update(len(column) for column in columns)
        if len(lengths) > 1:
            raise ValueError(f"{path}: columns differ in length")
    names = [_cell_text(name) for name in header]
    if names == [""]:  # csv.writer quotes a row of one empty cell
        names = ['""']
    # tables keeps every column alive, so the ids _block_texts keys them by stay distinct
    every_column = [column for columns in tables.values() for column in columns]
    with ExitStack() as stack:
        handles = [stack.enter_context(Path(path).open("w", newline="", encoding="utf-8")) for path in tables]
        for handle in handles:
            handle.write(",".join(names) + "\r\n")
        for start in range(0, lengths.pop() if lengths else 0, WRITE_BLOCK_ROWS):
            texts = _block_texts(every_column, slice(start, start + WRITE_BLOCK_ROWS))
            for handle, columns in zip(handles, tables.values()):
                cells = [texts[id(column)] for column in columns]
                if len(cells) == 1:
                    cells = [[cell or '""' for cell in cells[0]]]
                handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class FoldSplit(Frozen):
    """One cross-validation cell: disjoint proper-train/calibration/test ids."""

    repetition_index: int
    fold_index: int
    proper_train_ids: np.ndarray
    calibration_ids: np.ndarray
    test_ids: np.ndarray

    @property
    def train_ids(self) -> np.ndarray:
        """Full training portion: proper-train plus calibration."""
        return np.sort(np.concatenate([self.proper_train_ids, self.calibration_ids]))


def _hold_out(class_sequences, fraction: float):
    """Sorted (rest, held_out): the first round(fraction * size) ids of each class sequence are held out."""
    bounded(fraction, "calibration_fraction", inside=(0, 1), error=InfeasibleSplitError)
    parts = [np.split(ids, [int(round(fraction * ids.size))]) for ids in class_sequences]
    held, rest = (np.sort(np.concatenate(part)) for part in zip(*parts))
    return rest, held


def stratified_holdout(labels, fraction: float, rng: np.random.Generator):
    """Split indices into (rest, held_out) with per-class proportions.

    The held-out part receives round(fraction * class size) members of each
    class, drawn at random.
    """
    y = np.asarray(labels)
    members = [np.flatnonzero(y == value) for value in np.unique(y)]
    return _hold_out([ids[rng.permutation(ids.size)] for ids in members], fraction)


def repeated_stratified_kfold(
    dataset: Dataset,
    k: int = 10,
    repetitions: int = 10,
    calibration_fraction: float = 1.0 / 3.0,
    seed: int = 0,
) -> list[FoldSplit]:
    """Repeated stratified k-fold with a calibration share of each fold.

    Each repetition reshuffles and partitions every class into k test
    chunks (within one instance of proportional); inside each fold the
    training portion is split per class so calibration_fraction of it forms
    the calibration set.  Deterministic given the seed.
    """
    bounded(k, "k", low=2, error=InfeasibleSplitError)
    bounded(repetitions, "repetitions", low=1, error=InfeasibleSplitError)
    y = dataset.labels
    for value in (0, 1):
        count = int(np.sum(y == value))
        if count < k:
            raise InfeasibleSplitError(
                f"class {value} has {count} members, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    class_members = [np.flatnonzero(y == value) for value in (0, 1)]
    splits = []
    for repetition in range(repetitions):
        # the first size % k chunks of a class hold one member more
        chunks = [np.array_split(members[rng.permutation(members.size)], k) for members in class_members]
        for fold in range(k):
            test = np.sort(np.concatenate([chunks[0][fold], chunks[1][fold]]))
            train = [np.concatenate(class_chunks[:fold] + class_chunks[fold + 1:]) for class_chunks in chunks]
            proper, calibration = _hold_out(train, calibration_fraction)
            splits.append(
                FoldSplit(
                    repetition_index=repetition,
                    fold_index=fold,
                    proper_train_ids=proper,
                    calibration_ids=calibration,
                    test_ids=test,
                )
            )
    return splits


def write_split_manifest(path, seed: int, splits: list[FoldSplit]) -> None:
    """Write the split manifest that rebuilds the folds of a run.

    The file holds json.dumps({"folds": [...], "seed": seed},
    sort_keys=True); each fold is an object with the keys calibration_ids,
    fold, proper_train_ids, repetition and test_ids, in that order.  It is
    written fold by fold, so only one fold's ids are held as Python ints at
    a time.
    """
    # the manifest with an empty fold list, split around that list
    head, tail = json.dumps({"folds": [], "seed": seed}, sort_keys=True).split("[]")
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(head + "[")
        for i, split in enumerate(splits):
            fold = {
                "calibration_ids": split.calibration_ids.tolist(),
                "fold": split.fold_index,
                "proper_train_ids": split.proper_train_ids.tolist(),
                "repetition": split.repetition_index,
                "test_ids": split.test_ids.tolist(),
            }
            handle.write((", " if i else "") + json.dumps(fold, sort_keys=True))
        handle.write("]" + tail)
