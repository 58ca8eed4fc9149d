"""Prediction-versus-oracle audit harness.

Enumerates (group, subgroup, connection set) instances over a catalog of
small groups, evaluates every registered check on both the prediction side
(group arithmetic) and the oracle side (brute force on adjacency), and
classifies each pair as agree, mismatch, not-applicable, or unevaluated.
The scan tallies the verdicts of each instance and builds an ``AuditRecord``
only for a mismatch.  When ``keep_records`` is set it also keeps one row
per instance, which becomes ``AuditRecord``s only when read (``RecordTable``).
A work item is one orbit of proper subgroups of one group under its
automorphisms.  A scanned connection set is a mask over the inverse orbits
{x, x^-1} (``_connection_sets_for``), which the sampler draws, the orbit
tables classify and the item's records and shrinks are keyed by; it is
built into a ``ConnectionSet`` once per mask, and only when an instance on
it is evaluated, recorded or kept (``_connection_set``).  Within a work
item, the scanned instances (H, C) are split into their orbits under the
automorphisms of the group (``_class_roots``), sampled or not, and only
the first instance of an orbit is evaluated: a later one, which an
automorphism phi maps the first onto, takes its outcomes, moved through
phi where they list vertices or name elements, and is tallied with the
first one's verdicts (see ``Check`` and ``_scan_orbit``).  Mismatches are
shrunk to smaller witnesses inside the work item that found them, once it
is scanned, so a pooled audit shrinks in its workers; a candidate whose
orbit the scan met takes that orbit's verdict when the check carries it,
and the item's shrinks share their greedy passes (``_Known``).

Determinism is a hard requirement here: reports carry no timestamps or
iteration-order artifacts in their JSON form, sampling is keyed off the
instance itself, and any degree of parallelism yields byte-identical output.
"""
from __future__ import annotations

import csv
import json
import math
import time
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from operator import eq, ge, getitem, le
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .errors import (
    CapacityError,
    InternalConsistencyError,
    PreconditionError,
    RelCayError,
    UnknownCheckError,
)
from .graphs import (
    ConnectionSet,
    RelCayGraph,
    build_relcay,
    cayley_adjacency,
    connection_set_count,
    inverse_orbits,
)
from .group_core import (
    GroupTable,
    Subgroup,
    bit_indices,
    cached_attribute,
    default_max_order,
    enumerate_subgroups,
    image_mask,
    make_group,
    subgroups_within,
)
from .oracles import (
    DEFAULT_EDGE_COLOR_CUTOFF,
    chromatic_number,
    diameter_components,
    edge_cover_from_matching,
    matching_edges,
    max_clique,
    max_independent_set,
    min_vertex_cover,
    structure_flags,
)
from .theorems import (
    DEFAULT_CHROMATIC_II_CAP,
    InstanceSets,
    build_class_one_coloring,
    predict_alpha_beta,
    predict_chromatic,
    predict_clique,
    predict_connectivity,
    predict_forbidden,
    predict_valencies,
)

__all__ = [
    "AGREE",
    "MISMATCH",
    "NOT_APPLICABLE",
    "UNEVALUATED",
    "Check",
    "CHECKS",
    "ALL_CHECKS",
    "AUDITED_CHECKS",
    "DEFAULT_CATALOG",
    "Limits",
    "AuditRecord",
    "MismatchEntry",
    "AuditReport",
    "RecordTable",
    "catalog_up_to",
    "compact_json",
    "evaluate",
    "evaluate_check",
    "jsonable",
    "run_audit",
    "shrink_counterexample",
]

AGREE = "agree"
MISMATCH = "mismatch"
NOT_APPLICABLE = "not-applicable"
UNEVALUATED = "unevaluated"
VERDICTS = (AGREE, MISMATCH, NOT_APPLICABLE, UNEVALUATED)

DEFAULT_CATALOG = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "D3", "D4", "D5", "D6", "D7", "D8",
    "S3", "S4", "Q8",
    "C2xC2", "C2xC4", "C2xC2xC2", "C2xC6", "E2^4",
)


def catalog_up_to(max_order: int, catalog: tuple[str, ...] = DEFAULT_CATALOG) -> tuple[str, ...]:
    """The sub-catalog whose groups do not exceed the given order."""
    return tuple(spec for spec in catalog if make_group(spec).order <= max_order)


@dataclass(frozen=True)
class Limits:
    """Caps shared across the scan, all echoed in the report's ``config``.
    All but ``edge_color_cutoff`` take part in sampling and verdicts; the
    audit never computes the edge chromatic number, so that one is only
    echoed, which keeps report digests stable.

    ``chromatic_ii_cap`` is the largest |H| for which chromatic condition
    (ii) is evaluated; its table of splits is built once per (H,
    generator), see ``Subgroup.shift_avoiding_splits``."""

    max_order: int = field(default_factory=default_max_order)
    edge_color_cutoff: int = DEFAULT_EDGE_COLOR_CUTOFF
    chromatic_ii_cap: int = DEFAULT_CHROMATIC_II_CAP
    max_connection_sets: int = 512


@dataclass(frozen=True)
class AuditRecord:
    """One (instance, check) outcome.

    ``predicted`` and ``observed`` are small JSON-ready values; the verdict
    is their comparison under the check's own comparator, which is not
    always plain equality (bounds compare with an inequality).  ``witness``
    carries mismatch details.  The index tuples exist for deterministic
    sorting and stay out of serialized output.
    """

    group: str
    h: tuple[str, ...]
    c: tuple[str, ...]
    check: str
    predicted: object
    observed: object
    verdict: str
    witness: object = None
    h_indices: tuple[int, ...] = field(default=(), repr=False)
    c_indices: tuple[int, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class MismatchEntry:
    original: AuditRecord
    shrunk: AuditRecord


# One kept instance: its C indices and names, and one (predicted, observed,
# verdict, witness) outcome per check of its block, in the block's order
_Row = tuple[tuple[int, ...], tuple[str, ...], tuple[tuple[object, object, str, object], ...]]


class _RecordBlock(NamedTuple):
    """The kept records of one subgroup: its group and subgroup, its checks
    in name order, and one row per evaluated instance, sorted by C indices."""

    group: str
    h: tuple[str, ...]
    h_indices: tuple[int, ...]
    checks: tuple[str, ...]
    rows: tuple[_Row, ...]


class RecordTable(Sequence):
    """Every kept (instance, check) outcome of an audit, as a read-only
    sequence of ``AuditRecord``s.

    The outcomes are stored as one row per instance, in one block per
    subgroup, and an ``AuditRecord`` is built each time one is read.  The
    order is by group and subgroup as the catalog lists them, then by C
    indices, then by check name.
    """

    __slots__ = ("blocks", "_ends")

    def __init__(self, blocks) -> None:
        self.blocks: tuple[_RecordBlock, ...] = tuple(blocks)
        self._ends = list(accumulate(len(b.rows) * len(b.checks) for b in self.blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        # a range indexes (and slices) as a tuple of the same length does
        position = range(len(self))[index]
        if isinstance(position, range):
            return tuple(map(self.__getitem__, position))
        b = bisect_right(self._ends, position)
        block = self.blocks[b]
        row, column = divmod(position - (self._ends[b - 1] if b else 0), len(block.checks))
        c_indices, c, outcomes = block.rows[row]
        return AuditRecord(
            block.group, block.h, c, block.checks[column], *outcomes[column],
            block.h_indices, c_indices,
        )

    def __iter__(self):
        for group, h, h_indices, checks, rows in self.blocks:
            for c_indices, c, outcomes in rows:
                for check, outcome in zip(checks, outcomes):
                    yield AuditRecord(group, h, c, check, *outcome, h_indices, c_indices)


@dataclass(frozen=True)
class AuditReport:
    config: dict
    catalog: tuple[dict, ...]
    totals: dict
    mismatches: tuple[MismatchEntry, ...]
    records: Optional[RecordTable]
    wall_time_seconds: float
    errors: tuple[dict, ...] = ()
    # instances that copied outcomes from the first instance of their class,
    # which may lie on another subgroup of the same work item (see
    # _scan_orbit); like the wall time, never serialised
    copied_instances: int = 0

    def has_blocking_mismatch(self) -> bool:
        return any(
            entry.original.check not in AUDITED_CHECKS for entry in self.mismatches
        )

    def to_json(self) -> str:
        """The report as ``json.dumps(report, indent=2, sort_keys=True)``
        plus a newline, where a record is the object of its fields
        ``group``, ``h``, ``c``, ``check``, ``predicted``, ``observed``,
        ``verdict`` and ``witness`` (``predicted``, ``observed`` and
        ``witness`` through ``jsonable``); ``records`` appears only when
        kept and ``errors`` only when non-empty.

        The records go through ``_RecordWriter``, not the encoder, because
        ``json`` has no C path for indented output.  A record is three
        pieces that other records share, so the writer pays per row, per
        (block, check) and per distinct outcome, not per record.  Every
        piece of the report goes into one list that is joined once, so
        its text exists in one copy."""
        # wall time is excluded: reports must be byte-identical across runs.
        # The top-level keys are written in sorted order, as sort_keys does.
        out = [
            '{\n  "catalog": ', _indented(list(self.catalog), 1),
            ',\n  "config": ', _indented(self.config, 1),
        ]
        if self.errors:
            out += [',\n  "errors": ', _indented(list(self.errors), 1)]
        out.append(',\n  "mismatches": ')
        # a mismatch is an object at depth 2 holding two records at depth 3
        writer = _RecordWriter(4)
        first = len(out)
        for entry in self.mismatches:
            out += (
                _NEXT_ITEM + '{\n      "original": ', writer.record(entry.original),
                ',\n      "shrunk": ', writer.record(entry.shrunk), "\n    }",
            )
        _close_array(out, first)
        if self.records is not None:
            out.append(',\n  "records": ')
            writer = _RecordWriter(3)
            first = len(out)
            for block in self.records.blocks:
                writer.block(block, out)
            _close_array(out, first)
        out += [',\n  "totals": ', _indented(self.totals, 1), "\n}\n"]
        return "".join(out)

    def to_csv(self) -> str:
        """The kept records as CSV, one line per record, as ``csv.writer``
        writes the fields ``group``, ``h`` and ``c`` (names joined by
        commas), ``check``, ``predicted`` and ``observed`` (through
        ``compact_json``) and ``verdict``.

        As in ``to_json``, a line is three pieces that other lines share:
        ``GROUP,H,C,`` per row, ``CHECK,`` per (block, check) and
        ``PREDICTED,OBSERVED,VERDICT`` per distinct outcome, each quoted by
        ``csv.writer`` once.  A trailing empty field keeps a piece's last
        field from being quoted as the only field of its line."""
        if self.records is None:
            raise PreconditionError("CSV export needs a run with keep_records")
        # writerow returns what the file's write returns: here, the line
        line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
        cell = _Renderings(compact_json).of
        tails = _Renderings(
            lambda outcome: line((cell(outcome[0]), cell(outcome[1]), outcome[2]))
        )
        out = [
            line(("instance_group", "instance_H", "instance_C", "check", "predicted",
                  "observed", "verdict"))
        ]
        for group, h, _, checks, rows in self.records.blocks:
            h_text = ",".join(h)
            pieces = [""] * (3 * len(checks))
            pieces[1::3] = [line((check, ""))[:-1] for check in checks]
            for _, c, outcomes in rows:
                pieces[::3] = [line((group, h_text, ",".join(c), ""))[:-1]] * len(outcomes)
                pieces[2::3] = map(tails.of_held, outcomes)
                out += pieces
        return "".join(out)


_PLAIN_SCALARS = frozenset({type(None), bool, int, float, str})
_PLAIN_CONTAINERS = frozenset({tuple, list, set, frozenset})


def _plain(value) -> bool:
    """Whether a value is built only from None, bools, ints, floats and
    strings in tuples, lists, sets, frozensets and dicts, each of exactly
    that class, not a subclass."""
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return True
    if kind is dict:
        value = (*value, *value.values())
    elif kind not in _PLAIN_CONTAINERS:
        return False
    # most containers hold scalars only: that test needs no call per item
    return _PLAIN_SCALARS.issuperset(map(type, value)) or all(map(_plain, value))


def _memo_key(value) -> Optional[str]:
    """The key under which a check value's printed form is memoised: its
    repr when the value is ``_plain``, else None, and the value is printed
    each time it is met.

    The repr of a plain value is Python literal syntax, which spells out
    the class of every part, so two plain values with one repr print
    alike.  The value itself is no key: ``True == 1``, ``(True,) == (1,)``
    and ``0.0 == -0.0``, though the two values of each pair print
    differently.  Nor is the repr of any other value: ``jsonable`` prints
    an unknown object by its repr, so a tuple holding an object whose repr
    is ``'x'`` has the repr of the tuple holding the string ``'x'``, and a
    subclass of str or int may have a repr that is not its value's.
    """
    return repr(value) if _plain(value) else None


class _Renderings:
    """``render`` of each distinct value once: a value is found by its
    ``_memo_key`` (``of``), and one that has none is rendered each time it
    is met.  A value that the report holds while it is written may be
    found by its identity first (``of_held``): outcomes carried through an
    automorphism are one object on many rows, so that finds most of them
    without computing a key.  An id names one object only while that
    object lives, so a value built for the lookup is found by its key
    alone."""

    def __init__(self, render: Callable[[object], str]):
        self._render = render
        self._memo: dict[str, str] = {}
        self._held: dict[int, str] = {}

    def of(self, value) -> str:
        key = _memo_key(value)
        if key is None:
            return self._render(value)
        text = self._memo.get(key)
        if text is None:
            text = self._memo[key] = self._render(value)
        return text

    def of_held(self, value) -> str:
        text = self._held.get(id(value))
        if text is None:
            text = self._held[id(value)] = self.of(value)
        return text


def jsonable(value):
    """A JSON-ready copy of a check value: sets become lists sorted by repr,
    dict keys become strings, and anything else unknown becomes its repr."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    return repr(value)


# indent=None keeps this encoder on the C fast path
_COMPACT_ENCODER = json.JSONEncoder(sort_keys=True)


def compact_json(value) -> str:
    """A check value as one line of JSON: ``json.dumps(jsonable(value),
    sort_keys=True)``, the form CSV export and ``relcay check`` print."""
    return _COMPACT_ENCODER.encode(jsonable(value))


def _indented(value, depth: int) -> str:
    """A JSON-ready value as ``json.dumps(value, indent=2, sort_keys=True)``
    writes it when it starts at the given depth of an enclosing document."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


# what leads each item of a top-level array: the item is at depth 2
_NEXT_ITEM = ",\n    "
# An AuditRecord's keys in sorted order, as sort_keys writes them
_RECORD_KEYS = ("c", "check", "group", "h", "observed", "predicted", "verdict", "witness")


def _close_array(out: list[str], first: int) -> None:
    """Close an indent-2 array at depth 1 whose items were appended to
    ``out`` from position ``first`` on, each led by ``_NEXT_ITEM``: the
    first item's comma becomes the opening bracket."""
    if len(out) == first:
        out.append("[]")
    else:
        out[first] = "[" + out[first][1:]
        out.append("\n  ]")


class _RecordWriter:
    """Writes ``AuditRecord``s as indent-2 JSON objects whose keys sit at a
    fixed depth, byte for byte as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes the record's fields.

    A record is written as three pieces, which follow its keys in sorted
    order:

    - a head per row, ``{"c": C, "check": ``;
    - a middle per (block, check), ``CHECK, "group": GROUP, "h": H,
      "observed": ``;
    - a tail per distinct outcome, ``OBSERVED, "predicted": PREDICTED,
      "verdict": VERDICT, "witness": WITNESS}``.

    A tail is rendered once per distinct outcome (``_Renderings``), so one
    string per distinct tail stays alive.  A mismatch's record is written
    as one string, once however many entries share it.

    Strings, None, booleans, ints and finite floats are formatted the way
    ``json`` formats them, and so is a tuple of exact strings, such as the
    ``h`` and ``c`` name tuples, or of exact ints, such as the degree
    sequences of ``degree_formula``.  Every other value (another container, or
    a float that ``json`` spells NaN or Infinity) is rendered by
    ``json.dumps`` and re-indented, once per distinct value under its
    ``_memo_key``.
    """

    def __init__(self, depth: int):
        self._depth = depth
        pad = "\n" + "  " * depth
        # a template's slots are %s; no key or pad holds a %
        c, check, group, h, observed, predicted, verdict, witness = (
            f'{pad}"{name}": ' for name in _RECORD_KEYS
        )
        # a tuple of names: each name on its own line, one level deeper
        self._open, self._comma, self._close = "[" + pad + "  ", "," + pad + "  ", pad + "]"
        self._head = "{" + c + "%s," + check
        self._middle = "%s," + group + "%s," + h + "%s," + observed
        self._tail = "%s," + predicted + "%s," + verdict + "%s," + witness + "%s" + pad[:-2] + "}"
        self._values = _Renderings(self._render)
        self._tails = _Renderings(self._render_tail)
        self._records = _Renderings(self._render_record)

    def _value(self, value) -> str:
        if value is None:
            return "null"
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float) and math.isfinite(value):
            return float.__repr__(value)
        if type(value) is tuple:
            if all(type(item) is str for item in value):
                return self._listed(map(encode_basestring_ascii, value))
            # a bool's type is not int, so a tuple holding one is left to json
            if all(type(item) is int for item in value):
                return self._listed(map(int.__repr__, value))
        return self._values.of(value)

    def _listed(self, items) -> str:
        """A tuple's items, already formatted, as an indent-2 array."""
        text = self._comma.join(items)
        return self._open + text + self._close if text else "[]"

    def _render(self, value) -> str:
        return _indented(jsonable(value), self._depth)

    def _head_of(self, c) -> str:
        return self._head % self._value(c)

    def _middle_of(self, check: str, group: str, h) -> str:
        return self._middle % (
            encode_basestring_ascii(check), encode_basestring_ascii(group), self._value(h)
        )

    def _render_tail(self, outcome: _CheckResult) -> str:
        predicted, observed, verdict, witness = outcome
        value = self._value
        return self._tail % (
            value(observed), value(predicted), encode_basestring_ascii(verdict), value(witness)
        )

    def _render_record(self, record: AuditRecord) -> str:
        outcome = (record.predicted, record.observed, record.verdict, record.witness)
        return (
            self._head_of(record.c)
            + self._middle_of(record.check, record.group, record.h)
            + self._tails.of(outcome)
        )

    def record(self, record: AuditRecord) -> str:
        """A record that the report holds, written once however many
        mismatch entries share it."""
        return self._records.of_held(record)

    def block(self, block: _RecordBlock, out: list[str]) -> None:
        """Append the pieces of a block's records, in order, to ``out``,
        each record led by ``_NEXT_ITEM``; the report holds the block."""
        # one row's pieces: head, middle and tail for each check in turn
        pieces = [""] * (3 * len(block.checks))
        pieces[1::3] = [self._middle_of(check, block.group, block.h) for check in block.checks]
        for _, c, outcomes in block.rows:
            pieces[::3] = [_NEXT_ITEM + self._head_of(c)] * len(outcomes)
            pieces[2::3] = map(self._tails.of_held, outcomes)
            out += pieces


# --------------------------------------------------------------------------
# Instance context: lazy oracle and prediction state shared by the checks


class InstanceContext:
    """Everything the checks may ask about one (G, H, C) instance.

    Oracle quantities are computed lazily so cheap checks never pay for
    expensive ones; in particular nothing here computes the edge chromatic
    number or domination, which the audit does not need.  An exact search
    that runs out of its node budget is not repeated: later reads raise
    the same ``CapacityError`` at once.

    The context owns the instance's derived sets, ``sets``: H n C, C minus
    H, C*C, H n (C minus H)^2 and HC*, each computed on first read (see
    ``theorems.InstanceSets``).  The predictors and checks that need them
    read them from there, so no set is built twice for one instance.
    """

    def __init__(self, group, h: Subgroup, c: ConnectionSet, limits: Limits):
        self.group = group
        self.h = h
        self.c = c
        self.limits = limits
        self.sets = InstanceSets(group, h, c)
        self._exhausted = {}

    def _exact(self, search, *args) -> int:
        message = self._exhausted.get(search)
        if message is None:
            try:
                return search(self.graph.n, self.graph.adjacency, *args)
            except CapacityError as err:
                message = self._exhausted[search] = str(err)
        raise CapacityError(message)

    @cached_attribute
    def graph(self) -> RelCayGraph:
        return build_relcay(self.group, self.h, self.c)

    @cached_attribute
    def _components_diameter(self):
        return diameter_components(self.graph)

    @cached_attribute
    def flags(self):
        return structure_flags(self.graph, len(self._components_diameter[0]))

    @property
    def diameter(self) -> Optional[int]:
        return self._components_diameter[1]

    @cached_attribute
    def clique_number(self) -> int:
        return self._exact(max_clique)

    @cached_attribute
    def independence_number(self) -> int:
        return self._exact(max_independent_set)

    @cached_attribute
    def matching(self) -> tuple[tuple[int, int], ...]:
        return matching_edges(self.graph.n, self.graph.adjacency)

    @property
    def matching_number(self) -> int:
        return len(self.matching)

    @cached_attribute
    def vertex_cover_number(self) -> int:
        return self._exact(min_vertex_cover)

    @cached_attribute
    def edge_cover_number(self) -> Optional[int]:
        return edge_cover_from_matching(
            self.graph.n, self.graph.adjacency, self.matching
        )

    @cached_attribute
    def chromatic(self) -> int:
        # the clique number is the coloring search's lower bound; an
        # edgeless graph is 1-colorable without either search
        clique = self.clique_number if self.graph.edge_count else None
        return self._exact(chromatic_number, clique)

    @cached_attribute
    def valency(self):
        return predict_valencies(self.group, self.h, self.c, sets=self.sets)

    @cached_attribute
    def connectivity(self):
        return predict_connectivity(self.group, self.h, self.c, sets=self.sets)

    @cached_attribute
    def clique_prediction(self):
        return predict_clique(self.group, self.h, self.c, sets=self.sets)

    @cached_attribute
    def alpha_beta(self):
        return predict_alpha_beta(self.group, self.h, self.c)

    @cached_attribute
    def chromatic_prediction(self):
        return predict_chromatic(
            self.group,
            self.h,
            self.c,
            partition_cap=self.limits.chromatic_ii_cap,
            sets=self.sets,
        )

    @cached_attribute
    def coloring_outcome(self) -> tuple[Optional[int], Optional[str]]:
        try:
            coloring = build_class_one_coloring(self.graph)
            return len(coloring.colors_used), None
        except InternalConsistencyError as err:
            return None, str(err)

    def names(self, indices) -> tuple[str, ...]:
        return tuple(self.group.names[x] for x in indices)


# --------------------------------------------------------------------------
# Checks

_CheckResult = tuple[object, object, str, object]
_CheckFn = Callable[["InstanceContext"], _CheckResult]


def _verdict(agree: bool) -> str:
    return AGREE if agree else MISMATCH


def _compared(predicted, observed, holds, applicable=True) -> _CheckResult:
    """The audit's one verdict policy: not-applicable when the hypothesis
    ``applicable`` fails, else agree exactly when ``holds(observed,
    predicted)``, with ``holds`` one of ``operator.eq``, ``le`` and ``ge``.
    Both values are recorded either way."""
    if not applicable:
        return predicted, observed, NOT_APPLICABLE, None
    return predicted, observed, _verdict(holds(observed, predicted)), None


def _check_degree_formula(ctx: InstanceContext) -> _CheckResult:
    formula = ctx.valency.degree_formula
    actual = ctx.graph.degrees
    if formula == actual:
        return formula, actual, AGREE, None
    x = next(x for x, (want, got) in enumerate(zip(formula, actual)) if want != got)
    witness = {"vertex": ctx.group.names[x], "formula": formula[x], "adjacency": actual[x]}
    return formula, actual, MISMATCH, witness


def _check_edge_count(ctx: InstanceContext) -> _CheckResult:
    inside = len(ctx.sets.inner)
    product = len(ctx.h) * (2 * len(ctx.c) - inside)
    predicted = product // 2
    observed = ctx.graph.edge_count
    return predicted, observed, _verdict(product % 2 == 0 and predicted == observed), None


def _check_valency_bound(ctx: InstanceContext) -> _CheckResult:
    v = ctx.valency
    observed = len(set(ctx.graph.degrees))
    predicted = {"valency_bound": v.valency_bound, "sqrt_bound": v.sqrt_bound}
    ok = observed <= v.valency_bound <= v.sqrt_bound
    return predicted, observed, _verdict(ok), None


def _check_regular(ctx: InstanceContext) -> _CheckResult:
    v = ctx.valency
    result = _compared(v.predicted_regular, ctx.flags.regular, eq, v.regular_applicable)
    # the characterization says the graph is then the Cayley graph Cay(G, C)
    if result[2] == AGREE and v.predicted_regular:
        if ctx.graph.adjacency != cayley_adjacency(ctx.group, ctx.c):
            return *result[:2], MISMATCH, {"cayley_edge_set_equal": False}
    return result


def _check_full_degree_coset(ctx: InstanceContext) -> _CheckResult:
    v = ctx.valency
    h_mask = ctx.h.mask
    predicted = bit_indices(v.full_degree_coset.mask & ~h_mask)
    degrees = ctx.graph.degrees
    size = len(ctx.c)
    observed = [
        x
        for x in range(ctx.group.order)
        if not h_mask >> x & 1 and degrees[x] == size
    ]
    ok = predicted == observed
    witness = None
    if not ok:
        diff = sorted(set(predicted) ^ set(observed))
        witness = {"first_disagreement": ctx.group.names[diff[0]]}
    return ctx.names(predicted), ctx.names(observed), _verdict(ok), witness


def _check_isolated_vertex(ctx: InstanceContext) -> _CheckResult:
    reach = ctx.sets.hc_star.mask
    claimed = [x for x in range(ctx.group.order) if not reach >> x & 1]
    degrees = ctx.graph.degrees
    isolated = [x for x in range(ctx.group.order) if degrees[x] == 0]
    bad = [x for x in claimed if degrees[x] != 0]
    witness = {"vertex": ctx.group.names[bad[0]]} if bad else None
    return ctx.names(claimed), ctx.names(isolated), _verdict(not bad), witness


def _check_connectivity(ctx: InstanceContext) -> _CheckResult:
    conn = ctx.connectivity
    result = _compared(conn.predicted_connected, ctx.flags.connected, eq)
    if result[2] == MISMATCH:
        witnesses = ctx.names(conn.product_witnesses)
        return *result[:3], {"hc_star_covers": conn.hc_star_covers, "product_witnesses": witnesses}
    return result


def _diameter(bound_name: str) -> _CheckFn:
    def check(ctx: InstanceContext) -> _CheckResult:
        bound = next(b for b in ctx.connectivity.diameter_bounds if b.name == bound_name)
        # every bound presumes a connected graph: a disconnected one has diameter None
        return _compared(bound.value, ctx.diameter, le, ctx.flags.connected and bound.applicable)

    return check


def _check_clique_dc_decomposition(ctx: InstanceContext) -> _CheckResult:
    cp = ctx.clique_prediction
    if not cp.c_cubed_applicable or not ctx.c:
        return True, None, NOT_APPLICABLE, None
    holds = not cp.c_cubed_failures
    witness = None
    if not holds:
        failure = "triple-product decomposition fails: " + "; ".join(cp.c_cubed_failures)
        witness = {"failure": failure}
    return True, holds, _verdict(holds), witness


def _alpha_beta(field_name: str, quantity: str) -> _CheckFn:
    """One alpha/beta prediction against the oracle quantity of that name;
    the edge cover's oracle answers None on a graph with an isolated vertex."""

    def check(ctx: InstanceContext) -> _CheckResult:
        ab = ctx.alpha_beta
        observed = getattr(ctx, quantity)
        applicable = ab.hypothesis_ok and observed is not None
        return _compared(getattr(ab, field_name), observed, eq, applicable)

    return check


def _check_class_one_coloring(ctx: InstanceContext) -> _CheckResult:
    if not ctx.sets.outer:
        return len(ctx.c), None, NOT_APPLICABLE, None
    colors, failure = ctx.coloring_outcome
    ok = failure is None and colors <= len(ctx.c)
    witness = {"failure": failure} if failure else None
    return len(ctx.c), colors, _verdict(ok), witness


def _check_chromatic_equality(ctx: InstanceContext) -> _CheckResult:
    ch = ctx.chromatic_prediction
    predicted = ch.predicted_equality
    observed = ctx.chromatic == ch.upper
    if predicted is None and ch.equality_applicable:
        # condition (ii) was not evaluated: |H| is above the split-table cap
        return predicted, observed, UNEVALUATED, None
    return _compared(predicted, observed, eq, ch.equality_applicable)


def _forbidden(kind: str, flag_name: Optional[str] = None) -> _CheckFn:
    def check(ctx: InstanceContext) -> _CheckResult:
        fb = predict_forbidden(ctx.group, ctx.h, ctx.c, kind, sets=ctx.sets)
        result = _compared(fb.predicted, getattr(ctx.flags, flag_name or kind), eq, fb.applicable)
        if result[2] == MISMATCH and fb.details:
            return *result[:3], dict(fb.details)
        return result

    return check


def _move_names(names: tuple[str, ...], phi, group: GroupTable) -> tuple[str, ...]:
    """Element names mapped through phi, in index order."""
    if not names:
        return names
    moved = sorted(map(phi.__getitem__, map(group.name_index.__getitem__, names)))
    return tuple(map(group.names.__getitem__, moved))


def _move_vertex_values(outcome: _CheckResult, phi, group: GroupTable) -> _CheckResult:
    """An outcome whose values list one value per vertex, moved through
    phi (a ``_Map``): new[phi(x)] = old[x]."""
    predicted, observed, verdict, witness = outcome
    inverse = phi.inverse
    moved = tuple(map(predicted.__getitem__, inverse)), tuple(map(observed.__getitem__, inverse))
    return outcome if moved == outcome[:2] else (*moved, verdict, witness)


def _move_element_names(outcome: _CheckResult, phi, group: GroupTable) -> _CheckResult:
    predicted, observed, verdict, witness = outcome
    moved = _move_names(predicted, phi, group)
    moved = moved, (moved if observed == predicted else _move_names(observed, phi, group))
    return outcome if moved == outcome[:2] else (*moved, verdict, witness)


def _move_overlap_witness(outcome: _CheckResult, phi, group: GroupTable) -> _CheckResult:
    """``square_free_as_printed``: only a mismatch's ``pair_product_overlap``
    names elements."""
    predicted, observed, verdict, witness = outcome
    overlap = _move_names(witness["pair_product_overlap"], phi, group)
    if overlap == witness["pair_product_overlap"]:
        return outcome
    return predicted, observed, verdict, {**witness, "pair_product_overlap": overlap}


# by default an outcome that agreed or did not apply is carried as it is
_AS_IS = {AGREE: None, NOT_APPLICABLE: None}


@dataclass(frozen=True)
class Check:
    """One registered check.

    ``family`` is the theorem family ``check --theorem`` selects it by.  An
    ``audited`` check's disagreement is a documented finding, not a defect:
    it never drives a failing exit status.

    ``carry`` says how an outcome reaches a copy, an instance that an
    automorphism phi maps the evaluated one onto (see ``_scan_orbit``): it
    maps each verdict that is carried to its mover.  An outcome with such
    a verdict becomes ``mover(outcome, phi, group)`` on the copy, or stays
    as it is when the mover is None or phi leaves its values as they are;
    an outcome with any other verdict is evaluated there.  A mover reads
    only the group's ``names`` and ``name_index``, so moving needs no
    ``InstanceContext``, and it keeps the verdict, so a copy that
    evaluates nothing has its class root's verdicts.  By default an
    outcome that agreed or did not apply is carried as it is, since values
    that are None, booleans, numbers or dicts of them are equal on the two
    instances.  Values that list one value per vertex or name elements are
    moved.  An ``unevaluated`` outcome is never carried, nor a mismatch
    whose witness phi need not map onto the other instance's, such as the
    first disagreeing vertex in index order or ``connectivity``'s product
    witnesses.
    """

    name: str
    family: str
    fn: _CheckFn
    audited: bool = False
    # a dict is unhashable: left out of the hash, so a Check stays hashable
    carry: dict[str, Optional[Callable]] = field(default_factory=_AS_IS.copy, hash=False)


# a check that only compares reads its prediction, observation and hypothesis in that order
CHECKS: tuple[Check, ...] = (
    Check(
        "degree_formula", "valency", _check_degree_formula, carry={AGREE: _move_vertex_values}
    ),
    Check("edge_count", "valency", _check_edge_count),
    Check("valency_bound", "valency", _check_valency_bound),
    Check("regular", "valency", _check_regular),
    Check("semi_regular", "valency", lambda ctx: _compared(
        ctx.valency.predicted_semi_regular, ctx.flags.semi_regular, eq,
        ctx.valency.semi_regular_applicable,
    )),
    Check(
        "full_degree_coset", "valency", _check_full_degree_coset,
        carry={AGREE: _move_element_names},
    ),
    Check(
        "isolated_vertex", "valency", _check_isolated_vertex, carry={AGREE: _move_element_names}
    ),
    Check("connectivity", "connectivity", _check_connectivity),
    Check("connectivity_disjoint", "connectivity", lambda ctx: _compared(
        ctx.connectivity.disjoint_predicted, ctx.flags.connected, eq,
        ctx.connectivity.disjoint_applicable,
    )),
    Check("connectivity_aba", "connectivity", lambda ctx: _compared(
        ctx.connectivity.aba_predicted, ctx.flags.connected, eq, ctx.connectivity.aba_applicable
    )),
    Check("diam_width", "diameter", _diameter("width")),
    Check("diam_half_sum", "diameter", _diameter("half_sum")),
    Check("diam_three_halves", "diameter", _diameter("three_halves")),
    Check("diam_disjoint", "diameter", _diameter("disjoint")),
    Check("diam_small_square", "diameter", _diameter("small_square")),
    Check("clique_upper", "clique", lambda ctx: _compared(
        ctx.clique_prediction.upper, ctx.clique_number, le
    )),
    Check("clique_equality", "clique", lambda ctx: _compared(
        ctx.clique_prediction.upper_is_equality,
        ctx.clique_number == ctx.clique_prediction.upper, eq,
    )),
    Check("clique_psi_lower", "clique", lambda ctx: _compared(
        ctx.clique_prediction.lower_psi, ctx.clique_number, ge
    )),
    Check("clique_psi_plus", "clique", lambda ctx: _compared(
        ctx.clique_prediction.lower_psi + 1, ctx.clique_number, ge,
        ctx.clique_prediction.psi_plus,
    )),
    Check("clique_c3_upper", "clique", lambda ctx: _compared(
        ctx.clique_prediction.lower_psi + 1, ctx.clique_number, le,
        ctx.clique_prediction.c_cubed_applicable,
    )),
    Check("clique_dc_decomposition", "clique", _check_clique_dc_decomposition),
    Check("alpha_independence", "alpha_beta", _alpha_beta("alpha", "independence_number")),
    Check("alpha_prime_matching", "alpha_beta", _alpha_beta("alpha_prime", "matching_number")),
    Check("beta_cover", "alpha_beta", _alpha_beta("beta", "vertex_cover_number")),
    Check("beta_prime_edge_cover", "alpha_beta", _alpha_beta("beta_prime", "edge_cover_number")),
    Check("class_one_coloring", "coloring", _check_class_one_coloring),
    Check("chromatic_upper", "chromatic", lambda ctx: _compared(
        ctx.chromatic_prediction.upper, ctx.chromatic, le
    )),
    Check("chromatic_equality", "chromatic", _check_chromatic_equality),
    Check("claw_free", "forbidden", _forbidden("claw_free")),
    Check("forest", "forbidden", _forbidden("forest")),
    Check("tree", "forbidden", _forbidden("tree")),
    Check("triangle_free", "forbidden", _forbidden("triangle_free")),
    Check(
        "square_free_as_printed", "forbidden",
        _forbidden("square_free_as_printed", "square_subgraph_free"), audited=True,
        carry={**_AS_IS, MISMATCH: _move_overlap_witness},
    ),
    Check("bipartite_sufficient", "forbidden", _forbidden("bipartite_sufficient", "bipartite")),
)

_CHECK_FNS = {check.name: check.fn for check in CHECKS}
ALL_CHECKS = tuple(_CHECK_FNS)
AUDITED_CHECKS = frozenset(check.name for check in CHECKS if check.audited)
# each check's verdicts that reach its classmates, each with its mover
_CARRY = {check.name: check.carry for check in CHECKS}


def evaluate(ctx: InstanceContext, check: str) -> _CheckResult:
    """One check's (predicted, observed, verdict, witness) on one instance.

    The one place a check runs: the scan, ``relcay check`` (one context
    for all the checks it prints) and ``evaluate_check``, which shrinking
    calls, all come through here.
    """
    try:
        return _CHECK_FNS[check](ctx)
    except CapacityError as err:
        # an exact search ran past its node budget: no observed value
        return None, None, UNEVALUATED, {"capacity": str(err)}


def _resolve_checks(checks) -> tuple[str, ...]:
    if checks is None:
        return ALL_CHECKS
    resolved = tuple(checks)
    unknown = [name for name in resolved if name not in _CHECK_FNS]
    if unknown:
        raise UnknownCheckError(
            f"unknown check name(s): {', '.join(sorted(unknown))}"
        )
    repeated = sorted(name for name, count in Counter(resolved).items() if count > 1)
    if repeated:
        raise PreconditionError(f"check name(s) given more than once: {', '.join(repeated)}")
    return resolved


# --------------------------------------------------------------------------
# Deterministic stratified sampling of connection sets


def _fnv1a(text: str) -> int:
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def _lcg_stream(seed: int):
    state = seed or 1
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        yield state


def _size_count_table(sizes: list[int]) -> list[list[int]]:
    """ways[i][r]: subsets of orbits i..end with total element count r."""
    total = sum(sizes)
    ways = [[0] * (total + 1) for _ in range(len(sizes) + 1)]
    ways[len(sizes)][0] = 1
    for i in range(len(sizes) - 1, -1, -1):
        for r in range(total + 1):
            count = ways[i + 1][r]
            if r >= sizes[i]:
                count += ways[i + 1][r - sizes[i]]
            ways[i][r] = count
    return ways


def _unrank_subset(sizes, ways, target: int, rank: int) -> int:
    """The subset of the given rank among those whose orbits hold
    ``target`` elements, as a mask over the orbits (bit i = orbit i)."""
    mask = 0
    for i, size in enumerate(sizes):
        if target == 0:
            break
        without = ways[i + 1][target]
        if rank < without:
            continue
        rank -= without
        mask |= 1 << i
        target -= size
    return mask


def _sample_quota(counts: dict[int, int], cap: int) -> dict[int, int]:
    # round-robin over degree-of-|C| strata, ascending, until the cap is
    # spent; guarantees every stratum is represented
    quotas = {size: 0 for size in counts}
    remaining = cap
    while remaining > 0:
        progressed = False
        for size in sorted(counts):
            if remaining == 0:
                break
            if quotas[size] < counts[size]:
                quotas[size] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            break
    return quotas


@lru_cache(maxsize=None)
def _sampling_plan(group, limits: Limits):
    """The sizes of the inverse orbits, the ways table, and the per-size
    counts and quotas of the stratified sample; None when every connection
    set fits under the cap and the scan is exhaustive.  Built once per
    (group, limits)."""
    if connection_set_count(group) <= limits.max_connection_sets:
        return None
    sizes = [len(o) for o in inverse_orbits(group)]
    ways = _size_count_table(sizes)
    counts = {r: ways[0][r] for r in range(sum(sizes) + 1) if ways[0][r]}
    quotas = _sample_quota(counts, limits.max_connection_sets)
    return sizes, ways, counts, quotas


def _connection_sets_for(group, h_members: tuple[int, ...], limits: Limits):
    """The connection sets scanned on the subgroup with these members, in
    scan order, each a mask over ``inverse_orbits(group)`` (bit i = orbit
    i), which stays a mask until an instance on it is evaluated, recorded
    or kept (``_connection_set``).  An exhaustive scan takes every mask in
    binary-counter order, the order of ``enumerate_connection_sets``; a
    sampled one takes each |C| stratum's quota of ranks, drawn from a
    stream keyed by the group, the subgroup and the size."""
    plan = _sampling_plan(group, limits)
    if plan is None:
        return range(connection_set_count(group))
    sizes, ways, counts, quotas = plan
    key_h = ",".join(map(str, h_members))
    masks = []
    for size in sorted(counts):
        quota = quotas[size]
        if quota == counts[size]:
            ranks = range(counts[size])
        else:
            stream = _lcg_stream(_fnv1a(f"{group.spec}|{key_h}|{size}"))
            chosen: set[int] = set()
            while len(chosen) < quota:
                chosen.add(next(stream) % counts[size])
            ranks = sorted(chosen)
        masks += [_unrank_subset(sizes, ways, size, rank) for rank in ranks]
    return masks


@cache
def _connection_set(group, mask: int) -> ConnectionSet:
    """The connection set of a mask over ``inverse_orbits(group)``, built
    and validated once per (group, mask), when an instance on it is first
    evaluated, recorded or kept, and shared by every subgroup.  ``run_audit``
    empties the cache when it returns or raises."""
    orbits = inverse_orbits(group)
    return ConnectionSet(group, [x for i in bit_indices(mask) for x in orbits[i]])


@lru_cache(maxsize=None)
def _orbit_bits(group) -> tuple[int, ...]:
    """Bit i for the least member of inverse orbit i, 0 for every other
    element, so that a connection set's members add up to its mask."""
    bits = [0] * group.order
    for i, orbit in enumerate(inverse_orbits(group)):
        bits[orbit[0]] = 1 << i
    return tuple(bits)


def _mask_of(group, members: tuple[int, ...]) -> int:
    """The mask over ``inverse_orbits(group)`` of the connection set with
    these members; anything else is rejected as ``ConnectionSet`` rejects
    it."""
    bits = _orbit_bits(group)
    mask = sum(bits[x] for x in members if 0 <= x < len(bits))
    if _connection_set(group, mask).members != members:
        # members out of order or repeated, or no connection set: this rejects it
        return _mask_of(group, ConnectionSet(group, members).members)
    return mask


# --------------------------------------------------------------------------
# Scan driver


def _subgroup_orbits(group, subgroups) -> list[tuple[list[int], list]]:
    """The positions of ``subgroups``, split into orbits of the group's
    automorphisms (``GroupTable.automorphism_generators``); the list must
    be closed under them, as a group's proper subgroups are.  Each orbit
    is in position order, with an automorphism for each position that maps
    the orbit's first subgroup onto the one there; the orbits are in the
    order of their least positions.

    A breadth-first search from each least position not yet reached lists
    its orbit, composing the maps along the way.  The group of
    automorphisms is finite, so its generators reach every image without
    their inverses."""
    index = {h.mask: k for k, h in enumerate(subgroups)}
    carriers: list = [None] * len(subgroups)
    orbits = []
    for start in range(len(subgroups)):
        if carriers[start] is not None:
            continue
        carriers[start] = tuple(range(group.order))
        orbit = [start]
        for k in orbit:
            members = subgroups[k].members
            for phi in group.automorphism_generators:
                j = index[image_mask(phi, members)]
                if carriers[j] is None:
                    carriers[j] = tuple(map(phi.__getitem__, carriers[k]))
                    orbit.append(j)
        orbit.sort()
        orbits.append((orbit, [carriers[k] for k in orbit]))
    return orbits


class _Map(tuple):
    """An automorphism as the tuple of the images of the elements, which
    works out its inverse once, when first asked."""

    @cached_attribute
    def inverse(self) -> tuple[int, ...]:
        return tuple(sorted(range(len(self)), key=self.__getitem__))


def _byte_tables(images: list[int], width: int) -> list[list[int]]:
    """A permutation of bit positions (bit i goes to ``images[i]``) as one
    table per byte of a ``width``-byte mask: entry v of table b is where
    the bits of v, read as bits 8b.. of the mask, go."""
    tables = []
    for b in range(width):
        table = [0]
        for i in range(8 * b, 8 * b + 8):
            bit = 1 << images[i] if i < len(images) else 0
            table += [t | bit for t in table]
        tables.append(table)
    return tables


def _class_roots(subgroups, scans, carriers) -> tuple[list[int], list, Callable]:
    """For each (H, C) pair that a work item scans, numbered subgroup by
    subgroup (``scans[k]`` holds the connection-set masks of
    ``subgroups[k]``, see ``_connection_sets_for``), the number of the
    first pair of its orbit under the group's automorphisms, and an
    automorphism phi (a ``_Map``) that maps that pair onto it; equal maps
    are one object.  ``carriers[k]`` maps the item's first subgroup H0 onto
    ``subgroups[k]`` (``_subgroup_orbits``).  Also ``class_of(h_members,
    c_mask)``, which finds the first pair of the orbit of any pair on a
    subgroup of the item by the same pull-back: None when the scan did not
    meet that orbit.

    A pair (H_k, C) is pulled back through its carrier to (H0, C'), so two
    pairs lie in one orbit exactly when their C' lie in one orbit of H0's
    stabiliser.  Every automorphism permutes the inverse orbits {x, x^-1}
    of ``inverse_orbits``, so it moves a mask over them through one lookup
    table per byte (``_byte_tables``): the pull-back is one lookup per
    byte, and none for H0, whose carrier is the identity.  The first time
    the scan meets an orbit of masks, a breadth-first search under the
    stabiliser's generators lists it, noting the generator that reached
    each mask; the stabiliser is finite, so its generators reach the whole
    orbit without their inverses.  A pair's phi is its carrier after the
    map from the orbit's first pair onto (H0, C'), which is composed along
    those steps and kept for the masks it passes.  The classes are orbits
    whether the scan is exhaustive or sampled.  When the group's
    automorphisms are not listed, H0's stabiliser has no generators and
    each class is one pair."""
    h0 = subgroups[0]
    group = h0.group
    orbits = inverse_orbits(group)
    place = {x: i for i, orbit in enumerate(orbits) for x in orbit}
    width = (len(orbits) + 7) // 8

    def tables(phi) -> list[list[int]]:
        return _byte_tables([place[phi[orbit[0]]] for orbit in orbits], width)

    def moved(table, mask: int) -> int:
        return sum(map(getitem, table, mask.to_bytes(width, "little")))

    generators = [(phi, tables(phi)) for phi in h0.stabiliser_generators]
    identity = tuple(range(group.order))
    # pulled-back mask -> the number of the first pair of its orbit
    orbit_roots: dict[int, int] = {}
    # pulled-back mask -> the mask and generator the search reached it from
    steps: dict[int, tuple] = {}
    # pulled-back mask -> a map from the first pair of its orbit onto (H0, mask)
    onto: dict[int, tuple] = {}
    known: dict[tuple, _Map] = {}
    roots: list[int] = []
    maps: list = []
    # H members -> the tables that pull a mask back through its carrier,
    # None where the carrier is the identity
    pulls: dict[tuple[int, ...], Optional[list]] = {}
    for h, scan, carrier in zip(subgroups, scans, carriers):
        back = _Map(carrier).inverse
        pull = pulls[h.members] = None if back == identity else tables(back)
        for c in scan:
            mask = c if pull is None else moved(pull, c)
            if mask not in orbit_roots:
                orbit_roots[mask], onto[mask] = len(roots), back
                queue = [mask]
                for here in queue:
                    for phi, step in generators:
                        image = moved(step, here)
                        if image not in orbit_roots:
                            orbit_roots[image] = len(roots)
                            steps[image] = here, phi
                            queue.append(image)
            path = []
            here = mask
            while here not in onto:
                path.append(here)
                here = steps[here][0]
            composed = onto[here]
            for here in reversed(path):
                composed = onto[here] = tuple(map(steps[here][1].__getitem__, composed))
            phi = tuple(map(carrier.__getitem__, composed))
            interned = known.get(phi)
            if interned is None:
                interned = known[phi] = _Map(phi)
            roots.append(orbit_roots[mask])
            maps.append(interned)

    def class_of(h_members, c_mask: int) -> Optional[int]:
        if h_members not in pulls:
            return None
        pull = pulls[h_members]
        return orbit_roots.get(c_mask if pull is None else moved(pull, c_mask))

    return roots, maps, class_of


class _SubgroupResult(NamedTuple):
    """What a work item found on one of its subgroups: its verdict tallies,
    its mismatches (shrunk when the audit shrinks), its ``_RecordBlock``
    under ``keep_records`` (else None), and the instances that raised."""

    totals: dict
    mismatches: list[MismatchEntry]
    block: Optional[_RecordBlock]
    errors: list[dict]


class _Class(NamedTuple):
    """What a class root leaves its classmates and the item's shrinks (see
    ``_scan_orbit``): its outcomes in the scan's check order, None where a
    classmate evaluates the check itself; the positions a classmate
    evaluates or moves (only outcomes that are kept or recorded); and the
    root's verdicts and the positions that mismatched, which are a
    classmate's too when it evaluates nothing.  A root starts from the
    class with nothing carried, whose every position is to be done."""

    row: tuple
    todo: tuple[int, ...]
    verdicts: tuple[str, ...]
    mismatched: tuple[int, ...]


class _Known:
    """What a work item knows of the instances its shrinks try, on any of
    its subgroups (see ``_scan_orbit``).  ``known(h_members, c_mask,
    check)`` is the scan's record of the instance if it mismatched there,
    else the verdict of its class root if the check carries that verdict
    (never ``unevaluated``), else None.  ``passes`` is the memo that the
    item's shrinks share (``shrink_counterexample``): each state a greedy
    pass went through, as (check, H members, C mask, orbit position), and
    where that pass ended."""

    def __init__(self, classes: dict, class_of: Callable, recorded: dict, checks) -> None:
        self._classes = classes
        self._class_of = class_of
        self._recorded = recorded
        self._place = {check: i for i, check in enumerate(checks)}
        self.passes: dict[tuple, tuple] = {}

    def __call__(self, h_members, c_mask: int, check: str):
        kept = self._classes.get(self._class_of(h_members, c_mask))
        # a root's row holds only the outcomes whose verdict its check carries
        carried = kept and kept.row[self._place[check]]
        return self._recorded.get((h_members, c_mask, check), carried and carried[2])


def _scan_orbit(args) -> tuple[list[_SubgroupResult], int]:
    """Scan one work item, an orbit of proper subgroups of one group under
    its automorphisms, and return one ``_SubgroupResult`` per subgroup, in
    the item's order, and how many instances took outcomes from their
    class.  Mismatches are shrunk here once the item is scanned, when
    ``shrink`` is set, so a pooled audit shrinks in its workers.

    The scanned (H, C) pairs, each C a mask over the inverse orbits
    (``_connection_sets_for``), are split into their orbits under the
    automorphisms of G, each a class (``_class_roots``); an automorphism
    phi maps the graph of (H, C) onto that of (phi(H), phi(C)), so every
    check has one verdict on a class.  Every instance starts from a row of
    its class (``_Class``) and runs one loop over the positions the row
    leaves to do: it moves an outcome through the phi that maps the
    class's first instance, its root, onto it, by the mover that its
    check's rule (``Check.carry``) names for the verdict, and evaluates a
    position that holds no outcome, building an ``InstanceContext`` on
    first need.  Only then, or when the instance is recorded or kept, is
    its ``ConnectionSet`` taken from ``_connection_set``.  A root starts
    from the class with nothing carried, and keeps its own row for the
    rest of the item: each outcome that its check carries, None for every
    other, and the positions a classmate must touch, those it evaluates
    and those whose mover may change an outcome that is kept
    (``keep_records``) or recorded (a mismatch).  Moving keeps the
    verdict, so a copy that evaluates nothing has its root's verdicts.
    Every instance is counted by its row of verdicts, and each distinct
    row is tallied into the totals once per subgroup, times its count.
    Each pair's phi is dropped once used.  The classmates of a root that
    raised are evaluated in full.  The item's shrinks read what it knows
    (``_Known``): a candidate's scan record, else its class root's verdict
    if the check carries that verdict (never ``unevaluated``), else they
    evaluate it; and they share the states of their greedy passes."""
    spec, h_list, carriers, checks, limits, keep_records, shrink = args
    group = make_group(spec, max_order=limits.max_order)
    subgroups = [group.subgroup(members) for members in h_list]
    scans = [_connection_sets_for(group, h.members, limits) for h in subgroups]
    roots, maps, class_of = _class_roots(subgroups, scans, carriers)
    # a row holds its outcomes in check-name order
    by_name = sorted(range(len(checks)), key=checks.__getitem__)
    carries = [_CARRY[check] for check in checks]
    # the class with nothing carried, which a root starts from
    uncarried = _Class((None,) * len(checks), tuple(range(len(checks))), (), ())
    # the row of each class root that did not raise
    classes: dict[int, _Class] = {}
    # the scan's record of each (H, C, check) that mismatched
    recorded: dict[tuple, AuditRecord] = {}
    copied = 0
    results = []
    offset = 0
    for h, masks in zip(subgroups, scans):
        h_names = h.names()
        # how many instances here have each tuple of verdicts
        tally: Counter = Counter()
        mismatches: list[AuditRecord] = []
        rows: list[_Row] = []
        errors: list[dict] = []
        for position, mask in enumerate(masks, offset):
            root = roots[position]
            kept = classes.get(root, uncarried)
            # the map from the class's root is needed here only
            phi, maps[position] = maps[position], None
            outcomes = list(kept.row) if kept.todo else kept.row
            ctx = None
            try:
                for i in kept.todo:
                    check = checks[i]
                    outcome = outcomes[i]
                    if outcome is not None:
                        outcomes[i] = carries[i][outcome[2]](outcome, phi, group)
                    else:
                        if ctx is None:
                            ctx = InstanceContext(group, h, _connection_set(group, mask), limits)
                        outcomes[i] = evaluate(ctx, check)
            except (RelCayError, RecursionError) as err:
                # one faulty instance is reported, not fatal to the scan
                errors.append(
                    {
                        "group": group.spec,
                        "h": list(h_names),
                        "c": list(_connection_set(group, mask).names()),
                        "check": check,
                        "error": f"{type(err).__name__}: {err}",
                    }
                )
                continue
            copied += kept is not uncarried
            if ctx is None:
                # a copy that evaluated nothing has its root's verdicts
                verdicts, mismatched = kept.verdicts, kept.mismatched
            else:
                verdicts = tuple(outcome[2] for outcome in outcomes)
                mismatched = tuple(i for i, verdict in enumerate(verdicts) if verdict == MISMATCH)
            if root == position:
                row = tuple(
                    outcome if outcome[2] in carry else None
                    for carry, outcome in zip(carries, outcomes)
                )
                # a moved outcome is read only where it is kept or recorded
                todo = tuple(
                    i
                    for i, (outcome, carry) in enumerate(zip(row, carries))
                    if outcome is None
                    or carry[outcome[2]] is not None and (keep_records or outcome[2] == MISMATCH)
                )
                classes[root] = _Class(row, todo, verdicts, mismatched)
            tally[verdicts] += 1
            if mismatched or keep_records:
                c = _connection_set(group, mask)
                c_names = c.names()
            # a record is built only for a mismatch
            for i in mismatched:
                predicted, observed, verdict, witness = outcomes[i]
                record = AuditRecord(
                    group=group.spec, h=h_names, c=c_names, check=checks[i],
                    predicted=predicted, observed=observed, verdict=verdict, witness=witness,
                    h_indices=h.members, c_indices=c.members,
                )
                mismatches.append(record)
                recorded[h.members, mask, checks[i]] = record
            if keep_records:
                rows.append((c.members, c_names, tuple(map(outcomes.__getitem__, by_name))))
        offset += len(masks)
        totals: Counter = Counter()
        for verdicts, count in tally.items():
            for key in zip(checks, verdicts):
                totals[key] += count
        mismatches.sort(key=lambda r: (r.c_indices, r.check))
        block = None
        if keep_records:
            rows.sort(key=lambda row: row[0])
            block = _RecordBlock(
                group.spec, h_names, h.members, tuple(checks[i] for i in by_name), tuple(rows)
            )
        results.append(_SubgroupResult(dict(totals), mismatches, block, errors))

    known = _Known(classes, class_of, recorded, checks)
    # each subgroup's mismatch records become its entries once the item is scanned
    for result in results:
        result.mismatches[:] = [
            MismatchEntry(r, shrink_counterexample(r, limits, known) if shrink else r)
            for r in result.mismatches
        ]
    return results, copied


def run_audit(
    catalog=DEFAULT_CATALOG,
    checks=None,
    limits: Optional[Limits] = None,
    *,
    parallelism: int = 1,
    keep_records: bool = False,
    shrink: bool = True,
) -> AuditReport:
    """Scan the catalog and compare predictions with oracles on every check.

    Sampling kicks in per subgroup whenever a group admits more connection
    sets than ``limits.max_connection_sets``; it is deterministic, so two
    runs with the same arguments produce byte-identical JSON no matter the
    ``parallelism``.  Shrinking of mismatch witnesses can be switched off
    for speed when only totals matter.  An instance whose evaluation raises
    a ``RelCayError`` (other than an exhausted search budget, which makes
    the check ``unevaluated``) or a ``RecursionError`` is left out of the
    totals and listed in the report's ``errors``.

    Each work item is one orbit of a group's proper subgroups under its
    automorphisms (``_scan_orbit``); their results are put back in subgroup
    order.  The connection sets the run builds (``_connection_set``) are
    dropped when it returns or raises.
    """
    started = time.monotonic()
    limits = limits or Limits()
    if parallelism < 1:
        raise PreconditionError("parallelism must be at least 1")
    checks = _resolve_checks(checks)

    catalog_entries = []
    work_items = []
    # the places of each item's subgroups in the audit's subgroup order
    placements = []
    for requested_spec in catalog:
        group = make_group(requested_spec, max_order=limits.max_order)
        subgroups = [
            s for s in enumerate_subgroups(group, limits.max_order) if s.is_proper
        ]
        count = connection_set_count(group)
        plan = _sampling_plan(group, limits)
        # a sampled scan takes each size's quota of connection sets
        scanned = count if plan is None else sum(plan[-1].values())
        catalog_entries.append(
            {
                "spec": group.spec,
                "order": group.order,
                "proper_subgroups": len(subgroups),
                "connection_sets": count,
                "scanned_per_subgroup": scanned,
                "sampled": plan is not None,
                "instances": scanned * len(subgroups),
            }
        )
        first = sum(map(len, placements))
        for orbit, carriers in _subgroup_orbits(group, subgroups):
            members = tuple(subgroups[k].members for k in orbit)
            work_items.append(
                (group.spec, members, tuple(carriers), checks, limits, keep_records, shrink)
            )
            placements.append([first + k for k in orbit])

    try:
        if parallelism == 1:
            results = [_scan_orbit(item) for item in work_items]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=parallelism) as pool:
                results = list(pool.map(_scan_orbit, work_items))
    finally:
        # the connection sets are shared by the run's work items, and go with it
        _connection_set.cache_clear()

    # each subgroup's result goes to its place in the subgroup order, so the
    # bytes do not depend on how the subgroups were grouped into items
    placed: list[_SubgroupResult] = [None] * sum(map(len, placements))
    copied = 0
    for places, (item_results, item_copied) in zip(placements, results):
        for place, result in zip(places, item_results):
            placed[place] = result
        copied += item_copied
    totals_counter: Counter = Counter()
    mismatch_entries: list[MismatchEntry] = []
    errors: list[dict] = []
    for result in placed:
        totals_counter.update(result.totals)
        mismatch_entries.extend(result.mismatches)
        errors.extend(result.errors)

    totals = {
        check: {verdict: totals_counter.get((check, verdict), 0) for verdict in VERDICTS}
        for check in checks
    }

    config = {
        "catalog": [entry["spec"] for entry in catalog_entries],
        "checks": list(checks),
        "max_order": limits.max_order,
        "edge_color_cutoff": limits.edge_color_cutoff,
        "chromatic_ii_cap": limits.chromatic_ii_cap,
        "max_connection_sets": limits.max_connection_sets,
        "shrink": shrink,
    }
    return AuditReport(
        config=config,
        catalog=tuple(catalog_entries),
        totals=totals,
        mismatches=tuple(mismatch_entries),
        records=RecordTable(result.block for result in placed) if keep_records else None,
        wall_time_seconds=time.monotonic() - started,
        errors=tuple(errors),
        copied_instances=copied,
    )


# --------------------------------------------------------------------------
# Counterexample shrinking


@lru_cache(maxsize=262144)
def evaluate_check(
    spec: str,
    h_members: tuple[int, ...],
    c_members: tuple[int, ...],
    check: str,
    limits: Limits,
) -> AuditRecord:
    """The record of one check on one instance given by element indices.

    Cached, so shrinking re-evaluates each candidate instance only once.
    """
    group = make_group(spec, max_order=limits.max_order)
    h = group.subgroup(h_members)
    c = _connection_set(group, _mask_of(group, c_members))
    outcome = evaluate(InstanceContext(group, h, c, limits), check)
    return AuditRecord(group.spec, h.names(), c.names(), check, *outcome, h.members, c.members)


def shrink_counterexample(
    record: AuditRecord,
    limits: Optional[Limits] = None,
    known: Optional[_Known] = None,
) -> AuditRecord:
    """Greedily minimize a mismatch: drop connection-set orbits, then move to
    smaller subgroups, as long as the same check still mismatches.

    The connection set is a mask over ``inverse_orbits`` (bit i = orbit
    i), built into a ``ConnectionSet`` only for a candidate that is
    evaluated.  ``known`` is what the work item that found the record
    knows (see ``_Known``): of a candidate, the scan's mismatch record, a
    verdict, or None, when (as without ``known``) the candidate is
    evaluated; and the memo of the greedy passes of the item's shrinks,
    so a pass that reaches a state an earlier one went through ends where
    that one did, trying nothing more.

    Idempotent: shrinking an already-minimal record returns it unchanged.
    """
    if record.verdict != MISMATCH:
        raise PreconditionError("only mismatch records can be shrunk")
    limits = limits or Limits()
    spec = record.group
    group = make_group(spec, max_order=limits.max_order)
    check = record.check
    passes = {} if known is None else known.passes
    # the move to a smaller subgroup comes after the last orbit
    moving = len(inverse_orbits(group))

    def verdict_record(h_m, c_mask):
        return evaluate_check(spec, h_m, _connection_set(group, c_mask).members, check, limits)

    def still_mismatch(h_m, c_mask):
        found = known and known(h_m, c_mask, check)
        if found is None:
            try:
                found = verdict_record(h_m, c_mask)
            except (RelCayError, RecursionError):
                return False
        return (found if isinstance(found, str) else found.verdict) == MISMATCH

    def greedy_pass(h_members, c_mask):
        """Drop each connection-set orbit in turn while the check still
        mismatches, then move to the first smaller subgroup of H where it
        does; where the pass ends.  ``subgroups_within`` lists the subgroups
        of H by size, H itself last.  Each state the pass goes through, the
        next orbit it tries (``moving`` for the move) with H and C, is noted
        in ``passes`` with that end."""
        states = []
        for i in (*bit_indices(c_mask), moving):
            state = check, h_members, c_mask, i
            end = passes.get(state)
            if end is not None:
                break
            states.append(state)
            if i < moving and still_mismatch(h_members, c_mask & ~(1 << i)):
                c_mask &= ~(1 << i)
        else:
            end = h_members, c_mask
            for candidate in subgroups_within(group.subgroup(h_members)):
                if len(candidate) >= len(h_members):
                    break
                if still_mismatch(candidate.members, c_mask):
                    end = candidate.members, c_mask
                    break
        passes.update(dict.fromkeys(states, end))
        return end

    h_members, c_mask = record.h_indices, _mask_of(group, record.c_indices)
    while (end := greedy_pass(h_members, c_mask)) != (h_members, c_mask):
        h_members, c_mask = end
    found = known and known(h_members, c_mask, check)
    if isinstance(found, AuditRecord):
        return found
    return verdict_record(h_members, c_mask)
