"""Reference (pre-vectorization) evaluation semantics.

The predicate and domain-analysis engines were rewritten to be array-native
(interned category codes, broadcast cell evaluation, packed-signature dedupe).
This module preserves the original row-at-a-time / cell-at-a-time
implementations **unchanged in semantics** (and the seed's
signature-tuple histogram assignment) as the baseline of the parity
tests (``tests/queries/test_vectorized_parity.py``,
``tests/queries/test_sharded_parity.py``): the vectorized paths must
produce bit-identical masks and workload matrices on randomized tables,
including SQL NULL edge cases.

Nothing in the production path imports this module for answering queries.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping

import numpy as np

from repro.core.exceptions import PredicateError, QueryError
from repro.data.schema import AttributeKind, Schema
from repro.data.table import Table
from repro.queries.predicates import (
    And,
    Between,
    CellValue,
    Comparison,
    FalsePredicate,
    FunctionPredicate,
    In,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
    _apply_op,
)
from repro.queries.workload import (
    DomainPartition,
    Workload,
    WorkloadMatrix,
    _attribute_atoms,
    _describe_cell,
    _signatures_to_matrix,
)

__all__ = [
    "reference_mask",
    "reference_null_mask",
    "reference_domain_partitions",
    "reference_domain_matrix",
    "reference_partition_histogram",
]


def reference_null_mask(table: Table, name: str) -> np.ndarray:
    """The seed's per-row NULL mask (list comprehension over the column)."""
    attr = table.schema[name]
    col = table.column(name)
    if attr.kind is AttributeKind.NUMERIC:
        return np.isnan(col.astype(float))
    return np.array([v is None for v in col], dtype=bool)


def reference_mask(predicate: Predicate, table: Table) -> np.ndarray:
    """Evaluate ``predicate`` with the seed's row-at-a-time semantics."""
    if isinstance(predicate, Comparison):
        return _comparison_mask(predicate, table)
    if isinstance(predicate, Between):
        values = table.column(predicate.attribute).astype(float)
        with np.errstate(invalid="ignore"):
            lower = (
                values >= predicate.low
                if predicate.low_inclusive
                else values > predicate.low
            )
            upper = (
                values <= predicate.high
                if predicate.high_inclusive
                else values < predicate.high
            )
        return lower & upper & ~np.isnan(values)
    if isinstance(predicate, In):
        col = table.column(predicate.attribute)
        allowed = set(predicate.values)
        return np.array([v is not None and v in allowed for v in col], dtype=bool)
    if isinstance(predicate, IsNull):
        nulls = reference_null_mask(table, predicate.attribute)
        return ~nulls if predicate.negated else nulls
    if isinstance(predicate, And):
        mask = reference_mask(predicate.children[0], table)
        for child in predicate.children[1:]:
            mask = mask & reference_mask(child, table)
        return mask
    if isinstance(predicate, Or):
        mask = reference_mask(predicate.children[0], table)
        for child in predicate.children[1:]:
            mask = mask | reference_mask(child, table)
        return mask
    if isinstance(predicate, Not):
        return ~reference_mask(predicate.child, table)
    if isinstance(predicate, TruePredicate):
        return np.ones(len(table), dtype=bool)
    if isinstance(predicate, FalsePredicate):
        return np.zeros(len(table), dtype=bool)
    if isinstance(predicate, FunctionPredicate):
        return predicate.evaluate(table)
    raise PredicateError(f"no reference evaluation for {type(predicate).__name__}")


def _comparison_mask(predicate: Comparison, table: Table) -> np.ndarray:
    attr = table.schema[predicate.attribute]
    col = table.column(predicate.attribute)
    if attr.kind is AttributeKind.NUMERIC:
        values = col.astype(float)
        target = float(predicate.value)  # type: ignore[arg-type]
        with np.errstate(invalid="ignore"):
            mask = _apply_op(values, predicate.op, target)
        return mask & ~np.isnan(values)
    str_target = str(predicate.value)
    present = np.array([v is not None for v in col], dtype=bool)
    if predicate.op == "==":
        return present & np.array([v == str_target for v in col], dtype=bool)
    if predicate.op == "!=":
        return present & np.array([v != str_target for v in col], dtype=bool)
    raise PredicateError(
        f"operator {predicate.op!r} is not supported on non-numeric attribute "
        f"{predicate.attribute!r}"
    )


def reference_domain_partitions(
    workload: Workload, schema: Schema
) -> list[DomainPartition]:
    """The seed's cell-by-cell exact domain analysis (itertools.product loop)."""
    if not workload.supports_domain_analysis:
        raise QueryError(
            "workload contains opaque predicates; use structural analysis"
        )
    atoms = _attribute_atoms(workload, schema)
    n_cells = math.prod(len(v) for v in atoms.values()) if atoms else 1
    _ = n_cells  # the reference path enumerates unconditionally
    signature_to_partition: dict[tuple[bool, ...], DomainPartition] = {}
    attr_names = list(atoms)
    for combo in itertools.product(*(atoms[a] for a in attr_names)):
        cell: Mapping[str, CellValue] = dict(zip(attr_names, combo))
        signature = tuple(pred.evaluate_cell(cell) for pred in workload.predicates)
        if not any(signature):
            continue
        if signature not in signature_to_partition:
            signature_to_partition[signature] = DomainPartition(
                signature=signature, description=_describe_cell(cell)
            )
    return sorted(
        signature_to_partition.values(), key=lambda p: p.signature, reverse=True
    )


def reference_domain_matrix(
    workload: Workload, schema: Schema
) -> tuple[np.ndarray, list[DomainPartition]]:
    """The seed's exact workload matrix: ``(matrix, partitions)``."""
    partitions = reference_domain_partitions(workload, schema)
    return _signatures_to_matrix(workload.size, partitions), partitions


def reference_partition_histogram(
    matrix: WorkloadMatrix, table: Table
) -> np.ndarray:
    """The seed's histogram ``x``: each row's signature tuple, one row at a time.

    Masks come from :func:`reference_mask`; every row's signature tuple is
    looked up in a ``{signature: column}`` map of ``matrix.partitions``.
    Rows matching no predicate are ignored; an unknown signature raises
    :class:`QueryError` for an exact matrix and is spread into the unit
    partition of each matching predicate for a structural one.
    """
    table = table.snapshot()
    columns = [reference_mask(pred, table) for pred in matrix.workload.predicates]
    index_of_signature = {
        partition.signature: j for j, partition in enumerate(matrix.partitions)
    }
    histogram = np.zeros(matrix.n_partitions, dtype=float)
    for row in range(len(table)):
        signature = tuple(bool(column[row]) for column in columns)
        if not any(signature):
            continue
        j = index_of_signature.get(signature)
        if j is not None:
            histogram[j] += 1
        elif matrix.exact:
            raise QueryError(
                "a row matched a predicate signature that the exact domain "
                f"analysis did not enumerate: signature={signature}"
            )
        else:
            for i, flag in enumerate(signature):
                if flag:
                    histogram[i] += 1
    return histogram
