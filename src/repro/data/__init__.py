"""Data substrate: matrix representations, sorted attribute lists, RLE
compression, LibSVM I/O and the Table-II synthetic dataset generators."""

from .datasets import TABLE2_NAMES, TABLE2_SPECS, Dataset, DatasetSpec, make_dataset, table1_example
from .libsvm import dump_libsvm, dumps_libsvm, load_libsvm, loads_libsvm
from .matrix import CSCMatrix, CSRMatrix, DenseMatrix
from .rle import (
    RLE_POLICIES,
    RunLengthColumns,
    decide_compression,
    decode_segments,
    encode_segments,
    estimated_ratio,
    measured_ratio,
)
from .sorted_columns import SortedColumns, build_sorted_columns

__all__ = [
    "TABLE2_NAMES",
    "TABLE2_SPECS",
    "Dataset",
    "DatasetSpec",
    "make_dataset",
    "table1_example",
    "dump_libsvm",
    "dumps_libsvm",
    "load_libsvm",
    "loads_libsvm",
    "CSCMatrix",
    "CSRMatrix",
    "DenseMatrix",
    "RLE_POLICIES",
    "RunLengthColumns",
    "decide_compression",
    "decode_segments",
    "encode_segments",
    "estimated_ratio",
    "measured_ratio",
    "SortedColumns",
    "build_sorted_columns",
]
