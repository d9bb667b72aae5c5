"""Dataset (de)serialization.

A dataset is the clustering input the paper assembled in Section 4.1: a
list of form pages, each with URL, HTML, harvested backlinks and (for
evaluation) a gold domain label.  The JSON format keeps datasets
regenerable, diffable and shareable without the generator.
"""

from repro.datasets.store import (
    DatasetFormatError,
    atomic_write_json,
    dataset_info,
    fsync_dir,
    load_dataset,
    read_json,
    save_dataset,
)

__all__ = [
    "DatasetFormatError",
    "atomic_write_json",
    "dataset_info",
    "fsync_dir",
    "load_dataset",
    "read_json",
    "save_dataset",
    "load_result",
    "save_result",
]


# Saved results are read and written only by the batch CLI; that module
# is imported on first use.
def __getattr__(name):
    if name in ("load_result", "save_result"):
        from repro.datasets import results

        return getattr(results, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
