"""Public facade of the out-of-core trace subsystem.

One import point for everything file-trace related::

    from repro.traces import open_trace, write_trace_file, register_trace_file

* write traces out of core: :class:`TraceFileWriter`,
  :func:`write_trace_file`,
  :meth:`repro.workloads.generator.TraceGenerator.generate_to_file`
* stream them back: :func:`open_trace` / :class:`StreamingTrace`
* inspect and check: :func:`trace_file_info`, :func:`verify_trace_file`
* convert external recordings: :func:`import_trace_file` (``tsv`` and
  valgrind-lackey formats)
* plug files into the workload registry: :func:`register_trace_file`
  makes a file a named workload usable from :class:`Scenario`,
  ``repro exp --apps`` and ``repro run`` alike (CLI users can also skip
  registration entirely with ``--apps file:/path/to/trace.rpt``).

See DESIGN.md §10 for the file format and the streaming contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.registry import register_workload
from repro.workloads.importers import (
    IMPORT_FORMATS,
    TraceImportError,
    import_trace_file,
)
from repro.workloads.tracefile import (
    DEFAULT_CHUNK_REFS,
    TRACE_FILE_SUFFIX,
    TRACE_FILE_VERSION,
    StreamingTrace,
    TraceFileError,
    TraceFileWorkload,
    TraceFileWriter,
    open_trace,
    read_trace_header,
    trace_digest,
    trace_file_info,
    verify_trace_file,
    write_trace_file,
)

__all__ = [
    "DEFAULT_CHUNK_REFS",
    "IMPORT_FORMATS",
    "TRACE_FILE_SUFFIX",
    "TRACE_FILE_VERSION",
    "StreamingTrace",
    "TraceFileError",
    "TraceFileWorkload",
    "TraceFileWriter",
    "TraceImportError",
    "import_trace_file",
    "open_trace",
    "read_trace_header",
    "register_trace_file",
    "trace_digest",
    "trace_file_info",
    "verify_trace_file",
    "write_trace_file",
]


def register_trace_file(path: Union[str, Path], *,
                        name: Optional[str] = None) -> TraceFileWorkload:
    """Register an on-disk trace file as a named workload.

    The file's header is read once (for its recorded name, unless
    ``name`` overrides it) and a :class:`TraceFileWorkload` is placed in
    the open workload registry — it immediately appears in
    :func:`repro.list_workloads`, every scenario's app axis and the CLI.
    ``get_workload(name)`` then opens the file as a lazily streamed
    :class:`StreamingTrace`.  Returns the registered workload object.
    """
    workload = TraceFileWorkload(path, name=name)
    register_workload(workload)
    return workload
