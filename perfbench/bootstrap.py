"""Process set-up shared by every perfbench entry point.

Importing this module pins the BLAS thread pools, so it must be imported
before numpy. ``import_parkrank`` loads the package from the ``src/`` of
the checkout this file sits in, never from an installed copy, so the
numbers always belong to the commit under test.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One client in one process: a single BLAS thread keeps runs steady on a
# shared machine, and the scorer's work is dominated by elementwise numpy
# that never threads anyway. One is at most nproc on any machine.
BLAS_THREADS = "1"
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
if "numpy" in sys.modules:
    raise RuntimeError("bootstrap must be imported before numpy")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS


class SourceMissing(RuntimeError):
    """The checkout holds no importable parkrank source tree."""


def import_parkrank():
    """Import parkrank from this checkout's src/ and return the package."""
    init = SRC / "parkrank" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no parkrank sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import parkrank

    where = Path(parkrank.__file__).resolve()
    if where != init.resolve():
        raise SourceMissing(f"parkrank imported from {where}, not {init}")
    return parkrank


def git_sha() -> str | None:
    """Commit of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "parkrank").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(parkrank) -> dict:
    import platform

    import numpy as np
    from parkrank import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = blas.get("blas", {})
    return {
        "parkrank_path": str(Path(parkrank.__file__).resolve().parent),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_active": bool(kernels.NUMBA_ACTIVE),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }
