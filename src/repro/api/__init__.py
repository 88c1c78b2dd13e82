"""The h5py-style facade over the predictive compression-write engine.

One entry point::

    import repro

    with repro.open("snapshot.phd5", "w", nranks=8) as f:
        ds = f.create_dataset("density", shape, np.float32,
                              error_bound=1e-3, strategy="auto")
        ds[...] = density            # predict -> plan -> compress -> write
        t = f.create_dataset("temperature", shape,
                             maxshape=(None, *shape), error_bound=1e-2)
        f.append_step({"temperature": snap0})   # one warm-started step

    with repro.open("snapshot.phd5") as f:
        density = f["density"][...]  # decompressed through the metadata
        block = f["density"][8:16, :, :]        # partial, partition-aware

See :mod:`repro.api.file` for the routing semantics and
:mod:`repro.api.settings` for the per-dataset overrides.
"""

from repro.api.dataset import Dataset
from repro.api.file import File, Group, open
from repro.api.settings import DatasetSettings

__all__ = ["open", "File", "Group", "Dataset", "DatasetSettings"]
