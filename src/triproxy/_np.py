"""numpy, imported when triproxy first reads an attribute of it.

Every numerical module writes ``from ._np import np`` in place of
``import numpy as np``.  Until some code reads an attribute of ``np``, the
name is bound to a stand-in, so a process that only works on graphs
(``classify``, ``dag-check``) never imports numpy, which is about half of
such a process's start-up.

On its first attribute read, the stand-in imports numpy and rebinds ``np``
to the numpy module in every ``triproxy.*`` module that still holds the
stand-in, this one included; a module imported later gets numpy itself.
From then on ``np.zeros`` is a global lookup and a module attribute read,
as with ``import numpy as np``.  The alternatives each cost something:

- a stand-in that forwards every read through ``__getattr__`` adds a
  Python call to each ``np.*`` of the oracle and the pipelines; it cost
  about 6% of the oracle sweep's throughput;
- a module whose PEP 562 ``__getattr__`` stands for numpy pays the same,
  unless it caches each attribute in its own namespace, which then holds
  numpy's functions under a ``triproxy`` module's name;
- ``importlib.util.LazyLoader`` loads numpy in full at the next ``import
  numpy`` anywhere in the process (Python 3.11).

Anything that kept a reference to the stand-in is still served, one
forwarded read at a time.
"""

import importlib
import sys


class _Numpy:
    """Stands for the numpy module until an attribute of it is read."""

    __slots__ = ()

    def __getattr__(self, name: str):
        numpy = importlib.import_module("numpy")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "triproxy" and getattr(mod, "np", None) is self:
                mod.np = numpy
        return getattr(numpy, name)


np = _Numpy()
