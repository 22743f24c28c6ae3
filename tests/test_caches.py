"""Which functions keep a process-lifetime cache.

Every ``lru_cache`` in the package lives as long as the process and grows
with the (level, order, prec) keys callers ask for, so the set of cached
functions is pinned here: a new one has to be argued for, not slipped in.
"""

import importlib
import inspect
import pkgutil

import convpow

#: The pipeline tables, plus the A^s rows that dualpath reuses across levels.
CACHED = {
    "convpow.qcoeff.log_expansion_q_list",
    "convpow.qcoeff._ein_power",
    "convpow.fdecomp.beta_table",
    "convpow.amatrix.compute_a_matrix",
}


def _cached_functions():
    """Module and qualified name of every convpow function carrying
    ``cache_info``, once each however many modules re-import it."""
    modules = [convpow] + [importlib.import_module(m.name) for m in pkgutil.iter_modules(convpow.__path__, "convpow.")]
    found = set()
    for module in modules:
        objects = list(vars(module).values())
        objects += [v for c in objects if inspect.isclass(c) for v in vars(c).values()]
        for obj in objects:
            fn = getattr(obj, "__func__", obj)  # staticmethod and classmethod wrappers
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", "").startswith("convpow"):
                found.add(f"{fn.__module__}.{fn.__qualname__}")
    return found


def test_only_the_pipeline_tables_and_a_matrices_are_cached():
    assert _cached_functions() == CACHED

