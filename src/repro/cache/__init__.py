"""Content-addressed simulation result cache.

Persistent memoization: once caching is enabled (:func:`enable`, the
``REPRO_CACHE_DIR`` environment variable, or
``repro.api.Session(cache=...)``), every transient/DC analysis is keyed
by a SHA-256 digest of its full request (circuit fingerprint + analysis
options + engine config + code-version salt, :mod:`repro.cache.keys`)
and byte-identical requests — across processes and sessions — return
the stored result **bit-exactly** without touching the Newton loop
(:mod:`repro.cache.store`).

Observability: analyses emit ``cache.hit`` / ``cache.miss`` /
``cache.store`` counters and annotate their spans with the outcome.
"""

from repro.cache.keys import (
    CACHE_SALT,
    circuit_fingerprint,
    dc_request,
    rebuild_circuit,
    request_key,
    transient_request,
)
from repro.cache.store import (
    CACHE_ENV_VAR,
    CacheEntry,
    ResultCache,
    bypassed,
    disable,
    enable,
    get_active_cache,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SALT",
    "CacheEntry",
    "ResultCache",
    "bypassed",
    "circuit_fingerprint",
    "dc_request",
    "disable",
    "enable",
    "get_active_cache",
    "rebuild_circuit",
    "request_key",
    "transient_request",
]
