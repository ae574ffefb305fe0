"""Native-build machinery for the batch engine's C kernel.

The kernel (:mod:`repro.interp.cc`) compiles generated C through cffi
with a content-addressed on-disk build cache: the kernel source is
hashed, and a module whose ``.so`` already exists is loaded without
invoking the compiler, so rebuilds are skipped across processes.

Everything degrades gracefully: :func:`cc_available` probes the
toolchain once per process (cffi import + a trivial compile), and every
caller treats ``False`` as "run each stream on its own". Setting
``FLEET_NATIVE=off`` disables the probe entirely — the escape hatch for
environments where invoking a compiler is unwanted, and the lever CI
uses to exercise the toolchain-absent degradation path on machines that
do have a compiler.
"""

import glob
import hashlib
import importlib.util
import os
import tempfile

from ..envcfg import env_choice

#: Validated ``FLEET_NATIVE`` choices: ``auto`` probes for a toolchain,
#: ``off`` disables every native tier without probing.
_NATIVE_CHOICES = ("auto", "off")

#: Memoized result of the one-shot toolchain probe (None = not yet run).
_CC_OK = None
#: In-process module cache: source hash -> (lib, ffi).
_CC_MODCACHE = {}
#: Last native-build failure, kept for debugging (forced native modes
#: re-raise it with context).
_CC_LAST_ERROR = None


def native_enabled():
    """Whether native tiers may build kernels (``FLEET_NATIVE`` gate).

    Unknown values raise :class:`~repro.lang.errors.FleetConfigError`
    immediately (the shared :func:`repro.envcfg.env_choice` validator)
    rather than silently running the wrong tier.
    """
    return env_choice("FLEET_NATIVE", _NATIVE_CHOICES, "auto") != "off"


def _cc_cache_dir():
    uid = getattr(os, "getuid", lambda: 0)()
    path = os.path.join(tempfile.gettempdir(), f"fleet-cc-{uid}")
    os.makedirs(path, exist_ok=True)
    return path


def _cc_load(cdef, source, tag):
    """Compile-or-load a cffi extension module, content-addressed by its
    C source so rebuilds are skipped across processes."""
    import cffi

    key = hashlib.sha256(source.encode()).hexdigest()[:16]
    cached = _CC_MODCACHE.get(key)
    if cached is not None:
        return cached
    modname = f"_fleet_cc_{tag}_{key}"
    cachedir = _cc_cache_dir()
    matches = glob.glob(os.path.join(cachedir, modname + "*.so"))
    sopath = matches[0] if matches else None
    if sopath is None:
        ffi = cffi.FFI()
        ffi.cdef(cdef)
        ffi.set_source(modname, source,
                       extra_compile_args=["-O2", "-w"])
        sopath = ffi.compile(tmpdir=cachedir, verbose=False)
    spec = importlib.util.spec_from_file_location(modname, sopath)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    result = (mod.lib, mod.ffi)
    _CC_MODCACHE[key] = result
    return result


def cc_available():
    """Whether native tiers can build kernels here (``FLEET_NATIVE`` not
    ``off``, cffi importable, and a working C compiler). Probed once per
    process with a trivial module; the probe's build artifact is
    disk-cached like any kernel."""
    global _CC_OK, _CC_LAST_ERROR
    if not native_enabled():
        # Deliberately not memoized: flipping FLEET_NATIVE back on mid-
        # process (tests do) must re-enable the probe result.
        return False
    if _CC_OK is None:
        try:
            lib, _ = _cc_load(
                "int fleet_probe(void);",
                "int fleet_probe(void) { return 42; }",
                "probe",
            )
            _CC_OK = lib.fleet_probe() == 42
        except Exception as exc:  # pragma: no cover - toolchain-specific
            _CC_LAST_ERROR = exc
            _CC_OK = False
    return _CC_OK


def last_error():
    """The most recent native-build failure (or ``None``)."""
    return _CC_LAST_ERROR


def set_last_error(exc):
    """Record a native-build failure for later diagnostics."""
    global _CC_LAST_ERROR
    _CC_LAST_ERROR = exc


__all__ = [
    "cc_available",
    "last_error",
    "native_enabled",
    "set_last_error",
]
