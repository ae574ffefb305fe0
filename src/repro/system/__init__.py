"""Full-system layer: device database, area and power models, the
replicated-design performance estimator, and the software runtime.

The re-exports below load on first use (a module ``__getattr__``):
importing one submodule, as serving does with
:mod:`repro.system.runtime`, does not load the unit compiler and the
RTL model that the area and performance estimators use.
"""

from importlib import import_module

#: re-exported name -> the submodule defining it
_EXPORTS = {
    "AreaEstimate": "area",
    "area_fraction": "area",
    "bram36_count": "area",
    "estimate_controllers": "area",
    "estimate_module": "area",
    "fit_processing_units": "area",
    "pu_overhead": "area",
    "AMAZON_F1": "device",
    "Device": "device",
    "FullSystemResult": "full_system",
    "run_full_system": "full_system",
    "CPU_PACKAGE_WATTS": "power",
    "DRAM_WATTS": "power",
    "GPU_PACKAGE_WATTS": "power",
    "fpga_package_watts": "power",
    "perf_per_watt": "power",
    "FleetRuntime": "runtime",
    "pack_streams": "runtime",
    "split_arbitrary": "runtime",
    "split_on_newlines": "runtime",
    "FleetAppResult": "system_sim",
    "UnitProfile": "system_sim",
    "evaluate_fleet_app": "system_sim",
    "profile_unit": "system_sim",
    "serving_pu_slots": "system_sim",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = sorted(_EXPORTS)
