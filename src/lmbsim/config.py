"""INI configuration: defaults, file loading, named presets, flat overrides.

Precedence, lowest to highest: built-in defaults, then the --config file, then
each --preset in the order given, then individual --set/flag overrides.  Every
(section, key) must exist in the schema below; an unknown one is rejected with
its file line when it came from a file.
"""

from __future__ import annotations

import configparser
import copy
from dataclasses import dataclass

from .dram import DramConfig
from .engine import SystemConfig
from .errors import ConfigurationError
from .fabric import FabricConfig
from .memsys import (CacheConfig, DmaConfig, LmbConfig, MshrConfig, RrshConfig,
                     TempBufferConfig)
from .tensor import GenSpec

DEFAULTS = {
    "run": {
        "mode": "proposed",
        "verify": "false",
        "seed": "0",
    },
    "tensor": {
        "file": "",
        "dims": "64 64 64",
        "nnz": "1000",
        "seed": "7",
        "distribution": "uniform",
    },
    "fabric": {
        "type": "type2",
        "pe_count": "8",
        "max_outstanding": "16",
        "accumulate_cycles": "1",
        "rank": "32",
    },
    "memsys": {
        "num_lmbs": "1",
    },
    "cache": {
        "lines": "8192",
        "assoc": "2",
        "pipeline_depth": "3",
        "miss_slots": "16",
    },
    "rrsh": {
        "entries": "4096",
        "ways": "4",
        "pending_cap": "64",
    },
    "tempbuf": {
        "entries": "8",
    },
    "dmaengine": {
        "buffers": "4",
        "buffer_bytes": "256",
        "desc_slots": "8",
    },
    "mshr": {
        "entries": "8",
    },
    "dram": {
        "banks": "16",
        "row_bytes": "4096",
        "t_row_hit": "20",
        "t_row_miss": "45",
        "queue_depth": "8",
        "address_bits": "31",
    },
    "sweep": {
        "ranks": "32",
        "modes": "proposed dma-only cache-only ip-only",
    },
    "output": {
        "format": "json",
        "trace": "",
    },
}

# Named setting bundles.  System presets and workload presets compose; a
# baseline-* preset turns the memory side into the conventional single block
# it is compared against, leaving the fabric untouched.
PRESETS = {
    "table2-config-a": {
        "description": "one 512 KiB 2-way block, shared-stream fabric",
        "values": {
            ("run", "mode"): "proposed",
            ("memsys", "num_lmbs"): "1",
            ("cache", "lines"): "8192",
            ("cache", "assoc"): "2",
            ("fabric", "type"): "type1",
        },
    },
    "table2-config-b": {
        "description": "four 256 KiB direct-mapped blocks, per-PE fabric",
        "values": {
            ("run", "mode"): "proposed",
            ("memsys", "num_lmbs"): "4",
            ("cache", "lines"): "4096",
            ("cache", "assoc"): "1",
            ("fabric", "type"): "type2",
            ("fabric", "pe_count"): "8",
        },
    },
    "baseline-ip-only": {
        "description": "conventional single block, raw port per PE",
        "values": {
            ("run", "mode"): "ip-only",
            ("memsys", "num_lmbs"): "1",
            ("cache", "lines"): "8192",
            ("cache", "assoc"): "2",
        },
    },
    "baseline-cache-only": {
        "description": "conventional single block, everything through the cache",
        "values": {
            ("run", "mode"): "cache-only",
            ("memsys", "num_lmbs"): "1",
            ("cache", "lines"): "8192",
            ("cache", "assoc"): "2",
        },
    },
    "baseline-dma-only": {
        "description": "conventional single block, everything as DMA descriptors",
        "values": {
            ("run", "mode"): "dma-only",
            ("memsys", "num_lmbs"): "1",
            ("cache", "lines"): "8192",
            ("cache", "assoc"): "2",
        },
    },
    "synth01-mini": {
        "description": "scattered synthetic workload, 27343 nonzeros",
        "values": {
            ("tensor", "file"): "",
            ("tensor", "dims"): "2226 46080 112640",
            ("tensor", "nnz"): "27343",
            ("tensor", "seed"): "1",
            ("tensor", "distribution"): "uniform",
        },
    },
    "synth02-mini": {
        "description": "row-clustered synthetic workload, 140625 nonzeros",
        "values": {
            ("tensor", "file"): "",
            ("tensor", "dims"): "8192 524288 1048576",
            ("tensor", "nnz"): "140625",
            ("tensor", "seed"): "2",
            ("tensor", "distribution"): "mode-clustered",
        },
    },
}


def default_settings():
    return copy.deepcopy(DEFAULTS)


def _find_line(text, section, key):
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and "=" in stripped:
            if stripped.split("=", 1)[0].strip().lower() == key:
                return lineno
    return None


def apply_ini_text(settings, text, origin="<config>"):
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigurationError(f"{origin}: {exc}") from None
    for section in cp.sections():
        sec = section.lower()
        if sec not in DEFAULTS:
            raise ConfigurationError(f"{origin}: unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in DEFAULTS[sec]:
                line = _find_line(text, sec, key)
                where = f"{origin} line {line}" if line else origin
                raise ConfigurationError(
                    f"{where}: unknown key {key!r} in section [{section}]")
            settings[sec][key] = value.strip()
    return settings


def apply_file(settings, path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return apply_ini_text(settings, text, origin=str(path))


def apply_preset(settings, name):
    try:
        preset = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {known}") from None
    for (sec, key), value in preset["values"].items():
        settings[sec][key] = value
    return settings


def apply_override(settings, spec):
    """Apply one 'section.key=value' override."""
    if "=" not in spec:
        raise ConfigurationError(f"override {spec!r} is not section.key=value")
    path, value = spec.split("=", 1)
    if "." not in path:
        raise ConfigurationError(f"override {spec!r} is not section.key=value")
    sec, key = path.strip().lower().split(".", 1)
    if sec not in DEFAULTS or key not in DEFAULTS[sec]:
        raise ConfigurationError(f"unknown setting {sec}.{key}")
    settings[sec][key] = value.strip()
    return settings


def _as_int(settings, sec, key):
    raw = settings[sec][key]
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigurationError(f"{sec}.{key} must be an integer, got {raw!r}") from None


def _as_seed(settings, sec, key):
    seed = _as_int(settings, sec, key)
    if seed < 0:
        raise ConfigurationError(f"{sec}.{key} must be non-negative, got {seed}")
    return seed


def _as_bool(settings, sec, key):
    raw = settings[sec][key].strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"{sec}.{key} must be a boolean, got {raw!r}")


def _as_int_list(settings, sec, key):
    raw = settings[sec][key].replace(",", " ")
    try:
        return tuple(int(x, 0) for x in raw.split())
    except ValueError:
        raise ConfigurationError(
            f"{sec}.{key} must be a list of integers, got {settings[sec][key]!r}") from None


def _as_str_list(settings, sec, key):
    return tuple(settings[sec][key].replace(",", " ").split())


@dataclass
class BuiltConfig:
    """Fully typed view of one resolved settings tree."""

    system: SystemConfig
    verify: bool
    seed: int
    tensor_file: str
    gen: GenSpec
    sweep_ranks: tuple
    sweep_modes: tuple
    out_format: str
    trace_path: str


def build(settings) -> BuiltConfig:
    fabric = FabricConfig(
        fabric_type=settings["fabric"]["type"].strip(),
        pe_count=_as_int(settings, "fabric", "pe_count"),
        max_outstanding=_as_int(settings, "fabric", "max_outstanding"),
        accumulate_cycles=_as_int(settings, "fabric", "accumulate_cycles"),
        rank=_as_int(settings, "fabric", "rank"),
    )
    lmb = LmbConfig(
        mode=settings["run"]["mode"].strip(),
        cache=CacheConfig(
            num_lines=_as_int(settings, "cache", "lines"),
            assoc=_as_int(settings, "cache", "assoc"),
            pipeline_depth=_as_int(settings, "cache", "pipeline_depth"),
            miss_slots=_as_int(settings, "cache", "miss_slots"),
        ),
        rrsh=RrshConfig(
            entries=_as_int(settings, "rrsh", "entries"),
            ways=_as_int(settings, "rrsh", "ways"),
            pending_cap=_as_int(settings, "rrsh", "pending_cap"),
        ),
        tempbuf=TempBufferConfig(entries=_as_int(settings, "tempbuf", "entries")),
        dma=DmaConfig(
            buffers=_as_int(settings, "dmaengine", "buffers"),
            buffer_bytes=_as_int(settings, "dmaengine", "buffer_bytes"),
            desc_slots=_as_int(settings, "dmaengine", "desc_slots"),
        ),
        mshr=MshrConfig(entries=_as_int(settings, "mshr", "entries")),
    )
    dram = DramConfig(
        num_banks=_as_int(settings, "dram", "banks"),
        row_bytes=_as_int(settings, "dram", "row_bytes"),
        t_row_hit=_as_int(settings, "dram", "t_row_hit"),
        t_row_miss=_as_int(settings, "dram", "t_row_miss"),
        queue_depth=_as_int(settings, "dram", "queue_depth"),
        address_bits=_as_int(settings, "dram", "address_bits"),
    )
    system = SystemConfig(fabric=fabric, lmb=lmb,
                          num_lmbs=_as_int(settings, "memsys", "num_lmbs"),
                          dram=dram)
    dims = _as_int_list(settings, "tensor", "dims")
    if len(dims) != 3:
        raise ConfigurationError(f"tensor.dims needs three extents, got {dims}")
    gen = GenSpec(dims=dims, nnz=_as_int(settings, "tensor", "nnz"),
                  seed=_as_seed(settings, "tensor", "seed"),
                  distribution=settings["tensor"]["distribution"].strip())
    out_format = settings["output"]["format"].strip().lower()
    if out_format not in ("json", "csv"):
        raise ConfigurationError(f"output.format must be json or csv, got {out_format!r}")
    return BuiltConfig(
        system=system,
        verify=_as_bool(settings, "run", "verify"),
        seed=_as_seed(settings, "run", "seed"),
        tensor_file=settings["tensor"]["file"].strip(),
        gen=gen,
        sweep_ranks=_as_int_list(settings, "sweep", "ranks"),
        sweep_modes=_as_str_list(settings, "sweep", "modes"),
        out_format=out_format,
        trace_path=settings["output"]["trace"].strip(),
    )


def flat_settings(settings):
    """section.key view of the resolved settings, for run reports."""
    return {f"{sec}.{key}": settings[sec][key]
            for sec in DEFAULTS for key in DEFAULTS[sec]}
