"""INI configuration: defaults, file loading, named presets, flat overrides.

Precedence, lowest to highest: built-in defaults, then the --config file, then
each --preset in the order given, then individual --set/flag overrides.  Every
(section, key) must exist in the schema below; an unknown one is rejected with
its file line when it came from a file.

A class-backed setting's default lives on its config class alone; DEFAULTS
and build() are made from the classes.  A new such setting is a field on its
class plus one line in configs/example.ini.
"""

from __future__ import annotations

import configparser
import copy
import dataclasses

from .dram import DramConfig
from .engine import SystemConfig
from .errors import ConfigurationError
from .fabric import FabricConfig
from .memsys import (CacheConfig, DmaConfig, LmbConfig, MshrConfig, RrshConfig,
                     TempBufferConfig)
from .tensor import GenSpec

# INI keys that are not their field's name
_RENAMED = {"fabric_type": "type", "num_lines": "lines", "num_banks": "banks"}

# each class-backed section: its class, and (key, field, default) per field
_LEAVES = {
    sec: (cls, tuple((_RENAMED.get(f.name, f.name), f.name, f.default)
                     for f in dataclasses.fields(cls)))
    for sec, cls in (("fabric", FabricConfig), ("cache", CacheConfig),
                     ("rrsh", RrshConfig), ("tempbuf", TempBufferConfig),
                     ("dmaengine", DmaConfig), ("mshr", MshrConfig),
                     ("dram", DramConfig))
}


def _leaf_defaults(sec):
    return {key: str(default) for key, _, default in _LEAVES[sec][1]}


DEFAULTS = {
    "run": {
        "mode": LmbConfig().mode,
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
    "fabric": _leaf_defaults("fabric"),
    "memsys": {
        "num_lmbs": str(SystemConfig().num_lmbs),
    },
    **{sec: _leaf_defaults(sec)
       for sec in ("cache", "rrsh", "tempbuf", "dmaengine", "mshr", "dram")},
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
    **{f"baseline-{mode}": {
        "description": f"conventional single block, {what}",
        "values": {
            ("run", "mode"): mode,
            ("memsys", "num_lmbs"): "1",
            ("cache", "lines"): "8192",
            ("cache", "assoc"): "2",
        },
    } for mode, what in (("ip-only", "raw port per PE"),
                         ("cache-only", "everything through the cache"),
                         ("dma-only", "everything as DMA descriptors"))},
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
    except (OSError, UnicodeDecodeError) as exc:
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


@dataclasses.dataclass
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
    leaf = {
        sec: cls(**{name: _as_int(settings, sec, key)
                    if isinstance(default, int) else settings[sec][key].strip()
                    for key, name, default in fields})
        for sec, (cls, fields) in _LEAVES.items()
    }
    lmb = LmbConfig(mode=settings["run"]["mode"].strip(), cache=leaf["cache"],
                    rrsh=leaf["rrsh"], tempbuf=leaf["tempbuf"],
                    dma=leaf["dmaengine"], mshr=leaf["mshr"])
    system = SystemConfig(fabric=leaf["fabric"], lmb=lmb,
                          num_lmbs=_as_int(settings, "memsys", "num_lmbs"),
                          dram=leaf["dram"])
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

