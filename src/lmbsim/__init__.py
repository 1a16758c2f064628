"""Cycle-level model of a reconfigurable local-memory system for sparse MTTKRP.

The package has three layers:

  * tensor / tensor_io: COO tensors, MTTKRP and CP-ALS reference kernels,
    synthetic generation, file formats;
  * fabric: the PE state machines that issue memory requests and accumulate
    rows, runnable against an instant memory (functional) or the timed model;
  * memsys / dram / engine: the four memory-system modes, the bank model,
    and the cycle engine that ties them together.
"""

from .dram import BEAT_BYTES, Dram, DramConfig
from .engine import (REFERENCE_SPEEDUP, Router, Simulator, SystemConfig,
                     TracePlayer, replay_trace, simulate, verify_output)
from .errors import (ConfigurationError, DataError, DeadlockError, LmbsimError,
                     NumericalError, ProtocolError, VerificationError)
from .fabric import (AddressMap, FabricConfig, MemoryImage, MemoryRequest,
                     PeMachine, ReqKind, RequestTrace, build_machines,
                     fabric_mttkrp_kernel, partition_nonzeros, run_functional)
from .memsys import (MODES, CacheConfig, DmaConfig, Lmb, LmbConfig, MshrConfig,
                     RrshConfig, TempBufferConfig, xor_hash)
from .tensor import (CooTensor, CpAlsResult, FactorMatrix, GenSpec, cp_als,
                     gen_synthetic, mttkrp_mode, mttkrp_oracle)

__version__ = "0.1.0"

__all__ = [
    "AddressMap", "BEAT_BYTES", "CacheConfig", "ConfigurationError",
    "CooTensor", "CpAlsResult", "DataError", "DeadlockError",
    "DmaConfig", "Dram", "DramConfig", "FabricConfig", "FactorMatrix",
    "GenSpec", "Lmb", "LmbConfig", "LmbsimError", "MODES", "MemoryImage",
    "MemoryRequest", "MshrConfig", "NumericalError", "PeMachine",
    "ProtocolError", "REFERENCE_SPEEDUP", "ReqKind", "RequestTrace", "Router",
    "RrshConfig", "Simulator", "SystemConfig", "TempBufferConfig",
    "TracePlayer", "VerificationError", "build_machines", "cp_als",
    "fabric_mttkrp_kernel", "gen_synthetic",
    "mttkrp_mode", "mttkrp_oracle", "partition_nonzeros", "replay_trace",
    "run_functional", "simulate", "verify_output", "xor_hash",
]
