"""Data transport: the four staging backends behind one client API.

Real, functional implementations (used by real-mode mini-apps and tests):

* ``node-local`` / ``filesystem`` — sharded file KV store (CRC32 shards,
  atomic rename, ``key.pickle``), pointed at tmpfs or a shared directory;
* ``redis`` — a from-scratch TCP RESP server with single-threaded command
  execution, optionally client-sharded into a cluster;
* ``dragon`` — a DragonHPC-style distributed dictionary: concurrent shard
  servers with a binary protocol.

Calibrated performance models for simulated Aurora-scale runs live in
:mod:`repro.transport.models` and the DES-side store in
:mod:`repro.transport.simstore`.

Names resolve on first use (see :mod:`repro`): a simulated run does not
load the real backends or their servers.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "ClientStats": ".base",
    "DataStore": ".datastore",
    "DataStoreClient": ".base",
    "DragonDictionary": ".dragon_backend",
    "DragonShardServer": ".dragon_backend",
    "DragonStoreClient": ".dragon_backend",
    "FileStoreClient": ".kvfile",
    "MiniRedisClient": ".redis_backend",
    "MiniRedisServer": ".redis_backend",
    "OpStats": ".base",
    "RedisStoreClient": ".redis_backend",
    "ServerManager": ".server",
    "ShardedFileStore": ".kvfile",
    "StreamReader": ".streaming",
    "StreamWriter": ".streaming",
    "crc32_shard": ".kvfile",
    "deserialize": ".serializer",
    "make_client": ".datastore",
    "serialize": ".serializer",
    "serialized_nbytes": ".serializer",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
