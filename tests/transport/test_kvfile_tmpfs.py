"""The kvfile store and client tests again, rooted on tmpfs.

The paper's node-local store is a file store on tmpfs, where
``posix_fallocate`` and rename behave differently from a disk file
system. Skipped where ``/dev/shm`` is missing.
"""

import shutil
import tempfile
from pathlib import Path

import pytest

from tests.transport.test_kvfile import (  # noqa: F401 (collected here, on tmpfs)
    test_client_backend_name,
    test_client_clean_all,
    test_client_event_log_records,
    test_client_key_validation,
    test_client_numpy_roundtrip,
    test_client_poll_and_clean,
    test_client_stats_accumulate,
    test_crash_left_file_is_corrupt_not_data,
    test_store_concurrent_writers_readers_atomicity,
    test_store_creates_shard_dirs,
    test_store_keys_and_clear,
    test_store_no_temp_files_left_behind,
    test_store_overwrite,
    test_store_poll_and_delete,
    test_store_read_missing_raises,
    test_store_validation,
    test_store_value_file_named_key_dot_pickle,
    test_store_write_read_roundtrip,
    test_write_failure_is_backend_unavailable,
    test_write_failure_is_retried_and_counted,
)

SHM = Path("/dev/shm")


@pytest.fixture
def kv_root():
    if not SHM.is_dir():
        pytest.skip("no tmpfs at /dev/shm")
    root = Path(tempfile.mkdtemp(prefix="repro-kv-", dir=SHM))
    yield root
    shutil.rmtree(root, ignore_errors=True)
