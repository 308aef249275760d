"""SHA-256 from CPython's own module, not OpenSSL's.

``hashlib.sha256`` loads OpenSSL (``_hashlib``): about 2.5 ms of import
and 3 MiB of resident memory in every process.  Configuration
fingerprints, the runner code cache keys and fault-plan draws need only
SHA-256, which CPython also builds in (``_sha256`` up to 3.11, ``_sha2``
from 3.12).  The digests are byte-identical.  This is a leaf module (no
repro-internal imports), like :mod:`repro.scaling`.
"""

import sys

try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without them
    from hashlib import sha256

__all__ = ["sha256"]
