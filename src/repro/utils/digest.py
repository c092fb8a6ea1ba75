"""SHA-1 and SHA-256 without loading OpenSSL.

``import hashlib`` maps OpenSSL's libcrypto into the process (several
MiB of resident memory) even when only a digest or two is needed.
CPython's built-in ``_sha1`` and ``_sha2`` modules (``_sha256`` before
3.12) compute the same digests from the interpreter's own code, so the
package takes them from there; ``hashlib`` is imported only where they
are missing.  Both constructors take the data to hash and return an
object with the ``hashlib`` interface (``update``, ``hexdigest``).
"""

try:
    from _sha1 import sha1
except ImportError:  # a build without the module
    from hashlib import sha1

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha1", "sha256"]
