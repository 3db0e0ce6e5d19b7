"""The character-table disk cache, one versioned JSON file per degree: loaded
only for a cache directory or a `cache` subcommand."""

import json
import os

from . import characters
from .errors import DomainError, ResourceLimitError
from .partitions import check_partition, enumerate_partitions
from .util import CACHE_ENV

# The largest degree `cache build` writes: a degree-d table has p(d)^2
# entries, and the build's time and size about double with each degree.  At
# the bound, --dmax 20 takes 29 s and writes 77 MB (2-vCPU host, Python 3.11).
TABLE_DEGREE_LIMIT = 20


def default_cache_dir():
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.environ.get(CACHE_ENV) or os.path.join(base, "mixedhurwitz")


def cache_file(d: int, cache_dir=None):
    return os.path.join(cache_dir or default_cache_dir(), f"chartable-{d}.json")


def save_character_table(d: int, cache_dir=None) -> str:
    path = cache_file(d, cache_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    parts = sorted(enumerate_partitions(d))
    entries = [{"lambda": list(lam), "nu": list(nu),
                "chi": str(characters.character(lam, nu))}
               for lam in parts for nu in parts]
    with open(path, "w") as fh:
        json.dump({"version": 1, "degree": d, "entries": entries}, fh)
    return path


def load_character_table(d: int, cache_dir=None) -> bool:
    """Populate the in-memory cache from disk; True when found.  A file that
    does not parse as a whole raises DomainError and leaves the cache as it was."""
    path = cache_file(d, cache_dir)
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError:  # not JSON: truncated, or not text at all
            doc = None
    if not isinstance(doc, dict) or doc.get("version") != 1 \
            or doc.get("degree") != d or not isinstance(doc.get("entries"), list):
        raise DomainError(f"unrecognized cache file {path}")
    table = {}
    for e in doc["entries"]:
        try:
            key = (check_partition(e["lambda"]),
                   check_partition(sorted(e["nu"], reverse=True)))
            table[key] = int(str(e["chi"]))  # str first: 2.5 is refused, not cut
        except (KeyError, TypeError, ValueError, DomainError):
            raise DomainError(f"unrecognized cache file {path}: "
                              f"bad entry {e!r}") from None
    characters._char_cache.update(table)
    return True


def use_cache_dir(cache_dir):
    """Read cached character tables from cache_dir (None: none), each degree
    the first time a character of that degree is needed."""
    tried = set()

    def load_once(d) -> bool:
        """Load degree d's table unless tried before; True if it loaded."""
        if d in tried:
            return False
        tried.add(d)
        try:
            return load_character_table(d, cache_dir)
        except DomainError:  # a corrupt file is passed over; `cache clear` removes it
            return False

    characters._load_table = load_once if cache_dir else None


def cache_command(command, cache_dir, dmax=None) -> dict:
    """The document of `cache build --dmax <dmax>`, `cache info` or
    `cache clear` on cache_dir (None: the default directory)."""
    cache_dir = cache_dir or default_cache_dir()
    if command == "build":
        if dmax < 0:
            raise DomainError(f"--dmax must be >= 0, got {dmax}")
        if dmax > TABLE_DEGREE_LIMIT:
            raise ResourceLimitError(f"--dmax {dmax} is past the cache's "
                                     f"limit {TABLE_DEGREE_LIMIT}")
        return {"built": [save_character_table(d, cache_dir) for d in range(1, dmax + 1)]}
    if command == "info":
        files = []
        if os.path.isdir(cache_dir):
            files = sorted(f for f in os.listdir(cache_dir) if f.startswith("chartable-"))
        return {"cache_dir": cache_dir, "files": files}
    if command == "clear":
        removed = []
        if os.path.isdir(cache_dir):
            for f in sorted(os.listdir(cache_dir)):
                if f.startswith("chartable-") and f.endswith(".json"):
                    os.remove(os.path.join(cache_dir, f))
                    removed.append(f)
        return {"removed": removed}
    raise DomainError("unknown cache command")
