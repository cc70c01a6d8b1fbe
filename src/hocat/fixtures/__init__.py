"""Built-in example categories used by the tests, demos, and docs.

Each fixture is a JSON document in the interchange format.  ``load``
gives the raw parsed form, ``category`` the validated table form plus
the resolved weak equivalence set.
"""

from importlib import resources

from ..fincat import FinCat, RawCategory, load_spec, resolve_weqs, validate_category

NAMES = ("f_id", "f_iso", "f_retr", "f_span", "f_def", "f_z2", "f_retr_def")

__all__ = ["NAMES", "load", "category", "path"]


def path(name: str):
    if name not in NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(NAMES)}")
    return resources.files(__package__).joinpath(f"{name}.json")


def load(name: str) -> RawCategory:
    return load_spec(path(name).read_text(encoding="utf-8"))


def category(name: str) -> tuple[FinCat, frozenset, RawCategory]:
    raw = load(name)
    cat = validate_category(raw)
    return cat, resolve_weqs(cat, raw.weak_equivalences), raw
